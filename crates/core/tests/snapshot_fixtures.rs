//! Committed snapshot fixtures pin the snapshot format.
//!
//! `fixtures/vecadd-4mib-batch3.v4.json` is a format-v4 checkpoint of an
//! 8-warp vecadd on a 4 MiB GPU (so it evicts), taken after batch 3 with the
//! Titan V's spurious-refault and duplicate probabilities. It was written
//! by the build before the GPU containers moved to bitmaps, slot arrays and
//! sorted vectors, so it holds a populated page table, full μTLBs, warp
//! scoreboards and refault queues, buffered faults and a mid-stream RNG in
//! the old encoding. This build must restore it and finish bit-identically
//! to a one-shot run, and must write the same bytes at the same instant.

use std::path::PathBuf;

use uvm_core::sim::SNAPSHOT_VERSION;
use uvm_core::workloads::vecadd::{self, VecAddParams};
use uvm_core::workloads::workload::Workload;
use uvm_core::{Progress, RunHints, RunInProgress, SystemConfig, SystemSnapshot, UvmSystem};

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/vecadd-4mib-batch3.v4.json")
}

fn workload() -> Workload {
    vecadd::build(VecAddParams {
        warps: 8,
        statements: 3,
        coalesced: false,
        cpu_init: None,
    })
}

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::test_small(4 << 20);
    cfg.gpu.spurious_refault_prob = 0.12;
    cfg.gpu.same_utlb_dup_prob = 0.25;
    cfg
}

#[test]
fn v4_vecadd_fixture_restores_bit_identically() {
    let snap = SystemSnapshot::load(&fixture()).expect("fixture loads");
    assert_eq!((snap.version, SNAPSHOT_VERSION), (4, 4));
    assert_eq!(snap.batches, 3);
    let w = workload();
    let straight = UvmSystem::new(config()).run(&w);
    let mut resumed = RunInProgress::restore(&snap, &w).expect("fixture restores");
    while resumed.advance_batch(&w).expect("batch services") != Progress::Finished {}
    assert_eq!(
        serde_json::to_string(&straight).unwrap(),
        serde_json::to_string(&resumed.into_result(&w)).unwrap(),
        "the restored fixture must finish exactly as the uninterrupted run"
    );
}

#[test]
fn this_build_writes_the_fixture_byte_for_byte() {
    let w = workload();
    let mut run = UvmSystem::new(config())
        .start(&w, &RunHints::default())
        .expect("run starts");
    let snap = loop {
        match run.advance_batch(&w).expect("batch services") {
            Progress::Batch(3) => break run.snapshot(&w, 0),
            Progress::Batch(_) => {}
            Progress::Finished => panic!("run finished before batch 3"),
        }
    };
    let written = serde_json::to_string(&snap).unwrap();
    let committed = std::fs::read_to_string(fixture()).expect("fixture reads");
    assert!(
        written == committed,
        "the snapshot encoding moved: the fixture no longer matches"
    );
}
