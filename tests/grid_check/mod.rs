//! The differential checker every axis of every named grid runs through.
//!
//! A [`Matrix`] is one grid's axes ([`grid::GRIDS`]) over small
//! oversubscribed workloads. Every cell must uphold the contracts the
//! stock driver does:
//!
//! * the per-batch cross-subsystem audit (`DriverPolicy::audit_enabled`)
//!   passes on every serviced batch;
//! * page residency is conserved after every batch — the VA space never
//!   holds more GPU-resident pages than the memory manager has resident
//!   blocks, and the manager never exceeds its capacity (peer-held pages
//!   are not GPU-resident, so the bound holds under the peer backends);
//! * running batch-by-batch is bit-identical to `run()` (the full
//!   serialized `RunResult`, not just summary numbers);
//! * a run killed after batch 3 and continued from its snapshot,
//!   round-tripped through JSON, finishes bit-identical — so the oracle's
//!   future map, LFU touch counts, the random evictor's RNG, the peer
//!   owner directory and the client ledger all survive the on-disk
//!   encoding;
//! * fanning the grid across `--jobs 4` workers changes nothing.
//!
//! `tests/policy_matrix.rs`, `tests/backend_matrix.rs` and
//! `tests/multitenant.rs` apply it to the policy, backend and fairness
//! axes, so a new axis value inherits the whole layer.

// Each test binary builds only the workloads its grid runs on.
#![allow(dead_code)]

use std::sync::{Mutex, OnceLock};

use uvm_core::experiments::grid::{CellSpec, Grid, GridDef, GridWorkload};
use uvm_core::parallel;
use uvm_core::{
    Progress, RunHints, RunInProgress, RunResult, SystemConfig, SystemSnapshot, UvmSystem,
};
use uvm_driver::policy::DriverPolicy;
use uvm_sim::mem::PAGES_PER_VABLOCK;
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{graph_bfs, vecadd};

/// The harness-wide default seed (`uvm_bench::SEED`).
pub const SEED: u64 = 0x5C21;

const MIB: u64 = 1024 * 1024;

/// The batch after which a run is killed and restored.
const KILL_AFTER_BATCH: u64 = 3;

/// Serializes the fan-outs (the worker budget is process-global).
static JOBS_GUARD: Mutex<()> = Mutex::new(());

/// `f` under a `--jobs 4` worker budget.
fn at_jobs_4<R>(f: impl FnOnce() -> R) -> R {
    let _g = JOBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    parallel::configure_jobs(4);
    let out = f();
    parallel::configure_jobs(1);
    out
}

/// `workload` on the small test GPU with `mem_mib` of device memory,
/// audited on every batch.
pub fn audited(name: &'static str, workload: Workload, mem_mib: u64) -> GridWorkload {
    let config =
        SystemConfig::test_small(mem_mib * MIB).with_policy(DriverPolicy::default().audited(true));
    GridWorkload { name, workload, config }
}

fn name(cell: &CellSpec<'_>) -> String {
    let labels: Vec<_> = cell.values.iter().map(|v| v.label()).collect();
    format!("{}/{}", cell.workload.name, labels.join("/"))
}

fn json(result: &RunResult) -> String {
    serde_json::to_string(result).expect("result serializes")
}

/// Run `cell` batch by batch at [`SEED`], checking residency conservation
/// after every batch. With `restore`, the run is killed after
/// [`KILL_AFTER_BATCH`] and continues from a copy restored from its
/// snapshot's JSON.
fn stepped(cell: &CellSpec<'_>, restore: bool) -> String {
    let workload = &cell.workload.workload;
    let mut run = UvmSystem::new(cell.config().with_seed(SEED))
        .start(workload, &RunHints::default())
        .expect("run starts");
    let capacity = run.driver().memory().capacity_blocks();
    let mut restored = false;
    loop {
        let progress = run
            .advance_batch(workload)
            .unwrap_or_else(|err| panic!("{}: audit/service failed: {err}", name(cell)));
        let resident_blocks = run.driver().memory().resident_blocks();
        let resident_pages = run.driver().va_space.total_resident_pages();
        assert!(
            resident_blocks <= capacity,
            "{}: {resident_blocks} resident blocks exceed capacity {capacity}",
            name(cell)
        );
        assert!(
            resident_pages <= resident_blocks * PAGES_PER_VABLOCK,
            "{}: {resident_pages} resident pages in {resident_blocks} blocks",
            name(cell)
        );
        match progress {
            Progress::Finished => break,
            Progress::Batch(KILL_AFTER_BATCH) if restore => {
                let text = serde_json::to_string(&run.snapshot(workload, 0)).expect("serializes");
                let back: SystemSnapshot = serde_json::from_str(&text).expect("snapshot parses");
                run = RunInProgress::restore(&back, workload).expect("snapshot restores");
                restored = true;
            }
            Progress::Batch(_) => {}
        }
    }
    assert_eq!(restored, restore, "{}: finished before the kill point", name(cell));
    json(&run.into_result(workload))
}

/// One grid's axes over a set of workloads, with its one-shot results
/// computed once and shared by every check.
pub struct Matrix {
    grid: Grid,
    oneshot: OnceLock<Vec<String>>,
}

impl Matrix {
    /// `def`'s axes over `workloads`.
    pub fn new(def: &GridDef, workloads: Vec<GridWorkload>) -> Matrix {
        Matrix { grid: Grid { workloads, axes: (def.build)(true).axes }, oneshot: OnceLock::new() }
    }

    /// `--jobs 1`: every cell's one-shot run, in submission order on this
    /// thread. Each cell must evict, or the matrix tests nothing.
    fn oneshot(&self) -> &[String] {
        self.oneshot.get_or_init(|| {
            self.grid
                .cells()
                .iter()
                .map(|cell| {
                    let result = cell.run(SEED);
                    assert!(
                        result.evictions > 0,
                        "{}: oversubscription must force evictions",
                        name(cell)
                    );
                    json(&result)
                })
                .collect()
        })
    }

    /// Assert every cell's `runs` equal its one-shot run.
    fn assert_oneshot(&self, runs: &[String], what: &str) {
        for ((cell, oneshot), run) in self.grid.cells().iter().zip(self.oneshot()).zip(runs) {
            assert_eq!(oneshot, run, "{}: {what} diverged", name(cell));
        }
    }

    /// Every cell audits and conserves residency on every batch, and its
    /// stepped run is bit-identical to the one-shot run.
    pub fn audits_conserves_and_reruns_identically(&self) {
        self.oneshot();
        let runs = at_jobs_4(|| parallel::map(self.grid.cells(), |cell| stepped(&cell, false)));
        self.assert_oneshot(&runs, "stepped run");
    }

    /// Every cell killed mid-run and restored from JSON finishes
    /// bit-identical to the one-shot run.
    pub fn restores_mid_run(&self) {
        self.oneshot();
        let runs = at_jobs_4(|| parallel::map(self.grid.cells(), |cell| stepped(&cell, true)));
        self.assert_oneshot(&runs, "restored run");
    }

    /// The grid engine's `--jobs 4` fan-out matches `--jobs 1`.
    pub fn is_jobs_invariant(&self) {
        self.oneshot();
        let fanned = at_jobs_4(|| self.grid.run(SEED));
        let runs: Vec<String> = fanned.cells.iter().map(|c| json(&c.result)).collect();
        self.assert_oneshot(&runs, "--jobs 4 run");
    }
}

/// Regular workload: page-strided vecadd, ~9 MiB footprint.
pub fn vecadd_small() -> Workload {
    vecadd::build(vecadd::VecAddParams {
        warps: 8,
        statements: 3,
        coalesced: false,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    })
}

/// Irregular workload: pointer-chasing BFS, ~5 MiB footprint.
pub fn bfs_small() -> Workload {
    graph_bfs::build(graph_bfs::GraphBfsParams {
        vertices: 2048,
        avg_degree: 4,
        vdata_bytes: 2048,
        frontier_per_warp: 32,
        max_levels: 8,
        compute_per_vertex: SimDuration::from_nanos(100),
        seed: 0xBF5,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    })
}
