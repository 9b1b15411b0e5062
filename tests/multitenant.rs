//! Multi-tenant determinism and attribution invariants.
//!
//! The tenancy subsystem must not disturb any of the harness-wide
//! bit-identity contracts:
//!
//! * a single client routed through the client table is byte-identical
//!   to the same workload run without tenancy (the ledger only *adds*
//!   attribution fields, it never perturbs scheduling);
//! * a composed multi-client run serviced batch-by-batch is
//!   indistinguishable from `run()`, and its per-record attribution sums
//!   reconcile exactly with the driver's client ledger;
//! * the fairness axis ([`grid::MULTITENANT`]'s) passes the shared grid
//!   checker (`grid_check`) under every policy on a 2-client composition.

mod grid_check;

use std::sync::LazyLock;

use grid_check::{audited, bfs_small, vecadd_small, Matrix, SEED};
use uvm_core::experiments::grid;
use uvm_core::tenancy::{compose, ClientSpec, InterleaveMode};
use uvm_core::{Progress, RunHints, SystemConfig, UvmSystem};
use uvm_driver::clients::FairnessPolicy;
use uvm_driver::policy::DriverPolicy;

/// Audited, seeded config at `mem_mb` device memory.
fn config(mem_mb: u64) -> SystemConfig {
    SystemConfig::test_small(mem_mb * 1024 * 1024)
        .with_policy(DriverPolicy::default().audited(true))
        .with_seed(SEED)
}

/// Routing one client through the tenancy machinery must not change a
/// single observable bit of the run: the records gain attribution fields
/// (which we strip before comparing) but every timing, fault count, and
/// eviction stays identical to the stock driver.
#[test]
fn single_client_through_tenancy_is_byte_identical() {
    for fairness in [FairnessPolicy::None, FairnessPolicy::RoundRobin] {
        let direct = vecadd_small();
        let (composed, tenancy) = compose(
            &[ClientSpec::new("solo", direct.clone())],
            InterleaveMode::Coschedule,
            fairness,
        );
        // Single-spec composition is the identity on the workload itself.
        assert_eq!(
            serde_json::to_string(&composed).expect("workload serializes"),
            serde_json::to_string(&direct).expect("workload serializes"),
            "{}: composing one client must not rewrite the workload",
            fairness.name()
        );

        let base = UvmSystem::new(config(4)).run(&direct);
        let tenant = UvmSystem::new(config(4).with_tenancy(tenancy)).run(&composed);
        assert!(base.evictions > 0, "baseline must run oversubscribed");

        // Attribution is present and complete: every fetched fault lands
        // on the sole client, none are throttled by a pure-attribution
        // policy.
        let mut scrubbed = tenant.clone();
        for rec in &mut scrubbed.records {
            assert_eq!(rec.client_faults.len(), 1, "{}: one client expected", fairness.name());
            assert_eq!(
                rec.client_faults.iter().sum::<u64>(),
                rec.raw_faults,
                "{}: batch {} arrivals must all be attributed",
                fairness.name(),
                rec.seq
            );
            assert_eq!(rec.throttled_faults, 0, "{}: nothing to throttle", fairness.name());
            rec.client_faults = Vec::new();
        }
        assert_eq!(
            serde_json::to_string(&base).expect("result serializes"),
            serde_json::to_string(&scrubbed).expect("result serializes"),
            "{}: tenancy perturbed a single-client run at seed {SEED:#x}",
            fairness.name()
        );
    }
}

/// Two coscheduled clients under an active throttle: stepped servicing is
/// bit-identical to `run()`, and the record-level attribution sums
/// reconcile exactly with the driver's client ledger at the end.
#[test]
fn two_client_stepped_run_matches_oneshot_and_ledger_conserves() {
    let specs = [ClientSpec::new("stream", vecadd_small()), ClientSpec::new("bfs", bfs_small())];
    let (workload, tenancy) =
        compose(&specs, InterleaveMode::Coschedule, FairnessPolicy::FaultQuota(16));
    assert!(8 * 1024 * 1024 < workload.footprint_bytes(), "composed run must be oversubscribed");

    let oneshot = UvmSystem::new(config(8).with_tenancy(tenancy.clone())).run(&workload);
    assert!(oneshot.evictions > 0, "oversubscription must force evictions");
    let oneshot = serde_json::to_string(&oneshot).expect("result serializes");

    let mut run = UvmSystem::new(config(8).with_tenancy(tenancy))
        .start(&workload, &RunHints::default())
        .expect("run starts");
    while run.advance_batch(&workload).expect("audit/service passes") != Progress::Finished {}

    // Ledger ground truth, captured before the run is consumed.
    let ledger = run.driver().clients();
    assert!(ledger.is_enabled());
    assert_eq!(ledger.num_clients(), 2);
    let counters = ledger.counters().to_vec();
    let total_throttled = ledger.total_throttled();
    let total_faults = ledger.total_faults();
    assert!(total_throttled > 0, "FaultQuota(16) must clip a 2-client coschedule");

    let result = run.into_result(&workload);
    let mut rec_faults = [0u64; 2];
    let mut rec_throttled = 0u64;
    for rec in &result.records {
        for (c, &f) in rec.client_faults.iter().enumerate() {
            rec_faults[c] += f;
        }
        rec_throttled += rec.throttled_faults;
    }
    for (c, counter) in counters.iter().enumerate() {
        assert_eq!(
            counter.faults, rec_faults[c],
            "client {c}: ledger faults must equal the record sums"
        );
        assert!(counter.faults > 0, "client {c} must fault");
    }
    assert_eq!(total_faults, rec_faults.iter().sum::<u64>());
    assert_eq!(total_throttled, rec_throttled, "ledger throttle count must equal record sums");

    let stepped = serde_json::to_string(&result).expect("result serializes");
    assert_eq!(oneshot, stepped, "stepped multi-client run diverged at seed {SEED:#x}");
}

/// Two coscheduled clients (the weight-2 BFS gives the weighted share
/// something to weigh) at 8 MiB, under every fairness policy.
static TWO_CLIENTS: LazyLock<Matrix> = LazyLock::new(|| {
    let specs = [
        ClientSpec::new("stream", vecadd_small()),
        ClientSpec::new("bfs", bfs_small()).with_weight(2),
    ];
    let (workload, tenancy) = compose(&specs, InterleaveMode::Coschedule, FairnessPolicy::None);
    let mut clients = audited("stream+bfs", workload, 8);
    clients.config.tenancy = tenancy;
    Matrix::new(&grid::MULTITENANT, vec![clients])
});

#[test]
fn fairness_matrix_audits_conserves_and_reruns_identically() {
    TWO_CLIENTS.audits_conserves_and_reruns_identically();
}

#[test]
fn multitenant_sweep_is_jobs_invariant() {
    TWO_CLIENTS.is_jobs_invariant();
}

/// The client ledger (counters, ranges, fairness state) must survive the
/// round-trip.
#[test]
fn snapshot_restore_mid_run_with_two_clients() {
    TWO_CLIENTS.restores_mid_run();
}
