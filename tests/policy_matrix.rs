//! Differential invariant tests across the prefetch × eviction policy
//! grid: every one of the 12 policy combinations ([`grid::POLICY`]'s
//! axes), on a regular and an irregular workload at 4 MiB, through the
//! shared grid checker (`grid_check`).

mod grid_check;

use std::sync::LazyLock;

use grid_check::{audited, bfs_small, vecadd_small, Matrix};
use uvm_core::experiments::grid;

static VECADD: LazyLock<Matrix> =
    LazyLock::new(|| Matrix::new(&grid::POLICY, vec![audited("vecadd", vecadd_small(), 4)]));

static BFS: LazyLock<Matrix> =
    LazyLock::new(|| Matrix::new(&grid::POLICY, vec![audited("bfs", bfs_small(), 4)]));

#[test]
fn vecadd_matrix_audits_conserves_and_reruns_identically() {
    VECADD.audits_conserves_and_reruns_identically();
}

#[test]
fn bfs_matrix_audits_conserves_and_reruns_identically() {
    BFS.audits_conserves_and_reruns_identically();
}

#[test]
fn policy_grid_is_jobs_invariant() {
    VECADD.is_jobs_invariant();
    BFS.is_jobs_invariant();
}

/// The oracle's future-access map, the LFU evictor's touch counts and the
/// random evictor's RNG must survive the round-trip.
#[test]
fn snapshot_restore_mid_run_under_non_default_policies() {
    VECADD.restores_mid_run();
    BFS.restores_mid_run();
}
