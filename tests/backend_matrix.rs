//! Differential invariant tests across the servicing-backend grid: every
//! [`BackendKind`](uvm_driver::backend::BackendKind) ([`grid::ARCHITECTURES`]'s
//! axis), on the four paper workload families at CI-smoke scale and
//! ~125 % oversubscription, through the shared grid checker
//! (`grid_check`). Every backend therefore evicts, and the peer backends
//! spill.

mod grid_check;

use std::sync::LazyLock;

use grid_check::{audited, Matrix};
use uvm_core::experiments::grid;
use uvm_core::experiments::suite::oversub_memory_mb;
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{attention, gauss_seidel, graph_bfs, stream};

/// The backend axis over `workload`.
fn backends(name: &'static str, workload: Workload) -> Matrix {
    let mem = oversub_memory_mb(&workload);
    Matrix::new(&grid::ARCHITECTURES, vec![audited(name, workload, mem)])
}

static STREAM: LazyLock<Matrix> = LazyLock::new(|| {
    backends(
        "stream",
        stream::build(stream::StreamParams {
            warps: 64,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 4,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
    )
});

static GAUSS_SEIDEL: LazyLock<Matrix> = LazyLock::new(|| {
    backends(
        "gauss-seidel",
        gauss_seidel::build(gauss_seidel::GaussSeidelParams {
            rows: 512,
            pages_per_row: 4,
            warps: 32,
            iters: 2,
            compute_per_row: SimDuration::from_micros(2),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
    )
});

static BFS: LazyLock<Matrix> = LazyLock::new(|| {
    backends(
        "bfs",
        graph_bfs::build(graph_bfs::GraphBfsParams {
            vertices: 2048,
            vdata_bytes: 1024,
            max_levels: 6,
            ..graph_bfs::GraphBfsParams::default()
        }),
    )
});

static ATTN: LazyLock<Matrix> = LazyLock::new(|| {
    backends(
        "attn",
        attention::build(attention::AttentionParams {
            kv_rows: 1024,
            batches: 3,
            queries_per_batch: 8,
            hot_rows: 64,
            ..attention::AttentionParams::default()
        }),
    )
});

static FAMILIES: [&LazyLock<Matrix>; 4] = [&STREAM, &GAUSS_SEIDEL, &BFS, &ATTN];

#[test]
fn stream_matrix_audits_conserves_and_reruns_identically() {
    STREAM.audits_conserves_and_reruns_identically();
}

#[test]
fn gauss_seidel_matrix_audits_conserves_and_reruns_identically() {
    GAUSS_SEIDEL.audits_conserves_and_reruns_identically();
}

#[test]
fn bfs_matrix_audits_conserves_and_reruns_identically() {
    BFS.audits_conserves_and_reruns_identically();
}

#[test]
fn attn_matrix_audits_conserves_and_reruns_identically() {
    ATTN.audits_conserves_and_reruns_identically();
}

#[test]
fn backend_grid_is_jobs_invariant() {
    for family in FAMILIES {
        family.is_jobs_invariant();
    }
}

/// The peer owner directory, the GPU-driven wake schedule and the backend
/// selection itself must survive the round-trip.
#[test]
fn snapshot_restore_mid_run_under_non_stock_backends() {
    for family in FAMILIES {
        family.restores_mid_run();
    }
}
