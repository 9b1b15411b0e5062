//! The grid engine: `SystemConfig` axes × named workloads.
//!
//! The paper's evaluation is a set of workload × configuration sweeps
//! (Fig. 9's batch-size sweep, Table 4's app × prefetch matrix). A
//! [`Grid`] describes one such sweep as data: named workloads, each
//! carrying the base config it needs, and [`Axis`]es whose labelled
//! values edit that config. [`Grid::cells`] enumerates the cross product
//! workload-major, then each axis in order (the first axis outermost);
//! [`Grid::run`] fans the cells out through [`parallel::map`], whose
//! submission-order results make every report byte-identical for any
//! `--jobs N`.
//!
//! Reports are data too. A column is a header plus a formatter over one
//! row, and one renderer lays rows out behind label columns taken from
//! the axis names (plus `Workload` when the grid has more than
//! one workload). A row is a cell, or one client of a cell for the
//! multi-tenant per-client table.
//!
//! Three grids are defined here, one per extension sweep ([`GRIDS`]):
//!
//! * [`POLICY`] (`ext-policy`): every prefetch × eviction policy over two
//!   regular (vecadd, gauss-seidel) and two irregular (graph BFS,
//!   attention) workloads. Streaming rewards the tree and stride
//!   prefetchers alike; Gauss-Seidel's row sweep turns aggressive
//!   prefetching into eviction churn under oversubscription (Figs. 15/16);
//!   pointer chasing and skewed gathers leave a reactive prefetcher
//!   nothing to learn, so only the oracle still wins.
//! * [`MULTITENANT`] (`ext-multitenant`): three co-scheduled clients
//!   (dense stream, pointer-chasing BFS, weight-2 attention) under every
//!   [`FairnessPolicy`], with admission throttling, the Jain index over
//!   the clients' mean fault-service latencies, and per-client p50/p99
//!   latency (fault-buffer arrival → batch close).
//! * [`ARCHITECTURES`] (`ext-architectures`): every [`BackendKind`] over
//!   stream, gauss-seidel, BFS and attention, with the fault-service
//!   latency breakdown and migration traffic by source. GPU-driven
//!   servicing has an exactly-zero unmap column; the peer backends turn
//!   host writeback into interconnect spills and fetches.
//!
//! Every workload runs at ~125 % oversubscription
//! ([`suite::oversub_memory_mb`]).

use std::collections::BTreeMap;

use serde::Serialize;
use uvm_driver::backend::BackendKind;
use uvm_driver::batch::BatchRecord;
use uvm_driver::clients::FairnessPolicy;
use uvm_driver::policy::DriverPolicy;
use uvm_driver::{EvictionPolicyKind, PrefetchPolicyKind};
use uvm_sim::time::SimDuration;
use uvm_stats::{grouped_percentile, jain_index};
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{attention, gauss_seidel, graph_bfs, stream, vecadd};

use crate::config::SystemConfig;
use crate::experiments::suite::{self, experiment_config};
use crate::parallel;
use crate::system::{RunResult, UvmSystem};
use crate::tenancy::{compose, ClientSpec, InterleaveMode};

/// One labelled value of an [`Axis`]: an edit to a cell's config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// The driver's prefetch policy.
    Prefetch(PrefetchPolicyKind),
    /// The driver's eviction policy.
    Evict(EvictionPolicyKind),
    /// The fault-servicing architecture.
    Backend(BackendKind),
    /// The multi-tenant admission policy (`tenancy.fairness`).
    Fairness(FairnessPolicy),
}

impl AxisValue {
    /// The value's label in report rows.
    pub fn label(self) -> &'static str {
        match self {
            AxisValue::Prefetch(p) => p.name(),
            AxisValue::Evict(e) => e.name(),
            AxisValue::Backend(b) => b.name(),
            AxisValue::Fairness(f) => f.name(),
        }
    }

    /// `config` with this value applied.
    fn apply(self, mut config: SystemConfig) -> SystemConfig {
        match self {
            AxisValue::Prefetch(p) => config.policy = config.policy.prefetcher(p),
            AxisValue::Evict(e) => config.policy = config.policy.evictor(e),
            AxisValue::Backend(b) => config.backend = b,
            AxisValue::Fairness(f) => config.tenancy.fairness = f,
        }
        config
    }
}

/// A named list of values; the name heads the axis's label column.
#[derive(Debug, Clone)]
pub struct Axis {
    /// Label-column header.
    pub name: &'static str,
    /// The values, in report order.
    pub values: Vec<AxisValue>,
}

impl Axis {
    /// Every prefetch policy.
    fn prefetch() -> Axis {
        Axis { name: "Prefetch", values: PrefetchPolicyKind::ALL.map(AxisValue::Prefetch).to_vec() }
    }

    /// Every eviction policy.
    fn evict() -> Axis {
        Axis { name: "Evict", values: EvictionPolicyKind::ALL.map(AxisValue::Evict).to_vec() }
    }

    /// Every servicing backend.
    fn backend() -> Axis {
        Axis { name: "Backend", values: BackendKind::ALL.map(AxisValue::Backend).to_vec() }
    }

    /// Every fairness policy (the fault quota at 64 faults per client).
    fn fairness() -> Axis {
        let policies = [
            FairnessPolicy::None,
            FairnessPolicy::RoundRobin,
            FairnessPolicy::FaultQuota(64),
            FairnessPolicy::WeightedShare,
        ];
        Axis { name: "Policy", values: policies.map(AxisValue::Fairness).to_vec() }
    }
}

/// A workload plus the base config its cells start from.
#[derive(Debug, Clone)]
pub struct GridWorkload {
    /// Label in the `Workload` column.
    pub name: &'static str,
    /// The workload every cell of this row runs.
    pub workload: Workload,
    /// Base config, before the axis values apply.
    pub config: SystemConfig,
}

impl GridWorkload {
    /// `workload` on the experiment GPU at ~125 % oversubscription.
    pub fn oversubscribed(name: &'static str, workload: Workload) -> GridWorkload {
        let config = experiment_config(suite::oversub_memory_mb(&workload));
        GridWorkload { name, workload, config }
    }
}

/// Named workloads × config axes.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Row-major outer dimension.
    pub workloads: Vec<GridWorkload>,
    /// Inner dimensions, the first outermost.
    pub axes: Vec<Axis>,
}

/// One cell before it runs: a workload and one value per axis.
#[derive(Debug, Clone)]
pub struct CellSpec<'g> {
    /// The cell's workload.
    pub workload: &'g GridWorkload,
    /// One value per axis, in axis order.
    pub values: Vec<AxisValue>,
}

impl CellSpec<'_> {
    /// The workload's base config with every axis value applied.
    pub fn config(&self) -> SystemConfig {
        self.values.iter().fold(self.workload.config.clone(), |c, v| v.apply(c))
    }

    /// Run the cell to completion at `seed`.
    pub fn run(&self, seed: u64) -> RunResult {
        UvmSystem::new(self.config().with_seed(seed)).run(&self.workload.workload)
    }
}

impl Grid {
    /// Every cell: workload-major, then each axis in order.
    pub fn cells(&self) -> Vec<CellSpec<'_>> {
        let mut cells: Vec<CellSpec<'_>> = self
            .workloads
            .iter()
            .map(|workload| CellSpec { workload, values: Vec::new() })
            .collect();
        for axis in &self.axes {
            cells = cells
                .into_iter()
                .flat_map(|cell| {
                    axis.values.iter().map(move |&v| {
                        let mut values = cell.values.clone();
                        values.push(v);
                        CellSpec { workload: cell.workload, values }
                    })
                })
                .collect();
        }
        cells
    }

    /// Run every cell at `seed` across the configured worker pool.
    pub fn run(&self, seed: u64) -> GridResult {
        let named = self.workloads.len() > 1;
        let mut headers = if named { vec!["Workload"] } else { Vec::new() };
        headers.extend(self.axes.iter().map(|a| a.name));
        let cells = parallel::map(self.cells(), |spec| {
            let mut labels = if named { vec![spec.workload.name] } else { Vec::new() };
            labels.extend(spec.values.iter().map(|v| v.label()));
            Cell { labels, config: spec.config(), result: spec.run(seed) }
        });
        GridResult { headers, cells }
    }
}

/// One finished cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Label-column values (see [`GridResult::headers`]).
    pub labels: Vec<&'static str>,
    /// The config the cell ran under.
    pub config: SystemConfig,
    /// The run.
    pub result: RunResult,
}

impl Cell {
    /// `f` summed over the run's batch records.
    fn total(&self, f: fn(&BatchRecord) -> u64) -> u64 {
        self.result.records.iter().map(f).sum()
    }
}

/// A report column: a header and a formatter over one row — row `i` of a
/// cell, where `i` is always 0 outside per-client tables.
#[derive(Clone, Copy)]
struct Column {
    header: &'static str,
    value: fn(&Cell, usize) -> String,
}

/// Every cell of a run grid, in [`Grid::cells`] order.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Label-column headers: `Workload` (multi-workload grids) then the
    /// axis names.
    pub headers: Vec<&'static str>,
    /// The cells.
    pub cells: Vec<Cell>,
}

impl GridResult {
    /// The cell whose labels are `labels`.
    pub fn cell(&self, labels: &[&str]) -> Option<&Cell> {
        self.cells.iter().find(|c| c.labels == labels)
    }

    /// A table of `per_cell(cell)` rows per cell: the label columns, then
    /// `columns`.
    fn table(
        &self,
        caption: Option<&'static str>,
        per_cell: fn(&Cell) -> usize,
        columns: &[Column],
    ) -> Table {
        let mut headers = self.headers.clone();
        headers.extend(columns.iter().map(|c| c.header));
        let rows = self
            .cells
            .iter()
            .flat_map(|cell| (0..per_cell(cell)).map(move |i| (cell, i)))
            .map(|(cell, i)| {
                let labels = cell.labels.iter().map(|l| l.to_string());
                labels.chain(columns.iter().map(|c| (c.value)(cell, i))).collect()
            })
            .collect();
        Table { caption, headers, rows }
    }
}

/// One report table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Line printed above the table.
    pub caption: Option<&'static str>,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// Formatted rows.
    pub rows: Vec<Vec<String>>,
}

/// A grid's rendered report (also its `--json` form).
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// First line of the report.
    pub heading: &'static str,
    /// The tables, in order.
    pub tables: Vec<Table>,
}

impl Report {
    /// The report as text: the heading, then each caption and table.
    pub fn render(&self) -> String {
        let mut out = self.heading.to_string();
        for table in &self.tables {
            out.push('\n');
            if let Some(caption) = table.caption {
                out.push_str(caption);
                out.push('\n');
            }
            let mut t = uvm_stats::Table::new(table.headers.clone());
            for row in &table.rows {
                t.row(row.clone());
            }
            out.push_str(&t.render());
        }
        out
    }
}

/// A named grid: what `paper grid <name>` and its registry id run.
pub struct GridDef {
    /// `paper grid` name.
    pub name: &'static str,
    /// Registry id (golden `golden/<id>.txt`, quick `<id>-quick`).
    pub id: &'static str,
    /// Registry banner title.
    pub title: &'static str,
    /// First line of the report.
    pub heading: &'static str,
    /// The grid; `quick` selects the CI-smoke problem sizes.
    pub build: fn(quick: bool) -> Grid,
    /// The report tables.
    pub tables: fn(&GridResult) -> Vec<Table>,
}

impl GridDef {
    /// Run the grid at `seed`.
    pub fn run(&self, seed: u64, quick: bool) -> GridResult {
        (self.build)(quick).run(seed)
    }

    /// The report for a run of this grid.
    pub fn report(&self, result: &GridResult) -> Report {
        Report { heading: self.heading, tables: (self.tables)(result) }
    }
}

/// Every named grid, in registry order.
pub static GRIDS: [&GridDef; 3] = [&POLICY, &MULTITENANT, &ARCHITECTURES];

/// One row per cell.
fn one_row(_: &Cell) -> usize {
    1
}

/// `ns` as milliseconds at two decimals.
fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// `bytes` as MiB at one decimal.
fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

const KERNEL_MS: Column =
    Column { header: "Kernel (ms)", value: |c, _| ms(c.result.kernel_time.as_nanos()) };
const BATCHES: Column =
    Column { header: "Batches", value: |c, _| c.result.num_batches.to_string() };

/// The pluggable-policy sweep: prefetch × eviction × four workloads.
pub static POLICY: GridDef = GridDef {
    name: "policy",
    id: "ext-policy",
    title: "Extension — pluggable policy sweep (prefetch x eviction)",
    heading: "Extension — policy sweep (prefetch x eviction grid, ~125% oversubscription)",
    build: policy_grid,
    tables: |r| {
        vec![r.table(
            None,
            one_row,
            &[
                KERNEL_MS,
                BATCHES,
                Column {
                    header: "Migrated",
                    value: |c, _| c.total(|b| b.pages_migrated).to_string(),
                },
                Column {
                    header: "Prefetched",
                    value: |c, _| c.total(|b| b.prefetched_pages).to_string(),
                },
                Column { header: "Evictions", value: |c, _| c.result.evictions.to_string() },
            ],
        )]
    },
};

fn policy_grid(quick: bool) -> Grid {
    let init = Some(CpuInitPolicy::SingleThread);
    let workloads = vec![
        GridWorkload::oversubscribed(
            "vecadd",
            vecadd::build(vecadd::VecAddParams {
                warps: if quick { 128 } else { 256 },
                statements: if quick { 6 } else { 8 },
                coalesced: true,
                cpu_init: init,
            }),
        ),
        GridWorkload::oversubscribed(
            "gauss-seidel",
            gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: if quick { 512 } else { 1024 },
                pages_per_row: 4,
                warps: if quick { 32 } else { 64 },
                iters: 2,
                compute_per_row: SimDuration::from_micros(2),
                cpu_init: init,
            }),
        ),
        GridWorkload::oversubscribed(
            "graph-bfs",
            graph_bfs::build(graph_bfs::GraphBfsParams {
                vertices: if quick { 4096 } else { 8192 },
                vdata_bytes: 1024,
                ..graph_bfs::GraphBfsParams::default()
            }),
        ),
        GridWorkload::oversubscribed(
            "attention",
            attention::build(attention::AttentionParams {
                kv_rows: if quick { 2048 } else { 8192 },
                batches: if quick { 4 } else { 8 },
                queries_per_batch: if quick { 8 } else { 16 },
                hot_rows: if quick { 128 } else { 256 },
                ..attention::AttentionParams::default()
            }),
        ),
    ];
    Grid { workloads, axes: vec![Axis::prefetch(), Axis::evict()] }
}

/// The multi-tenant fairness sweep: one 3-client coschedule × every
/// fairness policy.
pub static MULTITENANT: GridDef = GridDef {
    name: "multitenant",
    id: "ext-multitenant",
    title: "Extension — multi-tenant fairness sweep (3 clients)",
    heading:
        "Extension — multi-tenant fairness sweep (3 clients, coschedule, ~125% oversubscription)",
    build: multitenant_grid,
    tables: |r| {
        let summary = [
            KERNEL_MS,
            BATCHES,
            Column {
                header: "Throttled",
                value: |c, _| c.total(|b| b.throttled_faults).to_string(),
            },
            Column {
                header: "Jain",
                value: |c, _| format!("{:.4}", jain_index(&mean_latencies(c))),
            },
        ];
        let clients = [
            Column { header: "Client", value: |c, i| c.config.tenancy.clients[i].name.clone() },
            Column {
                header: "Weight",
                value: |c, i| c.config.tenancy.clients[i].weight.to_string(),
            },
            Column { header: "Faults", value: |c, i| client_faults(c, i).to_string() },
            Column {
                header: "p50 (ms)",
                value: |c, i| format!("{:.3}", latency_percentile(c, 50.0)[i]),
            },
            Column {
                header: "p99 (ms)",
                value: |c, i| format!("{:.3}", latency_percentile(c, 99.0)[i]),
            },
        ];
        vec![
            r.table(None, one_row, &summary),
            r.table(
                Some("Per-client fault attribution and service latency"),
                |c| c.config.tenancy.clients.len(),
                &clients,
            ),
        ]
    },
};

fn multitenant_grid(quick: bool) -> Grid {
    let init = Some(CpuInitPolicy::SingleThread);
    let specs = [
        ClientSpec::new(
            "stream",
            vecadd::build(vecadd::VecAddParams {
                warps: if quick { 64 } else { 192 },
                statements: if quick { 4 } else { 8 },
                coalesced: true,
                cpu_init: init,
            }),
        ),
        ClientSpec::new("bfs", bfs(quick)),
        ClientSpec::new("attn", attn(quick)).with_weight(2),
    ];
    let (workload, tenancy) = compose(&specs, InterleaveMode::Coschedule, FairnessPolicy::None);
    let mut coschedule = GridWorkload::oversubscribed("coschedule", workload);
    coschedule.config.policy = DriverPolicy::default().log_faults(true);
    coschedule.config.tenancy = tenancy;
    Grid { workloads: vec![coschedule], axes: vec![Axis::fairness()] }
}

/// Faults attributed to client `i` at admission (arrivals).
fn client_faults(c: &Cell, i: usize) -> u64 {
    c.result.records.iter().filter_map(|b| b.client_faults.get(i)).sum()
}

/// Fault-service latency (ms) per logged fault — buffer arrival → its
/// batch's close — labelled with the owning client.
fn client_latencies(c: &Cell) -> Vec<(usize, f64)> {
    let end_of: BTreeMap<u64, _> = c.result.records.iter().map(|b| (b.seq, b.end)).collect();
    c.result
        .fault_log
        .iter()
        .filter_map(|m| {
            let client = c.config.tenancy.client_of_page(m.page)?;
            let end = end_of.get(&m.batch_seq)?;
            Some((client, (*end - m.arrival).as_nanos() as f64 / 1e6))
        })
        .collect()
}

/// Each client's `p`-th percentile fault-service latency (ms).
fn latency_percentile(c: &Cell, p: f64) -> Vec<f64> {
    grouped_percentile(client_latencies(c), c.config.tenancy.clients.len(), p)
}

/// Each client's mean fault-service latency (ms; 0 with no samples).
fn mean_latencies(c: &Cell) -> Vec<f64> {
    let n = c.config.tenancy.clients.len();
    let mut sum = vec![0.0f64; n];
    let mut count = vec![0u64; n];
    for (client, ms) in client_latencies(c) {
        sum[client] += ms;
        count[client] += 1;
    }
    (0..n).map(|i| if count[i] == 0 { 0.0 } else { sum[i] / count[i] as f64 }).collect()
}

/// The servicing-architecture sweep: backend × four workloads.
pub static ARCHITECTURES: GridDef = GridDef {
    name: "architectures",
    id: "ext-architectures",
    title: "Extension — servicing-architecture sweep (backend x workload)",
    heading:
        "Extension — servicing-architecture sweep (backend x workload, ~125% oversubscription)",
    build: architectures_grid,
    tables: |r| {
        let latency = [
            KERNEL_MS,
            BATCHES,
            Column { header: "Fetch", value: |c, _| ms(c.total(|b| b.t_fetch.as_nanos())) },
            Column { header: "Unmap", value: |c, _| ms(c.total(|b| b.t_unmap.as_nanos())) },
            Column {
                header: "Pop+PTE",
                value: |c, _| ms(c.total(|b| (b.t_populate + b.t_pte).as_nanos())),
            },
            Column { header: "Transfer", value: |c, _| ms(c.total(|b| b.t_transfer.as_nanos())) },
            Column { header: "Evict", value: |c, _| ms(c.total(|b| b.t_evict.as_nanos())) },
            Column {
                header: "Other",
                value: |c, _| {
                    ms(c.total(|b| {
                        (b.t_preprocess + b.t_dma_setup + b.t_fixed + b.t_backoff).as_nanos()
                    }))
                },
            },
        ];
        let traffic = [
            Column {
                header: "Migrated (pages)",
                value: |c, _| c.total(|b| b.pages_migrated).to_string(),
            },
            Column { header: "Host WB (MiB)", value: |c, _| mib(c.total(|b| b.bytes_evicted)) },
            Column {
                header: "To peer (MiB)",
                value: |c, _| mib(c.total(|b| b.bytes_spilled_to_peer)),
            },
            Column { header: "From peer (MiB)", value: |c, _| mib(c.total(|b| b.bytes_from_peer)) },
        ];
        vec![
            r.table(
                Some("Fault-service latency breakdown (component ms summed over batches)"),
                one_row,
                &latency,
            ),
            r.table(Some("Migration traffic by source and destination"), one_row, &traffic),
        ]
    },
};

fn architectures_grid(quick: bool) -> Grid {
    let workloads = vec![
        GridWorkload::oversubscribed(
            "stream",
            stream::build(stream::StreamParams {
                warps: if quick { 64 } else { 192 },
                pages_per_warp: if quick { 8 } else { 16 },
                iters: 1,
                warps_per_page: 4,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            }),
        ),
        GridWorkload::oversubscribed(
            "gauss-seidel",
            gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: if quick { 1024 } else { 4096 },
                pages_per_row: 4,
                warps: if quick { 64 } else { 128 },
                iters: 2,
                compute_per_row: SimDuration::from_micros(2),
                cpu_init: Some(CpuInitPolicy::SingleThread),
            }),
        ),
        GridWorkload::oversubscribed("bfs", bfs(quick)),
        GridWorkload::oversubscribed("attn", attn(quick)),
    ];
    Grid { workloads, axes: vec![Axis::backend()] }
}

/// The pointer-chasing BFS shared by the multi-tenant and architecture
/// grids.
fn bfs(quick: bool) -> Workload {
    graph_bfs::build(graph_bfs::GraphBfsParams {
        vertices: if quick { 2048 } else { 6144 },
        vdata_bytes: 1024,
        max_levels: if quick { 6 } else { 10 },
        ..graph_bfs::GraphBfsParams::default()
    })
}

/// The skewed-gather attention shared by the multi-tenant and
/// architecture grids.
fn attn(quick: bool) -> Workload {
    attention::build(attention::AttentionParams {
        kv_rows: if quick { 1024 } else { 4096 },
        batches: if quick { 3 } else { 6 },
        queries_per_batch: if quick { 8 } else { 16 },
        hot_rows: if quick { 64 } else { 256 },
        ..attention::AttentionParams::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::golden_form;

    /// The harness-wide default seed (`uvm_bench::SEED`), at which the
    /// goldens were blessed.
    const SEED: u64 = 0x5C21;

    fn assert_golden(def: &GridDef, r: &GridResult, golden: &str) {
        assert_eq!(golden_form(&def.report(r).render()), golden, "{} moved", def.id);
    }

    /// `def`'s quick cell on `workload` under `values`, run at `seed`.
    fn quick_cell(def: &GridDef, workload: &str, values: &[AxisValue], seed: u64) -> String {
        let grid = (def.build)(true);
        let cells = grid.cells();
        let cell = cells
            .iter()
            .find(|c| c.workload.name == workload && c.values == values)
            .expect("cell is in the grid");
        format!("{:?}", cell.run(seed))
    }

    #[test]
    fn policy_quick_grid_matches_golden() {
        let r = POLICY.run(SEED, true);
        assert_eq!(
            r.cells.len(),
            4 * PrefetchPolicyKind::ALL.len() * EvictionPolicyKind::ALL.len()
        );
        for c in &r.cells {
            assert!(c.result.num_batches > 0, "{:?}", c.labels);
            assert!(c.total(|b| b.pages_migrated) > 0, "{:?}", c.labels);
            assert!(c.result.evictions > 0, "oversubscription must evict: {:?}", c.labels);
        }
        // `none` never prefetches; every other prefetcher does somewhere.
        for p in PrefetchPolicyKind::ALL {
            let cells = r.cells.iter().filter(|c| c.labels[1] == p.name());
            let prefetched: u64 = cells.map(|c| c.total(|b| b.prefetched_pages)).sum();
            assert_eq!(prefetched == 0, p == PrefetchPolicyKind::None, "{}", p.name());
        }
        assert_golden(&POLICY, &r, include_str!("golden/ext_policy_quick.txt"));
    }

    #[test]
    fn multitenant_quick_grid_matches_golden() {
        let r = MULTITENANT.run(SEED, true);
        assert_eq!(r.cells.len(), 4);
        for c in &r.cells {
            assert!(c.result.num_batches > 0, "{:?}", c.labels);
            let jain = jain_index(&mean_latencies(c));
            assert!(jain > 0.0 && jain <= 1.0 + 1e-9, "{:?}: {jain}", c.labels);
            let (p50, p99) = (latency_percentile(c, 50.0), latency_percentile(c, 99.0));
            for i in 0..3 {
                assert!(client_faults(c, i) > 0, "{:?} client {i}", c.labels);
                assert!(p50[i] > 0.0 && p99[i] >= p50[i], "{:?} client {i}", c.labels);
            }
            // Quota policies clip a 3-client coschedule; attribution-only
            // policies never throttle.
            let quota = matches!(c.labels[0], "fault-quota" | "weighted-share");
            assert_eq!(c.total(|b| b.throttled_faults) > 0, quota, "{:?}", c.labels);
            assert_eq!(c.config.tenancy.clients[2].name, "attn");
            assert_eq!(c.config.tenancy.clients[2].weight, 2);
        }
        assert_golden(&MULTITENANT, &r, include_str!("golden/ext_multitenant_quick.txt"));
    }

    #[test]
    fn architectures_quick_grid_matches_golden() {
        let r = ARCHITECTURES.run(SEED, true);
        assert_eq!(r.cells.len(), 4 * BackendKind::ALL.len());
        for c in &r.cells {
            assert!(c.result.num_batches > 0 && c.result.kernel_time > SimDuration::ZERO);
            assert!(c.total(|b| b.pages_migrated) > 0, "{:?}", c.labels);
            let unmap = c.total(|b| b.t_unmap.as_nanos());
            let spilled = c.total(|b| b.bytes_spilled_to_peer);
            let fetched = c.total(|b| b.bytes_from_peer);
            match c.labels[1] {
                // The stock driver pays host unmap on every CPU-initialized
                // workload; GPU-driven servicing removes it entirely.
                "cpu-driver" => {
                    assert!(unmap > 0 && spilled == 0 && fetched == 0, "{:?}", c.labels)
                }
                "gpu-driven" => assert_eq!(unmap, 0, "{:?}", c.labels),
                // Under the peer backends evictions become interconnect
                // spills, fetched back on re-fault.
                _ => assert!(spilled > 0 && fetched > 0, "{:?}", c.labels),
            }
        }
        assert_golden(&ARCHITECTURES, &r, include_str!("golden/ext_architectures_quick.txt"));
    }

    #[test]
    fn policy_cells_are_deterministic_per_seed() {
        let values = [
            AxisValue::Prefetch(PrefetchPolicyKind::Oracle),
            AxisValue::Evict(EvictionPolicyKind::Random),
        ];
        let a = quick_cell(&POLICY, "attention", &values, 7);
        assert_eq!(a, quick_cell(&POLICY, "attention", &values, 7));
        assert_ne!(a, quick_cell(&POLICY, "attention", &values, 8), "seed must perturb the run");
    }

    #[test]
    fn multitenant_cells_are_deterministic_per_seed() {
        let values = [AxisValue::Fairness(FairnessPolicy::WeightedShare)];
        let a = quick_cell(&MULTITENANT, "coschedule", &values, 7);
        assert_eq!(a, quick_cell(&MULTITENANT, "coschedule", &values, 7));
    }

    #[test]
    fn architectures_cells_are_deterministic_per_seed() {
        let values = [AxisValue::Backend(BackendKind::MultiGpuPeer2)];
        let a = quick_cell(&ARCHITECTURES, "stream", &values, 7);
        assert_eq!(a, quick_cell(&ARCHITECTURES, "stream", &values, 7));
    }
}
