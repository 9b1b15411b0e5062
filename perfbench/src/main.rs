//! Benchmark of the UVM simulator: four workloads, end-to-end host-time
//! metrics from an untraced pass and a per-layer ledger from a traced one.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload stencil-oversub --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones; `--record` prints the digest-table lines for `--seed` instead.
//! Every metric is printed as `name value unit`, and the last line of
//! stdout is one JSON object. `perfbench/README.md` explains the
//! workloads and metrics.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{
    append_spans, durations_ns, median, percentile, self_time_ns, spans_csv, DigestCheck,
    DigestTable, Span, Tracer, DEFAULT_SEED, WORKLOADS,
};
use serde::{Serialize, Value};
use uvm_core::driver::backend::BackendKind;
use uvm_core::experiments::suite::{experiment_config, Bench};
use uvm_core::parallel;
use uvm_core::sim::snapshot::digest_value;
use uvm_core::sim::time::SimDuration;
use uvm_core::workloads::cpu_init::CpuInitPolicy;
use uvm_core::workloads::workload::Workload;
use uvm_core::workloads::{attention, gauss_seidel, graph_bfs, random, stream};
use uvm_core::{
    Progress, RunHints, RunInProgress, RunResult, SystemConfig, SystemSnapshot, UvmSystem,
};

/// Recorded `RunResult` digests (see `--record`).
const RECORDED: &str = include_str!("../recorded_digests.txt");
/// Where the traced pass writes its spans.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// `grid-resume` snapshots each cell after this many batches.
const RESUME_AT_BATCH: u64 = 40;
/// Untimed set-up builds first: the first few builds in a process run up
/// to twice as slow while the allocator settles.
const SETUP_WARMUP: usize = 8;
/// Set-up is then timed at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median.
const SETUP_REPS: usize = 7;
const SETUP_SECONDS: f64 = 1.5;
/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Repetitions handed to `uvm_bench::perf::micro_numbers_at`.
const MICRO_REPS: u32 = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Stencil,
    Sparse,
    Gemm,
    Grid,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Stencil, Kind::Sparse, Kind::Gemm, Kind::Grid];

    fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    fn cells(self) -> usize {
        WORKLOADS[self as usize].1
    }

    fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    let kind = kind.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    Ok(Args { kind, seed, seconds, trace, record })
}

/// SplitMix64 of `seed` and `stream`: one independent seed per input.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn footprint_mib(w: &Workload) -> u64 {
    w.footprint_bytes() / (1024 * 1024)
}

/// One run of a workload: its cell label, which input it runs, and the
/// system it runs on.
struct RunSpec {
    cell: String,
    workload: usize,
    config: SystemConfig,
}

impl RunSpec {
    fn new(cell: String, workload: usize, memory_mib: u64, seed: u64, b: BackendKind) -> Self {
        let config = experiment_config(memory_mib.max(4)).with_seed(seed).with_backend(b);
        RunSpec { cell, workload, config }
    }
}

/// Everything a workload's passes run: the generated inputs and the runs
/// over them.
struct Inputs {
    workloads: Vec<Workload>,
    runs: Vec<RunSpec>,
}

/// Build a workload's inputs and configs from `seed`.
fn build_inputs(kind: Kind, seed: u64) -> Inputs {
    let cpu = BackendKind::CpuDriver;
    let cell = |i: usize| format!("run{i:02}");
    let (workloads, runs) = match kind {
        // ~125% oversubscription: device memory = footprint / 1.25.
        Kind::Stencil => {
            let w = Bench::GaussSeidel.build();
            let run = RunSpec::new(cell(0), 0, footprint_mib(&w) * 4 / 5, mix(seed, 0), cpu);
            (vec![w], vec![run])
        }
        // ~150% oversubscription, a fresh access pattern per run.
        Kind::Sparse => {
            let workloads: Vec<Workload> = (0..kind.cells() as u64)
                .map(|i| {
                    random::build(random::RandomParams {
                        warps: 320,
                        accesses_per_warp: 48,
                        footprint_pages: 110 * 1024,
                        seed: mix(seed, 100 + i),
                        cpu_init: Some(CpuInitPolicy::SingleThread),
                    })
                })
                .collect();
            let runs = workloads
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let s = mix(seed, 200 + i as u64);
                    RunSpec::new(cell(i), i, footprint_mib(w) * 2 / 3, s, cpu)
                })
                .collect();
            (workloads, runs)
        }
        // In core: the GPU holds twice the footprint.
        Kind::Gemm => {
            let w = Bench::Sgemm.build();
            let mem = footprint_mib(&w) * 2;
            let runs = (0..kind.cells())
                .map(|i| RunSpec::new(cell(i), 0, mem, mix(seed, 300 + i as u64), cpu))
                .collect();
            (vec![w], runs)
        }
        // Every backend on four workloads at ~125% oversubscription.
        Kind::Grid => {
            let named = grid_workloads(seed);
            let mut runs = Vec::new();
            for (wi, (name, w)) in named.iter().enumerate() {
                for b in BackendKind::ALL {
                    let s = mix(seed, 500 + runs.len() as u64);
                    let label = format!("{name}/{}", b.name());
                    runs.push(RunSpec::new(label, wi, footprint_mib(w) * 4 / 5, s, b));
                }
            }
            (named.into_iter().map(|(_, w)| w).collect(), runs)
        }
    };
    assert_eq!(runs.len(), kind.cells(), "{} cell count", kind.name());
    Inputs { workloads, runs }
}

/// The `grid-resume` workloads: stream, bfs and attention at their
/// `ext-architectures` sizes, and a 1024-row gauss-seidel.
fn grid_workloads(seed: u64) -> Vec<(&'static str, Workload)> {
    let init = Some(CpuInitPolicy::SingleThread);
    vec![
        (
            "stream",
            stream::build(stream::StreamParams {
                warps: 192,
                pages_per_warp: 16,
                iters: 1,
                warps_per_page: 4,
                cpu_init: init,
            }),
        ),
        (
            "bfs",
            graph_bfs::build(graph_bfs::GraphBfsParams {
                vertices: 6144,
                vdata_bytes: 1024,
                max_levels: 10,
                seed: mix(seed, 400),
                ..graph_bfs::GraphBfsParams::default()
            }),
        ),
        (
            "attn",
            attention::build(attention::AttentionParams {
                kv_rows: 4096,
                batches: 6,
                queries_per_batch: 16,
                hot_rows: 256,
                seed: mix(seed, 401),
                ..attention::AttentionParams::default()
            }),
        ),
        (
            "gauss-seidel",
            gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: 1024,
                pages_per_row: 4,
                warps: 128,
                iters: 2,
                compute_per_row: SimDuration::from_micros(2),
                cpu_init: init,
            }),
        ),
    ]
}

fn uvm_err(e: uvm_core::sim::error::UvmError) -> String {
    e.to_string()
}

/// Step `run` to the end, one span per `advance_batch`. With `resume_at`,
/// the run is round-tripped through a snapshot after that batch; returns
/// the snapshot's size in bytes (0 if none was taken).
fn drive(
    run: &mut RunInProgress,
    w: &Workload,
    tr: &mut Tracer,
    resume_at: Option<u64>,
) -> Result<usize, String> {
    let mut bytes = 0;
    loop {
        match tr.span("core.system.advance_batch", || run.advance_batch(w)).map_err(uvm_err)? {
            Progress::Finished => return Ok(bytes),
            Progress::Batch(n) if Some(n) == resume_at => bytes = round_trip(run, w, tr)?,
            Progress::Batch(_) => {}
        }
    }
}

/// Snapshot `run`, encode the snapshot to JSON, parse it back and restore
/// `run` from it. Returns the JSON size in bytes.
fn round_trip(run: &mut RunInProgress, w: &Workload, tr: &mut Tracer) -> Result<usize, String> {
    let snap = tr.span("core.snapshot.capture", || run.snapshot(w, 0));
    let json = tr
        .span("core.snapshot.encode", || serde_json::to_string(&snap))
        .map_err(|e| format!("snapshot encode: {e}"))?;
    drop(snap);
    let parsed: SystemSnapshot = tr
        .span("core.snapshot.decode", || serde_json::from_str(&json))
        .map_err(|e| format!("snapshot decode: {e}"))?;
    *run =
        tr.span("core.snapshot.restore", || RunInProgress::restore(&parsed, w)).map_err(uvm_err)?;
    Ok(json.len())
}

/// One run of `stencil-oversub`, `sparse-evict` or `gemm-incore`. Untraced
/// it is one `try_run`; traced, the same steps are taken one call at a
/// time: the config and workload digests, `new` + `start`, every
/// `advance_batch`, and `into_result`.
fn run_one(spec: &RunSpec, w: &Workload, tr: &mut Tracer) -> Result<RunResult, String> {
    if !tr.is_on() {
        return UvmSystem::new(spec.config.clone()).try_run(w).map_err(uvm_err);
    }
    tr.span("core.system.digest", || {
        black_box(digest_value(&spec.config.to_value()));
        black_box(digest_value(&w.to_value()));
    });
    let mut run = tr
        .span("core.system.start", || {
            UvmSystem::new(spec.config.clone()).start(w, &RunHints::default())
        })
        .map_err(uvm_err)?;
    drive(&mut run, w, tr, None)?;
    Ok(tr.span("core.system.into_result", || run.into_result(w)))
}

/// One `grid-resume` cell: stepped with `advance_batch`, round-tripped
/// through a snapshot at batch [`RESUME_AT_BATCH`], run to the end.
fn run_cell(spec: &RunSpec, w: &Workload, tr: &mut Tracer) -> Result<(RunResult, usize), String> {
    let mut run = tr
        .span("core.system.start", || {
            UvmSystem::new(spec.config.clone()).start(w, &RunHints::default())
        })
        .map_err(uvm_err)?;
    let bytes = drive(&mut run, w, tr, Some(RESUME_AT_BATCH))?;
    Ok((tr.span("core.system.into_result", || run.into_result(w)), bytes))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// What one run produced: its result and the size of its mid-run snapshot
/// (`grid-resume` only), or why it failed.
type Outcome = Result<(RunResult, usize), String>;

/// Run one cell under a `bench.run` span, turning a panic into a failed
/// outcome.
fn attempt(kind: Kind, spec: &RunSpec, w: &Workload, tr: &mut Tracer) -> Outcome {
    tr.begin("bench.run");
    let caught = catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Grid => run_cell(spec, w, tr),
        _ => run_one(spec, w, tr).map(|r| (r, 0)),
    }));
    tr.end_all();
    caught.unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))))
}

/// One pass: every run of the workload once.
struct Pass {
    wall_s: f64,
    outcomes: Vec<Outcome>,
    spans: Vec<Span>,
}

/// Run every cell once. `grid-resume` fans its cells out over
/// `parallel::map`; the others run serially.
fn run_pass(kind: Kind, inputs: &Inputs, traced: bool, origin: Instant) -> Pass {
    let t0 = Instant::now();
    let mut outcomes = Vec::with_capacity(inputs.runs.len());
    let mut spans = Vec::new();
    if kind == Kind::Grid {
        let cells: Vec<(usize, &RunSpec)> = inputs.runs.iter().enumerate().collect();
        let done = parallel::map(cells, |(i, spec)| {
            let mut tr = Tracer::new(traced, origin);
            tr.set_run(i as u32);
            let o = attempt(kind, spec, &inputs.workloads[spec.workload], &mut tr);
            (o, tr.into_spans())
        });
        let wall_s = t0.elapsed().as_secs_f64();
        for (o, s) in done {
            outcomes.push(o);
            append_spans(&mut spans, s);
        }
        return Pass { wall_s, outcomes, spans };
    }
    let mut tr = Tracer::new(traced, origin);
    for (i, spec) in inputs.runs.iter().enumerate() {
        tr.set_run(i as u32);
        outcomes.push(attempt(kind, spec, &inputs.workloads[spec.workload], &mut tr));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    append_spans(&mut spans, tr.into_spans());
    Pass { wall_s, outcomes, spans }
}

/// Deterministic work counters summed over a pass's runs. Every field
/// must repeat exactly across passes of one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counters {
    accesses: u64,
    faults_inserted: u64,
    replays: u64,
    flush_drops: u64,
    overflow_drops: u64,
    batches: u64,
    raw_faults: u64,
    unique_pages: u64,
    va_blocks: u64,
    pages_migrated: u64,
    prefetched_pages: u64,
    evictions: u64,
    retries: u64,
    pages_spilled_to_peer: u64,
    pages_from_peer: u64,
    unmap_calls: u64,
    cpu_pages_unmapped: u64,
    kernel_ns: u64,
    batch_ns: u64,
    component_ns: [u64; 10],
    snapshot_bytes: u64,
}

impl Counters {
    fn add(&mut self, r: &RunResult, w: &Workload) {
        self.accesses += w.total_accesses() as u64;
        self.faults_inserted += r.total_faults_inserted;
        self.replays += r.replays;
        self.flush_drops += r.flush_drops;
        self.overflow_drops += r.overflow_drops;
        self.batches += r.num_batches;
        self.evictions += r.evictions;
        self.unmap_calls += r.unmap_calls;
        self.kernel_ns += r.kernel_time.as_nanos();
        for rec in &r.records {
            self.raw_faults += rec.raw_faults;
            self.unique_pages += rec.unique_pages;
            self.va_blocks += rec.num_va_blocks;
            self.pages_migrated += rec.pages_migrated;
            self.prefetched_pages += rec.prefetched_pages;
            self.retries += rec.retries;
            self.pages_spilled_to_peer += rec.pages_spilled_to_peer;
            self.pages_from_peer += rec.pages_from_peer;
            self.cpu_pages_unmapped += rec.cpu_pages_unmapped;
            self.batch_ns += rec.service_time().as_nanos();
            for (acc, ns) in self.component_ns.iter_mut().zip(rec.component_ns()) {
                *acc += ns;
            }
        }
    }
}

/// A checked pass: each run's output digest (`None` if it failed), the
/// pass's counters, and how many runs failed.
#[derive(Debug, PartialEq)]
struct Checked {
    digests: Vec<Option<u64>>,
    counters: Counters,
    failed: usize,
}

/// Check a pass's outputs. A run fails if it returned an error, panicked,
/// differs from the recorded digest of its seed and cell, or (in
/// `grid-resume`) finished without being resumed from a snapshot.
fn check(kind: Kind, seed: u64, inputs: &Inputs, pass: Pass, table: &DigestTable) -> Checked {
    let mut out = Checked { digests: Vec::new(), counters: Counters::default(), failed: 0 };
    for (spec, o) in inputs.runs.iter().zip(pass.outcomes) {
        let problem = match o {
            Err(e) => {
                out.digests.push(None);
                Some(e)
            }
            Ok((r, snapshot_bytes)) => {
                out.counters.add(&r, &inputs.workloads[spec.workload]);
                out.counters.snapshot_bytes += snapshot_bytes as u64;
                let d = digest_value(&r.to_value());
                out.digests.push(Some(d));
                match table.check(seed, kind.name(), &spec.cell, d) {
                    DigestCheck::Mismatch { expected } => Some(match expected {
                        Some(e) => format!("output digest {d:#018x}, recorded {e:#018x}"),
                        None => format!("output digest {d:#018x}, but no digest is recorded"),
                    }),
                    _ if kind == Kind::Grid && snapshot_bytes == 0 => Some(format!(
                        "finished before batch {RESUME_AT_BATCH}, so it was never resumed"
                    )),
                    _ => None,
                }
            }
        };
        if let Some(p) = problem {
            out.failed += 1;
            eprintln!("{} {} seed {seed}: run failed: {p}", kind.name(), spec.cell);
        }
    }
    out
}

/// Holds the first checked pass of a seed; every later pass, traced or
/// not, must reproduce its digests and counters exactly.
#[derive(Default)]
struct Guard {
    first: Option<Checked>,
    attempted: usize,
    failed: usize,
}

impl Guard {
    fn observe(&mut self, c: Checked) -> Result<(), String> {
        self.attempted += c.digests.len();
        self.failed += c.failed;
        match &self.first {
            None => self.first = Some(c),
            Some(f) if *f == c => {}
            Some(f) => {
                return Err(format!(
                    "nondeterminism: a pass disagrees with the first pass of this seed\n\
                     first: {f:?}\nlater: {c:?}"
                ))
            }
        }
        Ok(())
    }

    fn counters(&self) -> &Counters {
        &self.first.as_ref().expect("at least one pass checked").counters
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Peak resident set of this process (VmHWM) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in the process status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics, measured untraced.
fn end_to_end(
    kind: Kind,
    seed: u64,
    seconds: f64,
    table: &DigestTable,
    guard: &mut Guard,
) -> Result<Vec<Metric>, String> {
    let origin = Instant::now();
    for _ in 0..SETUP_WARMUP {
        black_box(build_inputs(kind, seed));
    }
    let t_setup = Instant::now();
    let mut setup = Vec::new();
    let mut inputs = None;
    while setup.len() < SETUP_REPS || t_setup.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(black_box(build_inputs(kind, seed)));
        setup.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");

    // Warm-up: checked, not timed.
    guard.observe(check(kind, seed, &inputs, run_pass(kind, &inputs, false, origin), table))?;
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(kind, &inputs, false, origin);
        walls.push(pass.wall_s);
        guard.observe(check(kind, seed, &inputs, pass, table))?;
    }
    eprintln!("set-up (s): {setup:.3?}\npass walls (s): {walls:.3?}");
    let c = guard.counters();
    let wall_s = median(&walls).expect("timed passes ran");
    Ok(vec![
        metric("wall_s", wall_s, "s"),
        metric("sim_faults_per_s", c.faults_inserted as f64 / wall_s, "faults/s"),
        metric("setup_s", median(&setup).expect("set-up ran"), "s"),
        metric("peak_rss_mb", peak_rss_mib()?, "MiB"),
        metric("sim_kernel_ms", c.kernel_ns as f64 / 1e6, "sim_ms"),
    ])
}

/// The per-layer metrics, from traced passes alternated with untraced
/// ones (whose wall times give the tracing overhead).
fn per_layer(
    kind: Kind,
    seed: u64,
    seconds: f64,
    table: &DigestTable,
    guard: &mut Guard,
) -> Result<Vec<Metric>, String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    let inputs = tr.span("workloads.build", || build_inputs(kind, seed));
    let mut spans = tr.into_spans();
    let build_s = durations_ns(&spans, "workloads.build").iter().sum::<f64>() / 1e9;

    // Warm-up: checked, not timed.
    guard.observe(check(kind, seed, &inputs, run_pass(kind, &inputs, false, origin), table))?;
    let workers = if kind == Kind::Grid { parallel::effective_jobs(inputs.runs.len()) } else { 1 };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut busy, mut longest) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let mut pass = run_pass(kind, &inputs, true, origin);
        let cells = durations_ns(&pass.spans, "bench.run");
        busy.push(cells.iter().sum::<f64>() / 1e9 / (workers as f64 * pass.wall_s));
        longest.push(cells.iter().copied().fold(0.0, f64::max) / 1e9);
        traced.push(pass.wall_s);
        append_spans(&mut spans, std::mem::take(&mut pass.spans));
        guard.observe(check(kind, seed, &inputs, pass, table))?;

        let pass = run_pass(kind, &inputs, false, origin);
        untraced.push(pass.wall_s);
        guard.observe(check(kind, seed, &inputs, pass, table))?;
    }
    let passes = traced.len() as f64;

    // Warp stepping and the event queue alone: each run's workload on a
    // GPU that holds it, so no faults occur.
    let mut tr = Tracer::new(true, origin);
    for (i, spec) in inputs.runs.iter().enumerate() {
        let w = &inputs.workloads[spec.workload];
        let mut config = spec.config.clone();
        config.gpu.memory_bytes = config.gpu.memory_bytes.max(w.footprint_bytes());
        tr.set_run(i as u32);
        let r = catch_unwind(AssertUnwindSafe(|| {
            tr.span("gpu.step_only", || UvmSystem::new(config).run_explicit(w))
        }))
        .map_err(|p| format!("run_explicit of {}: {}", spec.cell, panic_message(p.as_ref())))?;
        black_box(r);
    }
    let step_only = tr.into_spans();
    let step_only_s = durations_ns(&step_only, "gpu.step_only").iter().sum::<f64>() / 1e9;
    append_spans(&mut spans, step_only);

    let micro = uvm_bench::perf::micro_numbers_at(MICRO_REPS);
    let micro_ns = |key: &str| -> Result<f64, String> {
        match &micro {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
        .and_then(|v| match v {
            Value::Float(ns) => Some(*ns),
            _ => None,
        })
        .ok_or_else(|| format!("micro timing `{key}` missing"))
    };

    write_spans(kind, seed, &spans);
    let self_ns = self_time_ns(&spans);
    let layer_s = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9 / passes;
    let batch_us: Vec<f64> =
        durations_ns(&spans, "core.system.advance_batch").iter().map(|ns| ns / 1e3).collect();
    let p50 = percentile(&batch_us, 50.0).ok_or("no advance_batch spans")?;
    let p99 = percentile(&batch_us, 99.0).ok_or("no advance_batch spans")?;
    let c = guard.counters();
    let ms = |ns: u64| ns as f64 / 1e6;
    let count = |n: u64| n as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let traced_s = median(&traced).expect("traced passes ran");
    let untraced_s = median(&untraced).expect("untraced passes ran");

    let mut m = vec![
        metric("workloads.build_s", build_s, "s"),
        metric("core.system.digest_s", layer_s("core.system.digest"), "s"),
        metric("core.system.start_s", layer_s("core.system.start"), "s"),
        metric("core.system.loop_s", layer_s("core.system.advance_batch"), "s"),
        metric("core.system.advance_batch_us.p50", p50.value, "us"),
        metric("core.system.advance_batch_us.p99", p99.value, "us"),
        metric("core.system.advance_batch.samples", p99.samples as f64, "count"),
        metric("core.system.into_result_s", layer_s("core.system.into_result"), "s"),
        metric("gpu.step_only_s", step_only_s, "s"),
        metric("gpu.accesses", count(c.accesses), "count"),
        metric("gpu.faults_inserted", count(c.faults_inserted), "count"),
        metric("gpu.replays", count(c.replays), "count"),
        metric("gpu.flush_drops", count(c.flush_drops), "count"),
        metric("gpu.overflow_drops", count(c.overflow_drops), "count"),
        metric("driver.batches", count(c.batches), "count"),
        metric("driver.raw_faults", count(c.raw_faults), "count"),
        metric("driver.unique_pages", count(c.unique_pages), "count"),
        metric("driver.dedup_ratio", ratio(c.unique_pages, c.raw_faults), "ratio"),
        metric("driver.vablocks_per_batch", ratio(c.va_blocks, c.batches), "blocks/batch"),
        metric("driver.pages_migrated", count(c.pages_migrated), "count"),
        metric("driver.prefetched_pages", count(c.prefetched_pages), "count"),
        metric("driver.evictions", count(c.evictions), "count"),
        metric("driver.retries", count(c.retries), "count"),
        metric("driver.pages_spilled_to_peer", count(c.pages_spilled_to_peer), "count"),
        metric("driver.pages_from_peer", count(c.pages_from_peer), "count"),
        metric("driver.sim_batch_ms", ms(c.batch_ns), "sim_ms"),
    ];
    for (name, ns) in uvm_core::trace::COMPONENTS.iter().zip(c.component_ns) {
        m.push(metric(format!("driver.sim_{name}_ms"), ms(ns), "sim_ms"));
    }
    m.extend([
        metric("driver.service_batch_ns", micro_ns("service_batch_1024x4blocks")?, "ns"),
        metric("driver.dedup_fast_ns", micro_ns("dedup_fast_2048x8")?, "ns"),
        metric("hostos.unmap_calls", count(c.unmap_calls), "count"),
        metric("hostos.cpu_pages_unmapped", count(c.cpu_pages_unmapped), "count"),
        metric("hostos.radix_lookup_ns", micro_ns("radix_lookup_sweep_32768")?, "ns"),
        metric("sim.event_queue_ns", micro_ns("event_queue_schedule_pop_10k")?, "ns"),
        metric("core.snapshot.capture_s", layer_s("core.snapshot.capture"), "s"),
        metric("core.snapshot.encode_s", layer_s("core.snapshot.encode"), "s"),
        metric("core.snapshot.decode_s", layer_s("core.snapshot.decode"), "s"),
        metric("core.snapshot.restore_s", layer_s("core.snapshot.restore"), "s"),
        metric("core.snapshot.bytes", count(c.snapshot_bytes), "B"),
        metric("core.parallel.busy_share", median(&busy).expect("traced"), "ratio"),
        metric("core.parallel.longest_cell_s", median(&longest).expect("traced"), "s"),
        metric("trace.untraced_wall_s", untraced_s, "s"),
        metric("trace.traced_wall_s", traced_s, "s"),
        metric("trace.overhead_s", traced_s - untraced_s, "s"),
    ]);
    Ok(m)
}

/// Write the spans as CSV under `perfbench/out/`; a failure only warns,
/// since the spans are a by-product of the metrics already computed.
fn write_spans(kind: Kind, seed: u64, spans: &[Span]) {
    let path = format!("{SPAN_DIR}/spans-{}-seed{seed}.csv", kind.name());
    let written =
        std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, spans_csv(spans)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {path}", spans.len()),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// Print each run's output digest as digest-table lines. `grid-resume`
/// cells record their one-shot `try_run` digest, which the resumed runs
/// must then reproduce.
fn record(kind: Kind, seed: u64) -> Result<(), String> {
    let inputs = build_inputs(kind, seed);
    for spec in &inputs.runs {
        let w = &inputs.workloads[spec.workload];
        let r = UvmSystem::new(spec.config.clone()).try_run(w).map_err(uvm_err)?;
        let d = digest_value(&r.to_value());
        println!("{}", DigestTable::line(seed, kind.name(), &spec.cell, d));
    }
    Ok(())
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    if args.record {
        return record(args.kind, args.seed);
    }
    let table = DigestTable::parse(RECORDED)?;
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel::configure_jobs(jobs);
    let mut guard = Guard::default();
    let metrics = if args.trace {
        per_layer(args.kind, args.seed, args.seconds, &table, &mut guard)?
    } else {
        end_to_end(args.kind, args.seed, args.seconds, &table, &mut guard)?
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    println!(
        "workload {} seed {} trace {} jobs {jobs}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<40} {:>18} of {} runs", "runs_failed", guard.failed, guard.attempted);
    println!("{}", json_result(guard.failed == 0, guard.attempted, guard.failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
