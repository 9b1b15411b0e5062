//! Pure helpers of the UVM simulator benchmark: order statistics with
//! their sample counts, the in-memory span recorder with its self-time
//! reduction, and the table of recorded run digests that checks outputs.
//! `main.rs` drives the simulator with them; `tests/selftest.rs` checks
//! them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's workloads and how many runs (cells) each performs per
/// pass, in report order.
pub const WORKLOADS: [(&str, usize); 4] =
    [("stencil-oversub", 1), ("sparse-evict", 12), ("gemm-incore", 4), ("grid-resume", 16)];

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A percentile and the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0–100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    let i = rank.clamp(1, v.len().max(1)) - 1;
    v.get(i).map(|&value| Percentile { value, samples: v.len() })
}

/// One timed call into a layer: name, start and end (ns since the
/// recorder's origin), the enclosing span, and the run it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.system.advance_batch`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Run (cell) the span belongs to.
    pub run: u32,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans in memory. A recorder made with `on == false`
/// records nothing and never reads the clock, so untraced passes run the
/// same code at the cost of one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose span times count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer { on, origin, run: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("Tracer::end without a matching begin");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Close every open span, e.g. after a run that unwound mid-span.
    pub fn end_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans, in the order they were opened.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "{} spans still open", self.open.len());
        self.spans
    }
}

/// Append `more` to `spans`, shifting its parent indices past the spans
/// already there (used to join the recorders of parallel cells).
pub fn append_spans(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time per span name, in ns: each span's duration minus the part of
/// it that its direct children cover.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(children) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Durations in ns of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// The spans as CSV: `index,name,start_ns,end_ns,parent,run`, with an
/// empty parent for root spans.
pub fn spans_csv(spans: &[Span]) -> String {
    let mut out = String::from("index,name,start_ns,end_ns,parent,run\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        let _ = writeln!(out, "{i},{},{},{},{parent},{}", s.name, s.start_ns, s.end_ns, s.run);
    }
    out
}

/// The outcome of checking one run's digest against the recorded table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestCheck {
    /// The seed has no recorded digests for this workload.
    Unrecorded,
    /// The digest equals the recorded one.
    Match,
    /// The digest differs from the recorded one, or the seed is recorded
    /// but this cell is missing.
    Mismatch {
        /// The recorded digest, if the cell has one.
        expected: Option<u64>,
    },
}

/// Recorded `RunResult` digests per (seed, workload, cell).
///
/// The text form has one entry a line, `<seed> <workload> <cell>
/// <digest in hex>`; blank lines and lines starting with `#` are skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestTable {
    entries: BTreeMap<(u64, String, String), u64>,
}

impl DigestTable {
    /// Parse the text form.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("digest table line {}: `{line}`", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [seed, workload, cell, digest] = f[..] else {
                return Err(bad());
            };
            let seed = seed.parse().map_err(|_| bad())?;
            let digest =
                u64::from_str_radix(digest.trim_start_matches("0x"), 16).map_err(|_| bad())?;
            let key = (seed, workload.to_string(), cell.to_string());
            if entries.insert(key, digest).is_some() {
                return Err(format!("{}: duplicate entry", bad()));
            }
        }
        Ok(DigestTable { entries })
    }

    /// The text form of one entry.
    pub fn line(seed: u64, workload: &str, cell: &str, digest: u64) -> String {
        format!("{seed} {workload} {cell} {digest:#018x}")
    }

    /// Seeds that have recorded digests for `workload`.
    pub fn seeds(&self, workload: &str) -> Vec<u64> {
        let mut s: Vec<u64> = self
            .entries
            .keys()
            .filter(|(_, w, _)| w == workload)
            .map(|(seed, _, _)| *seed)
            .collect();
        s.dedup();
        s
    }

    /// Number of cells recorded for (`seed`, `workload`).
    pub fn cells(&self, seed: u64, workload: &str) -> usize {
        self.entries.keys().filter(|(s, w, _)| *s == seed && w == workload).count()
    }

    /// Check `digest` for (`seed`, `workload`, `cell`).
    pub fn check(&self, seed: u64, workload: &str, cell: &str, digest: u64) -> DigestCheck {
        if self.cells(seed, workload) == 0 {
            return DigestCheck::Unrecorded;
        }
        match self.entries.get(&(seed, workload.to_string(), cell.to_string())) {
            Some(&d) if d == digest => DigestCheck::Match,
            expected => DigestCheck::Mismatch { expected: expected.copied() },
        }
    }
}
