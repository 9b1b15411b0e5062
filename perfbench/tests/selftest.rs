//! Self-tests of the benchmark's helpers: percentiles with their sample
//! counts, span self time, and the recorded-digest table.

use std::time::Instant;

use perfbench::{
    append_spans, median, percentile, self_time_ns, spans_csv, DigestCheck, DigestTable, Span,
    Tracer, WORKLOADS,
};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name, start_ns, end_ns, parent, run: 0 }
}

#[test]
fn percentile_reports_nearest_rank_and_sample_count() {
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let p50 = percentile(&v, 50.0).unwrap();
    assert_eq!((p50.value, p50.samples), (50.0, 100));
    let p99 = percentile(&v, 99.0).unwrap();
    assert_eq!((p99.value, p99.samples), (99.0, 100));
    assert_eq!(percentile(&v, 100.0).unwrap().value, 100.0);
    assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);

    let one = percentile(&[7.5], 99.0).unwrap();
    assert_eq!((one.value, one.samples), (7.5, 1));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // run [0, 100) holds start [0, 10) and two batches [10, 40), [40, 90);
    // the second batch holds a snapshot capture [50, 70).
    let spans = vec![
        span("run", 0, 100, None),
        span("start", 0, 10, Some(0)),
        span("batch", 10, 40, Some(0)),
        span("batch", 40, 90, Some(0)),
        span("capture", 50, 70, Some(3)),
    ];
    let st = self_time_ns(&spans);
    assert_eq!(st["run"], 10);
    assert_eq!(st["start"], 10);
    assert_eq!(st["batch"], 30 + 30);
    assert_eq!(st["capture"], 20);
    assert_eq!(st.values().sum::<u64>(), 100, "self times tile the root span");
}

#[test]
fn appended_spans_keep_their_parents() {
    let mut all = vec![span("a", 0, 5, None), span("b", 1, 2, Some(0))];
    append_spans(&mut all, vec![span("c", 0, 9, None), span("d", 3, 4, Some(0))]);
    assert_eq!(all[3].parent, Some(2));
    assert_eq!(self_time_ns(&all)["c"], 8);
    assert!(spans_csv(&all).lines().nth(4).unwrap().starts_with("3,d,3,4,2,0"));
}

#[test]
fn tracer_nests_spans_and_records_nothing_when_off() {
    let mut tr = Tracer::new(true, Instant::now());
    tr.set_run(3);
    tr.begin("outer");
    let x = tr.span("inner", || 41 + 1);
    tr.begin("left-open");
    tr.end_all();
    let spans = tr.into_spans();
    assert_eq!(x, 42);
    let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.run)).collect();
    assert_eq!(names, [("outer", None, 3), ("inner", Some(0), 3), ("left-open", Some(0), 3)]);
    assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
    assert!(spans[0].end_ns >= spans[2].end_ns);

    let mut off = Tracer::new(false, Instant::now());
    off.begin("x");
    assert_eq!(off.span("y", || 5), 5);
    off.end();
    assert!(off.into_spans().is_empty());
}

#[test]
fn digest_table_checks_recorded_seeds_only() {
    let text = "# comment\n\n1 w run00 0x00000000000000ff\n1 w run01 0x10\n2 w run00 ab\n";
    let t = DigestTable::parse(text).unwrap();
    assert_eq!(t.seeds("w"), [1, 2]);
    assert_eq!(t.cells(1, "w"), 2);
    assert_eq!(t.check(1, "w", "run00", 0xff), DigestCheck::Match);
    assert_eq!(t.check(1, "w", "run01", 0x11), DigestCheck::Mismatch { expected: Some(0x10) });
    assert_eq!(
        t.check(2, "w", "run01", 0x10),
        DigestCheck::Mismatch { expected: None },
        "a recorded seed with a missing cell fails"
    );
    assert_eq!(t.check(3, "w", "run00", 0xff), DigestCheck::Unrecorded);
    assert_eq!(t.check(1, "other", "run00", 0xff), DigestCheck::Unrecorded);

    let line = DigestTable::line(9, "w", "c", 0xabc);
    assert_eq!(DigestTable::parse(&line).unwrap().check(9, "w", "c", 0xabc), DigestCheck::Match);
}

#[test]
fn digest_table_rejects_malformed_lines() {
    assert!(DigestTable::parse("1 w run00").is_err());
    assert!(DigestTable::parse("x w run00 0x1").is_err());
    assert!(DigestTable::parse("1 w run00 0xzz").is_err());
    assert!(DigestTable::parse("1 w run00 0x1\n1 w run00 0x2").is_err());
}

#[test]
fn committed_table_covers_every_cell_of_both_seeds() {
    let t = DigestTable::parse(include_str!("../recorded_digests.txt")).unwrap();
    for (workload, cells) in WORKLOADS {
        assert_eq!(t.seeds(workload), [1, 2], "{workload}");
        for seed in [1, 2] {
            assert_eq!(t.cells(seed, workload), cells, "{workload} seed {seed}");
        }
    }
}
