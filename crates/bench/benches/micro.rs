//! Microbenchmarks of the substrate data structures on the fault path:
//! the kernel-style radix tree, the host page table, per-VABlock bitmaps,
//! batch deduplication, the prefetch tree walk, and the event queue.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use uvm_core::sim::bitmap::PageBitmap;
use uvm_core::driver::dedup::classify_duplicates;
use uvm_core::driver::prefetch::compute_prefetch;
use uvm_core::gpu::fault::{AccessKind, FaultRecord};
use uvm_core::hostos::page_table::{PageTable, PteFlags};
use uvm_core::hostos::radix_tree::RadixTree;
use uvm_core::sim::event::EventQueue;
use uvm_core::sim::mem::PageNum;
use uvm_core::sim::time::SimTime;

fn bench_radix_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("radix_tree");
    for &n in &[512u64, 4096, 32768] {
        g.bench_with_input(BenchmarkId::new("insert_sequential", n), &n, |b, &n| {
            b.iter(|| {
                let mut t = RadixTree::new();
                for k in 0..n {
                    t.insert(black_box(k), k);
                }
                t.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("insert_strided", n), &n, |b, &n| {
            b.iter(|| {
                let mut t = RadixTree::new();
                for k in 0..n {
                    t.insert(black_box(k * 4096), k);
                }
                t.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("lookup", n), &n, |b, &n| {
            let mut t = RadixTree::new();
            for k in 0..n {
                t.insert(k * 7, k);
            }
            b.iter(|| {
                let mut hits = 0u64;
                for k in 0..n {
                    if t.get(black_box(k * 7)).is_some() {
                        hits += 1;
                    }
                }
                hits
            });
        });
    }
    g.finish();
}

fn bench_page_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_table");
    g.bench_function("map_unmap_block", |b| {
        b.iter(|| {
            let mut pt = PageTable::new();
            for i in 0..512u64 {
                pt.map(PageNum(i), PteFlags { dirty: i % 3 == 0, writable: true });
            }
            pt.unmap_range(PageNum(0), PageNum(512))
        });
    });
    g.bench_function("mapped_in_range_sparse", |b| {
        let mut pt = PageTable::new();
        for i in 0..8192u64 {
            pt.map(PageNum(i * 13), PteFlags::default());
        }
        b.iter(|| pt.mapped_in_range(PageNum(0), PageNum(black_box(100_000))).len());
    });
    g.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_bitmap");
    let a: PageBitmap = (0..512).step_by(2).collect();
    let b2: PageBitmap = (0..512).step_by(3).collect();
    g.bench_function("boolean_ops", |b| {
        b.iter(|| {
            let x = a.or(&b2);
            let y = a.and(&b2);
            let z = a.and_not(&b2);
            black_box((x.count(), y.count(), z.count()))
        });
    });
    g.bench_function("iter_set", |b| {
        b.iter(|| a.iter_set().sum::<usize>());
    });
    g.finish();
}

fn make_batch(n: usize, dup_every: usize) -> Vec<FaultRecord> {
    (0..n)
        .map(|i| FaultRecord {
            page: PageNum((i / dup_every.max(1)) as u64),
            kind: AccessKind::Read,
            sm: (i % 80) as u32,
            utlb: (i % 40) as u32,
            warp: i as u32,
            arrival: SimTime(i as u64),
            dup_of_outstanding: false,
        })
        .collect()
}

fn bench_dedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("dedup");
    for &(n, dups) in &[(256usize, 1usize), (256, 4), (2048, 8)] {
        let batch = make_batch(n, dups);
        g.bench_with_input(
            BenchmarkId::new("classify", format!("{n}x{dups}")),
            &batch,
            |b, batch| b.iter(|| classify_duplicates(black_box(batch)).unique.len()),
        );
    }
    g.finish();
}

fn bench_prefetch(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefetch_tree");
    let resident: PageBitmap = (0..200).collect();
    let faulted: PageBitmap = (200..280).collect();
    g.bench_function("compute", |b| {
        b.iter(|| compute_prefetch(black_box(&resident), black_box(&faulted), 512, 0.5).count());
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(10_000);
            for i in 0..10_000u32 {
                q.schedule(SimTime(((i * 2_654_435_761) % 1_000_000) as u64), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e as u64;
            }
            sum
        });
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_radix_tree,
    bench_page_table,
    bench_bitmap,
    bench_dedup,
    bench_prefetch,
    bench_event_queue
);
criterion_main!(micro);
