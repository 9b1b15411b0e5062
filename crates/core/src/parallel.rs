//! Deterministic scoped worker pool for independent simulation runs.
//!
//! The experiment sweep is embarrassingly parallel: every figure/table run
//! (and every cell of an intra-experiment parameter grid, e.g. Fig. 9's
//! batch-size limits or Table 4's app × config matrix) constructs its own
//! [`crate::UvmSystem`] from its own seed and shares no mutable state with
//! its siblings. [`map`] fans such runs out across `--jobs N` OS threads
//! while keeping every observable artifact — stdout, golden files, trace
//! exports — **byte-identical** to the serial run:
//!
//! * each item keeps its own seeded RNG streams (seeds are data, not
//!   ambient state), so a run computes the same result on any thread;
//! * results are written into a slot indexed by *submission order* and the
//!   caller receives them in that order, so completion-order
//!   nondeterminism never leaks out;
//! * rendering/printing stays with the caller, after the join.
//!
//! Work that touches process-global state falls back to inline execution:
//! when tracing is enabled (the global tracer is installed once per
//! process), when the pool is already inside a worker (no nested fan-out),
//! or when `--jobs 1` is configured.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker budget, set once at startup from `--jobs N`.
/// Defaults to 1 (serial) so library users opt in explicitly.
static JOBS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Set inside pool workers so nested [`map`] calls run inline instead
    /// of spawning a thread explosion (an experiment parallelised at the
    /// grid level may itself be an item of the experiment-level fan-out).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Set the worker budget for subsequent [`map`] calls. Values are clamped
/// to at least 1.
pub fn configure_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The configured worker budget.
pub fn jobs() -> usize {
    JOBS.load(Ordering::SeqCst)
}

/// Number of workers a [`map`] over `len` items would actually use.
///
/// Returns 1 (inline execution) when the budget is 1, when called from
/// inside a pool worker, or when the process-global tracer is installed —
/// trace event order must match the serial run exactly.
pub fn effective_jobs(len: usize) -> usize {
    let budget = jobs().min(len.max(1));
    if budget <= 1 || IN_WORKER.with(Cell::get) || uvm_trace::enabled() {
        1
    } else {
        budget
    }
}

/// Apply `f` to every item, fanning out across the configured worker
/// budget, and return the results **in submission order**.
///
/// Items are claimed via an atomic cursor (so an expensive item does not
/// stall the queue behind it) and each result lands in the slot of its
/// submitting index; observable order is therefore independent of thread
/// scheduling. With an effective budget of 1 this degenerates to a plain
/// serial loop with zero threading overhead.
///
/// A panic inside `f` propagates to the caller once all workers have
/// stopped, same as a serial loop.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if effective_jobs(n) <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = effective_jobs(n);

    // Slot-per-item storage: workers take items and deposit results by
    // index. The mutexes are uncontended (each slot is touched by exactly
    // one worker) — they exist only to satisfy `Sync`.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("worker pool slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let out = f(item);
                    *results[i].lock().expect("worker pool result slot poisoned") = Some(out);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker pool result slot poisoned")
                .expect("worker pool lost a result")
        })
        .collect()
}

/// [`map`] over an index range: `map_indexed(n, f)` is `map((0..n), f)`
/// without materialising the indices.
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map((0..n).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that mutate the process-global budget.
    static GUARD: Mutex<()> = Mutex::new(());

    fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let prev = jobs();
        configure_jobs(n);
        let r = f();
        configure_jobs(prev);
        r
    }

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = with_jobs(1, || map((0..64).collect(), |i: i32| i * i));
        let par = with_jobs(4, || map((0..64).collect(), |i: i32| i * i));
        assert_eq!(serial, par);
        assert_eq!(par[10], 100);
    }

    #[test]
    fn order_is_submission_not_completion() {
        // Make early items slow: a completion-ordered pool would return
        // them last.
        let out = with_jobs(4, || {
            map((0..16).collect::<Vec<u64>>(), |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i));
                }
                i
            })
        });
        assert_eq!(out, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_map_runs_inline() {
        let out = with_jobs(4, || {
            map((0..4).collect::<Vec<usize>>(), |i| {
                // Inside a worker the nested call must not spawn.
                assert_eq!(effective_jobs(8), 1);
                map((0..3).collect::<Vec<usize>>(), move |j| i * 10 + j)
            })
        });
        assert_eq!(out[2], vec![20, 21, 22]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = with_jobs(4, || map(Vec::<i32>::new(), |x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn map_indexed_counts() {
        let out = with_jobs(3, || map_indexed(5, |i| i * 2));
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }
}
