//! Deterministic order-preserving parallel execution over indexed tasks.
//!
//! The sharded metric scan in `fairbridge-engine`, the bootstrap, the
//! Sinkhorn half-passes and the trainer's gradient chunks follow the same
//! pattern: `n` independent work units identified by index, a pool of
//! scoped worker threads pulling indices from a shared atomic counter,
//! and a merge that consumes results **in task-index order** so the
//! output is bitwise-identical for every worker count. This module is
//! that pattern, extracted once: determinism is structural (results are
//! slotted by index), not scheduled.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;

/// Work-unit threshold for [`size_aware_workers`] at the engine scan:
/// one extra worker must bring at least this many *units* (≈ one cheap
/// arithmetic pass over one row/element each) before fan-out beats
/// running inline.
///
/// Sized against `BENCH_kernels.json` / `BENCH_subgroup.json`: the
/// `bootstrap_par8` and `bitset_parallel` rows showed 8-worker fan-out
/// *losing* to fused serial at benchmark sizes (≤ a few thousand rows),
/// while the ≥10⁵-element gemv/sinkhorn rows showed it winning. Spawn +
/// join + per-worker buffer setup costs ~50–100 µs on this class of
/// hardware; at ~1 ns/unit that amortizes around 32k units.
pub const MIN_UNITS_PER_WORKER: usize = 32 * 1024;

/// Available parallelism, probed once and cached.
///
/// `std::thread::available_parallelism()` reads cgroup quota files on
/// every call (~10 µs on containerized kernels) — pure overhead on the
/// hot audit path, and the answer never changes for the process
/// lifetime. Falls back to 1 when the probe fails.
pub fn available_workers() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Size-aware worker-count dispatch: how many of the `requested` workers
/// a job of `units` total work units spread over `n_tasks` tasks should
/// actually use.
///
/// Returns 1 (serial, no spawn) unless every extra worker is paid for by
/// at least `min_units_per_worker` units of work; never exceeds
/// `n_tasks` or `requested`. Because [`ordered_parallel_map`] is
/// bitwise-identical for every worker count, clamping the worker count
/// is purely a scheduling decision — results cannot change.
pub fn size_aware_workers(
    requested: usize,
    n_tasks: usize,
    units: usize,
    min_units_per_worker: usize,
) -> usize {
    let by_size = units / min_units_per_worker.max(1);
    requested.min(n_tasks).min(by_size).max(1)
}

/// Runs `f(0), f(1), …, f(n_tasks - 1)` across up to `workers` scoped
/// threads and returns the results **in task order**, regardless of
/// which worker computed what or when.
///
/// With `workers <= 1` (or a single task) everything runs inline on the
/// calling thread with no spawn at all — the sequential path is the
/// parallel path with one worker, not a separate code path to keep
/// equivalent.
///
/// Panics in `f` propagate: a worker panic aborts the scope and
/// re-panics on the caller, so no partial result set is ever observed.
pub fn ordered_parallel_map<T, F>(n_tasks: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n_tasks <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n_tasks))
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        // The cursor only claims a unique index; results
                        // flow back through join(), which synchronizes.
                        // ORDER: Relaxed — uniqueness only.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        done.push((i, f(i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            // fb-lint: allow(P1): a worker panic is unrecoverable — re-raising it here is the correct propagation
            for (i, v) in h.join().expect("parallel task worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        // fb-lint: allow(P1): the atomic task counter hands out every index in 0..n exactly once
        .map(|s| s.expect("every task index claimed exactly once"))
        .collect()
}

/// Spawns one named thread running `f`.
///
/// This is the sanctioned escape hatch for *long-lived* threads — accept
/// loops, connection handlers, daemon workers — whose lifetime is tied
/// to a service rather than to one computation. Short-lived computational
/// fan-out must keep going through [`ordered_parallel_map`] (lint rule
/// D2): a service thread must never fold numeric results in completion
/// order.
pub fn spawn_named<F>(name: &str, f: F) -> std::io::Result<JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new().name(name.to_owned()).spawn(f)
}

/// A fixed-size pool of long-lived named worker threads.
///
/// Each worker runs `f(worker_index)` to completion; the closure is
/// expected to loop over a shared job source (e.g. a bounded queue) and
/// return when that source closes. [`WorkerPool::join`] waits for all of
/// them and reports whether any worker panicked instead of returning.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `n` workers named `{name}-{i}`, each running `f(i)`.
    pub fn spawn<F>(name: &str, n: usize, f: F) -> std::io::Result<WorkerPool>
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let f = std::sync::Arc::new(f);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let f = std::sync::Arc::clone(&f);
            handles.push(spawn_named(&format!("{name}-{i}"), move || f(i))?);
        }
        Ok(WorkerPool { handles })
    }

    /// Number of workers in the pool.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Waits for every worker to return. `Err(k)` reports that `k`
    /// workers panicked instead of returning cleanly.
    pub fn join(self) -> Result<(), usize> {
        let panicked = self
            .handles
            .into_iter()
            .map(|h| h.join())
            .filter(std::result::Result::is_err)
            .count();
        if panicked == 0 {
            Ok(())
        } else {
            Err(panicked)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_task_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = ordered_parallel_map(37, workers, |i| i * i);
            let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = ordered_parallel_map(100, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_and_single_task_edges() {
        let empty: Vec<usize> = ordered_parallel_map(0, 8, |i| i);
        assert!(empty.is_empty());
        assert_eq!(ordered_parallel_map(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn size_aware_dispatch_goes_serial_below_threshold() {
        // Tiny jobs run inline no matter how many workers were requested.
        assert_eq!(size_aware_workers(8, 100, 1000, 32 * 1024), 1);
        assert_eq!(size_aware_workers(8, 100, 0, 32 * 1024), 1);
        // Big jobs fan out, capped by requested workers and task count.
        assert_eq!(size_aware_workers(8, 100, 1 << 20, 32 * 1024), 8);
        assert_eq!(size_aware_workers(8, 2, 1 << 20, 32 * 1024), 2);
        // Mid-size jobs get only the workers the size pays for.
        assert_eq!(size_aware_workers(8, 100, 3 * 32 * 1024, 32 * 1024), 3);
        // Degenerate threshold never divides by zero.
        assert_eq!(size_aware_workers(4, 4, 10, 0), 4);
    }

    #[test]
    fn worker_pool_runs_every_worker_and_joins() {
        let hits = std::sync::Arc::new(AtomicUsize::new(0));
        let h = std::sync::Arc::clone(&hits);
        let pool = WorkerPool::spawn("test-pool", 4, move |i| {
            h.fetch_add(i + 1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
        pool.join().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
    }

    #[test]
    fn worker_pool_join_reports_panics() {
        let pool = WorkerPool::spawn("panicky", 3, |i| {
            if i == 1 {
                panic!("boom");
            }
        })
        .unwrap();
        assert_eq!(pool.join(), Err(1));
    }

    #[test]
    fn spawn_named_names_the_thread() {
        let h = spawn_named("fb-test-thread", || {
            assert_eq!(
                std::thread::current().name(),
                Some("fb-test-thread"),
                "thread carries its name"
            );
        })
        .unwrap();
        h.join().unwrap();
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            ordered_parallel_map(8, 2, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
