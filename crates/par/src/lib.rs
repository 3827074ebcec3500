//! Zero-dependency data parallelism for the experiment pipeline.
//!
//! The evaluation sweeps (suite generation, per-file profiling, every DSE
//! design point) are embarrassingly parallel: each unit of work is a pure
//! function of immutable shared state plus an index. This crate provides
//! exactly that shape — [`par_map`] / [`par_map_indexed`] over an index
//! range — on `std::thread::scope`, with nothing beyond `std` (the build
//! environment is offline, so no rayon). The [`notify`] module adds the
//! complementary serving shape: a long-lived [`NotifyPool`] of resident
//! worker shards with per-task completion notification.
//!
//! # Guarantees
//!
//! - **Determinism**: results are returned in index order, independent of
//!   worker count and scheduling. Combined with per-item RNG seeding
//!   derived from a master seed, parallel runs are bit-identical to
//!   serial runs (`--jobs 1`).
//! - **Work stealing**: items are claimed one at a time from a shared
//!   atomic counter, so a slow item never strands work behind it. Per-item
//!   work in this codebase is µs–ms scale, dwarfing the `fetch_add`.
//! - **Panic propagation**: a panic in any item unwinds out of the calling
//!   thread after all workers have stopped (the first observed payload is
//!   rethrown), never silently losing results.
//! - **Bounded nesting**: parallel regions nest up to
//!   [`MAX_NEST_DEPTH`] levels (figure dispatch → per-figure sweeps);
//!   deeper calls run inline on the calling worker, so recursion cannot
//!   spawn unbounded thread trees.
//!
//! # Worker count
//!
//! [`threads`] resolves, in priority order: a process-global override set
//! via [`set_threads`] (the `--jobs` CLI flag), the `CDPU_THREADS`
//! environment variable, then [`std::thread::available_parallelism`].
//! A count of 1 (or a single-item input) runs inline with no spawning.

pub mod notify;

pub use notify::NotifyPool;

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Parallel regions deeper than this run inline: depth 0 is the figure /
/// stage dispatch, depth 1 the per-figure sweeps and file loops.
pub const MAX_NEST_DEPTH: usize = 2;

/// Process-global worker-count override (0 = unset). Set by `--jobs`.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Nesting depth of the current thread: 0 on free threads, parent
    /// depth + 1 inside a pool worker.
    static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Overrides the worker count for the whole process (the `--jobs` flag).
/// `0` clears the override, restoring `CDPU_THREADS` / host detection.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// The `CDPU_THREADS` environment override, read once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CDPU_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .filter(|&n| n > 0)
    })
}

/// The resolved worker count: [`set_threads`] override, else
/// `CDPU_THREADS`, else the host's available parallelism.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nesting depth of the calling thread (0 outside any pool).
pub fn nest_depth() -> usize {
    DEPTH.with(|d| d.get())
}

/// Maps `f` over `0..len` across the pool, returning results in index
/// order. Runs inline when `len <= 1`, the resolved worker count is 1, or
/// the call is nested [`MAX_NEST_DEPTH`] or more pools deep.
///
/// # Panics
///
/// Rethrows the first panic observed in any worker (after all workers
/// have stopped).
pub fn par_map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let depth = nest_depth();
    let workers = threads().min(len);
    if workers <= 1 || depth >= MAX_NEST_DEPTH {
        return (0..len).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let run_worker = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            local.push((i, f(i)));
        }
        local
    };

    let mut slots: Vec<Option<T>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    DEPTH.with(|d| d.set(depth + 1));
                    run_worker()
                })
            })
            .collect();
        // The calling thread is a worker too; its own panic unwinds the
        // scope, which still joins every spawned thread before rethrowing.
        let own = {
            let _g = DepthGuard::enter(depth + 1);
            run_worker()
        };
        for (i, v) in own {
            slots[i] = Some(v);
        }
        let mut panic_payload = None;
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, v) in local {
                        slots[i] = Some(v);
                    }
                }
                Err(payload) => panic_payload = panic_payload.or(Some(payload)),
            }
        }
        if let Some(p) = panic_payload {
            resume_unwind(p);
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("every index claimed exactly once"))
        .collect()
}

/// Maps `f` over a slice across the pool, results in input order.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Applies `f` to every element of a mutable slice across the pool.
///
/// Unlike [`par_map`], which is read-only over its input, this is the
/// disjoint-write shape: each element is visited by exactly one worker,
/// so `f` may freely mutate it (e.g. decode a compressed chunk into the
/// `&mut [u8]` output slice it carries). Elements are partitioned into
/// contiguous runs, one per worker — chunk work in this codebase is
/// size-balanced by construction, so static partitioning beats the
/// stealing counter's coordination cost here. Runs inline under the same
/// conditions as [`par_map_indexed`] (≤1 worker or nested too deep).
///
/// # Panics
///
/// Rethrows the first panic observed in any worker (after all workers
/// have stopped).
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let depth = nest_depth();
    let workers = threads().min(items.len());
    if workers <= 1 || depth >= MAX_NEST_DEPTH {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }

    // Split into `workers` contiguous runs, the first `rem` runs one
    // element longer, so run lengths differ by at most one.
    let len = items.len();
    let base = len / workers;
    let rem = len % workers;
    let mut parts: Vec<&mut [T]> = Vec::with_capacity(workers);
    let mut rest = items;
    for w in 0..workers {
        let take = base + usize::from(w < rem);
        let (head, tail) = rest.split_at_mut(take);
        parts.push(head);
        rest = tail;
    }

    std::thread::scope(|s| {
        let mut iter = parts.into_iter();
        let own = iter.next().expect("workers >= 1");
        let handles: Vec<_> = iter
            .map(|part| {
                s.spawn(|| {
                    DEPTH.with(|d| d.set(depth + 1));
                    for item in part {
                        f(item);
                    }
                })
            })
            .collect();
        {
            let _g = DepthGuard::enter(depth + 1);
            for item in own {
                f(item);
            }
        }
        let mut panic_payload = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic_payload = panic_payload.or(Some(payload));
            }
        }
        if let Some(p) = panic_payload {
            resume_unwind(p);
        }
    });
}

/// Restores the calling thread's nesting depth even if the worker body
/// panics (the caller doubles as a worker and must not stay marked).
struct DepthGuard {
    prev: usize,
}

impl DepthGuard {
    fn enter(depth: usize) -> Self {
        let prev = DEPTH.with(|d| d.replace(depth));
        DepthGuard { prev }
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Mutex, MutexGuard};

    /// Tests that mutate the process-global override must not interleave.
    fn override_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn results_in_index_order() {
        let out = par_map_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map_indexed(0, |_| unreachable!("no items"));
        assert!(out.is_empty());
        let none: &[u8] = &[];
        let out: Vec<u8> = par_map(none, |&b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn slice_variant_matches_serial() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |&x| x * x);
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = par_map_indexed(1000, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(64, |i| {
                if i == 13 {
                    panic!("unlucky");
                }
                i
            })
        });
        assert!(r.is_err());
        // The pool is reusable after a propagated panic.
        assert_eq!(par_map_indexed(4, |i| i), vec![0, 1, 2, 3]);
        assert_eq!(nest_depth(), 0, "depth restored after panic");
    }

    #[test]
    fn one_thread_runs_inline() {
        let _g = override_lock();
        set_threads(1);
        let main_id = std::thread::current().id();
        let out = par_map_indexed(16, |i| {
            assert_eq!(std::thread::current().id(), main_id, "must not spawn");
            i
        });
        set_threads(0);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn nested_use_is_safe_and_depth_bounded() {
        let _g = override_lock();
        set_threads(4);
        // depth 0 → parallel, depth 1 → parallel, depth 2 → inline.
        let out = par_map_indexed(4, |i| {
            assert!(nest_depth() >= 1);
            let inner = par_map_indexed(4, |j| {
                assert!(nest_depth() >= 2);
                let main_id = std::thread::current().id();
                let innermost = par_map_indexed(2, |k| {
                    assert_eq!(std::thread::current().id(), main_id, "depth 2 inline");
                    k
                });
                j + innermost.len()
            });
            i + inner.iter().sum::<usize>()
        });
        set_threads(0);
        assert_eq!(out, vec![14, 15, 16, 17]);
    }

    #[test]
    fn for_each_mut_visits_every_element_once() {
        let mut items: Vec<u64> = (0..257).collect();
        par_for_each_mut(&mut items, |x| *x = *x * *x + 1);
        let want: Vec<u64> = (0..257).map(|x: u64| x * x + 1).collect();
        assert_eq!(items, want);
        // Empty and single-element inputs run inline without spawning.
        let mut none: Vec<u64> = Vec::new();
        par_for_each_mut(&mut none, |_| unreachable!("no items"));
        let mut one = [41u64];
        par_for_each_mut(&mut one, |x| *x += 1);
        assert_eq!(one, [42]);
    }

    #[test]
    fn for_each_mut_panic_propagates() {
        let mut items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_each_mut(&mut items, |x| {
                if *x == 13 {
                    panic!("unlucky");
                }
            });
        }));
        assert!(r.is_err());
        assert_eq!(nest_depth(), 0, "depth restored after panic");
    }

    #[test]
    fn for_each_mut_matches_serial_under_nesting() {
        let _g = override_lock();
        set_threads(4);
        let mut outer: Vec<Vec<u32>> = (0..8).map(|i| vec![i; 16]).collect();
        par_for_each_mut(&mut outer, |row| {
            par_for_each_mut(row, |v| *v += 1);
        });
        set_threads(0);
        for (i, row) in outer.iter().enumerate() {
            assert!(row.iter().all(|&v| v == i as u32 + 1));
        }
    }

    #[test]
    fn threads_resolves_positive() {
        let _g = override_lock();
        assert!(threads() >= 1);
        set_threads(7);
        assert_eq!(threads(), 7);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
