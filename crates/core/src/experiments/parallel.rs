//! Deterministic parallel sweep runner.
//!
//! Experiment drivers fan independent simulation points out across a
//! worker pool and reassemble the results in input order, so a sweep's
//! output is **bit-identical** to a serial evaluation regardless of
//! thread count or scheduling. Two properties make that hold:
//!
//! 1. Every point is self-contained: a closure over owned inputs (e.g.
//!    a [`SimConfig`]) whose randomness comes only from its own seed,
//!    derived via [`um_sim::rng::derive_seed`] from the sweep's master
//!    seed and the point's index — never from execution order.
//! 2. Results are written back by input index, not completion order.
//!
//! The pool size comes from the `UM_THREADS` environment variable
//! (default: the machine's available parallelism; `UM_THREADS=1` forces
//! the serial path). [`map_with_threads`] takes the thread count as an
//! argument for race-free testing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::report::RunReport;
use crate::system::{SimConfig, SystemSim};

/// Environment variable selecting the sweep worker-pool size.
pub const THREADS_ENV: &str = "UM_THREADS";

/// Returns the worker-pool size: `UM_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism (1 if
/// unknown).
#[expect(
    clippy::disallowed_methods,
    reason = "UM_THREADS only sizes the worker pool; the sweep merge is deterministic at any value"
)]
pub fn threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => threads_from_value(Some(&v)),
        Err(_) => threads_from_value(None),
    }
}

/// [`threads`] with the environment value passed explicitly, so tests
/// can exercise the parsing without mutating process state.
pub fn threads_from_value(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` on the [`threads`]-sized pool, preserving
/// input order. `f` receives each item's index alongside the item so
/// callers can derive per-point seeds from it.
pub fn map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    map_with_threads(threads(), items, f)
}

/// [`map`] with an explicit thread count.
///
/// `n <= 1` runs serially on the calling thread. Any `n` yields the
/// same output: workers pull indices from a shared counter, evaluate
/// points independently, and results are merged back by index.
pub fn map_with_threads<T, U, F>(n: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let len = items.len();
    if n <= 1 || len <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Each slot is taken exactly once by the worker that claims its
    // index, so the Mutex is uncontended; it exists only to hand owned
    // items across threads.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let workers = n.min(len);

    let mut results: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("sweep slot lock poisoned")
                            .take()
                            .expect("sweep slot claimed twice");
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    // Completion order varies with scheduling; input order does not.
    results.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(results.len(), len);
    results.into_iter().map(|(_, u)| u).collect()
}

/// Runs a batch of fully-specified simulation points in parallel,
/// returning reports in input order.
///
/// The caller fixes each config's seed (typically via
/// [`um_sim::rng::derive_seed`]); this function adds no randomness of
/// its own, so the batch is reproducible and bit-identical to running
/// the configs serially.
pub fn run_reports(configs: Vec<SimConfig>) -> Vec<RunReport> {
    map(configs, |_, cfg| SystemSim::new(cfg).run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_on_pure_work() {
        let items: Vec<u64> = (0..100).collect();
        let f = |i: usize, x: u64| x.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
        let serial = map_with_threads(1, items.clone(), f);
        for n in [2, 3, 4, 8, 64] {
            assert_eq!(serial, map_with_threads(n, items.clone(), f), "n={n}");
        }
    }

    #[test]
    fn order_is_preserved_under_uneven_work() {
        // Early items take longest, so completion order inverts input
        // order; output order must not.
        let items: Vec<usize> = (0..16).collect();
        let out = map_with_threads(4, items, |i, x| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i as u64) * 200));
            x * 10
        });
        assert_eq!(out, (0..16).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = map_with_threads(32, vec![1, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_with_threads(4, empty, |_, x| x).is_empty());
        assert_eq!(map_with_threads(4, vec![7], |_, x| x * 2), vec![14]);
    }

    #[test]
    fn threads_value_parsing() {
        assert_eq!(threads_from_value(Some("3")), 3);
        assert_eq!(threads_from_value(Some(" 8 ")), 8);
        // Invalid or non-positive values fall back to autodetection,
        // which is always at least 1.
        assert!(threads_from_value(Some("0")) >= 1);
        assert!(threads_from_value(Some("lots")) >= 1);
        assert!(threads_from_value(None) >= 1);
    }
}
