//! The workspace's one fan-out primitive: a bounded self-scheduling
//! worker pool on `std::thread::scope`.
//!
//! Workers pull indices from an atomic counter — the shape the `ptexec`
//! family used for parallel Unix commands — and write each result into
//! the task's own slot, so scheduling order never leaks into the output.
//! The sweep runner's two phases and [`crate::PreparedTrace::evaluate`]
//! both run on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` on at most `workers` threads and returns the results
/// in index order. `workers = 0` means one per available CPU; no pool is
/// ever wider than `n`.
pub fn parallel_indexed<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = effective_workers(workers, n);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let out = f(i);
                results.lock().expect("no panicked worker")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("no panicked worker")
        .into_iter()
        .map(|s| s.expect("every task produces a result"))
        .collect()
}

/// Resolves the worker-count knob: 0 means one per available CPU, and no
/// pool is ever wider than its task list.
fn effective_workers(requested: usize, tasks: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if requested == 0 { hw } else { requested };
    n.clamp(1, tasks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(1, 8), 1);
        assert_eq!(effective_workers(100, 3), 3);
        assert!(effective_workers(0, 8) >= 1);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    fn results_land_in_index_order_when_tasks_outnumber_workers() {
        // Task 0 holds one worker until the other reaches task 8, so it
        // finishes after tasks 1–7; its result must still come first.
        let meet = Barrier::new(2);
        let out = parallel_indexed(9, 2, |i| {
            if i == 0 || i == 8 {
                meet.wait();
            }
            i * i
        });
        assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn no_tasks_yield_no_results() {
        assert!(parallel_indexed(0, 2, |i| i).is_empty());
    }
}
