//! A work-stealing worker pool over scoped threads.
//!
//! [`Pool::run`] executes `jobs` independent closures and returns their
//! results **in job order**. Work distribution is a single shared atomic
//! counter: every worker repeatedly claims the next unclaimed job index
//! (`fetch_add`), so a worker that finishes early immediately steals the
//! next job instead of idling behind a static partition. Results travel
//! back over a channel tagged with their job index and are re-sorted
//! into submission order, which is what lets callers (the semi-naive
//! round fan-out) stay deterministic regardless of
//! which worker ran which job in which interleaving.
//!
//! With one worker or one job, `run` degrades to a plain in-place loop —
//! no threads are spawned, so `threads = 1` is *exactly* the sequential
//! engine, not a one-worker simulation of it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A fixed-width worker pool. Cheap to construct; threads are scoped to
/// each [`Pool::run`] call (no persistent worker state to poison).
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers (clamped up to 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The pool honoring the engine-wide knob ([`crate::threads`]).
    pub fn current() -> Self {
        Pool::new(crate::threads())
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `jobs` independent jobs, `f(i)` computing job `i`, and return
    /// the results in job order. Spawns `min(threads, jobs)` scoped
    /// workers which steal job indices from a shared counter; inline
    /// (no threads) when either side of that min is ≤ 1.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || jobs <= 1 {
            return (0..jobs).map(f).collect();
        }
        let workers = self.threads.min(jobs);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    if tx.send((i, f(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("worker pool delivered every job"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let pool = Pool::new(4);
        // Uneven job costs force out-of-order completion.
        let out = pool.run(37, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = Pool::new(1);
        let here = std::thread::current().id();
        let out = pool.run(5, |i| (i, std::thread::current().id()));
        for (i, (j, tid)) in out.into_iter().enumerate() {
            assert_eq!(i, j);
            assert_eq!(tid, here, "threads=1 must not spawn");
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        assert!(Pool::new(4).run(0, |i| i).is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = Pool::new(8).run(2, |i| i + 10);
        assert_eq!(out, vec![10, 11]);
    }

    #[test]
    fn borrows_shared_state_immutably() {
        let data: Vec<usize> = (0..100).collect();
        let out = Pool::new(3).run(10, |i| data[i * 10..(i + 1) * 10].iter().sum::<usize>());
        assert_eq!(out.iter().sum::<usize>(), data.iter().sum::<usize>());
    }
}
