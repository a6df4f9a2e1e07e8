//! The host-thread pool simulation jobs run on.
//!
//! [`crate::run_jobs`] is the one caller of [`SimExecutor::map`]: every
//! simulation the workspace runs, a prediction's groups and a full-frame
//! reference alike, is a job of one list handed to one call. The executor
//! is:
//!
//! * **deterministic** — results come back in input order and each job's
//!   result is a pure function of its item, so the output is bit-identical
//!   regardless of worker count or scheduling;
//! * **scoped** — workers are scoped threads, so jobs may borrow from the
//!   caller's stack (scenes, configs, heatmaps) without `Arc`.
//!
//! ```
//! use zatel::sim_executor::SimExecutor;
//!
//! let exec = SimExecutor::new(4);
//! let squares = exec.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic scoped-thread job pool.
///
/// `jobs` is the maximum number of worker threads; the executor never
/// spawns more workers than there are items, and a single-job executor
/// runs everything inline on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimExecutor {
    jobs: usize,
}

impl SimExecutor {
    /// Creates an executor with `jobs` workers. A `jobs` of zero is
    /// clamped to one (serial).
    pub fn new(jobs: usize) -> Self {
        SimExecutor { jobs: jobs.max(1) }
    }

    /// Applies `f` to every item across up to `jobs` (see
    /// [`SimExecutor::new`]) scoped worker threads and returns the results
    /// **in input order**.
    ///
    /// `f` receives `(worker, &item)`: the index of the worker thread
    /// running the job (0 on the serial path), for recording the job on
    /// that worker's span track, and the item. Workers claim jobs in input
    /// order from one atomic cursor, so uneven job lengths load-balance;
    /// determinism is preserved because each result is put back in its
    /// input slot, so a result must not depend on `worker`.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of a panicking job on the caller.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let work = |worker: usize| {
            let mut done = Vec::new();
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    return done;
                };
                done.push((index, f(worker, item)));
            }
        };
        let workers = self.jobs.min(items.len());
        let mut done = if workers <= 1 {
            work(0)
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "the `--jobs` pool: scoped workers claim disjoint job indices from one cursor \
                          and the results are put back in input order before returning, so worker \
                          count and claim order never reach the output — pinned by the \
                          serial/parallel identity tests"
            )]
            std::thread::scope(|scope| {
                let work = &work;
                let handles: Vec<_> = (0..workers)
                    .map(|worker| scope.spawn(move || work(worker)))
                    .collect();
                let mut done = Vec::with_capacity(items.len());
                for handle in handles {
                    match handle.join() {
                        Ok(part) => done.extend(part),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                done
            })
        };
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_clamps_to_serial() {
        let workers = SimExecutor::new(0).map(&[1, 2, 3], |worker, _: &u32| worker);
        assert_eq!(workers, [0, 0, 0]);
    }

    #[test]
    fn map_preserves_input_order() {
        let exec = SimExecutor::new(8);
        let items: Vec<u64> = (0..100).collect();
        let out = exec.map(&items, |_, &x| {
            // Uneven job lengths: later items finish first.
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            x * 10 + x % 10
        });
        let expect: Vec<u64> = (0..100u64).map(|i| i * 10 + i % 10).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..50).collect();
        let f = |_: usize, x: &u64| x.wrapping_mul(31).wrapping_add(*x >> 1);
        let serial = SimExecutor::new(1).map(&items, f);
        let parallel = SimExecutor::new(7).map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_may_borrow_from_the_stack() {
        let shared = [10u64, 20, 30];
        let exec = SimExecutor::new(2);
        let out = exec.map(&[0usize, 1, 2], |_, &i| shared[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn map_hands_each_job_a_worker_below_jobs() {
        let items: Vec<u64> = (0..20).collect();
        for jobs in [1usize, 4] {
            let out = SimExecutor::new(jobs).map(&items, |worker, &x| (worker, 2 * x));
            let results: Vec<u64> = out.iter().map(|&(_, r)| r).collect();
            assert_eq!(results, (0..20).map(|i| 2 * i).collect::<Vec<u64>>());
            assert!(out.iter().all(|&(worker, _)| worker < jobs), "{out:?}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out = SimExecutor::new(4).map(&[] as &[u64], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            SimExecutor::new(2).map(&[1, 2, 3], |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        let payload = result.expect_err("the job's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }
}
