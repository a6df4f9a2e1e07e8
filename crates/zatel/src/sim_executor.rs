//! The host-thread pool simulation jobs run on.
//!
//! [`crate::run_jobs`] is the one caller of [`SimExecutor::map_timed`]:
//! every simulation the workspace runs, a prediction's groups and a
//! full-frame reference alike, is a job of one list handed to one call.
//! The executor is:
//!
//! * **deterministic** — results come back in input order and each job is
//!   a pure function of `(index, item)`, so the output is bit-identical
//!   regardless of worker count or scheduling;
//! * **scoped** — workers are scoped threads, so jobs may borrow from the
//!   caller's stack (scenes, configs, heatmaps) without `Arc`.
//!
//! ```
//! use zatel::sim_executor::SimExecutor;
//!
//! let exec = SimExecutor::new(4);
//! let (squares, timings) = exec.map_timed(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! assert_eq!(timings.len(), 5);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// When and where one [`SimExecutor::map_timed`] job ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Input index of the job.
    pub index: usize,
    /// Worker thread the job ran on (0 on the serial path).
    pub worker: usize,
    /// Offset of the job's start from the `map_timed` call.
    pub start: Duration,
    /// Wall-clock time the job took.
    pub wall: Duration,
}

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
    /// **in input order**, together with when and on which worker each job
    /// ran (offsets relative to the call, ready to be recorded as per-job
    /// spans).
    ///
    /// `f` receives `(index, &item)`. Workers claim jobs in input order
    /// from one atomic cursor, so uneven job lengths load-balance;
    /// determinism is preserved because each result is put back in its
    /// input slot. Timing is observation only: the result vector does not
    /// depend on it.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of a panicking job on the caller.
    pub fn map_timed<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, Vec<JobTiming>)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "observation-only job timings: the result vector is bit-identical with or without \
                      them; offsets feed span sheets and walls, never predictions, pinned by the \
                      serial/parallel identity tests"
        )]
        let epoch = Instant::now();
        let cursor = AtomicUsize::new(0);
        let work = |worker: usize| {
            let mut done = Vec::new();
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    return done;
                };
                let start = epoch.elapsed();
                let result = f(index, item);
                let wall = epoch.elapsed().saturating_sub(start);
                done.push((
                    result,
                    JobTiming {
                        index,
                        worker,
                        start,
                        wall,
                    },
                ));
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
        done.sort_unstable_by_key(|(_, timing)| timing.index);
        done.into_iter().unzip()
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
        let (_, runs) = SimExecutor::new(0).map_timed(&[1, 2, 3], |_, &x: &u32| x);
        assert!(runs.iter().all(|run| run.worker == 0));
    }

    #[test]
    fn map_preserves_input_order() {
        let exec = SimExecutor::new(8);
        let items: Vec<u64> = (0..100).collect();
        let (out, _) = exec.map_timed(&items, |i, &x| {
            // Uneven job lengths: later items finish first.
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            (i as u64) * 10 + x % 10
        });
        let expect: Vec<u64> = (0..100u64).map(|i| i * 10 + i % 10).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..50).collect();
        let f = |i: usize, x: &u64| (i as u64).wrapping_mul(31).wrapping_add(*x);
        let serial = SimExecutor::new(1).map_timed(&items, f).0;
        let parallel = SimExecutor::new(7).map_timed(&items, f).0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_may_borrow_from_the_stack() {
        let shared = [10u64, 20, 30];
        let exec = SimExecutor::new(2);
        let (out, _) = exec.map_timed(&[0usize, 1, 2], |_, &i| shared[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn map_timed_returns_results_and_orderly_timings() {
        let items: Vec<u64> = (0..20).collect();
        for jobs in [1usize, 4] {
            let (results, timings) = SimExecutor::new(jobs).map_timed(&items, |i, x| i as u64 + x);
            assert_eq!(results, (0..20).map(|i| 2 * i).collect::<Vec<u64>>());
            assert_eq!(timings.len(), items.len());
            for (i, t) in timings.iter().enumerate() {
                assert_eq!(t.index, i, "timings come back in input order");
                assert!(t.worker < jobs);
            }
        }
    }

    #[test]
    fn map_timed_serial_jobs_do_not_overlap() {
        let exec = SimExecutor::new(1);
        let (_, timings) = exec.map_timed(&[1u64, 2, 3], |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        for pair in timings.windows(2) {
            assert!(
                pair[1].start >= pair[0].start + pair[0].wall,
                "serial jobs run back to back: {timings:?}"
            );
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, timings) = SimExecutor::new(4).map_timed(&[] as &[u64], |_, &x| x);
        assert!(out.is_empty() && timings.is_empty());
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            SimExecutor::new(2).map_timed(&[1, 2, 3], |_, &x| {
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
