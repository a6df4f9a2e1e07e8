//! Shared parallel-execution layer for simulation jobs.
//!
//! Every place the workspace fans simulation work out across host threads
//! — per-group simulation in the pipeline, the Fig. 13–20 bench sweeps,
//! the CLI's `predict` — goes through [`SimExecutor`] instead of ad-hoc
//! `std::thread` plumbing. The executor is:
//!
//! * **deterministic** — results come back in input order and each job is
//!   a pure function of `(index, item)`, so the output is bit-identical
//!   regardless of worker count or scheduling;
//! * **seeded** — a master seed deterministically derives a per-job seed
//!   ([`SimExecutor::job_seed`]) for jobs that need private randomness;
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

/// A deterministic, seeded, scoped-thread job pool.
///
/// `jobs` is the maximum number of worker threads; the executor never
/// spawns more workers than there are items, and a single-job executor
/// runs everything inline on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimExecutor {
    jobs: usize,
    seed: u64,
}

impl SimExecutor {
    /// Creates an executor with `jobs` workers and seed 0. A `jobs` of
    /// zero is clamped to one (serial).
    pub fn new(jobs: usize) -> Self {
        SimExecutor {
            jobs: jobs.max(1),
            seed: 0,
        }
    }

    /// Creates an executor with `jobs` workers deriving per-job seeds from
    /// `seed`.
    pub fn seeded(jobs: usize, seed: u64) -> Self {
        SimExecutor {
            jobs: jobs.max(1),
            seed,
        }
    }

    /// A serial executor: everything runs inline on the caller's thread.
    pub fn serial() -> Self {
        SimExecutor::new(1)
    }

    /// An executor sized to the host's available parallelism.
    pub fn host() -> Self {
        SimExecutor::new(available_jobs())
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The deterministic seed for job `index`: a splitmix64 step of the
    /// master seed offset by the index, so neighbouring jobs get
    /// well-separated streams.
    pub fn job_seed(&self, index: usize) -> u64 {
        splitmix64(
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
        )
    }

    /// Applies `f` to every item, in parallel across up to
    /// [`SimExecutor::jobs`] scoped worker threads, and returns the results
    /// **in input order**.
    ///
    /// `f` receives `(index, &item)`. Work is distributed dynamically (an
    /// atomic cursor), so uneven job lengths load-balance; determinism is
    /// preserved because each result lands in its input slot.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        #[expect(
            clippy::disallowed_methods,
            reason = "the `--jobs` pool: scoped workers claim disjoint job indices from one cursor \
                      and every result lands in its input slot before the scope joins, so worker \
                      count and claim order never reach the output — pinned by the serial/parallel \
                      and map/map_timed identity tests"
        )]
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                }));
            }
            for handle in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "re-raises a worker panic on the caller; swallowing it would hand back partial results"
                )]
                for (i, r) in handle.join().expect("simulation job panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "the strided job loop assigns every index exactly once before join returns"
        )]
        slots
            .into_iter()
            .map(|r| r.expect("every job index was executed"))
            .collect()
    }

    /// Like [`SimExecutor::map`], additionally measuring when and on which
    /// worker each job ran. Timings are returned in input order with
    /// offsets relative to the `map_timed` call, ready to be recorded as
    /// per-job spans.
    ///
    /// The result vector is identical to what [`SimExecutor::map`] returns
    /// — timing is observation only.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn map_timed<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, Vec<JobTiming>)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "observation-only job spans: the result vector is bit-identical with or without timing; offsets feed span sheets and never flow into predictions, pinned by the map/map_timed identity test"
        )]
        let epoch = Instant::now();
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            let mut results = Vec::with_capacity(items.len());
            let mut timings = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let start = epoch.elapsed();
                results.push(f(i, item));
                timings.push(JobTiming {
                    index: i,
                    worker: 0,
                    start,
                    wall: epoch.elapsed().saturating_sub(start),
                });
            }
            return (results, timings);
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<(R, JobTiming)>> = Vec::new();
        slots.resize_with(items.len(), || None);
        #[expect(
            clippy::disallowed_methods,
            reason = "the `--jobs` pool: scoped workers claim disjoint job indices from one cursor \
                      and every result lands in its input slot before the scope joins, so worker \
                      count and claim order never reach the output — pinned by the serial/parallel \
                      and map/map_timed identity tests"
        )]
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let cursor = &cursor;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut done: Vec<(usize, R, JobTiming)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let start = epoch.elapsed();
                        let r = f(i, &items[i]);
                        let timing = JobTiming {
                            index: i,
                            worker,
                            start,
                            wall: epoch.elapsed().saturating_sub(start),
                        };
                        done.push((i, r, timing));
                    }
                    done
                }));
            }
            for handle in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "re-raises a worker panic on the caller; swallowing it would hand back partial results"
                )]
                for (i, r, t) in handle.join().expect("simulation job panicked") {
                    slots[i] = Some((r, t));
                }
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "the strided job loop assigns every index exactly once before join returns"
        )]
        slots
            .into_iter()
            .map(|s| s.expect("every job index was executed"))
            .unzip()
    }
}

impl Default for SimExecutor {
    fn default() -> Self {
        SimExecutor::host()
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The splitmix64 mixing function: a single step of Vigna's generator,
/// used to turn correlated seed inputs into well-distributed outputs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_clamps_to_serial() {
        assert_eq!(SimExecutor::new(0).jobs(), 1);
    }

    #[test]
    fn map_preserves_input_order() {
        let exec = SimExecutor::new(8);
        let items: Vec<u64> = (0..100).collect();
        let out = exec.map(&items, |i, &x| {
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
        let serial = SimExecutor::serial().map(&items, f);
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
    fn job_seeds_are_deterministic_and_distinct() {
        let a = SimExecutor::seeded(4, 42);
        let b = SimExecutor::seeded(8, 42);
        assert_eq!(
            a.job_seed(3),
            b.job_seed(3),
            "seed depends on index, not worker count"
        );
        let seeds: Vec<u64> = (0..32).map(|i| a.job_seed(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "no collisions in a small window");
        assert_ne!(a.job_seed(0), SimExecutor::seeded(4, 43).job_seed(0));
    }

    #[test]
    fn map_timed_returns_results_and_orderly_timings() {
        let items: Vec<u64> = (0..20).collect();
        let f = |i: usize, x: &u64| (i as u64) + x;
        for jobs in [1usize, 4] {
            let exec = SimExecutor::new(jobs);
            let (results, timings) = exec.map_timed(&items, f);
            assert_eq!(results, exec.map(&items, f), "same results as map");
            assert_eq!(timings.len(), items.len());
            for (i, t) in timings.iter().enumerate() {
                assert_eq!(t.index, i, "timings come back in input order");
                assert!(t.worker < jobs.max(1));
            }
        }
    }

    #[test]
    fn map_timed_serial_jobs_do_not_overlap() {
        let exec = SimExecutor::serial();
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
        let out: Vec<u64> = SimExecutor::new(4).map(&[] as &[u64], |_, &x| x);
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
        assert!(result.is_err());
    }
}
