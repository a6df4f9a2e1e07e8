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
//!   caller's stack (scenes, configs, heatmaps) without `Arc`;
//! * **lending** — a list with at least two workers per job (a lone
//!   reference or a one-group prediction on two cores) lends each job a
//!   spare worker ([`Worker::join`]), which the simulation uses to decode
//!   ahead of its commit loop (`gpusim::Simulator::run_helped`).
//!
//! ```
//! use zatel::sim_executor::SimExecutor;
//!
//! let exec = SimExecutor::new(4);
//! let squares = exec.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

/// The worker a job runs on: its index, and whether the pool lends the job
/// a spare worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Worker {
    index: usize,
    spare: bool,
}

impl Worker {
    /// The index of the worker thread running the job (0 on the serial
    /// path), for recording the job on that worker's span track.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether [`Worker::join`] runs its helper on a spare worker.
    pub fn has_spare(&self) -> bool {
        self.spare
    }

    /// Runs `main` on this worker, handing it `start`: when the pool lends
    /// the job a spare worker, `start()` runs `help` on it, and `join`
    /// returns once both have; otherwise `start()` does nothing. Only the
    /// first call of `start` counts.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `help`, else of `main`, once both have returned.
    pub fn join(&self, main: &mut dyn FnMut(&dyn Fn()), help: &(dyn Fn() + Sync)) {
        if !self.spare {
            return main(&|| ());
        }
        let started = std::cell::Cell::new(false);
        scoped(|spawn| {
            main(&|| {
                if !started.replace(true) {
                    spawn(Box::new(help));
                }
            })
        });
    }
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
    /// `f` receives the [`Worker`] running the job and the item. The
    /// calling thread is worker 0; workers claim jobs in input order from
    /// one atomic cursor, so uneven job lengths load-balance; determinism
    /// is preserved because each result is put back in its input slot, so
    /// a result must not depend on the worker. With at least two workers
    /// per item, every job is lent a spare one ([`Worker::join`]).
    ///
    /// # Panics
    ///
    /// Re-raises the payload of a panicking job on the caller.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(Worker, &T) -> R + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let spare = self.jobs >= 2 * items.len();
        let work = |index: usize| {
            let mut done = Vec::new();
            loop {
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(next) else {
                    return done;
                };
                done.push((next, f(Worker { index, spare }, item)));
            }
        };
        let workers = self.jobs.min(items.len()).max(1);
        let (mut done, rest) = scoped(|spawn| {
            for index in 1..workers {
                spawn(Box::new(move || work(index)));
            }
            work(0)
        });
        done.extend(rest.into_iter().flatten());
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }

    /// Runs one job, `f`, on the calling thread: `map` over a one-item
    /// list, so with two or more workers the job is lent a spare one.
    pub fn run_one<R>(&self, f: impl FnOnce(Worker) -> R) -> R {
        f(Worker {
            index: 0,
            spare: self.jobs >= 2,
        })
    }
}

/// A job for a thread of its own, borrowing from the caller's stack.
type Job<'env, B> = Box<dyn FnOnce() -> B + Send + 'env>;

/// Runs `main` on the calling thread, handing it `spawn`, which starts a
/// job on a scoped thread of its own; returns `main`'s result and the
/// started jobs' results in start order once every thread has returned:
/// the one place the simulation crates create threads.
///
/// # Panics
///
/// Re-raises the first panic of a started job, else `main`'s, once every
/// thread has returned: a helper's panic is the cause of a commit loop's.
fn scoped<'env, A, B: Send + 'env>(main: impl FnOnce(&dyn Fn(Job<'env, B>)) -> A) -> (A, Vec<B>) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the `--jobs` pool: scoped workers claim disjoint job indices from one cursor \
                  and the results are put back in input order before returning, and a lent \
                  worker only decodes ahead of a simulation's commit loop, so worker count, claim \
                  order and helping never reach the output — pinned by the serial/parallel and \
                  helped/unhelped identity tests"
    )]
    std::thread::scope(|scope| {
        let handles = std::cell::RefCell::new(Vec::new());
        let spawn = |job: Job<'env, B>| handles.borrow_mut().push(scope.spawn(job));
        let main = catch_unwind(AssertUnwindSafe(|| main(&spawn)));
        let mut done = Vec::new();
        let mut panicked = None;
        for handle in handles.into_inner() {
            match handle.join() {
                Ok(part) => done.push(part),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        match (panicked, main) {
            (Some(payload), _) | (None, Err(payload)) => resume_unwind(payload),
            (None, Ok(main)) => (main, done),
        }
    })
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
        assert!(workers.iter().all(|w| w.index() == 0 && !w.has_spare()));
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
        let f = |_: Worker, x: &u64| x.wrapping_mul(31).wrapping_add(*x >> 1);
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
            let out = SimExecutor::new(jobs).map(&items, |worker, &x| (worker.index(), 2 * x));
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

    #[test]
    fn a_list_at_most_half_the_pool_lends_each_job_a_spare_worker() {
        let spares = |jobs, items: usize| {
            SimExecutor::new(jobs).map(&vec![0; items], |worker, _: &u8| worker.has_spare())
        };
        assert_eq!(spares(4, 2), [true; 2]);
        assert_eq!(spares(4, 3), [false; 3]);
        assert_eq!(spares(2, 1), [true]);
        assert!(SimExecutor::new(2).run_one(|worker| worker.has_spare()));
        assert!(!SimExecutor::new(1).run_one(|worker| worker.has_spare()));
    }

    #[test]
    fn join_runs_the_helper_on_another_thread_once_started() {
        let caller = std::thread::current().id();
        for jobs in [1, 2] {
            let helped = std::sync::Mutex::new(Vec::new());
            let help = || helped.lock().unwrap().push(std::thread::current().id());
            SimExecutor::new(jobs).run_one(|worker| {
                worker.join(
                    &mut |start| {
                        assert_eq!(std::thread::current().id(), caller);
                        start();
                        start();
                    },
                    &help,
                )
            });
            let helped = helped.into_inner().unwrap();
            match jobs {
                1 => assert!(helped.is_empty(), "no spare worker: start does nothing"),
                _ => assert!(helped.len() == 1 && helped[0] != caller, "{helped:?}"),
            }
        }
    }
}
