//! Work shared with a lent thread.
//!
//! The crate starts no thread. A caller with a spare one lends it the way
//! `gpusim::Simulator::run_helped` is lent one: `lend(main, help)` runs
//! `main(start)` on the calling thread, where `start()` may run `help` on
//! the spare thread, and returns once both have. [`share`] is the crate's
//! one claim loop over it: both threads take tasks from one queue, largest
//! first, and a running task may queue more, so a lender that never starts
//! the helper, starts it first or runs it inline gets every task done all
//! the same.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Runs `run` on every task, and on every task a run queues through its
/// second argument, on the calling thread and on the thread `lend` lends
/// (if it starts one). Each thread takes the largest queued task by `size`;
/// a thread that finds the queue empty while another task still runs waits
/// for what that task may queue. Returns once every task has run.
///
/// # Panics
///
/// Re-raises a panic of `run` (through `lend`, for the lent thread's). A
/// panicking task is counted out, so the other thread drains the queue and
/// stops.
pub(crate) fn share<T: Send>(
    tasks: Vec<T>,
    size: impl Fn(&T) -> usize + Sync,
    run: impl Fn(T, &dyn Fn(T)) + Sync,
    lend: impl FnOnce(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync)),
) {
    // Tasks queued or running: the work is done at zero. A task's queued
    // tasks are counted in before it counts itself out.
    let pending = AtomicUsize::new(tasks.len());
    let queue = Mutex::new(tasks);
    let push = |task| {
        pending.fetch_add(1, Ordering::AcqRel);
        lock(&queue).push(task);
    };
    let work = || {
        while pending.load(Ordering::Acquire) > 0 {
            let task = {
                let queue = &mut *lock(&queue);
                let largest = (0..queue.len()).max_by_key(|&i| size(&queue[i]));
                largest.map(|i| queue.swap_remove(i))
            };
            let Some(task) = task else {
                std::thread::yield_now();
                continue;
            };
            let _done = CountOut(&pending);
            run(task, &push);
        }
    };
    lend(
        &mut |start| {
            start();
            work();
        },
        &work,
    );
}

/// Counts a task out of `share`'s pending count when dropped, even by a
/// panic.
struct CountOut<'p>(&'p AtomicUsize);

impl Drop for CountOut<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The lock of state the threads of a [`share`] fill, whatever a panic
/// left in it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    /// A lender: `lend(main, help)` as [`super::share`] takes it.
    pub(crate) type Lender = fn(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync));

    /// `(name, lender)` pairs that differ in when and where the helper
    /// runs: never, inline when started, to completion before `main`, or on
    /// a thread of its own from the start.
    pub(crate) fn lenders() -> [(&'static str, Lender); 4] {
        [
            ("never", |main, _| main(&|| ())),
            ("inline", |main, help| main(&|| help())),
            ("first", |main, help| {
                help();
                main(&|| ());
            }),
            ("thread", |main, help| {
                std::thread::scope(|scope| {
                    let helper = scope.spawn(help);
                    main(&|| ());
                    // The helper's own payload, as `Worker::join` re-raises it.
                    if let Err(payload) = helper.join() {
                        std::panic::resume_unwind(payload);
                    }
                });
            }),
        ]
    }

    /// Shares the tasks `0..8`, where task `n` queues `2n + 8` and `2n + 9`
    /// below 64: a tree that reaches every number below 64 once. Returns
    /// how often each number ran.
    fn run_tree(lend: Lender) -> Vec<u32> {
        let runs: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        super::share(
            (0..8).collect(),
            |&n: &usize| 64 - n,
            |n, queue| {
                runs[n].fetch_add(1, Ordering::Relaxed);
                for child in [2 * n + 8, 2 * n + 9].into_iter().filter(|&c| c < 64) {
                    queue(child);
                }
            },
            lend,
        );
        runs.iter().map(|r| r.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn every_lender_runs_every_task_and_every_queued_task_once() {
        for (name, lend) in lenders() {
            assert_eq!(run_tree(lend), vec![1; 64], "{name}");
        }
    }

    #[test]
    fn a_lender_takes_the_largest_queued_task_first() {
        let order = std::sync::Mutex::new(Vec::new());
        let never = lenders()[0].1;
        super::share(
            vec![3, 9, 1, 7],
            |&n: &u32| n as usize,
            |n, queue| {
                order.lock().unwrap().push(n);
                if n == 9 {
                    queue(8);
                    queue(2);
                }
            },
            never,
        );
        assert_eq!(order.into_inner().unwrap(), [9, 8, 7, 3, 2, 1]);
    }

    /// Shares the tree of [`run_tree`] with every task that runs on the
    /// calling thread (`on_caller`) or else on a lent one panicking; a task
    /// on the other side first waits until one has panicked, so both sides
    /// run. Returns the payload `share` re-raised.
    fn panic_on(lend: Lender, on_caller: bool) -> String {
        let caller = std::thread::current().id();
        let panicked = AtomicBool::new(false);
        let out = catch_unwind(AssertUnwindSafe(|| {
            super::share(
                (0..8).collect(),
                |&n: &usize| 64 - n,
                |n: usize, queue| {
                    let here = std::thread::current().id() == caller;
                    if here == on_caller {
                        panicked.store(true, Ordering::Release);
                        panic!(
                            "task {n} on the {}",
                            if here { "caller" } else { "lent thread" }
                        );
                    }
                    while !panicked.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for child in [2 * n + 8, 2 * n + 9].into_iter().filter(|&c| c < 64) {
                        queue(child);
                    }
                },
                lend,
            );
        }));
        match out.map_err(|payload| payload.downcast::<String>()) {
            Err(Ok(text)) => *text,
            _ => panic!("share returned without re-raising the task's panic"),
        }
    }

    #[test]
    fn a_task_panicking_on_the_caller_reraises_under_every_lender() {
        for (name, lend) in lenders() {
            let payload = panic_on(lend, true);
            assert!(payload.ends_with("on the caller"), "{name}: {payload}");
        }
    }

    #[test]
    fn a_task_panicking_on_the_lent_thread_reraises_under_the_thread_lender() {
        let (_, thread) = lenders()[3];
        let payload = panic_on(thread, false);
        assert!(payload.ends_with("on the lent thread"), "{payload}");
    }
}
