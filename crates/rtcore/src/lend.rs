//! Work shared with a lent thread.
//!
//! The crate starts no thread. A caller with a spare one lends it the way
//! `gpusim::Simulator::run_helped` is lent one: `lend(main, help)` runs
//! `main(start)` on the calling thread, where `start()` may run `help` on
//! the spare thread, and returns once both have. [`share`] hands a list of
//! independent tasks to both: each thread claims the next unclaimed task
//! from one cursor, so a lender that never starts the helper, starts it
//! first or runs it inline gets every task done all the same, and the
//! results come back in task order whichever thread ran which.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `run` on every task, on the calling thread and on the thread
/// `lend` lends (if it starts one), and returns the results in task order.
///
/// # Panics
///
/// Re-raises a panic of `run` (through `lend`, for the lent thread's).
pub(crate) fn share<T: Send, R: Send>(
    tasks: Vec<T>,
    run: impl Fn(T) -> R + Sync,
    lend: impl FnOnce(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync)),
) -> Vec<R> {
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = tasks
        .into_iter()
        .map(|task| Mutex::new((Some(task), None)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            // Only the thread that claimed the index locks its slot.
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(task) = slot.0.take() {
                slot.1 = Some(run(task));
            }
        }
    };
    lend(
        &mut |start| {
            start();
            work();
        },
        &work,
    );
    // Whatever a lender that never ran `main` left unclaimed.
    work();
    #[expect(
        clippy::expect_used,
        reason = "every task was claimed by a loop that ran to the cursor's end, and a panic in one \
                  re-raised before this point"
    )]
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).1)
        .collect::<Option<Vec<R>>>()
        .expect("every task ran")
}

#[cfg(test)]
pub(crate) mod tests {
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
                    scope.spawn(help);
                    main(&|| ());
                });
            }),
        ]
    }

    #[test]
    fn every_lender_gets_every_task_done_in_order() {
        for (name, lend) in lenders() {
            let out = super::share((0..40u64).collect(), |x| x * x, lend);
            assert_eq!(out, (0..40u64).map(|x| x * x).collect::<Vec<_>>(), "{name}");
        }
    }
}
