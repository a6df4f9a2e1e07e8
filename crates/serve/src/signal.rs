//! Minimal SIGINT/SIGTERM latching without any libc crate: the handler
//! sets one `AtomicBool` (the only async-signal-safe thing it could do),
//! and the accept loop polls it.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler; polled by [`requested`].
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has been delivered.
pub(crate) fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use std::os::raw::c_int;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" fn on_signal(_sig: c_int) {
        // store on an AtomicBool is async-signal-safe.
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" {
        // Provided by the libc every Rust binary on unix already links;
        // declaring it here avoids a dependency on a libc crate the
        // offline workspace does not have.
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    /// Installs the latching handler for SIGINT and SIGTERM.
    ///
    /// The sole unsafe in the crate: registering an async-signal-safe
    /// handler via the libc `signal()` std already links.
    #[expect(
        unsafe_code,
        reason = "the one unsafe block the workspace accepts: there is no libc crate offline"
    )]
    pub(crate) fn install() {
        // SAFETY: the declaration above matches libc's `signal`, and
        // `on_signal` only stores to an AtomicBool, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// Signals are not wired on this platform; `/v1/shutdown` remains
    /// available.
    pub(crate) fn install() {}
}

/// Installs the SIGINT/SIGTERM handler (idempotent).
pub fn install() {
    imp::install();
}
