//! Graceful-shutdown signal hooks, shared by the server and `abs-cli`.
//!
//! The handler body is one atomic store — the only async-signal-safe
//! thing it could do — and two loops read the flag:
//!
//! * the server's accept loop, between connections. SIGINT/SIGTERM
//!   begin a *drain*, not an exit: the loop stops taking connections,
//!   the solver worker checkpoints the in-flight job to the spool, and
//!   the store's non-terminal jobs are written to the drain manifest so
//!   `--resume-jobs` can pick them back up;
//! * the `abs-cli` solve poll loop, once per round: it checkpoints (when
//!   `--checkpoint-out` is set), stops the session and reports the
//!   partial result.
//!
//! There is no libc dependency in this workspace, so the Unix `signal`
//! entry point is declared directly; this module is the crate's single
//! `unsafe` island (the crate root holds `deny(unsafe_code)`). On
//! non-Unix targets installation is a no-op: the server is then only
//! stoppable by killing the process, and CLI solves are not
//! signal-interruptible.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler on SIGINT/SIGTERM, read by the server's accept
/// loop and the CLI's poll loop.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// `true` once SIGINT or SIGTERM has been received.
pub fn interrupted() -> bool {
    // ordering: pairs with the SeqCst store in `on_signal`; total order
    // keeps the one flag trivially race-free across async signal entry.
    INTERRUPTED.load(Ordering::SeqCst)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::{AtomicBool, Ordering, INTERRUPTED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`. Returns the previous handler (unused).
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// The handler body is a single atomic store — async-signal-safe.
    extern "C" fn on_signal(_signum: i32) {
        // ordering: pairs with the SeqCst load in `interrupted`.
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    static INSTALLED: AtomicBool = AtomicBool::new(false);

    pub fn install() {
        // ordering: one-shot guard — the SeqCst swap pairs with the
        // competing SeqCst swap in install; the winner of a concurrent
        // race is unambiguous (install is idempotent anyway).
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        // SAFETY: `signal` is the POSIX entry point; the handler only
        // performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent; no-op off Unix).
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_flag_starts_clear() {
        install();
        install();
        // The test harness has not been signalled.
        assert!(!interrupted());
    }
}
