//! SIGINT/SIGTERM → a process-wide shutdown flag.
//!
//! The handler does the only thing that is async-signal-safe here: one
//! atomic store. Every serving loop polls [`shutdown_requested`] (the
//! housekeeping thread every ~25 ms, which then wakes the blocked
//! accept loop; connection loops on their read-timeout tick), so a
//! signal turns into a graceful drain rather than an abrupt exit.
//!
//! This is the one place the CLI crate touches `unsafe`: registering
//! the handler with libc's `signal(2)`. The raw binding keeps the
//! dependency set at the workspace baseline (no `libc`/`signal-hook`
//! crates).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn record_shutdown(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT and SIGTERM handlers. Idempotent; call once
/// before the accept loop starts.
pub fn install() {
    let handler: extern "C" fn(i32) = record_shutdown;
    // SAFETY: `record_shutdown` only performs an atomic store, which is
    // async-signal-safe; `signal` itself is safe to call with a valid
    // function pointer for these two catchable signals.
    unsafe {
        signal(SIGINT, handler as usize);
        signal(SIGTERM, handler as usize);
    }
}

/// Whether a shutdown signal has been received (process-wide).
#[must_use]
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_flag_starts_clear() {
        install();
        install();
        // The test harness has sent no signal; the flag must be clear,
        // otherwise every in-process server test would shut down early.
        assert!(!shutdown_requested());
    }
}
