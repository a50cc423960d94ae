//! The engine-wide worker-thread-count knob.
//!
//! Resolution order: an explicit [`set_threads`] call (the `--threads N`
//! flag), else the machine's available parallelism. The result is always
//! at least 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit override installed by `set_threads` (0 = unset).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the worker-thread count for all subsequent parallel evaluation
/// (clamped up to 1). Called by the `--threads N` CLI flag and by tests.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.max(1), Ordering::SeqCst);
}

/// The current worker-thread count (≥ 1): the override, else available
/// parallelism (1 if that is unknowable). `1` means all evaluation is
/// strictly sequential — the engines take their exact single-threaded
/// paths, not a one-worker pool.
pub fn threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_clamps_to_one() {
        // Process-global state: exercise the override round-trip in one
        // test so ordering between tests can't flake.
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(8);
        assert_eq!(threads(), 8);
    }
}
