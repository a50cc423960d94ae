//! The engine-wide shard-count knob.
//!
//! Where [`crate::threads`](mod@crate::threads) controls *how many workers* fan a fixpoint
//! round out, the shard count controls *how the round's delta is
//! partitioned*: with `shards() > 1` the datalog engines split each
//! round's delta into exactly that many partitions keyed by the
//! first-column id of each fact (the cluster's EDB partitioning
//! function), instead of whole-fact-hash partitions keyed by the thread
//! count. Work assignment then follows data ownership — partition k is
//! shard k's work — while the rule-major, shard-minor merge keeps the
//! output bit-identical to the single-shard (and sequential) run at any
//! N.
//!
//! Resolution order mirrors the thread knob: an explicit [`set_shards`]
//! call (the `--shards N` flag), else the `ALGREC_SHARDS` environment
//! variable, else 1 (sharding off).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit override installed by `set_shards` (0 = unset).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the shard count for all subsequent evaluation (clamped up to 1).
/// Called by the cluster's `--shards N` flag and by tests; takes
/// precedence over `ALGREC_SHARDS`.
pub fn set_shards(n: usize) {
    OVERRIDE.store(n.max(1), Ordering::SeqCst);
}

/// The default shard count: `ALGREC_SHARDS` if set to a positive
/// integer, else 1.
fn default_shards() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("ALGREC_SHARDS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        1
    })
}

/// The current shard count (≥ 1). `1` means sharding is off: rounds
/// partition by whole-fact hash across the thread count, exactly as
/// before the cluster existed.
pub fn shards() -> usize {
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => default_shards(),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_clamps_to_one() {
        // Process-global state: one test, like the thread knob's.
        set_shards(4);
        assert_eq!(shards(), 4);
        set_shards(0);
        assert_eq!(shards(), 1);
        set_shards(1);
        assert_eq!(shards(), 1);
    }
}
