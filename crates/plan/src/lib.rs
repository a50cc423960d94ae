//! Hash-consed plan IR shared by the datalog engines and the algebra
//! evaluator, plus the cost model that drives join reordering.
//!
//! The crate has three parts:
//!
//! * [`arena`] — a flat arena of structurally hash-consed plan nodes.
//!   Lowering the same subexpression twice yields the same [`PlanId`],
//!   which is both the common-subexpression-elimination mechanism (memo
//!   tables key on `PlanId`) and what `explain` renders as sharing.
//! * [`catalog`] — relation cardinalities and first-column index
//!   hit-rates feeding a greedy cost-based join orderer.
//! * a process-wide toggle ([`enabled`]/[`set_enabled`]) seeded from the
//!   `ALGREC_PLAN_BASELINE` environment variable, mirroring the
//!   `ALGREC_EVAL_BASELINE` convention: setting it keeps the interpreted
//!   evaluation path for differential testing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod catalog;

pub use arena::{PlanArena, PlanId, PlanNode};
pub use catalog::{Catalog, FirstCol, JoinLit};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

fn toggle() -> &'static AtomicBool {
    static TOGGLE: OnceLock<AtomicBool> = OnceLock::new();
    TOGGLE.get_or_init(|| {
        let baseline = std::env::var_os("ALGREC_PLAN_BASELINE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        AtomicBool::new(!baseline)
    })
}

/// Whether the compiled (plan-IR) execution path is enabled.
///
/// Defaults to `true`; `ALGREC_PLAN_BASELINE=1` in the environment flips
/// the default to `false` so CI can run the interpreted path end to end.
pub fn enabled() -> bool {
    toggle().load(Ordering::Relaxed)
}

/// Override the compiled-path toggle at runtime (used by differential
/// tests to run both paths in one process).
pub fn set_enabled(on: bool) {
    toggle().store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_round_trips() {
        let initial = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(initial);
    }
}
