//! Complex-object values and three-valued machinery for the `algrec`
//! reproduction of *"On the Power of Algebras with Recursion"* (Beeri &
//! Milo, SIGMOD 1993).
//!
//! This crate is the common substrate shared by the specification framework
//! (`algrec-adt`), the deduction engine (`algrec-datalog`) and the
//! algebra family (`algrec-core`). It provides:
//!
//! * [`Value`] — complex-object values: booleans, integers, strings,
//!   tuples and finite sets. Sets are canonical by construction
//!   ([`std::collections::BTreeSet`]), which realizes the INS
//!   commutativity/absorption equations of the paper's SET specification
//!   (Section 2.1) at the value level.
//! * [`Relation`] and [`Database`] — named finite sets of values; a
//!   database in the paper is "a collection of named sets" (Section 3).
//! * [`Truth`] — Kleene's strong three-valued logic. The paper's valid
//!   interpretation is a three-valued model with true, false and undefined
//!   facts (Section 2.2).
//! * [`TvSet`] — a three-valued set, represented by a certain lower bound
//!   and a possible upper bound. This is the value domain over which the
//!   alternating-fixpoint evaluation of `algebra=` programs runs.
//! * [`Vid`] and [`Symbol`] — global interning (hash-consing) of values
//!   and identifier strings, giving the evaluators O(1) equality/hash on
//!   deep values ([`intern`]).
//! * [`ColumnIndex`] — hash indexes keyed by one tuple column, used for
//!   equi-join and matcher probes; [`Relation`] caches a lazy
//!   first-column index ([`index`]).
//! * [`EvalStats`] and [`Trace`] — zero-cost-when-off evaluation
//!   telemetry ([`stats`]). The paper's theorems are about *stages*
//!   (the valid computation of Section 2.2, the step-indexed simulation
//!   of Prop 5.2); the trace layer makes stage counts, per-stage delta
//!   sizes and index traffic observable reproduction artifacts.
//! * [`Budget`] — explicit resource budgets. The paper works over possibly
//!   infinite initial models (e.g. the natural numbers with successor);
//!   domain-independent queries only inspect a finite window of such a
//!   model (Section 4), and the budget materializes exactly such a window.
//!   Budget exhaustion is a reported error, never a silent wrong answer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod delta;
pub mod index;
pub mod intern;
pub mod relation;
pub mod stats;
pub mod truth;
pub mod tvset;
#[allow(clippy::module_inception)]
pub mod value;

pub use budget::{Budget, BudgetError, Meter};
pub use delta::{DatabaseDelta, RelationDelta, SupportCounts};
pub use index::ColumnIndex;
pub use intern::{Symbol, Vid};
pub use relation::{Database, Relation};
pub use stats::{
    CollectSink, EvalStats, IncrStats, LogSink, NullSink, PhaseStats, StoreStats, Trace,
    TraceEvent, TraceSink,
};
pub use truth::Truth;
pub use tvset::TvSet;
pub use value::{Value, ValueKind};

#[cfg(test)]
mod send_sync_audit {
    //! The concurrency subsystem (`algrec-sched`) shares these types
    //! across worker threads and serving snapshots; this audit turns the
    //! requirement into a compile-time fact. `Value` is interned
    //! (`Arc`-backed), `Relation` caches its index in a `OnceLock`, and
    //! the interner itself is a global `RwLock` — all thread-safe by
    //! construction.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_evaluation_types_are_send_and_sync() {
        assert_send_sync::<Value>();
        assert_send_sync::<Relation>();
        assert_send_sync::<Database>();
        assert_send_sync::<TvSet>();
        assert_send_sync::<Truth>();
        assert_send_sync::<Budget>();
        assert_send_sync::<Meter>();
        assert_send_sync::<Trace>();
        assert_send_sync::<EvalStats>();
        assert_send_sync::<BudgetError>();
        assert_send_sync::<ColumnIndex<Vec<Value>>>();
    }
}
