//! `algrec` — a full reproduction of *"On the Power of Algebras with
//! Recursion"* (Catriel Beeri & Tova Milo, SIGMOD 1993) as a Rust
//! workspace.
//!
//! The paper proves that algebraic query languages extended with general
//! recursive definitions (`algebra=`, `IFP-algebra=`), interpreted under
//! the **valid semantics**, express exactly the queries of general
//! deductive programs with negation. This crate re-exports the whole
//! implementation:
//!
//! * [`value`] — complex-object values, relations, three-valued truth and
//!   three-valued sets;
//! * [`column`](mod@column) — sorted immutable runs of `u32` rows and the
//!   CRC-footered run file format the store's validate-before-decode
//!   snapshots are written in;
//! * [`adt`] — algebraic specifications with negation, valid
//!   interpretations, initial valid models (Section 2);
//! * [`datalog`] — deduction under minimal-model / stratified /
//!   inflationary / well-founded / valid / stable semantics, safety
//!   (Section 4);
//! * [`core`] — the algebra family and its valid-semantics evaluator
//!   (Section 3);
//! * [`plan`] — the hash-consed plan IR, cost-based join orderer and
//!   `explain` rendering behind the compiled execution path;
//! * [`translate`] — the Section 5/6 translations and the theorem
//!   harnesses;
//! * [`serve`] — the incremental materialized-view session engine behind
//!   `algrec repl` and the `algrec serve` line-protocol server;
//! * [`store`] — the durable store under the serving layer: write-ahead
//!   log, snapshots, and crash recovery (`--data-dir`);
//! * [`sched`] — the concurrency substrate: the worker pool behind
//!   parallel fixpoint rounds (`--threads`) and the epoch-versioned
//!   snapshot swap behind the server's lock-free reads;
//! * [`cluster`] — the serving fleet: a primary that is an ordinary
//!   durable store, replicas that tail its WAL generations with
//!   position-gated consistent reads, and the position-pinning router
//!   (`algrec cluster serve|join|route`).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-claim-by-claim verification record.
//!
//! ```
//! use algrec::prelude::*;
//!
//! // The same game, both paradigms, same (three-valued) answers.
//! let alg = algrec::core::parser::parse_program(
//!     "def win = map(move - (map(move, x.0) * win), x.0); query win;",
//! ).unwrap();
//! let ded = algrec::datalog::parser::parse_program(
//!     "win(X) :- move(X, Y), not win(Y).",
//! ).unwrap();
//! let db = Database::new().with("move", Relation::from_pairs([
//!     (Value::int(1), Value::int(2)),
//!     (Value::int(2), Value::int(3)),
//! ]));
//! let a = algrec::core::eval_valid(&alg, &db, Budget::SMALL).unwrap();
//! let d = algrec::datalog::evaluate(&ded, &db, algrec::datalog::Semantics::Valid, Budget::SMALL).unwrap();
//! assert_eq!(a.member(&Value::int(2)), Truth::True);
//! assert_eq!(d.model.truth("win", &[Value::int(2)]), Truth::True);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use algrec_adt as adt;
pub use algrec_cluster as cluster;
pub use algrec_column as column;
pub use algrec_core as core;
pub use algrec_datalog as datalog;
pub use algrec_plan as plan;
pub use algrec_scenario as scenario;
pub use algrec_sched as sched;
pub use algrec_serve as serve;
pub use algrec_store as store;
pub use algrec_translate as translate;
pub use algrec_value as value;

/// Commonly used items in one import.
pub mod prelude {
    pub use algrec_core::{
        eval_exact, eval_valid, eval_valid_traced, AlgExpr, AlgProgram, EvalOptions, OpDef,
    };
    pub use algrec_datalog::{evaluate, evaluate_traced, load_facts, Program, Rule, Semantics};
    pub use algrec_serve::{serve, serve_traced, Session, SharedSession};
    pub use algrec_translate::{check_roundtrip, datalog_to_algebra};
    pub use algrec_value::{
        Budget, CollectSink, Database, EvalStats, LogSink, Relation, Trace, Truth, TvSet, Value,
    };
}
