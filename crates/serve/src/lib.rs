//! The serving layer: incremental materialized-view sessions over the
//! algrec evaluation stack.
//!
//! A [`session::Session`] owns an extensional database and a set of named
//! **materialized views** — datalog programs under any supported
//! semantics, or core-algebra programs, which the [`algebra`] planner
//! runs as their Theorem 6.2 translation when they are in its class.
//! Facts asserted and retracted
//! against the database are propagated to every view *incrementally*
//! by one maintenance kernel (`algrec-incr`): counting for non-recursive
//! levels, DRed (delete–rederive) over the semi-naive engine for
//! recursive ones. Stratified programs drive it stratum by stratum, and
//! so do inflationary views of semipositive programs, on which the two
//! semantics coincide; non-stratified programs under the three-valued
//! semantics drive it over every pass of the alternating fixpoint
//! itself. Changed-level recomputation serves the other inflationary
//! programs and is otherwise the differential reference, selected only
//! by a per-view `recompute` pin (see [`maintain`] and `DESIGN.md` §10
//! for the strategy decision table).
//!
//! The session is exposed two ways: an interactive REPL
//! ([`repl::run_repl`], the `algrec repl` subcommand) and a
//! newline-delimited-JSON line protocol over TCP ([`server::serve`], the
//! `algrec serve` subcommand). Both speak the same operations via
//! [`protocol`].
//!
//! Concurrency: the TCP server wraps the session in a
//! [`shared::SharedSession`] — writes serialize through a single-writer
//! mutex (so WAL order stays commit order) while reads resolve against an
//! epoch-versioned immutable snapshot ([`session::ReadView`]) without
//! blocking writers. Every protocol reply carries the epoch it answered
//! at.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebra;
pub mod json;
pub mod maintain;
pub mod protocol;
pub mod repl;
pub mod server;
pub mod session;
pub mod shared;

pub use json::Json;
pub use maintain::{AlternatingView, MaintainReport, RecomputeView, StratifiedView};
pub use protocol::{
    error_reply_for, handle_line, is_read_op, parse_semantics, semantics_name, shutting_down_reply,
    transport_error, Handled,
};
pub use repl::run_repl;
pub use server::{serve, serve_traced};
pub use session::{
    Answer, AnswerLines, DeltaOutcome, Durability, DurableEvent, OpStats, QueryAnswer, ReadView,
    RegisterOutcome, ServeError, Session, StrategyPin, ViewDef, ViewReport, ViewStats, ViewStatus,
};
pub use shared::{Poisoned, SharedSession};
