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
//! by a per-view `recompute` pin (see [`session`] and `DESIGN.md` §10
//! for the strategy decision table).
//!
//! The session speaks one command language, the newline-delimited-JSON
//! line [`protocol`], over two transports: TCP ([`server::serve`], the
//! `algrec serve` subcommand) and standard input/output
//! ([`server::serve_stdio`], the `algrec repl` subcommand).
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
mod maintain;
pub mod protocol;
pub mod server;
pub mod session;
pub mod shared;

pub use json::Json;
pub use protocol::{
    error_reply_for, handle_line, is_read_op, parse_semantics, semantics_name, shutting_down_reply,
    transport_error, Handled,
};
pub use server::{serve, serve_stdio, serve_traced};
pub use session::{
    Answer, AnswerLines, DeltaOutcome, Durability, DurableEvent, OpStats, QueryAnswer, ReadView,
    RegisterOutcome, ServeError, Session, StrategyPin, ViewDef, ViewReport, ViewStats, ViewStatus,
};
pub use shared::{Poisoned, SharedSession};
