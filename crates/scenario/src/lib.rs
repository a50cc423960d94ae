//! Scenario corpus engine: record/replay end-to-end serving workloads.
//!
//! A *scenario* packages a program, an extensional database, and a
//! recorded line-protocol trace with its expected replies into a
//! directory ([`corpus`]). The [`replay`](mod@replay) harness drives the trace
//! against a fresh serving session — in-process or over live TCP — at
//! adjustable concurrency and read scale-factor, diffing replies
//! against the recording modulo epoch tags. Scenarios are selected with
//! a small [`filter`] expression DSL (`name ~ "authz" & tag != slow`),
//! and `algrec scenario run` ([`runner`]) reports, per scenario, whether
//! every concurrency leg and the durable recovery leg matched.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod filter;
pub mod replay;
pub mod runner;

pub use corpus::{load_corpus, load_scenario, CorpusError, Scenario, ViewSpec};
pub use filter::{parse as parse_filter, Expr as FilterExpr, ParseError as FilterError};
pub use replay::{
    diff_modulo_epoch, replay, strip_epoch, Connector, Divergence, InProcessConnector,
    ReplayOptions, ReplayOutcome, TcpConnector, Transport,
};
pub use runner::{
    all_matched, list, record, run, select, LegReport, RecoveryLeg, RunOptions, ScenarioReport,
};
