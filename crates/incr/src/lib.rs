//! Supported-derivation incremental maintenance — the one maintenance
//! kernel behind every live view, and the alternating-fixpoint driver
//! for three-valued views under write traffic.
//!
//! The paper's valid computation (Section 2.2) alternates two monotone
//! inner least fixpoints: an overestimate pass (`possible`, negation
//! succeeds unless the fact is certainly true) and an underestimate
//! pass (`certain`, negation succeeds only on certainly-false facts).
//! On a stratified program the alternation collapses to the two-valued
//! stratified model, so a stratum is a pass whose oracle is already
//! final. This crate maintains either kind of level with one kernel:
//!
//! * Within one level the negation oracle holds still — a pass reads
//!   the previous pass's frozen result, a stratum its own total
//!   ([`Oracle`]) — so the level is effectively a *positive* program.
//!   [`PassProgram`] condenses it once and maintains its state by
//!   **support counts per derivation** when the level has no positive
//!   recursion ([`algrec_value::SupportCounts`]) and by **DRed**
//!   (delete–rederive plus the semi-naive continuation) otherwise.
//!   Oracle changes enter through *flipped rules*.
//!   [`PassProgram::cold_into`] and [`PassProgram::replay`] are the only
//!   implementation of this in the workspace; `algrec-serve`'s
//!   `StratifiedView` drives them stratum by stratum.
//! * Across passes, [`IncrementalModel`] stores every alternation
//!   round's `(possible, certain)` pair and replays a delta level by
//!   level through [`PassProgram::maintain`]: a pass whose positive body
//!   and negated (oracle) predicates are untouched is **skipped**; a
//!   pass whose oracle churn exceeds a deterministic threshold **falls
//!   back** to cold recomputation of that level only. Convergence is
//!   re-checked after every round, so the stored round sequence stays
//!   exactly the cold alternating fixpoint's.
//!
//! Telemetry flows through [`algrec_value::TraceEvent`]'s
//! `LevelReplayed` / `LevelSkipped` / `LevelFallback` / `SupportAdjust`
//! events into `EvalStats::incr` (the `incr:` line of its text
//! summary); only the alternating driver emits them.
//!
//! There is no process-wide switch: the serving layer selects a
//! maintainer per view, and its persisted `StrategyPin::Recompute` is
//! the one way to get changed-level recomputation as a differential
//! reference.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod pass;

pub use model::{delta_interps, IncrementalModel};
pub use pass::{HeadDelta, LevelDelta, Oracle, PassAction, PassDelta, PassProgram, PassState};
