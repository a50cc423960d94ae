//! Hash-consed plan IR shared by the datalog engines and the algebra
//! evaluator, plus the cost model that drives join reordering.
//!
//! The crate has two parts:
//!
//! * [`arena`] — a flat arena of structurally hash-consed plan nodes.
//!   Lowering the same subexpression twice yields the same [`PlanId`],
//!   which is both the common-subexpression-elimination mechanism (memo
//!   tables key on `PlanId`) and what `explain` renders as sharing.
//! * [`catalog`] — relation cardinalities and first-column index
//!   hit-rates feeding a greedy cost-based join orderer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod catalog;

pub use arena::{PlanArena, PlanId, PlanNode};
pub use catalog::{Catalog, FirstCol, JoinLit};
