//! The algebra family of *"On the Power of Algebras with Recursion"*
//! (Beeri & Milo, SIGMOD 1993) — the paper's primary contribution.
//!
//! Section 3 of the paper defines a hierarchy of algebraic query
//! languages over sets of complex objects:
//!
//! * **algebra** — `∪ − × σ MAP` (generic, first-order);
//! * **IFP-algebra** — plus an inflationary fixed point operator; its
//!   *positive* fragment is equivalent to stratified deduction
//!   (Theorem 4.3);
//! * **algebra= / IFP-algebra=** — plus recursive operation definitions
//!   `f(x̄) = exp(x̄)`, under the **valid semantics**; these express
//!   exactly general deduction with negation (Theorem 6.2), and IFP
//!   becomes redundant (Corollary 3.6).
//!
//! This crate implements all of them:
//!
//! * [`expr`] — the expression language and the element-level function
//!   sublanguage;
//! * [`program`] — operation definitions with the Section 3.2
//!   restrictions, definition inlining;
//! * [`eval`] — the polarity-aware evaluator: exact evaluation for the
//!   non-recursive languages (IFP evaluated inflationarily);
//! * [`valid_eval`] — the alternating-fixpoint valid semantics for
//!   recursive programs, three-valued: `S = {a} − S` answers `Unknown`,
//!   cyclic WIN/MOVE games report exactly the drawn positions as
//!   undefined;
//! * [`analysis`] — language classification, positivity, monotonicity and
//!   the Proposition 3.4 check;
//! * [`parser`] — a concrete syntax.
//!
//! ```
//! use algrec_core::{parser::parse_program, valid_eval::eval_valid};
//! use algrec_value::{Budget, Database, Relation, Truth, Value};
//!
//! // Example 3: WIN = π₁(MOVE − (π₁(MOVE) × WIN))
//! let program = parse_program(
//!     "def win = map(move - (map(move, x.0) * win), x.0); query win;"
//! ).unwrap();
//! let db = Database::new().with("move", Relation::from_pairs([
//!     (Value::int(1), Value::int(2)),
//!     (Value::int(2), Value::int(3)),
//! ]));
//! let result = eval_valid(&program, &db, Budget::SMALL).unwrap();
//! assert_eq!(result.member(&Value::int(2)), Truth::True);   // 2 wins
//! assert_eq!(result.member(&Value::int(1)), Truth::False);  // 1 loses
//! assert!(result.is_well_defined()); // acyclic MOVE ⇒ initial valid model
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod eval;
pub mod explain;
pub mod expr;
pub mod opt;
pub mod parser;
pub mod program;
pub mod valid_eval;

pub use analysis::{classify, LanguageClass};
pub use error::CoreError;
pub use eval::{eval_exact, eval_exact_traced, eval_exact_with, EvalOptions, SetEnv, SetRef};
pub use explain::explain_program;
pub use expr::{AlgExpr, CmpOp, Conjunction, FuncExpr, FuncOp};
pub use opt::{simplify, simplify_program};
pub use program::{AlgProgram, OpDef};
pub use valid_eval::{
    eval_valid, eval_valid_metered, eval_valid_traced, eval_valid_with, ValidAlgebraResult,
};
