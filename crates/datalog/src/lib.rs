//! Deductive programs with negation over complex objects — the deduction
//! side of *"On the Power of Algebras with Recursion"* (Beeri & Milo,
//! SIGMOD 1993).
//!
//! The crate implements the paper's deductive query language (Section 4):
//! Horn clauses with negated atoms and interpreted functions on the
//! domains, evaluated under every semantics the paper touches —
//! minimal-model (naive and semi-naive), stratified, inflationary,
//! well-founded, the paper's **valid** computation (Section 2.2), its
//! stable-completion extension, and stable models. Safety is checked
//! against Definition 4.1's range formulas, and Proposition 4.2's
//! domain-independence transform is provided.
//!
//! # Quick example
//!
//! The WIN/MOVE game of Section 3.2:
//!
//! ```
//! use algrec_datalog::{evaluate, parser::parse_program, Semantics};
//! use algrec_value::{Budget, Database, Relation, Truth, Value};
//!
//! let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
//! let db = Database::new().with(
//!     "move",
//!     Relation::from_pairs([
//!         (Value::int(1), Value::int(2)),
//!         (Value::int(2), Value::int(3)),
//!     ]),
//! );
//! let out = evaluate(&program, &db, Semantics::Valid, Budget::SMALL).unwrap();
//! assert_eq!(out.model.truth("win", &[Value::int(2)]), Truth::True);
//! assert_eq!(out.model.truth("win", &[Value::int(1)]), Truth::False);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub(crate) mod compiled;
pub mod engine;
pub mod error;
pub mod explain;
pub mod facts;
pub mod factset;
pub mod fixpoint;
pub mod inflationary;
pub mod interp;
pub mod parser;
pub mod safety;
pub mod semantics;
pub mod stable;
pub mod stratify;
pub mod wellfounded;

pub use ast::{Atom, CmpOp, Expr, Func, Literal, Program, Rule};
#[doc(hidden)]
pub use compiled::machine_builds;
pub use error::EvalError;
pub use explain::explain_program;
pub use facts::{load_facts, parse_fact, parse_facts};
pub use interp::{Fact, Interp, ThreeValued};
pub use semantics::{evaluate, evaluate_traced, stable_models_of, EvalOutcome, Semantics};
