//! Composite constructions and equivalence harnesses.
//!
//! * [`ifp_algebra_to_algebra_eq`] — **Theorem 3.5** made constructive:
//!   "using a more complex translation technique, IFP_exp can be
//!   represented in algebra= for every exp. We first translate IFP_exp
//!   into a deductive program (proposition 5.3). Then we translate the
//!   deductive program into an algebra= program (proposition 6.1)."
//! * [`check_roundtrip`] — the **Theorem 6.2** harness: evaluates a safe
//!   deductive program under the valid semantics and its Prop 6.1
//!   translation under the algebra= valid semantics, and compares the
//!   three-valued answers fact by fact. Experiments E1 and E4 are built
//!   on it.

use crate::error::TranslateError;
use crate::to_algebra::datalog_to_algebra;
use crate::to_deduction::{algebra_to_datalog, edb_arities, TranslationMode};
use algrec_core::program::AlgProgram;
use algrec_core::valid_eval::eval_valid_with;
use algrec_core::EvalOptions;
use algrec_datalog::ast::Program;
use algrec_datalog::interp::{args_tuple, tuple_args};
use algrec_datalog::{evaluate, Semantics};
use algrec_value::{Budget, Database, Truth, Value};
use std::collections::BTreeSet;

/// Theorem 3.5: express an IFP-algebra program in `algebra=` (no IFP, no
/// parameters — a pure system of recursive set constants). `max_stage`
/// bounds the stage simulation of every IFP (see
/// [`crate::stage_sim::sufficient_stage_bound`] for sizing).
pub fn ifp_algebra_to_algebra_eq(
    program: &AlgProgram,
    db: &Database,
    max_stage: i64,
) -> Result<AlgProgram, TranslateError> {
    let arities = edb_arities(db);
    let deductive = algebra_to_datalog(program, &arities, TranslationMode::Staged { max_stage })?;
    datalog_to_algebra(&deductive.program, &deductive.result_pred, &arities)
}

/// The outcome of a Theorem 6.2 round-trip comparison.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoundTrip {
    /// Certain facts on the deduction side.
    pub datalog_certain: BTreeSet<Value>,
    /// Certain members on the algebra side.
    pub algebra_certain: BTreeSet<Value>,
    /// Facts undefined on the deduction side.
    pub datalog_unknown: BTreeSet<Value>,
    /// Members undefined on the algebra side.
    pub algebra_unknown: BTreeSet<Value>,
}

impl RoundTrip {
    /// Do the two sides agree exactly (same certain set, same undefined
    /// set — hence also the same false facts, over any common window)?
    pub fn agree(&self) -> bool {
        self.datalog_certain == self.algebra_certain && self.datalog_unknown == self.algebra_unknown
    }
}

/// Run a safe deductive program and its Prop 6.1 translation, both under
/// the valid semantics, and compare the answers for `pred`.
pub fn check_roundtrip(
    program: &Program,
    pred: &str,
    db: &Database,
    budget: Budget,
) -> Result<RoundTrip, TranslateError> {
    check_roundtrip_with(program, pred, db, budget, EvalOptions::OPTIMIZED)
}

/// [`check_roundtrip`] with explicit algebra-side evaluation options
/// (used by the ablation experiment to time the translated program under
/// each optimization toggle).
pub fn check_roundtrip_with(
    program: &Program,
    pred: &str,
    db: &Database,
    budget: Budget,
    opts: EvalOptions,
) -> Result<RoundTrip, TranslateError> {
    let arities = edb_arities(db);
    let alg = datalog_to_algebra(program, pred, &arities)?;

    let dl_out = evaluate(program, db, Semantics::Valid, budget)?;
    let alg_out = eval_valid_with(&alg, db, budget, opts)?;

    let datalog_certain: BTreeSet<Value> = dl_out
        .model
        .certain
        .facts(pred)
        .map(|args| args_tuple(args))
        .collect();
    let datalog_unknown: BTreeSet<Value> = dl_out
        .model
        .unknown_facts()
        .into_iter()
        .filter(|(p, _)| p == pred)
        .map(|(_, args)| args_tuple(&args))
        .collect();
    let algebra_certain: BTreeSet<Value> = alg_out.query.lower().clone();
    let algebra_unknown: BTreeSet<Value> = alg_out.query.unknown_members();

    Ok(RoundTrip {
        datalog_certain,
        algebra_certain,
        datalog_unknown,
        algebra_unknown,
    })
}

/// Truth of `pred(v)` on the deduction side — convenience for probing.
pub fn datalog_truth(
    program: &Program,
    pred: &str,
    v: &Value,
    db: &Database,
    budget: Budget,
) -> Result<Truth, TranslateError> {
    let out = evaluate(program, db, Semantics::Valid, budget)?;
    Ok(out.model.truth(pred, &tuple_args(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_core::parser::parse_program as parse_alg;
    use algrec_core::valid_eval::eval_valid;
    use algrec_datalog::parser::parse_program as parse_dl;
    use algrec_value::Relation;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn theorem_3_5_nonpositive_ifp_into_algebra_eq() {
        // IFP_{ {a} − x } (= {a}, inflationary) expressed in algebra=,
        // evaluated under the VALID semantics — where the direct
        // recursive equation S = {a} − S would be undefined. This is the
        // content of Theorem 3.5: IFP-algebra ⊊ algebra=.
        let p = parse_alg("query ifp(x, {'a'} - x);").unwrap();
        let db = Database::new();
        let expected = algrec_core::eval_exact(&p, &db, Budget::SMALL).unwrap();

        let alg_eq = ifp_algebra_to_algebra_eq(&p, &db, 4).unwrap();
        assert!(!alg_eq.defs.is_empty());
        assert!(!alg_eq.uses_ifp());
        let out = eval_valid(&alg_eq, &db, Budget::LARGE).unwrap();
        assert!(out.is_well_defined());
        assert_eq!(out.query.to_exact().unwrap(), expected);
    }

    #[test]
    fn theorem_3_5_transitive_closure() {
        let p = parse_alg("query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));")
            .unwrap();
        let db = Database::new().with("edge", Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]));
        let expected = algrec_core::eval_exact(&p, &db, Budget::SMALL).unwrap();
        let alg_eq = ifp_algebra_to_algebra_eq(&p, &db, 6).unwrap();
        let out = eval_valid(&alg_eq, &db, Budget::LARGE).unwrap();
        assert_eq!(out.query.to_exact().unwrap(), expected);
    }

    #[test]
    fn theorem_6_2_roundtrip_win() {
        let p = parse_dl("win(X) :- move(X, Y), not win(Y).").unwrap();
        // acyclic: exact agreement, no unknowns
        let acyclic = Database::new().with(
            "move",
            Relation::from_pairs([(i(1), i(2)), (i(2), i(3)), (i(3), i(4))]),
        );
        let rt = check_roundtrip(&p, "win", &acyclic, Budget::SMALL).unwrap();
        assert!(rt.agree());
        assert!(rt.datalog_unknown.is_empty());
        assert_eq!(rt.datalog_certain, [i(1), i(3)].into_iter().collect());

        // cyclic: unknowns agree too
        let cyclic = Database::new().with("move", Relation::from_pairs([(i(1), i(1))]));
        let rt2 = check_roundtrip(&p, "win", &cyclic, Budget::SMALL).unwrap();
        assert!(rt2.agree());
        assert_eq!(rt2.datalog_unknown, [i(1)].into_iter().collect());
    }

    #[test]
    fn theorem_6_2_roundtrip_stratified() {
        let p = parse_dl(
            "tc(X, Y) :- e(X, Y).\n\
             tc(X, Z) :- tc(X, Y), e(Y, Z).\n\
             un(X, Y) :- n(X), n(Y), not tc(X, Y).",
        )
        .unwrap();
        let db = Database::new()
            .with("e", Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]))
            .with("n", Relation::from_values([i(1), i(2), i(3)]));
        let rt = check_roundtrip(&p, "un", &db, Budget::SMALL).unwrap();
        assert!(rt.agree());
        assert_eq!(rt.datalog_certain.len(), 9 - 3);
    }

    #[test]
    fn datalog_truth_probe() {
        let p = parse_dl("win(X) :- move(X, Y), not win(Y).").unwrap();
        let db = Database::new().with("move", Relation::from_pairs([(i(1), i(2))]));
        assert_eq!(
            datalog_truth(&p, "win", &i(1), &db, Budget::SMALL).unwrap(),
            Truth::True
        );
        assert_eq!(
            datalog_truth(&p, "win", &i(2), &db, Budget::SMALL).unwrap(),
            Truth::False
        );
    }
}
