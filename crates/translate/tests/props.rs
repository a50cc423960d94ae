//! Property-based tests for the translations: random safe deductive
//! programs through the Theorem 6.2 round trip, random algebra
//! expressions through the Section 5 translation, and the Prop 5.2 stage
//! simulation on random programs.

use algrec_core::expr::{AlgExpr, CmpOp as ACmp, FuncExpr};
use algrec_core::program::AlgProgram;
use algrec_core::EvalOptions;
use algrec_datalog::ast::{Atom, CmpOp, Expr, Literal, Program, Rule};
use algrec_datalog::{evaluate, Semantics};
use algrec_translate::{
    algebra_to_datalog, check_roundtrip, check_roundtrip_with, edb_arities, inflationary_to_valid,
    TranslationMode,
};
use algrec_value::{Budget, Database, Relation, Value};
use proptest::prelude::*;

fn i(n: i64) -> Value {
    Value::int(n)
}

/// Fixed predicate arities so programs type-check: p/1, q/1, r/2; EDB e/2.
fn arb_idb_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        prop::sample::select(&["p", "q"][..]).prop_map(|p| Atom::new(p, [Expr::var("X")])),
        Just(Atom::new("r", [Expr::var("X"), Expr::var("Y")])),
        prop::sample::select(&["p", "q"][..]).prop_map(|p| Atom::new(p, [Expr::var("Y")])),
    ]
}

/// A safe rule: guard `e(X, Y)`, then random positive/negative IDB
/// literals and comparisons. Negative literals over IDB predicates make
/// the generated programs routinely non-stratified.
fn arb_rule() -> impl Strategy<Value = Rule> {
    let extra = prop_oneof![
        arb_idb_atom().prop_map(Literal::Pos),
        arb_idb_atom().prop_map(Literal::Neg),
        (
            prop::sample::select(&[CmpOp::Ne, CmpOp::Lt, CmpOp::Le][..]),
            prop::sample::select(&["X", "Y"][..]),
            -2i64..3
        )
            .prop_map(|(op, v, k)| Literal::Cmp(op, Expr::var(v), Expr::int(k))),
    ];
    (arb_idb_atom(), prop::collection::vec(extra, 0..3)).prop_map(|(head, extras)| {
        let mut body = vec![Literal::Pos(Atom::new(
            "e",
            [Expr::var("X"), Expr::var("Y")],
        ))];
        body.extend(extras);
        Rule::new(head, body)
    })
}

fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(arb_rule(), 1..5).prop_map(Program::from_rules)
}

fn arb_db() -> impl Strategy<Value = Database> {
    prop::collection::btree_set((0i64..4, 0i64..4), 0..8).prop_map(|edges| {
        Database::new().with(
            "e",
            Relation::from_pairs(edges.into_iter().map(|(a, b)| (i(a), i(b)))),
        )
    })
}

/// Random non-recursive algebra expressions over the binary `e`.
fn arb_alg_expr() -> impl Strategy<Value = AlgExpr> {
    let leaf = prop_oneof![
        Just(AlgExpr::name("e")),
        prop::collection::btree_set((0i64..4, 0i64..4), 0..3).prop_map(|s| AlgExpr::Lit(
            s.into_iter()
                .map(|(x, y)| Value::pair(i(x), i(y)))
                .collect()
        )),
    ];
    leaf.prop_recursive(3, 10, 2, |inner| {
        let test = (
            prop::sample::select(&[ACmp::Eq, ACmp::Ne, ACmp::Lt][..]),
            0usize..2,
            0i64..4,
        )
            .prop_map(|(op, c, k)| {
                FuncExpr::Cmp(
                    op,
                    Box::new(FuncExpr::proj(c)),
                    Box::new(FuncExpr::Lit(i(k))),
                )
            });
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| AlgExpr::union(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| AlgExpr::diff(a, b)),
            (inner.clone(), test).prop_map(|(a, t)| AlgExpr::select(a, t)),
            inner.clone().prop_map(|a| AlgExpr::map(
                a,
                FuncExpr::Tuple(vec![FuncExpr::proj(1), FuncExpr::proj(0)])
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 6.2 on machine-generated (frequently non-stratified)
    /// programs: the valid models agree three-valuedly for every IDB
    /// predicate, with the algebra side on the optimized and on the seed
    /// evaluator.
    #[test]
    fn theorem_6_2_on_random_programs(program in arb_program(), db in arb_db()) {
        for pred in program.idb_preds() {
            let rt = check_roundtrip(&program, pred, &db, Budget::LARGE).unwrap();
            prop_assert!(rt.agree(), "{program}\npred {pred}: {rt:?}");
            let seed =
                check_roundtrip_with(&program, pred, &db, Budget::LARGE, EvalOptions::BASELINE)
                    .unwrap();
            prop_assert_eq!(seed, rt, "{}\npred {}", program, pred);
        }
    }

    /// Section 5 base case: a non-recursive, IFP-free algebra query and
    /// its deductive translation agree under the valid semantics.
    #[test]
    fn algebra_to_deduction_nonrecursive(e in arb_alg_expr(), db in arb_db()) {
        let p = AlgProgram::query(e);
        let expect = match algrec_core::eval_exact(&p, &db, Budget::LARGE) {
            Ok(x) => x,
            Err(_) => return Ok(()), // dynamic type error on random input
        };
        let tr = algebra_to_datalog(&p, &edb_arities(&db), TranslationMode::Naive).unwrap();
        let out = evaluate(&tr.program, &db, Semantics::Valid, Budget::LARGE).unwrap();
        prop_assert!(out.model.is_exact());
        let got: std::collections::BTreeSet<Value> = out
            .model
            .certain
            .facts(&tr.result_pred)
            .map(|a| a[0].clone())
            .collect();
        prop_assert_eq!(got, expect, "{}", p);
    }

    /// Proposition 5.2 on random programs: the stage simulation under the
    /// valid semantics equals the direct inflationary fixpoint.
    #[test]
    fn prop_5_2_on_random_programs(program in arb_program(), db in arb_db()) {
        let infl = evaluate(&program, &db, Semantics::Inflationary, Budget::LARGE).unwrap();
        // the fixpoint adds at least one fact per stage; |facts| + 2 stages suffice
        let stages = (infl.model.certain.total() as i64) + 2;
        let staged = inflationary_to_valid(&program, stages);
        let valid = evaluate(&staged, &db, Semantics::Valid, Budget::LARGE).unwrap();
        prop_assert!(valid.model.is_exact());
        for pred in program.idb_preds() {
            let a: std::collections::BTreeSet<_> =
                infl.model.certain.facts(pred).cloned().collect();
            let b: std::collections::BTreeSet<_> =
                valid.model.certain.facts(pred).cloned().collect();
            prop_assert_eq!(a, b, "{}\npred {}", program, pred);
        }
    }
}
