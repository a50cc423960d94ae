//! Budget exhaustion, engine by engine: every evaluator must hit a clean
//! [`BudgetError`] — never a panic, never a hang — on the paper's two
//! canonical runaway inputs, and the telemetry collected up to the abort
//! must show the consumption that triggered it.
//!
//! The inputs:
//!
//! * the Section 3.2 gadget `S = {a} − S` (as `q(X) :- d(X), not q(X)`
//!   on the deduction side) — semantically convergent, so only a
//!   *deliberately tiny* budget can make it fail, which exercises the
//!   abort paths without any unbounded computation;
//! * an unbounded successor program (`nat(0); nat(succ(X)) :- nat(X)`,
//!   and its algebra twin `ifp(s, {0} ∪ MAP₊₁(s))`) — genuinely
//!   divergent over the infinite initial model of Section 2, so the
//!   budget is the *only* thing standing between the engine and a hang.
//!
//! All three [`BudgetError`] variants are forced for every engine:
//! `Iterations` (zero/tiny iteration allowance), `Facts` (zero/tiny fact
//! allowance), and `ValueSize` (a zero-size allowance that the first
//! constructed value exceeds).

use algrec::prelude::*;
use algrec_datalog::{Atom, CmpOp, Expr, Func, Literal, Rule};
use algrec_value::BudgetError;
use std::collections::BTreeSet;

const BIG: usize = usize::MAX / 2;

/// `nat(0). nat(Y) :- nat(X), Y = succ(X).` — diverges under every
/// semantics; only the budget stops it.
fn successor_program() -> Program {
    Program::from_rules(vec![
        Rule::fact(Atom::new("nat", [Expr::int(0)])),
        Rule::new(
            Atom::new("nat", [Expr::var("Y")]),
            [
                Literal::Pos(Atom::new("nat", [Expr::var("X")])),
                Literal::Cmp(
                    CmpOp::Eq,
                    Expr::var("Y"),
                    Expr::App(Func::Succ, vec![Expr::var("X")]),
                ),
            ],
        ),
    ])
}

/// The Section 3.2 gadget on the deduction side: `q(a)` is undefined, and
/// evaluating it derives at least one fact (the possible pass derives
/// `q(a)`), so tiny budgets trip every limit.
fn gadget_program() -> Program {
    algrec_datalog::parser::parse_program("d(a).\nq(X) :- d(X), not q(X).").unwrap()
}

/// Evaluate traced, expect a budget error, return (error, stats).
fn expect_budget(
    p: &Program,
    sem: Semantics,
    budget: Budget,
) -> (BudgetError, algrec_value::EvalStats) {
    let tr = Trace::collect();
    let err = evaluate_traced(p, &Database::new(), sem, budget, tr.clone())
        .expect_err("must exhaust the budget");
    let stats = tr.stats().expect("stats stay readable after the abort");
    match err {
        algrec_datalog::EvalError::Budget(b) => (b, stats),
        other => panic!("{sem:?}: expected a budget error, got {other}"),
    }
}

#[test]
fn successor_spec_exhausts_every_engine() {
    let p = successor_program();
    for sem in [
        Semantics::Naive,
        Semantics::SemiNaive,
        Semantics::Stratified,
        Semantics::Inflationary,
        Semantics::WellFounded,
        Semantics::Valid,
        Semantics::ValidExtended(4),
    ] {
        // Iterations: the loop must tick against the meter every round.
        let (err, stats) = expect_budget(&p, sem, Budget::new(3, BIG, BIG));
        assert!(
            matches!(err, BudgetError::Iterations(3)),
            "{sem:?}: {err:?}"
        );
        assert!(
            stats.iterations > 3,
            "{sem:?}: stats must show the iteration that went over"
        );
        assert!(!stats.phases.is_empty(), "{sem:?}: no phase was opened");

        // Facts: every derived fact must count against the meter.
        let (err, stats) = expect_budget(&p, sem, Budget::new(BIG, 5, BIG));
        assert!(matches!(err, BudgetError::Facts(5)), "{sem:?}: {err:?}");
        assert!(
            stats.facts_inserted > 5,
            "{sem:?}: stats must show the fact insertions at failure"
        );

        // ValueSize: every constructed value must be measured.
        let (err, _stats) = expect_budget(&p, sem, Budget::new(BIG, BIG, 0));
        assert!(matches!(err, BudgetError::ValueSize(0)), "{sem:?}: {err:?}");
    }
}

#[test]
fn gadget_exhausts_every_negation_engine() {
    // `q(X) :- d(X), not q(X)` is not stratified and not positive, so the
    // gadget runs under the four negation-capable semantics.
    let p = gadget_program();
    for sem in [
        Semantics::Inflationary,
        Semantics::WellFounded,
        Semantics::Valid,
        Semantics::ValidExtended(4),
    ] {
        let (err, stats) = expect_budget(&p, sem, Budget::new(0, BIG, BIG));
        assert!(
            matches!(err, BudgetError::Iterations(0)),
            "{sem:?}: {err:?}"
        );
        assert!(stats.iterations > 0);

        let (err, stats) = expect_budget(&p, sem, Budget::new(BIG, 0, BIG));
        assert!(matches!(err, BudgetError::Facts(0)), "{sem:?}: {err:?}");
        assert!(stats.facts_inserted > 0);

        let (err, _) = expect_budget(&p, sem, Budget::new(BIG, BIG, 0));
        assert!(matches!(err, BudgetError::ValueSize(0)), "{sem:?}: {err:?}");
    }
}

#[test]
fn naive_engines_reject_the_gadget_instead_of_looping() {
    // Naive/semi-naive are positive-only: the gadget must be *rejected*
    // (EvalError::Unsafe), not evaluated into a loop or panic.
    for sem in [Semantics::Naive, Semantics::SemiNaive] {
        match evaluate(&gadget_program(), &Database::new(), sem, Budget::SMALL) {
            Err(algrec_datalog::EvalError::Unsafe(_)) => {}
            other => panic!("{sem:?}: expected an Unsafe rejection, got {other:?}"),
        }
    }
}

#[test]
fn algebra_valid_gadget_exhausts_cleanly() {
    // S = {a} − S, the gadget verbatim (plus a MAP twin whose tuple
    // construction trips the value-size meter).
    let gadget = algrec::core::parser::parse_program("def s = {'a'} - s; query s;").unwrap();
    let sized =
        algrec::core::parser::parse_program("def s = map({'a'} - s, [x, x]); query s;").unwrap();
    let db = Database::new();
    let run = |p: &algrec::core::AlgProgram, b: Budget| {
        let tr = Trace::collect();
        let err = eval_valid_traced(p, &db, b, EvalOptions::OPTIMIZED, tr.clone())
            .expect_err("must exhaust");
        (err, tr.stats().unwrap())
    };

    let (err, stats) = run(&gadget, Budget::new(0, BIG, BIG));
    assert!(matches!(
        err,
        algrec::core::CoreError::Budget(BudgetError::Iterations(0))
    ));
    assert!(stats.iterations > 0);
    assert!(
        stats.phases.iter().any(|(n, _)| n == "alternation"),
        "abort mid-alternation must leave the phase visible: {stats:?}"
    );

    let (err, stats) = run(&gadget, Budget::new(BIG, 0, BIG));
    assert!(matches!(
        err,
        algrec::core::CoreError::Budget(BudgetError::Facts(0))
    ));
    assert!(stats.facts_inserted > 0);

    let (err, _) = run(&sized, Budget::new(BIG, BIG, 0));
    assert!(matches!(
        err,
        algrec::core::CoreError::Budget(BudgetError::ValueSize(0))
    ));
}

#[test]
fn algebra_successor_ifp_exhausts_cleanly() {
    // The unbounded successor as an IFP-algebra query: diverges, so each
    // budget axis must stop it.
    let p =
        algrec::core::parser::parse_program("query ifp(s, {0} union map(s, add(x, 1)));").unwrap();
    let db = Database::new();
    let run = |b: Budget| {
        let tr = Trace::collect();
        let err = algrec::core::eval_exact_traced(&p, &db, b, EvalOptions::OPTIMIZED, tr.clone())
            .expect_err("must exhaust");
        (err, tr.stats().unwrap())
    };

    let (err, stats) = run(Budget::new(3, BIG, BIG));
    assert!(matches!(
        err,
        algrec::core::CoreError::Budget(BudgetError::Iterations(3))
    ));
    assert!(stats.iterations > 3);
    assert!(stats.phases.iter().any(|(n, _)| n == "ifp"));

    let (err, stats) = run(Budget::new(BIG, 5, BIG));
    assert!(matches!(
        err,
        algrec::core::CoreError::Budget(BudgetError::Facts(5))
    ));
    assert!(stats.facts_inserted > 5);

    let (err, _) = run(Budget::new(BIG, BIG, 0));
    assert!(matches!(
        err,
        algrec::core::CoreError::Budget(BudgetError::ValueSize(0))
    ));
}

#[test]
fn stable_search_respects_budgets() {
    // Grounding for the stable-model search also meters its work: the
    // two-scenario game must fail cleanly under a zero fact budget.
    let p = algrec_datalog::parser::parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let edges: BTreeSet<(i64, i64)> = [(1, 2), (2, 1)].into();
    let db = Database::new().with(
        "move",
        Relation::from_pairs(edges.iter().map(|(a, b)| (Value::int(*a), Value::int(*b)))),
    );
    match algrec_datalog::stable_models_of(&p, &db, 16, Budget::new(2, BIG, BIG)) {
        Err(algrec_datalog::EvalError::Budget(BudgetError::Iterations(2))) => {}
        other => panic!("expected an iteration budget error, got {other:?}"),
    }
    // And with a workable budget the same call succeeds — the budget is
    // the only difference.
    assert_eq!(
        algrec_datalog::stable_models_of(&p, &db, 16, Budget::SMALL)
            .unwrap()
            .len(),
        2
    );
}
