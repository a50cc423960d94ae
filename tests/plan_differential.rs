//! Differential tests for the plan-compiled execution path: for every
//! engine and semantics, evaluating with the plan compiler must be
//! **bit-identical** to the interpreted reference — same model (down to
//! unknowns), same round counts, same errors on budget exhaustion. The
//! reference side runs under a collecting trace: every compiled entry
//! point refuses a traced meter (pinned by the compiled module's
//! `traced_meters_fall_back`), so a traced evaluation is the
//! interpreted engine.

use algrec::datalog::engine::Compiled;
use algrec::datalog::wellfounded::{alternating_fixpoint, alternating_passes, AlternatingStats};
use algrec::datalog::{
    evaluate, evaluate_traced, parser::parse_program, EvalError, Interp, Program, Semantics,
    ThreeValued,
};
use algrec::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

const ALL_SEMANTICS: [Semantics; 6] = [
    Semantics::Naive,
    Semantics::SemiNaive,
    Semantics::Stratified,
    Semantics::Inflationary,
    Semantics::WellFounded,
    Semantics::Valid,
];

/// Semantics that accept negation (naive/semi-naive are positive-only).
const NEG_SEMANTICS: [Semantics; 4] = [
    Semantics::Stratified,
    Semantics::Inflationary,
    Semantics::WellFounded,
    Semantics::Valid,
];

/// Evaluate once compiled, once interpreted; the caller compares.
fn both_paths(
    program: &Program,
    db: &Database,
    sem: Semantics,
    budget: Budget,
) -> (
    Result<algrec::datalog::EvalOutcome, EvalError>,
    Result<algrec::datalog::EvalOutcome, EvalError>,
) {
    let compiled = evaluate(program, db, sem, budget);
    let interpreted = evaluate_traced(program, db, sem, budget, Trace::collect());
    (compiled, interpreted)
}

/// Assert outcome equality including error rendering.
fn assert_paths_agree(program: &Program, db: &Database, sem: Semantics, budget: Budget) {
    let (c, i) = both_paths(program, db, sem, budget);
    match (c, i) {
        (Ok(c), Ok(i)) => {
            assert_eq!(c.model, i.model, "{sem:?}: model diverged");
            assert_eq!(c.rounds, i.rounds, "{sem:?}: rounds diverged");
            assert_eq!(
                c.stable_count, i.stable_count,
                "{sem:?}: stable_count diverged"
            );
        }
        (c, i) => assert_eq!(
            format!("{:?}", c.err()),
            format!("{:?}", i.err()),
            "{sem:?}: error behavior diverged"
        ),
    }
}

fn edge_db(name: &str, edges: &BTreeSet<(i64, i64)>) -> Database {
    Database::new().with(
        name,
        Relation::from_pairs(edges.iter().map(|(a, b)| (Value::int(*a), Value::int(*b)))),
    )
}

fn graph_db(edges: &BTreeSet<(i64, i64)>) -> Database {
    let mut db = edge_db("e", edges);
    let nodes: BTreeSet<i64> = edges.iter().flat_map(|(a, b)| [*a, *b]).collect();
    db.set(
        "n",
        Relation::from_values(nodes.iter().map(|k| Value::int(*k))),
    );
    db
}

fn tc() -> Program {
    parse_program("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).").unwrap()
}

fn stratified_program() -> Program {
    parse_program(
        "r(X, Y) :- e(X, Y).\n\
         r(X, Z) :- r(X, Y), e(Y, Z).\n\
         un(X, Y) :- n(X), n(Y), not r(X, Y).\n\
         src(X) :- n(X), not dst(X).\n\
         dst(Y) :- e(X, Y).",
    )
    .unwrap()
}

fn win() -> Program {
    parse_program("win(X) :- e(X, Y), not win(Y).").unwrap()
}

/// The datalog programs `paper_claims.rs` evaluates untraced that no
/// other case here runs, their relations renamed onto `e` and `n`: same
/// generation, the two-scenario game with its union, Prop 5.2's gadget,
/// Prop 4.2's safety repair, and the Prop 5.1 and 5.4 translations of
/// algebra programs.
fn paper_programs(db: &Database) -> Vec<Program> {
    let mut programs: Vec<Program> = [
        "sg(X, X) :- n(X).\nsg(X, Y) :- e(XP, X), e(YP, Y), sg(XP, YP).",
        "p(X) :- n(X), not q(X).\nq(X) :- n(X), not p(X).\nr(X) :- p(X).\nr(X) :- q(X).",
        "r(a).\nq(X) :- r(X), not q(X).\nz(X) :- q(X), not r(X).",
    ]
    .map(|src| parse_program(src).unwrap())
    .into();
    let unsafe_q = parse_program("q(X) :- not n(X).").unwrap();
    programs.push(algrec::datalog::safety::make_safe(
        &unsafe_q,
        &[("n", 1), ("e", 2)],
    ));
    let arities = algrec::translate::edb_arities(db);
    for src in [
        "query ifp(x, {'a'} - x);",
        "def win = map(e - (map(e, x.0) * win), x.0); query win;",
    ] {
        let program = algrec::core::parser::parse_program(src).unwrap();
        let mode = algrec::translate::TranslationMode::Naive;
        let t = algrec::translate::algebra_to_datalog(&program, &arities, mode).unwrap();
        programs.push(t.program);
    }
    programs
}

/// One alternating-fixpoint run: its result, and the iterations and
/// facts its meter was charged (also when it failed).
type AlternationRun = (
    Result<(ThreeValued, AlternatingStats), EvalError>,
    usize,
    usize,
);

/// Run the alternating fixpoint untraced (the compiled one-machine
/// alternation) and traced (the interpreted per-pass reference).
fn alternation_paths(program: &Program, db: &Database, budget: Budget) -> [AlternationRun; 2] {
    let compiled = Compiled::compile(program).unwrap();
    let base = Interp::from_database(db);
    [budget.meter(), budget.meter_traced(Trace::collect())].map(|mut meter| {
        let out = alternating_fixpoint(&compiled, &base, &mut meter);
        (out, meter.iterations(), meter.facts())
    })
}

/// Assert the two alternation paths agree: the model, every field of
/// [`AlternatingStats`], the meter's charges, the error if any, and the
/// per-round record `alternating_passes` keeps.
fn assert_alternation_agrees(program: &Program, db: &Database, budget: Budget) {
    let [(c, c_iters, c_facts), (i, i_iters, i_facts)] = alternation_paths(program, db, budget);
    assert_eq!(
        (c_iters, c_facts),
        (i_iters, i_facts),
        "meter charges diverged"
    );
    match (c, i) {
        (Ok((c_model, c_stats)), Ok((i_model, i_stats))) => {
            assert_eq!(c_model, i_model, "model diverged");
            assert_eq!(c_stats, i_stats, "stats diverged");
        }
        (c, i) => assert_eq!(
            format!("{:?}", c.err()),
            format!("{:?}", i.err()),
            "error diverged"
        ),
    }
    let compiled = Compiled::compile(program).unwrap();
    let base = Interp::from_database(db);
    let [c, i] = [budget.meter(), budget.meter_traced(Trace::collect())]
        .map(|mut meter| alternating_passes(&compiled, &base, &mut meter));
    match (c, i) {
        (Ok(c), Ok(i)) => assert_eq!(c, i, "recorded rounds diverged"),
        (c, i) => assert_eq!(format!("{:?}", c.err()), format!("{:?}", i.err())),
    }
}

/// WIN over a game that also holds base facts of `win` itself, and a
/// variant that negates the database predicate `bad`.
fn alternation_programs() -> [Program; 2] {
    [
        win(),
        parse_program("win(X) :- e(X, Y), not win(Y), not bad(Y).\nsafe(X) :- n(X), not bad(X).")
            .unwrap(),
    ]
}

/// A game with base facts of `win` and `bad` beside its moves.
fn game_db(edges: &BTreeSet<(i64, i64)>, won: &BTreeSet<i64>, bad: &BTreeSet<i64>) -> Database {
    let mut db = graph_db(edges);
    db.set(
        "win",
        Relation::from_values(won.iter().map(|k| Value::int(*k))),
    );
    db.set(
        "bad",
        Relation::from_values(bad.iter().map(|k| Value::int(*k))),
    );
    db
}

/// WIN on the chain `0 → 1 → … → n`, beside a drawn self-loop: each
/// alternation round decides one more chain position, so the run takes
/// many rounds and stays three-valued.
fn chain_game(n: i64) -> Database {
    let mut edges: BTreeSet<(i64, i64)> = (0..n).map(|k| (k, k + 1)).collect();
    edges.insert((-1, -1));
    edge_db("e", &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The alternating fixpoint itself, not just the model `evaluate`
    /// reports: on random games — some holding base facts of `win`, one
    /// program negating the database predicate `bad` — the one-machine
    /// alternation matches the per-pass reference field for field.
    #[test]
    fn alternation_matches_the_per_pass_reference(
        edges in prop::collection::btree_set((0i64..8, 0i64..8), 0..16),
        won in prop::collection::btree_set(0i64..8, 0..3),
        bad in prop::collection::btree_set(0i64..8, 0..3),
    ) {
        let db = game_db(&edges, &won, &bad);
        for p in alternation_programs() {
            assert_alternation_agrees(&p, &db, Budget::SMALL);
        }
        assert_alternation_agrees(&win(), &edge_db("e", &edges), Budget::SMALL);
    }

    /// Positive recursion: all six semantics agree compiled ≡
    /// interpreted on random graphs.
    #[test]
    fn compiled_matches_interpreted_on_tc(
        edges in prop::collection::btree_set((0i64..10, 0i64..10), 0..24)
    ) {
        let db = edge_db("e", &edges);
        let p = tc();
        for sem in ALL_SEMANTICS {
            assert_paths_agree(&p, &db, sem, Budget::SMALL);
        }
    }

    /// Multi-stratum negation on random graphs: compiled whole-
    /// stratification driver ≡ interpreted per-stratum driver, and the
    /// other negation-capable semantics agree too — for the
    /// stratified program and for [`paper_programs`].
    #[test]
    fn compiled_matches_interpreted_on_stratified_negation(
        edges in prop::collection::btree_set((0i64..8, 0i64..8), 0..18)
    ) {
        let db = graph_db(&edges);
        for p in std::iter::once(stratified_program()).chain(paper_programs(&db)) {
            for sem in NEG_SEMANTICS {
                assert_paths_agree(&p, &db, sem, Budget::SMALL);
            }
        }
    }

    /// Random WIN games (cyclic in general, so genuinely three-valued):
    /// the alternating-fixpoint semantics must agree compiled ≡
    /// interpreted on certain *and* unknown facts.
    #[test]
    fn compiled_matches_interpreted_on_random_games(
        edges in prop::collection::btree_set((0i64..8, 0i64..8), 0..16)
    ) {
        let db = edge_db("e", &edges);
        let p = win();
        for sem in [Semantics::Inflationary, Semantics::WellFounded, Semantics::Valid] {
            assert_paths_agree(&p, &db, sem, Budget::SMALL);
        }
    }

    /// Determinism sweep for the compiled path: with the plan compiler
    /// on, the model and round counts must be bit-identical at every
    /// worker-pool width (the dense graphs here exceed the parallel
    /// fan-out threshold).
    #[test]
    fn compiled_path_is_deterministic_across_thread_counts(
        edges in prop::collection::btree_set((0i64..40, 0i64..40), 260..300)
    ) {
        let edges: BTreeSet<(i64, i64)> = edges.into_iter().collect();
        let db = edge_db("e", &edges);
        for (p, sem) in [(tc(), Semantics::SemiNaive), (win(), Semantics::Valid)] {
            algrec::sched::set_threads(1);
            let baseline = evaluate(&p, &db, sem, Budget::LARGE).unwrap();
            for threads in [2usize, 4, 8] {
                algrec::sched::set_threads(threads);
                let out = evaluate(&p, &db, sem, Budget::LARGE).unwrap();
                prop_assert_eq!(&out.model, &baseline.model,
                    "model diverged at {} threads", threads);
                prop_assert_eq!(out.rounds, baseline.rounds,
                    "rounds diverged at {} threads", threads);
            }
            algrec::sched::set_threads(1);
        }
    }
}

/// The §3.2 divergence gadget `r(a). q(X) :- r(X), not q(X).`: the
/// inflationary and well-founded readings genuinely differ from each
/// other here, and each compiled path must reproduce *its own*
/// interpreted semantics exactly.
#[test]
fn divergence_gadget_agrees_per_semantics() {
    let p = parse_program("r(a).\nq(X) :- r(X), not q(X).").unwrap();
    let db = Database::new();
    for sem in [
        Semantics::Inflationary,
        Semantics::WellFounded,
        Semantics::Valid,
    ] {
        assert_paths_agree(&p, &db, sem, Budget::SMALL);
    }
    // Sanity: the gadget really diverges between the two readings.
    let infl = evaluate(&p, &db, Semantics::Inflationary, Budget::SMALL).unwrap();
    let wf = evaluate(&p, &db, Semantics::WellFounded, Budget::SMALL).unwrap();
    assert!(infl.model.certain.holds("q", &[Value::str("a")]));
    assert!(!wf.model.certain.holds("q", &[Value::str("a")]));
    assert!(!wf.model.is_exact(), "q(a) is unknown under well-founded");
}

/// The §3.2 gadget `S = {a} − S`, as deduction and as Prop 5.1's
/// translation of the algebra equation: the alternation leaves `a`
/// unknown on both paths, with the same stats and meter charges.
#[test]
fn gadget_alternation_matches_the_per_pass_reference() {
    let db = Database::new();
    let arities = algrec::translate::edb_arities(&db);
    let algebra = algrec::core::parser::parse_program("query ifp(x, {'a'} - x);").unwrap();
    let mode = algrec::translate::TranslationMode::Naive;
    let translated = algrec::translate::algebra_to_datalog(&algebra, &arities, mode)
        .unwrap()
        .program;
    let gadget = parse_program("r(a).\nq(X) :- r(X), not q(X).").unwrap();
    for p in [gadget.clone(), translated] {
        assert_alternation_agrees(&p, &db, Budget::SMALL);
    }
    let [(out, ..), _] = alternation_paths(&gadget, &db, Budget::SMALL);
    let (tv, _) = out.unwrap();
    assert_eq!(
        tv.unknown_facts(),
        vec![("q".to_string(), vec![Value::str("a")])]
    );
}

/// Every iteration cap from 1 to the count a WIN run needs, and fact
/// caps across the run, under both alternation semantics: the compiled
/// alternation fails with the reference's error, after the same charges.
#[test]
fn alternation_budget_sweep_fails_identically() {
    let db = chain_game(12);
    let p = win();
    let [(out, iterations, facts), _] = alternation_paths(&p, &db, Budget::SMALL);
    let (_, stats) = out.unwrap();
    assert!(stats.outer_rounds > 6, "{stats:?}");
    let mut budgets: Vec<Budget> = (1..=iterations)
        .map(|cap| Budget::new(cap, Budget::SMALL.max_facts, 256))
        .collect();
    for cap in [0, 1, 2, facts / 4, facts / 2, facts - 1, facts] {
        budgets.push(Budget::new(Budget::SMALL.max_iterations, cap, 256));
    }
    for budget in budgets {
        assert_alternation_agrees(&p, &db, budget);
        for sem in [Semantics::WellFounded, Semantics::Valid] {
            let (c, i) = both_paths(&p, &db, sem, budget);
            assert_eq!(
                c.as_ref().err().map(|e| e.to_string()),
                i.as_ref().err().map(|e| e.to_string()),
                "{sem:?} under {budget:?}"
            );
        }
    }
    // The caps that exactly fit succeed.
    for budget in [
        Budget::new(iterations, Budget::SMALL.max_facts, 256),
        Budget::new(Budget::SMALL.max_iterations, facts, 256),
    ] {
        let [(c, ..), _] = alternation_paths(&p, &db, budget);
        assert!(c.is_ok(), "{budget:?}");
    }
}

/// Programs the id-space executor cannot compile (function application
/// in the head) must fall back to the interpreted path silently — same
/// results traced or not.
#[test]
fn non_compilable_programs_fall_back_and_agree() {
    let p =
        parse_program("nat(0).\nnat(succ(X)) :- nat(X), small(X).\nsmall(0).\nsmall(1).").unwrap();
    let db = Database::new();
    for sem in ALL_SEMANTICS {
        assert_paths_agree(&p, &db, sem, Budget::SMALL);
    }
    let out = evaluate(&p, &db, Semantics::Stratified, Budget::SMALL).unwrap();
    assert!(out.model.certain.holds("nat", &[Value::int(1)]));
}

/// Empty-EDB regression: with no facts at all, every semantics must
/// produce the exact empty model on both paths (the degenerate instance
/// that once broke an engine — see `cross_engine.rs`).
#[test]
fn empty_edb_agrees_across_all_semantics() {
    let db = Database::new();
    for (p, sems) in [
        (tc(), &ALL_SEMANTICS[..]),
        (win(), &NEG_SEMANTICS[..]),
        (stratified_program(), &NEG_SEMANTICS[..]),
    ] {
        for &sem in sems {
            assert_paths_agree(&p, &db, sem, Budget::SMALL);
            // WIN is not stratified: both paths reject it identically
            // (checked above); the empty-model invariant applies to the
            // accepting semantics.
            if let Ok(out) = evaluate(&p, &db, sem, Budget::SMALL) {
                assert!(out.model.is_exact());
                assert_eq!(out.model.certain.total(), 0);
            }
        }
    }
}

// Named replays of the cases `plan_differential.proptest-regressions`
// records. The vendored proptest re-derives its own cases from fixed
// seeds and does not read the file, so each recorded shrink is pinned
// here as a unit test that fails by name.

/// Seed cc fac3b1… (`edges = {(0, 0)}`): a single self-loop. WIN on a
/// self-loop is the smallest genuinely three-valued instance — `win(0)`
/// is undefined — and TC's fixpoint must close after one round. Both
/// must agree compiled ≡ interpreted down to the unknowns.
#[test]
fn regression_self_loop_is_three_valued_on_both_paths() {
    let edges: BTreeSet<(i64, i64)> = [(0, 0)].into_iter().collect();
    let db = edge_db("e", &edges);
    for sem in ALL_SEMANTICS {
        assert_paths_agree(&tc(), &db, sem, Budget::SMALL);
    }
    for sem in [
        Semantics::Inflationary,
        Semantics::WellFounded,
        Semantics::Valid,
    ] {
        assert_paths_agree(&win(), &db, sem, Budget::SMALL);
    }
    let out = evaluate(&win(), &db, Semantics::Valid, Budget::SMALL).unwrap();
    assert!(!out.model.is_exact(), "win(0) must be undefined");
}

/// Seed cc 5a0f18… (`edges = {(0, 1), (1, 0)}`): the two-cycle — the
/// smallest drawn game and the smallest cyclic TC. The alternating
/// fixpoint leaves both positions unknown; the compiled path must
/// reproduce exactly that, not a decided game.
#[test]
fn regression_two_cycle_draw_agrees_on_both_paths() {
    let edges: BTreeSet<(i64, i64)> = [(0, 1), (1, 0)].into_iter().collect();
    let db = edge_db("e", &edges);
    for sem in ALL_SEMANTICS {
        assert_paths_agree(&tc(), &db, sem, Budget::SMALL);
    }
    for sem in [
        Semantics::Inflationary,
        Semantics::WellFounded,
        Semantics::Valid,
    ] {
        assert_paths_agree(&win(), &db, sem, Budget::SMALL);
    }
    let out = evaluate(&win(), &db, Semantics::WellFounded, Budget::SMALL).unwrap();
    assert_eq!(out.model.unknown_count(), 2, "both positions are drawn");
}

/// Seed cc 366601… (`edges = {(0, 1)}`): a single edge, the smallest
/// instance where every stratum of the stratified program is non-empty
/// (`r`, `dst`, and the negation-derived `un` and `src` all produce
/// facts). The whole-stratification compiled driver must agree with the
/// per-stratum interpreted driver.
#[test]
fn regression_single_edge_populates_every_stratum() {
    let edges: BTreeSet<(i64, i64)> = [(0, 1)].into_iter().collect();
    let db = graph_db(&edges);
    let p = stratified_program();
    for sem in NEG_SEMANTICS {
        assert_paths_agree(&p, &db, sem, Budget::SMALL);
    }
    let out = evaluate(&p, &db, Semantics::Stratified, Budget::SMALL).unwrap();
    assert!(out.model.certain.holds("src", &[Value::int(0)]));
    assert!(out.model.certain.holds("dst", &[Value::int(1)]));
    assert!(out
        .model
        .certain
        .holds("un", &[Value::int(1), Value::int(0)]));
}

/// Budget exhaustion: the compiled path charges the meter on the same
/// schedule as the interpreted one, so a too-small budget fails with the
/// *identical* error at the identical point.
#[test]
fn budget_errors_are_identical_across_paths() {
    let edges: BTreeSet<(i64, i64)> = (0..12).map(|k| (k, k + 1)).collect();
    let db = edge_db("e", &edges);
    let p = tc();
    let tiny = Budget::new(1_000, 30, 64);
    for sem in ALL_SEMANTICS {
        let (c, i) = both_paths(&p, &db, sem, tiny);
        let ce = c.expect_err("budget must exhaust on the compiled path");
        let ie = i.expect_err("budget must exhaust on the interpreted path");
        assert_eq!(format!("{ce}"), format!("{ie}"), "{sem:?}");
    }
}
