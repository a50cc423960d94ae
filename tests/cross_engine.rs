//! Property-based cross-engine tests: on randomly generated databases,
//! the engines and translations must agree wherever the paper says they
//! do, and the three-valued structure must be coherent wherever it says
//! they may not.

use algrec::core::valid_eval::eval_valid_with;
use algrec::core::{eval_exact_with, AlgExpr, AlgProgram, CmpOp, EvalOptions, FuncExpr, OpDef};
use algrec::prelude::*;
use algrec_datalog::parser::parse_program as parse_dl;
use algrec_datalog::stable_models_of;
use algrec_translate::{
    datalog_to_algebra, edb_arities, ifp_algebra_to_algebra_eq, inflationary_to_valid,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn edge_db(name: &str, edges: &BTreeSet<(i64, i64)>) -> Database {
    Database::new().with(
        name,
        Relation::from_pairs(edges.iter().map(|(a, b)| (Value::int(*a), Value::int(*b)))),
    )
}

fn arb_edges(nodes: i64, max_edges: usize) -> impl Strategy<Value = BTreeSet<(i64, i64)>> {
    prop::collection::btree_set((0..nodes, 0..nodes), 0..max_edges)
}

fn tc_program() -> algrec_datalog::Program {
    parse_dl("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).").unwrap()
}

fn win_program() -> algrec_datalog::Program {
    parse_dl("win(X) :- move(X, Y), not win(Y).").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Positive programs: every semantics computes the same model, and it
    /// matches the IFP-algebra evaluation of the same query.
    #[test]
    fn all_semantics_agree_on_tc(edges in arb_edges(8, 20)) {
        let db = edge_db("edge", &edges);
        let p = tc_program();
        let reference = evaluate(&p, &db, Semantics::SemiNaive, Budget::SMALL).unwrap();
        for sem in [
            Semantics::Naive,
            Semantics::Stratified,
            Semantics::Inflationary,
            Semantics::WellFounded,
            Semantics::Valid,
        ] {
            let out = evaluate(&p, &db, sem, Budget::SMALL).unwrap();
            prop_assert!(out.model.is_exact());
            prop_assert_eq!(&out.model.certain, &reference.model.certain);
        }
        // the algebra side
        let alg = algrec::core::parser::parse_program(
            "query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));",
        ).unwrap();
        let alg_out = eval_exact(&alg, &db, Budget::SMALL).unwrap();
        let expected: BTreeSet<Value> = reference.model.certain.facts("tc")
            .map(|args| Value::pair(args[0].clone(), args[1].clone()))
            .collect();
        prop_assert_eq!(alg_out, expected);
    }

    /// Theorem 6.2 on random WIN/MOVE games: the deduction and algebra=
    /// valid models agree exactly, unknowns included.
    #[test]
    fn theorem_6_2_on_random_games(edges in arb_edges(7, 14)) {
        let db = edge_db("move", &edges);
        let rt = check_roundtrip(&win_program(), "win", &db, Budget::SMALL).unwrap();
        prop_assert!(rt.agree(), "{:?}", rt);
    }

    /// The valid model sandwiches every stable model: certain ⊆ M ⊆
    /// possible; and when the valid model is exact there is exactly one
    /// stable model.
    #[test]
    fn valid_model_approximates_stable_models(edges in arb_edges(6, 10)) {
        let db = edge_db("move", &edges);
        let p = win_program();
        let valid = evaluate(&p, &db, Semantics::Valid, Budget::SMALL).unwrap();
        let models = match stable_models_of(&p, &db, 18, Budget::SMALL) {
            Ok(m) => m,
            Err(algrec_datalog::EvalError::TooManyUnknowns { .. }) => return Ok(()),
            Err(e) => panic!("{e}"),
        };
        for m in &models {
            for (pred, args) in valid.model.certain.iter() {
                if pred == "win" {
                    prop_assert!(m.holds(pred, args), "certain fact outside a stable model");
                }
            }
            for (_, args) in m.iter() {
                prop_assert!(
                    valid.model.possible.holds("win", args),
                    "stable fact outside the possible set"
                );
            }
        }
        if valid.model.is_exact() {
            prop_assert_eq!(models.len(), 1);
        }
    }

    /// Prop 5.2 on random games: the stage simulation of the inflationary
    /// semantics is exact (for a sufficient stage bound).
    #[test]
    fn prop_5_2_on_random_games(edges in arb_edges(6, 10)) {
        let db = edge_db("move", &edges);
        let p = win_program();
        let stages = (edges.len() as i64 + 3).max(4);
        let staged = inflationary_to_valid(&p, stages);
        let infl = evaluate(&p, &db, Semantics::Inflationary, Budget::SMALL).unwrap();
        let valid = evaluate(&staged, &db, Semantics::Valid, Budget::LARGE).unwrap();
        prop_assert!(valid.model.is_exact());
        let a: BTreeSet<_> = infl.model.certain.facts("win").cloned().collect();
        let b: BTreeSet<_> = valid.model.certain.facts("win").cloned().collect();
        prop_assert_eq!(a, b);
    }

    /// Stratified workloads: valid ≡ stratified, and the three-valued
    /// model is exact, on random graphs (Theorem 4.3's semantic core).
    #[test]
    fn stratified_equals_valid_randomized(edges in arb_edges(7, 16)) {
        let mut db = edge_db("e", &edges);
        let nodes: BTreeSet<i64> = edges.iter().flat_map(|(a, b)| [*a, *b]).collect();
        db.set("n", Relation::from_values(nodes.iter().map(|k| Value::int(*k))));
        let p = parse_dl(
            "r(X, Y) :- e(X, Y).\n\
             r(X, Z) :- r(X, Y), e(Y, Z).\n\
             un(X, Y) :- n(X), n(Y), not r(X, Y).\n\
             src(X) :- n(X), not dst(X).\n\
             dst(Y) :- e(X, Y).",
        ).unwrap();
        let strat = evaluate(&p, &db, Semantics::Stratified, Budget::SMALL).unwrap();
        let valid = evaluate(&p, &db, Semantics::Valid, Budget::SMALL).unwrap();
        prop_assert!(valid.model.is_exact());
        prop_assert_eq!(strat.model.certain, valid.model.certain);
    }

    /// The well-founded unknown set is empty exactly on games whose
    /// MOVE graph has no cycle reachable ... weaker invariant tested:
    /// acyclic graphs are always fully decided.
    #[test]
    fn acyclic_games_are_decided(perm in prop::collection::vec(0..100i64, 2..9)) {
        // build a DAG: edges only from lower to higher index
        let mut edges = BTreeSet::new();
        for (i, a) in perm.iter().enumerate() {
            for (j, b) in perm.iter().enumerate() {
                if i < j && (a + b) % 3 == 0 {
                    edges.insert((i as i64, j as i64));
                }
            }
        }
        let db = edge_db("move", &edges);
        let out = evaluate(&win_program(), &db, Semantics::Valid, Budget::SMALL).unwrap();
        prop_assert!(out.model.is_exact());
    }

    /// Telemetry agreement: on two-valued (positive) instances every
    /// engine reports the same `facts_materialized` — the final model is
    /// engine-independent even though the work done (iterations, deltas)
    /// differs, and the traced count matches the model's actual size.
    #[test]
    fn facts_materialized_agrees_across_engines(edges in arb_edges(8, 20)) {
        let db = edge_db("edge", &edges);
        let p = tc_program();
        let mut counts: Vec<usize> = Vec::new();
        for sem in [
            Semantics::Naive,
            Semantics::SemiNaive,
            Semantics::Stratified,
            Semantics::Inflationary,
            Semantics::WellFounded,
            Semantics::Valid,
        ] {
            let tr = Trace::collect();
            let out = evaluate_traced(&p, &db, sem, Budget::SMALL, tr.clone()).unwrap();
            let stats = tr.stats().expect("collect trace yields stats");
            prop_assert_eq!(
                stats.facts_materialized,
                out.model.certain.total(),
                "{:?}: traced materialized count must be the model size",
                sem
            );
            counts.push(stats.facts_materialized);
        }
        prop_assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "engines disagree on facts_materialized: {:?}",
            counts
        );
    }

    /// Budget safety: whatever the input, evaluation either completes or
    /// reports a budget error — never hangs past its iteration allowance.
    #[test]
    fn tight_budgets_fail_cleanly(edges in arb_edges(6, 12)) {
        let db = edge_db("edge", &edges);
        let tiny = Budget::new(3, 10, 8);
        match evaluate(&tc_program(), &db, Semantics::Valid, tiny) {
            Ok(out) => prop_assert!(out.model.certain.total() <= 10 + db.get("edge").unwrap().len()),
            Err(algrec_datalog::EvalError::Budget(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}

/// Random algebra expressions over an `edge`/`n` database: unions,
/// differences, joins in several recognized and unrecognized shapes
/// (including out-of-range projections, which must error identically),
/// maps, and monotone as well as non-monotone IFPs.
fn arb_alg_expr() -> impl Strategy<Value = AlgExpr> {
    let leaf = prop_oneof![
        Just(AlgExpr::name("edge")),
        Just(AlgExpr::name("n")),
        Just(AlgExpr::lit([Value::int(1)])),
        Just(AlgExpr::lit(Vec::new())),
    ];
    let eq = |i: usize, j: usize| {
        FuncExpr::Cmp(
            CmpOp::Eq,
            Box::new(FuncExpr::proj(i)),
            Box::new(FuncExpr::proj(j)),
        )
    };
    leaf.prop_recursive(3, 24, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| AlgExpr::union(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| AlgExpr::diff(a, b)),
            // an equi-join in the recognized shape
            (inner.clone(), inner.clone())
                .prop_map(move |(a, b)| AlgExpr::select(AlgExpr::product(a, b), eq(1, 2))),
            // a selection whose projection may run out of range: the
            // optimized path must reproduce the exact error behavior
            (inner.clone(), inner.clone())
                .prop_map(move |(a, b)| AlgExpr::select(AlgExpr::product(a, b), eq(3, 0))),
            inner
                .clone()
                .prop_map(|a| AlgExpr::map(a, FuncExpr::proj(0))),
            // monotone IFP (delta-eligible)
            inner
                .clone()
                .prop_map(|a| AlgExpr::ifp("s", AlgExpr::union(AlgExpr::name("s"), a),)),
            // non-monotone IFP (delta-ineligible: must fall back and agree)
            inner
                .clone()
                .prop_map(|a| AlgExpr::ifp("s", AlgExpr::diff(a, AlgExpr::name("s")),)),
        ]
    })
}

/// A small database with `edge` pairs and its node set `n`.
fn graph_db(edges: &BTreeSet<(i64, i64)>) -> Database {
    let mut db = edge_db("edge", edges);
    let nodes: BTreeSet<i64> = edges.iter().flat_map(|(a, b)| [*a, *b]).collect();
    db.set(
        "n",
        Relation::from_values(nodes.iter().map(|k| Value::int(*k))),
    );
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimized data layer (interning + indexes + delta fixpoints)
    /// computes exactly what the seed slow path computes on random
    /// algebra expressions — same sets, same errors, same canonical
    /// iteration order and rendering.
    #[test]
    fn optimized_exact_eval_matches_baseline(
        expr in arb_alg_expr(),
        edges in arb_edges(6, 12),
    ) {
        let db = graph_db(&edges);
        let program = AlgProgram::query(expr);
        let optimized = eval_exact_with(&program, &db, Budget::SMALL, EvalOptions::OPTIMIZED);
        let baseline = eval_exact_with(&program, &db, Budget::SMALL, EvalOptions::BASELINE);
        prop_assert_eq!(&optimized, &baseline);
        if let (Ok(o), Ok(b)) = (&optimized, &baseline) {
            // canonical (sorted) iteration order, element by element
            let ov: Vec<&Value> = o.iter().collect();
            let bv: Vec<&Value> = b.iter().collect();
            prop_assert_eq!(ov, bv);
            prop_assert!(o.iter().zip(o.iter().skip(1)).all(|(x, y)| x < y));
            // rendering unchanged
            prop_assert_eq!(format!("{o:?}"), format!("{b:?}"));
        }
    }

    /// The same agreement under the valid (alternating fixpoint)
    /// semantics on random recursive definition systems with negation:
    /// certain members, unknown members, per-constant values, and the
    /// alternation round count all match the seed slow path.
    #[test]
    fn optimized_valid_eval_matches_baseline(
        body_s in arb_alg_expr(),
        body_t in arb_alg_expr(),
        edges in arb_edges(5, 8),
    ) {
        let db = graph_db(&edges);
        // def s = body_s − t; def t = body_t − s; query s ∪ t.
        // The mutual difference makes undefined (unknown) members likely.
        let program = AlgProgram::new(
            [
                OpDef::new(
                    "s",
                    Vec::<String>::new(),
                    AlgExpr::diff(body_s, AlgExpr::name("t")),
                ),
                OpDef::new(
                    "t",
                    Vec::<String>::new(),
                    AlgExpr::diff(body_t, AlgExpr::name("s")),
                ),
            ],
            AlgExpr::union(AlgExpr::name("s"), AlgExpr::name("t")),
        ).unwrap();
        let optimized = eval_valid_with(&program, &db, Budget::SMALL, EvalOptions::OPTIMIZED);
        let baseline = eval_valid_with(&program, &db, Budget::SMALL, EvalOptions::BASELINE);
        match (optimized, baseline) {
            (Ok(o), Ok(b)) => {
                prop_assert_eq!(&o.query, &b.query);
                prop_assert_eq!(&o.constants, &b.constants);
                prop_assert_eq!(o.outer_rounds, b.outer_rounds);
                // certain and unknown members, in canonical order
                let oc: Vec<&Value> = o.query.lower().iter().collect();
                let bc: Vec<&Value> = b.query.lower().iter().collect();
                prop_assert_eq!(oc, bc);
                prop_assert_eq!(o.query.unknown_members(), b.query.unknown_members());
            }
            (o, b) => prop_assert_eq!(o.err(), b.err()),
        }
    }

    /// Theorem 6.2 round trips with the optimized algebra side: the
    /// translated algebra= program agrees with the deduction engine on
    /// certain AND unknown facts under every optimization combination.
    #[test]
    fn optimized_roundtrip_agrees_on_random_games(edges in arb_edges(6, 10)) {
        let db = edge_db("move", &edges);
        let program = win_program();
        let alg = datalog_to_algebra(&program, "win", &edb_arities(&db)).unwrap();
        let reference = eval_valid_with(&alg, &db, Budget::SMALL, EvalOptions::BASELINE).unwrap();
        for opts in ALL_OPTIONS {
            let out = eval_valid_with(&alg, &db, Budget::SMALL, opts).unwrap();
            prop_assert_eq!(&out.query, &reference.query);
            prop_assert_eq!(&out.constants, &reference.constants);
        }
    }

    /// Transitive closure plus its complement (Theorem 4.3's shape)
    /// under every optimization combination, both as the positive
    /// IFP-algebra query (exact) and as the translated algebra= program
    /// (valid): each combination computes exactly what the seed slow
    /// path computes. The fixed programs of the paper-claim, budget and
    /// stats tests ride along ([`paper_programs`]), so every program
    /// those tests run on the default options has this seed reference.
    #[test]
    fn every_option_combination_agrees_on_tc_complement(edges in arb_edges(7, 16)) {
        let db = graph_db(&edges);
        let exact = algrec::core::parser::parse_program(
            "def tc = ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));
             query (n * n) - tc;",
        ).unwrap();
        let program = parse_dl(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- tc(X, Y), edge(Y, Z).\n\
             un(X, Y) :- n(X), n(Y), not tc(X, Y).",
        ).unwrap();
        let valid = datalog_to_algebra(&program, "un", &edb_arities(&db)).unwrap();
        let exact_ref = eval_exact_with(&exact, &db, Budget::LARGE, EvalOptions::BASELINE).unwrap();
        let valid_ref = eval_valid_with(&valid, &db, Budget::LARGE, EvalOptions::BASELINE).unwrap();
        for opts in ALL_OPTIONS {
            let out = eval_exact_with(&exact, &db, Budget::LARGE, opts).unwrap();
            prop_assert_eq!(&out, &exact_ref, "exact diverged under {:?}", opts);
            let out = eval_valid_with(&valid, &db, Budget::LARGE, opts).unwrap();
            prop_assert_eq!(&out.query, &valid_ref.query, "valid diverged under {:?}", opts);
        }
        let (exact, valid) = paper_programs(&edges);
        // Iterations are the only finite axis: on a divergent program the
        // seed path's facts count grows faster, so with both axes finite
        // the two paths would exhaust different ones first.
        let iterations = Budget { max_iterations: 64, max_facts: usize::MAX, ..Budget::SMALL };
        for program in &exact {
            let reference = eval_exact_with(program, &db, iterations, EvalOptions::BASELINE);
            for opts in ALL_OPTIONS {
                let out = eval_exact_with(program, &db, iterations, opts);
                prop_assert_eq!(&out, &reference, "{} under {:?}", program, opts);
            }
        }
        for (program, db) in &valid {
            let reference =
                eval_valid_with(program, db, Budget::LARGE, EvalOptions::BASELINE).unwrap();
            for opts in ALL_OPTIONS {
                let out = eval_valid_with(program, db, Budget::LARGE, opts).unwrap();
                prop_assert_eq!(&out.query, &reference.query, "{} under {:?}", program, opts);
                prop_assert_eq!(&out.constants, &reference.constants, "{}", program);
            }
        }
    }
}

/// Every optimization on, and each one off in turn.
const ALL_OPTIONS: [EvalOptions; 4] = [
    EvalOptions::OPTIMIZED,
    EvalOptions {
        interning: false,
        ..EvalOptions::OPTIMIZED
    },
    EvalOptions {
        index: false,
        ..EvalOptions::OPTIMIZED
    },
    EvalOptions {
        delta: false,
        ..EvalOptions::OPTIMIZED
    },
];

/// The algebra programs `paper_claims.rs`, `budget_exhaustion.rs` and
/// `stats_invariants.rs` evaluate, plus the algebra side of the
/// `check_roundtrip` cases in `paper_claims.rs`, over `graph_db`'s
/// relations (`move`, `node`, `s0`, `a`, `b`, `person`, `parent` and `d`
/// renamed onto `edge` and `n`): the exact IFP-algebra queries (the
/// successor diverges, so its budget error is compared too), then the
/// valid algebra= programs, each with the database it is checked on.
fn paper_programs(edges: &BTreeSet<(i64, i64)>) -> (Vec<AlgProgram>, Vec<(AlgProgram, Database)>) {
    let db = graph_db(edges);
    let alg = |src: &str| algrec::core::parser::parse_program(src).unwrap();
    let ifp_tc = "query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));";
    let exact = [
        "query ifp(x, {'a'} - x);",
        "query ifp(x, edge - x);",
        "query map(edge, x.0) - map(edge, x.1);",
        "query ifp(s, {0} union map(s, add(x, 1)));",
    ]
    .map(alg);
    let mut valid: Vec<(AlgProgram, Database)> = [
        "def s = {'a'} - s; query s;",
        "def s = map({'a'} - s, [x, x]); query s;",
        "def sp = select(n, x = 1) - sp; query sp;",
        "def win = map(edge - (map(edge, x.0) * win), x.0); query win;",
        "def s = n - (map(edge, x.0) - s); query s;",
        "def r = {'a'} - r; query r - {'a'};",
    ]
    .map(|src| (alg(src), db.clone()))
    .into();
    // Theorem 3.5's IFP-free equivalents, two stages deep on the graph's
    // first two edges: the staged closure is slow to compare on more.
    let small = graph_db(&edges.iter().take(2).copied().collect());
    for src in ["query ifp(x, {'a'} - x);", ifp_tc] {
        let program = ifp_algebra_to_algebra_eq(&alg(src), &small, 2).unwrap();
        valid.push((program, small.clone()));
    }
    // Theorem 6.2's translations.
    for (src, pred) in [
        (
            "sg(X, X) :- n(X).\nsg(X, Y) :- edge(XP, X), edge(YP, Y), sg(XP, YP).",
            "sg",
        ),
        ("p(X) :- n(X), not q(X).\nq(X) :- n(X), not p(X).", "p"),
    ] {
        let program = parse_dl(src).unwrap();
        let translated = datalog_to_algebra(&program, pred, &edb_arities(&db)).unwrap();
        valid.push((translated, db.clone()));
    }
    (exact.into(), valid)
}

// Named replays of cases `cross_engine.proptest-regressions` records
// (seed cc 384d2f…: shrinks to `edges = {}`). The empty database is the
// degenerate instance that once broke an engine; keep it pinned as plain
// unit tests so the failure mode is visible by name, not only through
// proptest's seed file.

/// Seed cc 384d2f… (`edges = {}`): every semantics must handle a program
/// whose EDB is completely empty — no facts, no iterations beyond the
/// fixpoint check, an exact empty model.
#[test]
fn regression_empty_edge_set_all_semantics() {
    let db = edge_db("edge", &BTreeSet::new());
    let p = tc_program();
    for sem in [
        Semantics::Naive,
        Semantics::SemiNaive,
        Semantics::Stratified,
        Semantics::Inflationary,
        Semantics::WellFounded,
        Semantics::Valid,
    ] {
        let tr = Trace::collect();
        let out = evaluate_traced(&p, &db, sem, Budget::SMALL, tr.clone()).unwrap();
        assert!(out.model.is_exact(), "{sem:?} must be exact on empty EDB");
        assert_eq!(out.model.certain.total(), 0, "{sem:?} must derive nothing");
        let stats = tr.stats().unwrap();
        assert_eq!(stats.facts_materialized, 0);
        assert_eq!(stats.facts_inserted, 0, "{sem:?} did work on an empty EDB");
    }
}

/// Seed cc 384d2f… on the game side: the empty MOVE graph is a decided
/// game (no positions at all) for both paradigms, and the Theorem 6.2
/// round trip holds on it.
#[test]
fn regression_empty_game_roundtrip() {
    let db = edge_db("move", &BTreeSet::new());
    let rt = check_roundtrip(&win_program(), "win", &db, Budget::SMALL).unwrap();
    assert!(rt.agree(), "{rt:?}");
    assert!(rt.datalog_certain.is_empty());
    assert!(rt.datalog_unknown.is_empty());
}
