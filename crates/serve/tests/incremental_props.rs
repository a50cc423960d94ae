//! Property: **incremental ≡ from-scratch**. A session view maintained
//! through an arbitrary sequence of insertions and retractions must equal
//! a cold evaluation of the same program on the final database — after
//! *every* delta, not just at the end.
//!
//! Exercised over all four maintainer shapes: DRed (recursive TC),
//! counting above DRed (stratified unreachability, negation flips),
//! supported-derivation alternating maintenance (`algrec-incr`, the
//! default for non-stratified three-valued views), and changed-level
//! recomputation (the same views pinned `recompute`) — on the WIN/MOVE
//! game, non-stratified and genuinely three-valued on cyclic move
//! graphs, and the paper's §3.2 divergence gadget `S = {a} − S`. The
//! first three are one kernel (`algrec_incr::PassProgram`) under its
//! stratum and alternating drivers; the pinned-strategy property runs
//! both drivers and the reference side by side.
//!
//! Algebra views get the same treatment against `algrec_core`'s
//! `eval_valid`: random `algebra=` programs, in and out of the planner's
//! class, under deltas that also break and restore the shapes the
//! planner relies on.

use algrec_core::AlgProgram;
use algrec_datalog::parser::parse_program;
use algrec_datalog::{evaluate, Semantics};
use algrec_serve::algebra;
use algrec_serve::session::{QueryAnswer, Session};
use algrec_serve::{StrategyPin, ViewStatus};
use algrec_value::{Budget, DatabaseDelta, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";
const UNREACH: &str = "tc(X, Y) :- e(X, Y).\n\
                       tc(X, Z) :- tc(X, Y), e(Y, Z).\n\
                       un(X, Y) :- n(X), n(Y), not tc(X, Y).";
const WIN: &str = "win(X) :- e(X, Y), not win(Y).";
/// The paper's §3.2 divergence gadget `S = {a} − S` in rule form, with
/// the gadget's seed relation under churn and a second negation layer
/// reading the contested facts.
const GADGET: &str = "s(X) :- n(X), not s(X).\n\
                      calm(X) :- n(X), not s(X), not e(X, X).";

/// Semipositive with negation: only the database predicate `e` is
/// negated, so the inflationary and stratified readings coincide.
const EDB_NEGATION: &str = "lone(X) :- n(X), not e(X, X).\n\
                            tc(X, Y) :- e(X, Y).\n\
                            tc(X, Z) :- tc(X, Y), e(Y, Z).\n\
                            far(X, Y) :- tc(X, Y), not e(X, Y).";

/// Recursive heads of every shape the guarded re-derivation has to run
/// backwards: a repeated variable, a constant, a tuple pattern, a
/// function application (`hop`: the guard cannot bind `D` from
/// `succ(D)`, so it runs as a filter after the body) and no arguments
/// at all.
const SHAPES: &str = "same(X, X) :- n(X).\n\
                      same(Y, Y) :- same(X, X), e(X, Y).\n\
                      mark(X, 0) :- n(X).\n\
                      mark(Y, 0) :- mark(X, 0), e(X, Y).\n\
                      pair([X, Y]) :- e(X, Y).\n\
                      pair([X, Z]) :- pair([X, Y]), e(Y, Z).\n\
                      hop(X, 0) :- n(X).\n\
                      hop(Y, succ(D)) :- hop(X, D), e(X, Y), D < 3.\n\
                      live() :- n(X).\n\
                      live() :- live(), e(X, X).";

/// One random EDB step: insert or retract an `e` edge, or toggle an `n`
/// node (only meaningful for the unreach program; harmless otherwise).
#[derive(Clone, Debug)]
enum Step {
    InsertEdge(i64, i64),
    RemoveEdge(i64, i64),
    InsertNode(i64),
    RemoveNode(i64),
}

fn arb_step(nodes: i64) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..nodes, 0..nodes).prop_map(|(a, b)| Step::InsertEdge(a, b)),
        (0..nodes, 0..nodes).prop_map(|(a, b)| Step::RemoveEdge(a, b)),
        (0..nodes, 0..nodes).prop_map(|(a, b)| Step::InsertEdge(a, b)),
        (0..nodes).prop_map(Step::InsertNode),
        (0..nodes).prop_map(Step::RemoveNode),
    ]
}

fn fact_src(step: &Step) -> (bool, String) {
    match step {
        Step::InsertEdge(a, b) => (true, format!("e({a}, {b})")),
        Step::RemoveEdge(a, b) => (false, format!("e({a}, {b})")),
        Step::InsertNode(a) => (true, format!("n({a})")),
        Step::RemoveNode(a) => (false, format!("n({a})")),
    }
}

/// Cold-evaluate `program` on the session's database and return the
/// printable certain/unknown fact sets for `pred`.
fn cold_answer(
    session: &Session,
    program: &str,
    semantics: Semantics,
    pred: &str,
) -> (Vec<String>, Vec<String>) {
    let program = parse_program(program).unwrap();
    let out = evaluate(&program, session.db(), semantics, Budget::SMALL).unwrap();
    let certain = out
        .model
        .certain
        .facts(pred)
        .map(|args| format!("{}.", algrec_serve::session::format_fact(pred, args)))
        .collect();
    let unknown = out
        .model
        .unknown_facts()
        .into_iter()
        .filter(|(p, _)| p == pred)
        .map(|(p, args)| algrec_serve::session::format_fact(&p, &args))
        .collect();
    (certain, unknown)
}

/// A write's `changed` as DESIGN.md §10 defines it for every view: the
/// lines of the rendered answer (`query(view, None)`), certain and
/// unknown alike, that entered or left.
fn lines_moved(before: &QueryAnswer, after: &QueryAnswer) -> usize {
    let lines = |answer: &QueryAnswer| -> BTreeSet<String> {
        let QueryAnswer::Datalog { certain, unknown } = answer else {
            panic!("datalog answer expected")
        };
        certain.iter().chain(unknown).cloned().collect()
    };
    lines(before).symmetric_difference(&lines(after)).count()
}

fn check_view(
    session: &mut Session,
    view: &str,
    program: &str,
    semantics: Semantics,
    pred: &str,
    context: &str,
) -> Result<(), TestCaseError> {
    let QueryAnswer::Datalog { certain, unknown } = session.query(view, Some(pred)).unwrap() else {
        panic!("datalog answer expected")
    };
    let (cold_certain, cold_unknown) = cold_answer(session, program, semantics, pred);
    prop_assert_eq!(certain, cold_certain, "certain facts diverged {}", context);
    prop_assert_eq!(unknown, cold_unknown, "unknown facts diverged {}", context);
    Ok(())
}

/// One algebra-side step: insert or retract a member of the binary `e`
/// or the unary `n` — sometimes of the wrong shape (a scalar, a 3-tuple
/// or a tuple-valued column into `e`, a pair into `n`), so that the same
/// small domain later retracts it and restores the shape.
fn arb_alg_step() -> impl Strategy<Value = (bool, &'static str, Value)> {
    let i = Value::int;
    let edge = (any::<bool>(), 0..4i64, 0..4i64)
        .prop_map(move |(ins, a, b)| (ins, "e", Value::pair(i(a), i(b))));
    let node = (any::<bool>(), 0..4i64).prop_map(move |(ins, a)| (ins, "n", i(a)));
    prop_oneof![
        edge.clone(),
        edge.clone(),
        edge,
        node.clone(),
        node,
        (any::<bool>(), 0..2i64).prop_map(move |(ins, a)| (ins, "e", i(a))),
        (any::<bool>(), 0..2i64).prop_map(move |(ins, a)| (
            ins,
            "e",
            Value::tuple([i(a), i(a), i(a)])
        )),
        (any::<bool>(), 0..2i64).prop_map(move |(ins, a)| (ins, "n", Value::pair(i(a), i(a)))),
        (any::<bool>(), 0..2i64).prop_map(move |(ins, a)| (
            ins,
            "e",
            Value::pair(Value::pair(i(a), i(a)), i(a))
        )),
    ]
}

/// A random unary `algebra=` expression over `n`, the recursive
/// constant `s`, literal sets and the §3.2 gadget `{0} − s`; `depth`
/// bounds the nesting.
fn unary(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("n".to_string()),
        Just("s".to_string()),
        Just("{0, 2}".to_string()),
        Just("{}".to_string()),
        Just("({0} - s)".to_string()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let (u, b) = (unary(depth - 1), binary(depth - 1));
    prop_oneof![
        leaf,
        (b, 0..2usize).prop_map(|(b, i)| format!("map({b}, x.{i})")),
        (u.clone(), u.clone()).prop_map(|(a, c)| format!("({a} union {c})")),
        (u.clone(), u.clone()).prop_map(|(a, c)| format!("({a} - {c})")),
        (u, 0..4usize, 0..3i64)
            .prop_map(|(a, op, k)| format!("select({a}, x {} {k})", ["=", "!=", "<", ">="][op])),
    ]
    .boxed()
}

/// A random binary expression over `e`, the recursive constant `t`,
/// products of unary sets, equality joins, swaps and selections.
fn binary(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("e".to_string()),
        Just("t".to_string()),
        Just("{[0, 1], [1, 1]}".to_string()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let (u, b) = (unary(depth - 1), binary(depth - 1));
    let tests = ["x.0 = x.1", "x.0 < x.1 or not (x.1 = 2)", "x = [0, 1]"];
    prop_oneof![
        leaf,
        (u.clone(), u).prop_map(|(a, c)| format!("({a} * {c})")),
        (b.clone(), b.clone()).prop_map(|(a, c)| format!("({a} union {c})")),
        (b.clone(), b.clone()).prop_map(|(a, c)| format!("({a} - {c})")),
        (b.clone(), b.clone())
            .prop_map(|(a, c)| format!("map(select({a} * {c}, x.1 = x.2), [x.0, x.3])")),
        b.clone().prop_map(|a| format!("map({a}, [x.1, x.0])")),
        (b, 0..3usize).prop_map(move |(a, t)| format!("select({a}, {})", tests[t])),
    ]
    .boxed()
}

/// The algebra view `v` against `eval_valid` on the session's database:
/// query, constants and the well-defined flag as strings, unknown
/// members included — or the same error. The strategy label must name
/// the engine that ran: the recompute path exactly when the program is
/// outside the planner's class on this database.
fn check_algebra(
    session: &mut Session,
    program: &AlgProgram,
    context: &str,
) -> Result<(), TestCaseError> {
    let stats = session.stats(Some("v")).unwrap().remove(0);
    if !stats.dirty {
        let in_class = algebra::plan(program, session.db()).is_some();
        prop_assert_eq!(
            stats.strategy == "algebra-recompute",
            !in_class,
            "{}: {}",
            context,
            stats.strategy
        );
    }
    let cold = algrec_core::eval_valid(program, session.db(), Budget::SMALL);
    match (cold, session.query("v", None)) {
        (
            Ok(cold),
            Ok(QueryAnswer::Algebra {
                query,
                well_defined,
                constants,
            }),
        ) => {
            prop_assert_eq!(query, cold.query.to_string(), "query of {}", context);
            prop_assert_eq!(well_defined, cold.is_well_defined(), "{}", context);
            let cold: BTreeMap<String, String> = cold
                .constants
                .iter()
                .map(|(k, v)| (k.clone(), v.to_string()))
                .collect();
            prop_assert_eq!(constants, cold, "constants of {}", context);
        }
        (Err(cold), Err(live)) => prop_assert_eq!(cold.to_string(), live.to_string()),
        (cold, live) => prop_assert!(false, "{}: cold {:?}, live {:?}", context, cold, live),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DRed over the recursive TC stratum: after every random delta the
    /// maintained view equals a cold evaluation.
    #[test]
    fn tc_view_matches_cold_after_every_delta(
        initial in prop::collection::btree_set((0..6i64, 0..6i64), 0..10),
        steps in prop::collection::vec(arb_step(6), 1..14),
    ) {
        let mut session = Session::new(Budget::SMALL);
        let facts: String = initial.iter().map(|(a, b)| format!("e({a}, {b}).\n")).collect();
        session.load(&facts).unwrap();
        session.register_datalog("v", TC, Semantics::Valid).unwrap();
        check_view(&mut session, "v", TC, Semantics::Valid, "tc", "at registration")?;
        for (k, step) in steps.iter().enumerate() {
            let (insert, src) = fact_src(step);
            if insert {
                session.assert_fact(&src).unwrap();
            } else {
                session.retract_fact(&src).unwrap();
            }
            check_view(&mut session, "v", TC, Semantics::Valid, "tc",
                       &format!("after step {k} ({step:?})"))?;
        }
    }

    /// Counting + DRed + negation flips: the stratified unreachability
    /// program, with node toggles driving the flipped-rule paths.
    #[test]
    fn unreach_view_matches_cold_after_every_delta(
        initial in prop::collection::btree_set((0..5i64, 0..5i64), 0..8),
        nodes in prop::collection::btree_set(0..5i64, 0..5),
        steps in prop::collection::vec(arb_step(5), 1..12),
    ) {
        let mut session = Session::new(Budget::SMALL);
        let mut facts: String = initial.iter().map(|(a, b)| format!("e({a}, {b}).\n")).collect();
        facts.extend(nodes.iter().map(|a| format!("n({a}).\n")));
        session.load(&facts).unwrap();
        session.register_datalog("v", UNREACH, Semantics::Stratified).unwrap();
        for pred in ["tc", "un"] {
            check_view(&mut session, "v", UNREACH, Semantics::Stratified, pred, "at registration")?;
        }
        for (k, step) in steps.iter().enumerate() {
            let (insert, src) = fact_src(step);
            if insert {
                session.assert_fact(&src).unwrap();
            } else {
                session.retract_fact(&src).unwrap();
            }
            for pred in ["tc", "un"] {
                check_view(&mut session, "v", UNREACH, Semantics::Stratified, pred,
                           &format!("after step {k} ({step:?})"))?;
            }
        }
    }

    /// The maintenance kernel's two drivers against their from-scratch
    /// shadow: one program registered three times — `auto`, pinned
    /// `incremental` (the alternating driver) and pinned `recompute`
    /// (the reference) — under every three-valued semantics. On the
    /// non-stratified WIN/MOVE game `auto` is the alternating driver
    /// too; on the stratified TC + `un` program it is the stratum
    /// driver, so both drivers of the one kernel see the same deltas.
    /// After each random delta all three views must equal a cold
    /// evaluation (and hence each other).
    #[test]
    fn pinned_strategies_agree_with_cold_under_every_semantics(
        semantics in prop_oneof![
            Just(Semantics::WellFounded),
            Just(Semantics::Valid),
            Just(Semantics::ValidExtended(3)),
        ],
        (program, preds) in prop_oneof![
            Just((WIN, &["win"][..])),
            Just((UNREACH, &["tc", "un"][..])),
        ],
        initial in prop::collection::btree_set((0..5i64, 0..5i64), 0..8),
        steps in prop::collection::vec(arb_step(5), 1..10),
    ) {
        let mut session = Session::new(Budget::SMALL);
        let facts: String = initial.iter().map(|(a, b)| format!("e({a}, {b}).\n")).collect();
        session.load(&facts).unwrap();
        let views = [
            ("auto", StrategyPin::Auto),
            ("inc", StrategyPin::Incremental),
            ("rec", StrategyPin::Recompute),
        ];
        let mut strategies = BTreeMap::new();
        for (view, pin) in views {
            let reg = session.register_datalog_pinned(view, program, semantics, pin).unwrap();
            strategies.insert(view.to_string(), reg.strategy);
        }
        let check_all = |session: &mut Session, context: &str| {
            for (view, _) in views {
                for pred in preds {
                    check_view(session, view, program, semantics, pred,
                               &format!("{context} ({view}/{pred}, {semantics:?})"))?;
                }
            }
            Ok::<(), TestCaseError>(())
        };
        check_all(&mut session, "at registration")?;
        let answer = |session: &mut Session, view: &str| session.query(view, None).unwrap();
        for (k, step) in steps.iter().enumerate() {
            let before: Vec<QueryAnswer> =
                views.iter().map(|(view, _)| answer(&mut session, view)).collect();
            let (insert, src) = fact_src(step);
            let out = if insert {
                session.assert_fact(&src).unwrap()
            } else {
                session.retract_fact(&src).unwrap()
            };
            // A write that changed nothing in the database reaches no view.
            prop_assert_eq!(out.views.len(), if out.applied == 0 { 0 } else { views.len() });
            for (report, before) in out.views.iter().zip(&before) {
                prop_assert_eq!(
                    report.changed,
                    lines_moved(before, &answer(&mut session, &report.view)),
                    "`changed` of {} ({}) after step {} ({:?}, {:?})",
                    report.view, strategies[&report.view], k, step, semantics
                );
            }
            check_all(&mut session, &format!("after step {k} ({step:?})"))?;
        }
    }

    /// The kernel's re-derivation over every head shape ([`SHAPES`]),
    /// under the stratum driver (`auto`), the alternating driver (pinned
    /// `incremental`) and the reference (pinned `recompute`): node
    /// toggles over-delete whole derivation trees, edge churn inside
    /// cycles leaves alternative support to re-derive from.
    #[test]
    fn every_head_shape_is_rederived_like_cold(
        initial in prop::collection::btree_set((0..5i64, 0..5i64), 0..9),
        nodes in prop::collection::btree_set(0..5i64, 0..4),
        steps in prop::collection::vec(arb_step(5), 1..12),
    ) {
        let mut session = Session::new(Budget::SMALL);
        let mut facts: String = initial.iter().map(|(a, b)| format!("e({a}, {b}).\n")).collect();
        facts.extend(nodes.iter().map(|a| format!("n({a}).\n")));
        session.load(&facts).unwrap();
        let views = [
            ("auto", StrategyPin::Auto, "stratified-incremental"),
            ("inc", StrategyPin::Incremental, "incremental-alternating"),
            ("rec", StrategyPin::Recompute, "recompute-levels"),
        ];
        for (view, pin, strategy) in views {
            let reg = session.register_datalog_pinned(view, SHAPES, Semantics::Valid, pin).unwrap();
            prop_assert_eq!(reg.strategy, strategy);
        }
        let check_all = |session: &mut Session, context: &str| {
            for (view, ..) in views {
                for pred in ["same", "mark", "pair", "hop", "live"] {
                    check_view(session, view, SHAPES, Semantics::Valid, pred,
                               &format!("{context} ({view}/{pred})"))?;
                }
            }
            Ok::<(), TestCaseError>(())
        };
        check_all(&mut session, "at registration")?;
        for (k, step) in steps.iter().enumerate() {
            let (insert, src) = fact_src(step);
            let out = if insert {
                session.assert_fact(&src).unwrap()
            } else {
                session.retract_fact(&src).unwrap()
            };
            for report in &out.views {
                prop_assert_eq!(&report.status, &ViewStatus::Maintained, "{:?}", report);
            }
            check_all(&mut session, &format!("after step {k} ({step:?})"))?;
        }
    }

    /// The §3.2 divergence gadget `S = {a} − S` (as `s(X) :- n(X), not
    /// s(X).`) with a second negation layer reading the contested
    /// facts, maintained under node/edge churn with both strategy
    /// pins. Every `n(a)` keeps `s(a)` — and therefore `calm(a)` —
    /// permanently unknown, the state the maintainer must preserve
    /// (not resolve) across deltas.
    #[test]
    fn divergence_gadget_matches_cold_under_churn(
        semantics in prop_oneof![
            Just(Semantics::WellFounded),
            Just(Semantics::Valid),
            Just(Semantics::ValidExtended(3)),
        ],
        nodes in prop::collection::btree_set(0..4i64, 0..4),
        steps in prop::collection::vec(arb_step(4), 1..10),
    ) {
        let mut session = Session::new(Budget::SMALL);
        let facts: String = nodes.iter().map(|a| format!("n({a}).\n")).collect();
        session.load(&facts).unwrap();
        session
            .register_datalog_pinned("inc", GADGET, semantics, StrategyPin::Incremental)
            .unwrap();
        session
            .register_datalog_pinned("rec", GADGET, semantics, StrategyPin::Recompute)
            .unwrap();
        for (k, step) in steps.iter().enumerate() {
            let (insert, src) = fact_src(step);
            if insert {
                session.assert_fact(&src).unwrap();
            } else {
                session.retract_fact(&src).unwrap();
            }
            for view in ["inc", "rec"] {
                for pred in ["s", "calm"] {
                    check_view(&mut session, view, GADGET, semantics, pred,
                               &format!("after step {k} ({step:?}, {view}/{pred}, {semantics:?})"))?;
                }
            }
        }
    }

    /// Served inflationary views ≡ cold inflationary evaluation after
    /// every delta, on both sides of the planner's test. `TC`, `SHAPES`
    /// and `EDB_NEGATION` are semipositive: they run on the stratum
    /// driver and must report, write by write, the `changed` and `stats`
    /// of the same program registered `stratified`. `UNREACH` and the
    /// gadget (Example 4's shape) negate a derived predicate and keep
    /// changed-level recomputation. The initial database sometimes holds
    /// `tc` and `lone` facts, which the programs also derive.
    #[test]
    fn inflationary_views_match_cold_after_every_delta(
        initial in prop::collection::btree_set((0..5i64, 0..5i64), 0..8),
        nodes in prop::collection::btree_set(0..5i64, 0..4),
        derived in prop::collection::btree_set((0..5i64, 0..5i64), 0..3),
        steps in prop::collection::vec(arb_step(5), 1..12),
    ) {
        let programs: [(&str, &[&str]); 5] = [
            (TC, &["tc"]),
            (SHAPES, &["same", "mark", "pair", "hop", "live"]),
            (EDB_NEGATION, &["lone", "tc", "far"]),
            (UNREACH, &["tc", "un"]),
            (GADGET, &["s", "calm"]),
        ];
        let mut session = Session::new(Budget::SMALL);
        let mut facts: String = initial.iter().map(|(a, b)| format!("e({a}, {b}).\n")).collect();
        facts.extend(nodes.iter().map(|a| format!("n({a}).\n")));
        facts.extend(derived.iter().map(|(a, b)| format!("tc({a}, {b}).\nlone({a}).\n")));
        session.load(&facts).unwrap();
        let mut twins = Vec::new();
        for (k, (program, _)) in programs.iter().enumerate() {
            let semipositive = parse_program(program).unwrap().is_semipositive();
            let reg = session
                .register_datalog(&format!("infl{k}"), program, Semantics::Inflationary)
                .unwrap();
            let want = if semipositive { "stratified-incremental" } else { "recompute-levels" };
            prop_assert_eq!(reg.strategy, want, "{}", program);
            if semipositive {
                session
                    .register_datalog(&format!("strat{k}"), program, Semantics::Stratified)
                    .unwrap();
                twins.push(k);
            }
        }
        let check_all = |session: &mut Session, context: &str| {
            for (k, (program, preds)) in programs.iter().enumerate() {
                for pred in preds.iter() {
                    check_view(session, &format!("infl{k}"), program, Semantics::Inflationary,
                               pred, &format!("{context} (infl{k}/{pred})"))?;
                }
            }
            Ok::<(), TestCaseError>(())
        };
        check_all(&mut session, "at registration")?;
        for (n, step) in steps.iter().enumerate() {
            let (insert, src) = fact_src(step);
            let out = if insert {
                session.assert_fact(&src).unwrap()
            } else {
                session.retract_fact(&src).unwrap()
            };
            let report = |view: String| {
                out.views.iter().find(|r| r.view == view).map(|r| (r.changed, r.stats))
            };
            for k in &twins {
                prop_assert_eq!(report(format!("infl{k}")), report(format!("strat{k}")),
                                "step {} ({:?}) of {}", n, step, programs[*k].0);
            }
            check_all(&mut session, &format!("after step {n} ({step:?})"))?;
        }
    }

    /// Served algebra views ≡ `eval_valid` after every delta, whichever
    /// engine runs them: random programs over two recursive constants,
    /// in and out of the planner's class, under churn that breaks and
    /// restores the shapes of `e` and `n`. Each delta's report says the
    /// view changed exactly when its answer did, and the published
    /// snapshot — kept across a delta that moved nothing — answers like
    /// the live session.
    #[test]
    fn algebra_views_match_eval_valid_after_every_delta(
        s in unary(2),
        t in binary(2),
        q in prop_oneof![unary(2), binary(2)],
        initial in prop::collection::btree_set((0..4i64, 0..4i64), 1..6),
        nodes in prop::collection::btree_set(0..4i64, 1..4),
        steps in prop::collection::vec(arb_alg_step(), 1..12),
    ) {
        let src = format!("def s = {s}; def t = {t}; query {q};");
        let program = algrec_core::parser::parse_program(&src).unwrap();
        let mut session = Session::new(Budget::SMALL);
        let mut facts: String = initial.iter().map(|(a, b)| format!("e({a}, {b}).\n")).collect();
        facts.extend(nodes.iter().map(|a| format!("n({a}).\n")));
        session.load(&facts).unwrap();
        if let Err(e) = session.register_algebra("v", &src) {
            let cold = algrec_core::eval_valid(&program, session.db(), Budget::SMALL);
            prop_assert_eq!(Some(e.to_string()), cold.err().map(|e| e.to_string()));
            return Ok(());
        }
        check_algebra(&mut session, &program, &format!("{src} at registration"))?;
        let mut last = session.query("v", None).ok();
        for (k, (insert, rel, member)) in steps.into_iter().enumerate() {
            let mut delta = DatabaseDelta::new();
            let context = format!("{src} after step {k} ({insert} {rel} {member})");
            if insert {
                delta.insert(rel, member);
            } else {
                delta.remove(rel, member);
            }
            // No report: the delta changed nothing in the database.
            let report = session.apply_delta(&delta).unwrap().views.pop();
            let published = session.read_view().query("v", None).unwrap();
            check_algebra(&mut session, &program, &context)?;
            let now = session.query("v", None).ok();
            let changed = match report {
                None => Some(0),
                Some(r) => (r.status != ViewStatus::Error).then_some(r.changed),
            };
            if let (Some(changed), Some(_), Some(_)) = (changed, &last, &now) {
                prop_assert_eq!(changed, usize::from(now != last), "changed: {}", context);
            }
            if let Some(published) = published {
                prop_assert_eq!(Some(published), now.clone(), "published: {}", context);
            }
            last = now;
        }
    }

    /// Changed-level recomputation on the non-stratified WIN/MOVE game,
    /// including three-valued states on cyclic graphs.
    #[test]
    fn win_view_matches_cold_after_every_delta(
        initial in prop::collection::btree_set((0..5i64, 0..5i64), 0..8),
        steps in prop::collection::vec(arb_step(5), 1..10),
    ) {
        let mut session = Session::new(Budget::SMALL);
        let facts: String = initial.iter().map(|(a, b)| format!("e({a}, {b}).\n")).collect();
        session.load(&facts).unwrap();
        session.register_datalog("v", WIN, Semantics::Valid).unwrap();
        check_view(&mut session, "v", WIN, Semantics::Valid, "win", "at registration")?;
        for (k, step) in steps.iter().enumerate() {
            let (insert, src) = fact_src(step);
            if insert {
                session.assert_fact(&src).unwrap();
            } else {
                session.retract_fact(&src).unwrap();
            }
            check_view(&mut session, "v", WIN, Semantics::Valid, "win",
                       &format!("after step {k} ({step:?})"))?;
        }
    }
}

// Named replays of the cases `incremental_props.proptest-regressions`
// records. The vendored proptest re-derives its own cases from fixed
// seeds and does not read the file, so each recorded shrink is pinned
// here as a unit test that fails by name.

/// Seed cc 142a98… (`initial = {}`, `steps = [InsertEdge(0, 0)]`): the
/// first delta into an *empty* view inserts a self-loop — the smallest
/// input where WIN's maintained state must go from exact-and-empty to
/// three-valued in one step, and TC must derive `tc(0, 0)` from
/// nothing.
#[test]
fn regression_first_delta_self_loop_into_empty_view() {
    let mut session = Session::new(Budget::SMALL);
    session.register_datalog("t", TC, Semantics::Valid).unwrap();
    session
        .register_datalog("w", WIN, Semantics::Valid)
        .unwrap();
    session.assert_fact("e(0, 0)").unwrap();
    let QueryAnswer::Datalog { certain, .. } = session.query("t", Some("tc")).unwrap() else {
        panic!()
    };
    assert_eq!(certain, vec!["tc(0, 0).".to_string()]);
    let (cold_certain, _) = cold_answer(&session, TC, Semantics::Valid, "tc");
    assert_eq!(certain, cold_certain);
    let QueryAnswer::Datalog { certain, unknown } = session.query("w", Some("win")).unwrap() else {
        panic!()
    };
    assert!(certain.is_empty(), "{certain:?}");
    assert_eq!(unknown, vec!["win(0)".to_string()], "self-loop is drawn");
    let (_, cold_unknown) = cold_answer(&session, WIN, Semantics::Valid, "win");
    assert_eq!(unknown, cold_unknown);
}

/// Seed cc be6239… (`initial = {}`, `steps = [InsertEdge(0, 1),
/// RemoveEdge(0, 1)]`): insert-then-retract of the same edge must leave
/// every maintained view exactly where it started — empty — with no
/// residue in the support counts (the classic over-deletion /
/// re-derivation trap at its smallest).
#[test]
fn regression_insert_then_retract_returns_to_empty() {
    let mut session = Session::new(Budget::SMALL);
    session.register_datalog("t", TC, Semantics::Valid).unwrap();
    session
        .register_datalog("u", UNREACH, Semantics::Stratified)
        .unwrap();
    session.assert_fact("e(0, 1)").unwrap();
    session.retract_fact("e(0, 1)").unwrap();
    for (view, program, semantics, pred) in [
        ("t", TC, Semantics::Valid, "tc"),
        ("u", UNREACH, Semantics::Stratified, "tc"),
        ("u", UNREACH, Semantics::Stratified, "un"),
    ] {
        let QueryAnswer::Datalog { certain, unknown } = session.query(view, Some(pred)).unwrap()
        else {
            panic!()
        };
        let (cold_certain, cold_unknown) = cold_answer(&session, program, semantics, pred);
        assert_eq!(certain, cold_certain, "{view}/{pred}");
        assert_eq!(unknown, cold_unknown, "{view}/{pred}");
        assert!(certain.is_empty(), "{view}/{pred}: {certain:?}");
    }
}

/// Empty-EDB edge for the pinned maintainers: registering on a fully
/// empty database must succeed under every three-valued semantics, the
/// view must answer empty, and the *first* delta (a self-loop, turning
/// the view three-valued in one step) plus its retraction (back to
/// empty) must both match cold evaluation — for `incremental` and
/// `recompute` pins alike.
#[test]
fn pinned_registration_on_empty_edb_then_first_delta() {
    for semantics in [
        Semantics::WellFounded,
        Semantics::Valid,
        Semantics::ValidExtended(3),
    ] {
        for pin in [StrategyPin::Incremental, StrategyPin::Recompute] {
            let mut session = Session::new(Budget::SMALL);
            session
                .register_datalog_pinned("v", WIN, semantics, pin)
                .unwrap();
            let QueryAnswer::Datalog { certain, unknown } =
                session.query("v", Some("win")).unwrap()
            else {
                panic!()
            };
            assert!(certain.is_empty(), "{semantics:?}/{pin:?}: {certain:?}");
            assert!(unknown.is_empty(), "{semantics:?}/{pin:?}: {unknown:?}");
            session.assert_fact("e(0, 0)").unwrap();
            let QueryAnswer::Datalog { certain, unknown } =
                session.query("v", Some("win")).unwrap()
            else {
                panic!()
            };
            let (cold_certain, cold_unknown) = cold_answer(&session, WIN, semantics, "win");
            assert_eq!(certain, cold_certain, "{semantics:?}/{pin:?}");
            assert_eq!(unknown, cold_unknown, "{semantics:?}/{pin:?}");
            assert_eq!(
                unknown,
                vec!["win(0)".to_string()],
                "{semantics:?}/{pin:?}: self-loop is drawn"
            );
            session.retract_fact("e(0, 0)").unwrap();
            let QueryAnswer::Datalog { certain, unknown } =
                session.query("v", Some("win")).unwrap()
            else {
                panic!()
            };
            assert!(certain.is_empty(), "{semantics:?}/{pin:?}: {certain:?}");
            assert!(unknown.is_empty(), "{semantics:?}/{pin:?}: {unknown:?}");
        }
    }
}

/// Plans move work, never counts: registering the `acl_authz` scenario
/// program (its delegation rule is the shape a delta-first plan would
/// hurt in a cold round — `delegate` scanned once per delta fact) costs
/// exactly the derivations and iterations it did before firings chose
/// between two plans — on the committed EDB and on thirty delegation
/// chains with a cycle each, under both of the scenario's pins.
#[test]
fn acl_authz_registration_counts_are_plan_independent() {
    let program = include_str!("../../../scenarios/acl_authz/program.dl");
    let committed = include_str!("../../../scenarios/acl_authz/edb.dl").to_string();
    let mut chains = String::from("resource(r0). resource(r1). resource(r2).\n");
    for t in 0..30 {
        chains += &format!("grant(u{t}_0, r{}). flagged(u{t}_2).\n", t % 3);
        for k in 0..5 {
            chains += &format!("delegate(u{t}_{}, u{t}_{k}).\n", k + 1);
        }
        chains += &format!("delegate(u{t}_3, u{t}_5). revoked(u{t}_4, r{}).\n", t % 3);
    }
    for (edb, expected) in [
        (committed, [("acl", 24, 14), ("acl_ref", 24, 14)]),
        (chains, [("acl", 870, 20), ("acl_ref", 1740, 40)]),
    ] {
        let mut session = Session::new(Budget::LARGE);
        session.load(&edb).unwrap();
        for (view, facts_inserted, iterations) in expected {
            let pin = if view == "acl" {
                StrategyPin::Incremental
            } else {
                StrategyPin::Recompute
            };
            let reg = session
                .register_datalog_pinned(view, program, Semantics::Valid, pin)
                .unwrap();
            assert_eq!(
                (reg.stats.facts_inserted, reg.stats.iterations),
                (facts_inserted, iterations),
                "{view} over {} facts",
                edb.matches('.').count()
            );
        }
    }
}

/// Maintained answers are thread-count invariant: the same churn script
/// over WIN and the §3.2 gadget, replayed at 1, 2, 4, and 8 scheduler
/// threads with both strategy pins, must match cold evaluation after
/// every delta at every width. (Any concurrent test observing the
/// global thread count mid-sweep still passes — invariance under the
/// thread count is exactly the property under test.)
#[test]
fn maintained_views_are_thread_count_invariant() {
    let script: &[(bool, &str)] = &[
        (true, "e(0, 1)"),
        (true, "e(1, 0)"),
        (true, "n(0)"),
        (true, "e(2, 2)"),
        (true, "n(1)"),
        (false, "e(1, 0)"),
        (true, "e(1, 2)"),
        (false, "n(0)"),
        (false, "e(2, 2)"),
        (true, "e(2, 0)"),
    ];
    for threads in [1usize, 2, 4, 8] {
        algrec_sched::set_threads(threads);
        for semantics in [Semantics::Valid, Semantics::ValidExtended(3)] {
            let mut session = Session::new(Budget::SMALL);
            session
                .register_datalog_pinned("w_inc", WIN, semantics, StrategyPin::Incremental)
                .unwrap();
            session
                .register_datalog_pinned("w_rec", WIN, semantics, StrategyPin::Recompute)
                .unwrap();
            session
                .register_datalog_pinned("g_inc", GADGET, semantics, StrategyPin::Incremental)
                .unwrap();
            session
                .register_datalog_pinned("g_rec", GADGET, semantics, StrategyPin::Recompute)
                .unwrap();
            for (k, (insert, src)) in script.iter().enumerate() {
                if *insert {
                    session.assert_fact(src).unwrap();
                } else {
                    session.retract_fact(src).unwrap();
                }
                for (view, program, pred) in [
                    ("w_inc", WIN, "win"),
                    ("w_rec", WIN, "win"),
                    ("g_inc", GADGET, "s"),
                    ("g_inc", GADGET, "calm"),
                    ("g_rec", GADGET, "s"),
                    ("g_rec", GADGET, "calm"),
                ] {
                    let QueryAnswer::Datalog { certain, unknown } =
                        session.query(view, Some(pred)).unwrap()
                    else {
                        panic!()
                    };
                    let (cold_certain, cold_unknown) =
                        cold_answer(&session, program, semantics, pred);
                    let ctx = format!("threads={threads} {semantics:?} step {k} {view}/{pred}");
                    assert_eq!(certain, cold_certain, "{ctx}");
                    assert_eq!(unknown, cold_unknown, "{ctx}");
                }
            }
        }
    }
    algrec_sched::set_threads(1);
}

/// An algebra view follows the shapes of its inputs: WIN runs as its
/// translation until a triple lands in the binary `e`, is recomputed by
/// `algrec_core` while it is there, and goes back to the translation
/// once it is retracted — answering like `eval_valid` throughout, and
/// skipping deltas to relations it does not read.
#[test]
fn algebra_view_moves_between_engines_with_its_input_shapes() {
    let src = "def win = map(e - (map(e, x.0) * win), x.0); query win;";
    let program = algrec_core::parser::parse_program(src).unwrap();
    let mut session = Session::new(Budget::SMALL);
    session.load("e(1, 2). e(2, 3). e(4, 4).").unwrap();
    let reg = session.register_algebra("v", src).unwrap();
    assert_eq!(reg.strategy, "incremental-alternating");
    for (insert, fact, status, strategy) in [
        (
            true,
            "e(3, 1)",
            ViewStatus::Maintained,
            "incremental-alternating",
        ),
        (true, "n(7)", ViewStatus::Skipped, "incremental-alternating"),
        (true, "e(5, 6, 7)", ViewStatus::Rebuilt, "algebra-recompute"),
        (true, "e(5, 1)", ViewStatus::Rebuilt, "algebra-recompute"),
        (
            false,
            "e(5, 6, 7)",
            ViewStatus::Rebuilt,
            "incremental-alternating",
        ),
        (
            false,
            "e(4, 4)",
            ViewStatus::Maintained,
            "incremental-alternating",
        ),
    ] {
        let out = if insert {
            session.assert_fact(fact).unwrap()
        } else {
            session.retract_fact(fact).unwrap()
        };
        assert_eq!(out.views[0].status, status, "{fact}");
        assert_eq!(session.stats(Some("v")).unwrap()[0].strategy, strategy);
        let QueryAnswer::Algebra { query, .. } = session.query("v", None).unwrap() else {
            panic!("algebra answer expected")
        };
        let cold = algrec_core::eval_valid(&program, session.db(), Budget::SMALL).unwrap();
        assert_eq!(query, cold.query.to_string(), "after {fact}");
    }
}

/// Deterministic regression: a delta straight into a view's derived
/// predicate rebuilds and still matches cold evaluation (EDB/IDB
/// overlap).
#[test]
fn idb_overlap_delta_still_matches_cold() {
    let mut session = Session::new(Budget::SMALL);
    session.load("e(1, 2).").unwrap();
    session.register_datalog("v", TC, Semantics::Valid).unwrap();
    let out = session.assert_fact("tc(5, 6)").unwrap();
    assert_eq!(out.views[0].status, ViewStatus::Rebuilt);
    let QueryAnswer::Datalog { certain, .. } = session.query("v", Some("tc")).unwrap() else {
        panic!()
    };
    let (cold, _) = cold_answer(&session, TC, Semantics::Valid, "tc");
    assert_eq!(certain, cold);
}

/// Deterministic regression: a database fact of a derived predicate
/// outlives its last derivation. The retraction touches only `move`, so
/// no delta edits `hop2`; the database still holds `hop2(a, c)`, and so
/// must every view of the program, on the stratum driver too.
#[test]
fn database_fact_of_a_derived_predicate_outlives_its_derivations() {
    const HOPS: &str = "hop2(X, Z) :- move(X, Y), move(Y, Z).";
    let views = [
        ("infl", Semantics::Inflationary),
        ("strat", Semantics::Stratified),
        ("valid", Semantics::Valid),
    ];
    let mut session = Session::new(Budget::SMALL);
    session.load("move(a, b). move(b, c). hop2(a, c).").unwrap();
    for (name, semantics) in views {
        let reg = session.register_datalog(name, HOPS, semantics).unwrap();
        assert_eq!(reg.strategy, "stratified-incremental", "{name}");
    }
    let out = session.retract_fact("move(a, b)").unwrap();
    for (name, semantics) in views {
        let QueryAnswer::Datalog { certain, .. } = session.query(name, Some("hop2")).unwrap()
        else {
            panic!()
        };
        assert_eq!(certain, ["hop2(a, c).".to_string()], "{name}");
        assert_eq!(
            certain,
            cold_answer(&session, HOPS, semantics, "hop2").0,
            "{name}"
        );
        let report = out.views.iter().find(|r| r.view == name).unwrap();
        assert_eq!(report.status, ViewStatus::Rebuilt, "{name}");
    }
}

/// Supported-derivation maintenance avoids the work of changed-level
/// recomputation when small deltas feed a recursive negation: WIN over
/// many disconnected game gadgets (a chain ending in a self-loop, so
/// every gadget carries unknown facts), with churn that flips one probe
/// edge into gadget 0 while the other gadgets never change. The
/// `incremental` and `recompute` pins must answer alike after every
/// delta, and the incremental maintainer must insert at least five
/// times fewer facts over the whole stream (registration excluded: both
/// pins materialize cold identically).
#[test]
fn incremental_derives_5x_fewer_facts_than_recompute_on_negation_chain() {
    const GADGETS: i64 = 40;
    const LEN: i64 = 6;
    const DELTAS: i64 = 20;
    let mut edb = String::new();
    for g in 0..GADGETS {
        let b = g * (LEN + 2);
        for i in 0..LEN {
            edb += &format!("move({}, {}).\n", b + i, b + i + 1);
        }
        edb += &format!("move({0}, {0}).\n", b + LEN);
    }
    let program = "win(X) :- move(X, Y), not win(Y).";
    let session_for = |pin| {
        let mut session = Session::new(Budget::LARGE);
        session.load(&edb).unwrap();
        session
            .register_datalog_pinned("v", program, Semantics::Valid, pin)
            .unwrap();
        session
    };
    let mut inc = session_for(StrategyPin::Incremental);
    let mut rec = session_for(StrategyPin::Recompute);
    // Probe edges live in an id range below every gadget.
    let probe = |t: i64| Value::pair(Value::int(-t - 1), Value::int(0));
    for t in 0..DELTAS {
        let mut delta = DatabaseDelta::new();
        delta.insert("move", probe(t));
        if t > 0 {
            delta.remove("move", probe(t - 1));
        }
        inc.apply_delta(&delta).unwrap();
        rec.apply_delta(&delta).unwrap();
        assert_eq!(
            inc.query("v", None).unwrap(),
            rec.query("v", None).unwrap(),
            "pins diverged after delta {t}"
        );
    }
    let derived = |s: &Session| s.stats(Some("v")).unwrap()[0].cumulative.facts_inserted;
    let (inc_facts, rec_facts) = (derived(&inc), derived(&rec));
    assert!(
        5 * inc_facts <= rec_facts,
        "incremental inserted {inc_facts} facts, recompute {rec_facts}: under 5x fewer"
    );
}
