//! One integration test per claim of the paper: every numbered example,
//! proposition and theorem, exercised end-to-end across the crates.

use algrec::prelude::*;
use algrec_adt::specs;
use algrec_adt::term::Term;
use algrec_adt::valid_interp::ValidInterpretation;
use algrec_core::analysis::{classify, prop34_check, LanguageClass};
use algrec_core::parser::parse_program as parse_alg;
use algrec_datalog::parser::parse_program as parse_dl;
use algrec_datalog::safety;
use algrec_translate::{
    algebra_to_datalog, edb_arities, ifp_algebra_to_algebra_eq, inflationary_to_valid,
    TranslationMode,
};

fn ints(pairs: &[(i64, i64)]) -> Relation {
    Relation::from_pairs(pairs.iter().map(|(a, b)| (Value::int(*a), Value::int(*b))))
}

/// Section 2.1: the SET(nat) specification gives canonical finite sets
/// with total membership.
#[test]
fn section_2_1_set_specification() {
    let vi = ValidInterpretation::compute(&specs::set_spec(), 3, Budget::SMALL).unwrap();
    assert!(vi.is_total());
    let single = Term::op("ins", [specs::numeral(0), Term::cons("empty")]);
    assert_eq!(
        vi.eq_truth(
            &Term::op("mem", [specs::numeral(0), single.clone()]),
            &Term::cons("tt")
        ),
        Truth::True
    );
    assert_eq!(
        vi.eq_truth(
            &Term::op("mem", [specs::numeral(1), single]),
            &Term::cons("ff")
        ),
        Truth::True
    );
}

/// Example 1: the even set Sᵉ — every even in, every odd certainly out,
/// via the completion disequation.
#[test]
fn example_1_even_set_specification() {
    let spec = specs::even_set_spec(2);
    let vi = ValidInterpretation::compute_over(&spec, specs::even_set_universe(2), Budget::LARGE)
        .unwrap();
    for k in 0..=3usize {
        let expect = if k % 2 == 0 { "tt" } else { "ff" };
        assert_eq!(
            vi.eq_truth(
                &Term::op("mem", [specs::numeral(k), Term::cons("se")]),
                &Term::cons(expect)
            ),
            Truth::True,
            "MEM({k}, se) = {expect}"
        );
    }
}

/// Example 2: three valid models, none initial.
#[test]
fn example_2_no_initial_valid_model() {
    let analysis = algrec_adt::initial_valid_model(&specs::example2_spec(), Budget::SMALL).unwrap();
    assert_eq!(analysis.valid_models.len(), 3);
    assert!(analysis.initial.is_none());
}

/// Proposition 2.3(2): the constants-only decision procedure terminates
/// and distinguishes well-defined from ill-defined specifications.
#[test]
fn prop_2_3_2_decision_procedure() {
    // well-defined: plain identification
    let mut sig = algrec_adt::Signature::new();
    sig.add_sort("s");
    for c in ["a", "b"] {
        sig.add_op(algrec_adt::OpDecl::constant(c, "s")).unwrap();
    }
    let spec = algrec_adt::Specification::new(
        sig,
        [algrec_adt::ConditionalEquation::plain(
            Term::cons("a"),
            Term::cons("b"),
        )],
    )
    .unwrap();
    assert!(algrec_adt::initial_valid_model(&spec, Budget::SMALL)
        .unwrap()
        .initial
        .is_some());
    // ill-defined: Example 2
    assert!(
        algrec_adt::initial_valid_model(&specs::example2_spec(), Budget::SMALL)
            .unwrap()
            .initial
            .is_none()
    );
}

/// Theorem 3.1: IFP-algebra programs are always well-defined — the
/// evaluation of any IFP-algebra query is two-valued.
#[test]
fn theorem_3_1_ifp_algebra_well_defined() {
    let db = Database::new().with("edge", ints(&[(1, 2), (2, 1), (3, 3)]));
    for src in [
        "query ifp(x, edge union map(select(x * edge, x.1 = x.2), [x.0, x.3]));",
        "query ifp(x, {'a'} - x);",
        "query ifp(x, edge - x);",
        "query map(edge, x.0) - map(edge, x.1);",
    ] {
        let p = parse_alg(src).unwrap();
        assert!(p.is_nonrecursive());
        // eval_valid on a non-recursive program must be exact
        let out = algrec::core::eval_valid(&p, &db, Budget::SMALL).unwrap();
        assert!(out.is_well_defined(), "{src} should be two-valued");
        // and must agree with direct exact evaluation
        let exact = eval_exact(&p, &db, Budget::SMALL).unwrap();
        assert_eq!(out.query.to_exact().unwrap(), exact);
    }
}

/// Section 3.2: S = {a} − S has no initial valid model; membership is
/// undefined (the Proposition 3.2 gadget).
#[test]
fn prop_3_2_gadget_undefined() {
    let p = parse_alg("def s = {'a'} - s; query s;").unwrap();
    let out = algrec::core::eval_valid(&p, &Database::new(), Budget::SMALL).unwrap();
    assert_eq!(out.member(&Value::str("a")), Truth::Unknown);
    assert!(!out.is_well_defined());

    // The reduction of Prop 3.2: S' = σ_{=a}(S) − S' is well-defined iff
    // a ∉ S. With S = {a}: undefined. With S = {b}: defined (S' empty).
    let p2 = parse_alg("def sp = select(s0, x = 'a') - sp; query sp;").unwrap();
    let db_in = Database::new().with("s0", Relation::from_values([Value::str("a")]));
    let db_out = Database::new().with("s0", Relation::from_values([Value::str("b")]));
    assert!(!algrec::core::eval_valid(&p2, &db_in, Budget::SMALL)
        .unwrap()
        .is_well_defined());
    assert!(algrec::core::eval_valid(&p2, &db_out, Budget::SMALL)
        .unwrap()
        .is_well_defined());
}

/// Proposition 3.4: monotone bodies — recursion agrees with IFP; the
/// paper's non-monotone witness diverges.
#[test]
fn prop_3_4_monotone_fixpoints() {
    let db = Database::new().with("edge", ints(&[(1, 2), (2, 3), (3, 1)]));
    let tc_body =
        algrec_core::parser::parse_expr("edge union map(select(x * edge, x.1 = x.2), [x.0, x.3])")
            .unwrap();
    let out = prop34_check("x", &tc_body, &db, Budget::SMALL).unwrap();
    assert!(out.monotone && out.agree);

    let witness = algrec_core::parser::parse_expr("{'a'} - x").unwrap();
    let out2 = prop34_check("x", &witness, &Database::new(), Budget::SMALL).unwrap();
    assert!(!out2.monotone && !out2.agree && !out2.recursive_well_defined);
}

/// Theorem 3.5 + Corollary 3.6: every IFP-algebra query has an IFP-free
/// algebra= equivalent.
#[test]
fn theorem_3_5_ifp_redundant() {
    let db = Database::new().with("edge", ints(&[(1, 2), (2, 3)]));
    for (src, stages) in [
        ("query ifp(x, {'a'} - x);", 4),
        (
            "query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));",
            6,
        ),
    ] {
        let p = parse_alg(src).unwrap();
        let expected = eval_exact(&p, &db, Budget::SMALL).unwrap();
        let alg_eq = ifp_algebra_to_algebra_eq(&p, &db, stages).unwrap();
        assert!(!alg_eq.uses_ifp());
        assert_eq!(classify(&alg_eq), LanguageClass::AlgebraEq);
        let out = algrec::core::eval_valid(&alg_eq, &db, Budget::LARGE).unwrap();
        assert!(out.is_well_defined());
        assert_eq!(out.query.to_exact().unwrap(), expected, "{src}");
    }
}

/// Definition 4.1 / safety: the checker accepts the paper's programs and
/// rejects the unrestricted ones; Prop 4.2's transform repairs them.
#[test]
fn def_4_1_and_prop_4_2_safety() {
    let safe = parse_dl("win(X) :- move(X, Y), not win(Y).").unwrap();
    assert!(safety::is_safe(&safe));

    let unsafe_p = parse_dl("q(X) :- not e(X).").unwrap();
    assert!(!safety::is_safe(&unsafe_p));

    let repaired = safety::make_safe(&unsafe_p, &[("e", 1), ("d", 1)]);
    assert!(safety::is_safe(&repaired));
    let db = Database::new()
        .with("e", Relation::from_values([Value::int(1)]))
        .with("d", Relation::from_values([Value::int(1), Value::int(2)]));
    let out = evaluate(&repaired, &db, Semantics::Valid, Budget::SMALL).unwrap();
    assert!(out.model.truth("q", &[Value::int(2)]).is_true());
    assert!(out.model.truth("q", &[Value::int(1)]).is_false());
}

/// Theorem 4.3: on stratified workloads, stratified deduction, the valid
/// semantics and the positive IFP-algebra all coincide.
#[test]
fn theorem_4_3_stratified_equivalence() {
    let db = Database::new()
        .with("edge", ints(&[(1, 2), (2, 3), (3, 4), (4, 2)]))
        .with("node", Relation::from_values((1..=4).map(Value::int)));
    let ded = parse_dl(
        "tc(X, Y) :- edge(X, Y).\n\
         tc(X, Z) :- tc(X, Y), edge(Y, Z).\n\
         un(X, Y) :- node(X), node(Y), not tc(X, Y).",
    )
    .unwrap();
    let strat = evaluate(&ded, &db, Semantics::Stratified, Budget::SMALL).unwrap();
    let valid = evaluate(&ded, &db, Semantics::Valid, Budget::SMALL).unwrap();
    assert!(valid.model.is_exact());
    assert_eq!(strat.model.certain, valid.model.certain);

    // positive IFP-algebra expression of `un`
    let alg = parse_alg(
        "def tc = ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));
         query (node * node) - tc;",
    )
    .unwrap();
    assert_eq!(classify(&alg), LanguageClass::PositiveIfpAlgebra);
    let alg_out = eval_exact(&alg, &db, Budget::SMALL).unwrap();
    let expected: std::collections::BTreeSet<Value> = strat
        .model
        .certain
        .facts("un")
        .map(|args| Value::pair(args[0].clone(), args[1].clone()))
        .collect();
    assert_eq!(alg_out, expected);
}

/// Proposition 5.1 (+ Example 4): algebra → deduction, inflationary
/// target; the valid semantics of the same translation diverges.
#[test]
fn prop_5_1_and_example_4() {
    let p = parse_alg("query ifp(x, {'a'} - x);").unwrap();
    let t = algebra_to_datalog(&p, &Default::default(), TranslationMode::Naive).unwrap();
    let db = Database::new();
    let infl = evaluate(&t.program, &db, Semantics::Inflationary, Budget::SMALL).unwrap();
    assert!(infl
        .model
        .truth(&t.result_pred, &[Value::str("a")])
        .is_true());
    let valid = evaluate(&t.program, &db, Semantics::Valid, Budget::SMALL).unwrap();
    assert!(valid
        .model
        .truth(&t.result_pred, &[Value::str("a")])
        .is_unknown());
}

/// Proposition 5.2: the stage simulation makes the inflationary result
/// valid-computable.
#[test]
fn prop_5_2_stage_simulation() {
    let p = parse_dl("r(a).\nq(X) :- r(X), not q(X).\nz(X) :- q(X), not r(X).").unwrap();
    let staged = inflationary_to_valid(&p, 6);
    let db = Database::new();
    let infl = evaluate(&p, &db, Semantics::Inflationary, Budget::SMALL).unwrap();
    let valid = evaluate(&staged, &db, Semantics::Valid, Budget::LARGE).unwrap();
    assert!(valid.model.is_exact());
    for pred in ["q", "r", "z"] {
        let a: Vec<_> = infl.model.certain.facts(pred).cloned().collect();
        let b: Vec<_> = valid.model.certain.facts(pred).cloned().collect();
        assert_eq!(a, b, "{pred}");
    }
}

/// Proposition 5.4: algebra= → deduction under the valid semantics on
/// both sides.
#[test]
fn prop_5_4_algebra_eq_to_deduction() {
    let p = parse_alg("def win = map(move - (map(move, x.0) * win), x.0); query win;").unwrap();
    let db = Database::new().with("move", ints(&[(1, 2), (2, 1), (2, 3)]));
    let t = algebra_to_datalog(&p, &edb_arities(&db), TranslationMode::Naive).unwrap();
    let dl = evaluate(&t.program, &db, Semantics::Valid, Budget::SMALL).unwrap();
    let alg = algrec::core::eval_valid(&p, &db, Budget::SMALL).unwrap();
    for k in 1..=3 {
        assert_eq!(
            dl.model.truth(&t.result_pred, &[Value::int(k)]),
            alg.member(&Value::int(k)),
            "win({k})"
        );
    }
}

/// Where Proposition 5.4's construction and the algebra part ways: a
/// recursive constant under two nested differences. `s = a − (b − s)` is
/// `{1}` in the algebra, whose inner difference reads `s` from the same
/// bound as the outer one; the verbatim construction gives `b − s` a
/// predicate of its own, negated as a whole, and leaves `s(2)` unknown.
/// The planner keeps this program, and a difference over a three-valued
/// minuend (where its guard would turn a false member unknown), on
/// `algrec_core`, so served and CLI answers stay the algebra's.
#[test]
fn prop_5_4_diverges_on_nested_differences() {
    let nested = parse_alg("def s = a - (b - s); query s;").unwrap();
    let db = Database::new()
        .with("a", Relation::from_values([Value::int(1), Value::int(2)]))
        .with("b", Relation::from_values([Value::int(2), Value::int(3)]));
    let alg = algrec::core::eval_valid(&nested, &db, Budget::SMALL).unwrap();
    assert_eq!(alg.query.to_string(), "{1}");
    assert_eq!(alg.member(&Value::int(2)), Truth::False);
    let t = algebra_to_datalog(&nested, &edb_arities(&db), TranslationMode::Naive).unwrap();
    let dl = evaluate(&t.program, &db, Semantics::Valid, Budget::SMALL).unwrap();
    assert_eq!(
        dl.model.truth(&t.result_pred, &[Value::int(1)]),
        Truth::True
    );
    assert_eq!(
        dl.model.truth(&t.result_pred, &[Value::int(2)]),
        Truth::Unknown
    );

    let three_valued_minuend = parse_alg("def r = {'a'} - r; query r - {'a'};").unwrap();
    for (program, db) in [(&nested, &db), (&three_valued_minuend, &Database::new())] {
        assert!(
            algrec::serve::algebra::plan(program, db).is_none(),
            "{program}"
        );
        let planned = algrec::serve::algebra::eval_valid(program, db, Budget::SMALL, Trace::Null);
        let planned = planned.unwrap();
        let core = algrec::core::eval_valid(program, db, Budget::SMALL).unwrap();
        assert_eq!(planned.query, core.query, "{program}");
        assert_eq!(planned.constants, core.constants, "{program}");
    }
}

/// Proposition 6.1 / Theorem 6.2: safe deduction → algebra=, three-valued
/// agreement.
#[test]
fn theorem_6_2_roundtrips() {
    let cases: Vec<(&str, &str, Database)> = vec![
        (
            "win(X) :- move(X, Y), not win(Y).",
            "win",
            Database::new().with("move", ints(&[(1, 2), (2, 1), (3, 1), (4, 4)])),
        ),
        (
            "sg(X, X) :- person(X).\n\
             sg(X, Y) :- parent(XP, X), parent(YP, Y), sg(XP, YP).",
            "sg",
            Database::new()
                .with("person", Relation::from_values((1..=4).map(Value::int)))
                .with("parent", ints(&[(1, 3), (2, 4)])),
        ),
        (
            "p(X) :- d(X), not q(X).\nq(X) :- d(X), not p(X).",
            "p",
            Database::new().with("d", Relation::from_values([Value::int(1)])),
        ),
    ];
    for (src, pred, db) in cases {
        let program = parse_dl(src).unwrap();
        let rt = check_roundtrip(&program, pred, &db, Budget::SMALL).unwrap();
        assert!(rt.agree(), "{src} on {pred}: {rt:?}");
    }
}

/// Section 7's other semantics: stable models refine the valid residue
/// (extended valid promotes scenario-invariant facts).
#[test]
fn section_7_other_semantics() {
    let src = "p(X) :- d(X), not q(X).\n\
               q(X) :- d(X), not p(X).\n\
               r(X) :- p(X).\n\
               r(X) :- q(X).";
    let program = parse_dl(src).unwrap();
    let db = Database::new().with("d", Relation::from_values([Value::str("a")]));
    let wf = evaluate(&program, &db, Semantics::WellFounded, Budget::SMALL).unwrap();
    assert!(wf.model.truth("r", &[Value::str("a")]).is_unknown());
    let ve = evaluate(&program, &db, Semantics::ValidExtended(16), Budget::SMALL).unwrap();
    assert!(ve.model.truth("r", &[Value::str("a")]).is_true());
    assert_eq!(ve.stable_count, Some(2));
}

/// Language classification sanity across the whole hierarchy.
#[test]
fn language_hierarchy() {
    let cases = [
        ("query edge;", LanguageClass::Algebra),
        (
            "query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));",
            LanguageClass::PositiveIfpAlgebra,
        ),
        ("query ifp(x, edge - x);", LanguageClass::IfpAlgebra),
        (
            "def win = map(move - (map(move, x.0) * win), x.0); query win;",
            LanguageClass::AlgebraEq,
        ),
        (
            "def s = s; query ifp(x, x union s);",
            LanguageClass::IfpAlgebraEq,
        ),
    ];
    for (src, expect) in cases {
        assert_eq!(classify(&parse_alg(src).unwrap()), expect, "{src}");
    }
}
