//! The experiment ledger E1–E8 (see DESIGN.md §7).
//!
//! The paper has no tables or figures; each experiment here *is* one of
//! its claims, made executable. Every runner **verifies**: an
//! equivalence experiment panics if the claimed equivalence fails on any
//! instance, so `cargo run -p algrec-bench --bin tables` is a
//! reproduction check. The rows record sizes, answer sizes and
//! iteration/stage counts — deterministic figures, never wall times
//! (speed is measured by `benchmark/`). EXPERIMENTS.md records the
//! outputs.

use crate::table::Table;
use crate::workloads as w;
use algrec_core::analysis::prop34_check;
use algrec_core::eval_exact;
use algrec_datalog::{evaluate, stable_models_of, EvalError, Semantics};
use algrec_translate::{
    algebra_to_datalog, check_roundtrip, edb_arities, inflationary_to_valid, measured_stages,
    TranslationMode,
};
use algrec_value::{Budget, Database, Value};

fn budget() -> Budget {
    Budget::LARGE
}

/// E1 — Theorem 4.3: stratified safe deduction ≡ positive IFP-algebra.
/// Transitive closure + complement on random graphs.
pub fn e1(sizes: &[i64]) -> Table {
    let mut t = Table::new(
        "E1",
        "Thm 4.3: stratified deduction ≡ positive IFP-algebra (TC + complement)",
        &["n", "edges", "tc", "un", "rounds", "agree"],
    );
    for &n in sizes {
        let db = w::with_nodes(
            w::random_graph("edge", n, (2 * n) as usize, false, 11 + n as u64),
            n,
        );
        let d_out = evaluate(&w::unreach_datalog(), &db, Semantics::Stratified, budget()).unwrap();
        let a_out = eval_exact(&w::unreach_algebra(), &db, budget()).unwrap();

        let expected: std::collections::BTreeSet<Value> = d_out
            .model
            .certain
            .facts("un")
            .map(|args| Value::pair(args[0].clone(), args[1].clone()))
            .collect();
        let agree = a_out == expected;
        assert!(agree, "E1 equivalence failed at n={n}");
        t.row(vec![
            n.to_string(),
            db.get("edge").unwrap().len().to_string(),
            d_out.model.certain.count("tc").to_string(),
            a_out.len().to_string(),
            d_out.rounds.to_string(),
            "yes".into(),
        ]);
    }
    t
}

/// E2 — Prop 5.1: IFP-algebra → deduction under the inflationary
/// semantics. Includes the nested-difference query where the verbatim
/// construction *diverges* — a reproduction finding.
pub fn e2(sizes: &[i64]) -> Table {
    let mut t = Table::new(
        "E2",
        "Prop 5.1: naive algebra→deduction, inflationary target (divergence on nested diff)",
        &["query", "n", "answer", "naive agrees"],
    );
    // TC (positive) across sizes: must agree.
    for &n in sizes {
        let db = w::random_graph("edge", n, (2 * n) as usize, false, 23 + n as u64);
        let alg = w::tc_algebra();
        let expect = eval_exact(&alg, &db, budget()).unwrap();
        let tr = algebra_to_datalog(&alg, &edb_arities(&db), TranslationMode::Naive).unwrap();
        let out = evaluate(&tr.program, &db, Semantics::Inflationary, budget()).unwrap();
        let got: std::collections::BTreeSet<Value> = out
            .model
            .certain
            .facts(&tr.result_pred)
            .map(|a| a[0].clone())
            .collect();
        let agree = got == expect;
        assert!(agree, "E2 TC failed at n={n}");
        t.row(vec![
            "ifp-tc".into(),
            n.to_string(),
            expect.len().to_string(),
            "yes".into(),
        ]);
    }
    // Example 4 (flat non-positive): must agree.
    {
        let alg = w::example4_algebra();
        let db = Database::new();
        let expect = eval_exact(&alg, &db, budget()).unwrap();
        let tr = algebra_to_datalog(&alg, &edb_arities(&db), TranslationMode::Naive).unwrap();
        let out = evaluate(&tr.program, &db, Semantics::Inflationary, budget()).unwrap();
        let got: std::collections::BTreeSet<Value> = out
            .model
            .certain
            .facts(&tr.result_pred)
            .map(|a| a[0].clone())
            .collect();
        assert_eq!(got, expect, "E2 example4 failed");
        t.row(vec![
            "ifp({a}-x)".into(),
            "-".into(),
            expect.len().to_string(),
            "yes".into(),
        ]);
    }
    // Nested difference: the verbatim construction diverges (the
    // per-subexpression predicates lag one inflationary step); the staged
    // construction is exact — recorded as a finding.
    {
        let alg = w::nested_diff_algebra();
        let db = Database::new().with("a", algrec_value::Relation::from_values([Value::int(1)]));
        let expect = eval_exact(&alg, &db, budget()).unwrap();
        let tr = algebra_to_datalog(&alg, &edb_arities(&db), TranslationMode::Naive).unwrap();
        let out = evaluate(&tr.program, &db, Semantics::Inflationary, budget()).unwrap();
        let got: std::collections::BTreeSet<Value> = out
            .model
            .certain
            .facts(&tr.result_pred)
            .map(|a| a[0].clone())
            .collect();
        let naive_agrees = got == expect;
        assert!(!naive_agrees, "E2 expected the documented divergence");
        // the staged mode repairs it
        let tr2 = algebra_to_datalog(
            &alg,
            &edb_arities(&db),
            TranslationMode::Staged { max_stage: 4 },
        )
        .unwrap();
        let out2 = evaluate(&tr2.program, &db, Semantics::Valid, budget()).unwrap();
        let got2: std::collections::BTreeSet<Value> = out2
            .model
            .certain
            .facts(&tr2.result_pred)
            .map(|a| a[0].clone())
            .collect();
        assert_eq!(got2, expect, "E2 staged repair failed");
        t.row(vec![
            "ifp(a-(a-x))".into(),
            "-".into(),
            expect.len().to_string(),
            "NO (staged: yes)".into(),
        ]);
    }
    t
}

/// E3 — Prop 5.2: the stage simulation makes inflationary results
/// valid-computable. The step-index encoding is reported as *measured*
/// counts: the source program's inflationary rounds next to the
/// first-appearance stages the staged program actually used (they must
/// line up — the simulation derives each fact at exactly its source
/// round).
pub fn e3(sizes: &[i64]) -> Table {
    let mut t = Table::new(
        "E3",
        "Prop 5.2: inflationary → valid stage simulation (stages used by the encoding)",
        &[
            "n",
            "stage_bound",
            "rounds_infl",
            "stages_used",
            "win",
            "agree",
        ],
    );
    for &n in sizes {
        let db = w::winmove_graph(n, 0.0, 5 + n as u64);
        let p = w::win_datalog();
        let infl = evaluate(&p, &db, Semantics::Inflationary, budget()).unwrap();

        let stages = n + 2;
        let staged = inflationary_to_valid(&p, stages);
        let valid = evaluate(&staged, &db, Semantics::Valid, budget()).unwrap();

        let a: std::collections::BTreeSet<_> = infl.model.certain.facts("win").cloned().collect();
        let b: std::collections::BTreeSet<_> = valid.model.certain.facts("win").cloned().collect();
        assert_eq!(a, b, "E3 failed at n={n}");
        // The blow-up, measured: the staged program's facts first appear
        // at exactly the source program's productive rounds (the source
        // has no IDB ground facts, so the counters align at rounds − 1:
        // the last inflationary round derives nothing).
        let stages_used = measured_stages(&valid.model.certain, &p);
        assert_eq!(
            stages_used,
            infl.rounds as i64 - 1,
            "E3 stage/round mismatch at n={n}"
        );
        t.row(vec![
            n.to_string(),
            stages.to_string(),
            infl.rounds.to_string(),
            stages_used.to_string(),
            a.len().to_string(),
            "yes".into(),
        ]);
    }
    t
}

/// E4 — Prop 6.1 / Thm 6.2: safe deduction → algebra=, three-valued
/// round-trip agreement on the paper's workloads.
pub fn e4(sizes: &[i64]) -> Table {
    let mut t = Table::new(
        "E4",
        "Thm 6.2: deduction ≡ algebra= under the valid semantics (3-valued round trips)",
        &["workload", "n", "certain", "unknown", "agree"],
    );
    for &n in sizes {
        for (name, db, program, pred) in [
            (
                "win/acyclic",
                w::winmove_graph(n, 0.0, 7),
                w::win_datalog(),
                "win",
            ),
            (
                "win/cyclic",
                w::winmove_graph(n, 0.3, 7),
                w::win_datalog(),
                "win",
            ),
            (
                "tc+complement",
                w::with_nodes(w::random_graph("edge", n, (2 * n) as usize, false, 9), n),
                w::unreach_datalog(),
                "un",
            ),
        ] {
            let rt = check_roundtrip(&program, pred, &db, budget()).unwrap();
            assert!(rt.agree(), "E4 {name} failed at n={n}");
            t.row(vec![
                name.into(),
                n.to_string(),
                rt.datalog_certain.len().to_string(),
                rt.datalog_unknown.len().to_string(),
                "yes".into(),
            ]);
        }
    }
    t
}

/// E5 — Prop 3.4: monotone recursive equations agree with IFP; the
/// non-monotone witness does not.
pub fn e5() -> Table {
    let mut t = Table::new(
        "E5",
        "Prop 3.4: S = exp(S) vs IFP_exp (agreement iff monotone)",
        &["body", "monotone", "well-defined", "agree"],
    );
    let tc_body =
        algrec_core::parser::parse_expr("edge union map(select(x * edge, x.1 = x.2), [x.0, x.3])")
            .unwrap();
    let even_body =
        algrec_core::parser::parse_expr("{0} union map(select(x, x < 20), add(x, 2))").unwrap();
    let witness = algrec_core::parser::parse_expr("{'a'} - x").unwrap();
    let db = w::random_graph("edge", 12, 24, false, 3);
    for (name, body, database) in [
        ("tc", &tc_body, &db),
        ("even-set", &even_body, &Database::new()),
        ("{a} - x", &witness, &Database::new()),
    ] {
        let out = prop34_check("x", body, database, budget()).unwrap();
        if out.monotone {
            assert!(out.agree, "E5: monotone {name} must agree");
        } else {
            assert!(!out.agree, "E5: the witness must diverge");
        }
        t.row(vec![
            name.into(),
            out.monotone.to_string(),
            out.recursive_well_defined.to_string(),
            out.agree.to_string(),
        ]);
    }
    t
}

/// E6 — Sections 2.2/3.2: undefinedness appears exactly with cycles;
/// stable-model counts on the residue.
pub fn e6(n: i64, fractions: &[f64]) -> Table {
    let mut t = Table::new(
        "E6",
        "WIN/MOVE: cycles ⇒ undefined positions (valid = well-founded; stable scenarios)",
        &[
            "cycle_frac",
            "positions",
            "win",
            "lose",
            "unknown",
            "exact",
            "stable_models",
        ],
    );
    for &frac in fractions {
        let db = w::winmove_graph(n, frac, 17);
        let p = w::win_datalog();
        let valid = evaluate(&p, &db, Semantics::Valid, budget()).unwrap();
        let wf = evaluate(&p, &db, Semantics::WellFounded, budget()).unwrap();
        assert_eq!(
            valid.model, wf.model,
            "E6: operational valid must equal well-founded"
        );
        let positions = db
            .active_domain()
            .iter()
            .filter(|v| v.as_int().is_some())
            .count();
        let win = valid.model.certain.count("win");
        let unknown = valid.model.unknown_count();
        let lose = positions - win - unknown;
        if frac == 0.0 {
            assert!(valid.model.is_exact(), "E6: acyclic games are decided");
        }
        let stable = match stable_models_of(&p, &db, 18, budget()) {
            Ok(models) => models.len().to_string(),
            Err(EvalError::TooManyUnknowns { found, .. }) => format!(">cap ({found} unknowns)"),
            Err(e) => panic!("{e}"),
        };
        t.row(vec![
            format!("{frac:.1}"),
            positions.to_string(),
            win.to_string(),
            lose.to_string(),
            unknown.to_string(),
            valid.model.is_exact().to_string(),
            stable,
        ]);
    }
    t
}

/// E7 — Section 2: valid interpretations of specifications, and the
/// Prop 2.3(2) decision procedure over random constants-only specs.
pub fn e7() -> Table {
    use algrec_adt::equation::{Condition, ConditionalEquation, Specification};
    use algrec_adt::signature::{OpDecl, Signature};
    use algrec_adt::specs;
    use algrec_adt::term::Term;
    use algrec_adt::valid_interp::ValidInterpretation;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut t = Table::new(
        "E7",
        "Specifications: valid interpretation of SET(nat); Prop 2.3(2) decision procedure",
        &["case", "window", "total?", "unknown_eqs"],
    );
    for depth in [1usize, 2, 3] {
        let vi = ValidInterpretation::compute(&specs::set_spec(), depth, budget()).unwrap();
        let window: usize = vi.universe().values().map(Vec::len).sum();
        assert!(vi.is_total(), "E7: SET(nat) must be well-defined");
        t.row(vec![
            format!("SET(nat) depth {depth}"),
            window.to_string(),
            vi.is_total().to_string(),
            vi.unknown_count().to_string(),
        ]);
    }
    // Example 2 is the ill-defined reference point.
    {
        let vi = ValidInterpretation::compute(&specs::example2_spec(), 1, budget()).unwrap();
        assert!(!vi.is_total());
        t.row(vec![
            "Example 2 (a/b/c)".into(),
            "3".into(),
            "false".into(),
            vi.unknown_count().to_string(),
        ]);
    }
    // Random constants-only specs: how often does an initial valid model
    // exist? (Prop 2.3(2): always decidable.)
    let mut rng = StdRng::seed_from_u64(99);
    let trials = 40;
    let mut with_initial = 0usize;
    for _ in 0..trials {
        let mut sig = Signature::new();
        sig.add_sort("s");
        let consts = ["a", "b", "c", "d"];
        for c in consts {
            sig.add_op(OpDecl::constant(c, "s")).unwrap();
        }
        let n_eqs = rng.random_range(1..4);
        let eqs: Vec<ConditionalEquation> = (0..n_eqs)
            .map(|_| {
                let pick = |rng: &mut StdRng| Term::cons(consts[rng.random_range(0..4)]);
                let cond = if rng.random_bool(0.7) {
                    Some(if rng.random_bool(0.5) {
                        Condition::Neq(pick(&mut rng), pick(&mut rng))
                    } else {
                        Condition::Eq(pick(&mut rng), pick(&mut rng))
                    })
                } else {
                    None
                };
                ConditionalEquation::when(cond, pick(&mut rng), pick(&mut rng))
            })
            .collect();
        let spec = Specification::new(sig, eqs).unwrap();
        let analysis = algrec_adt::initial_valid_model(&spec, budget()).unwrap();
        if analysis.initial.is_some() {
            with_initial += 1;
        }
    }
    t.row(vec![
        format!("random 4-const specs ({trials} trials)"),
        "4".into(),
        format!("{with_initial}/{trials} have initial"),
        "-".into(),
    ]);
    t
}

/// E8 — engine ablation: naive vs semi-naive least fixpoints reach the
/// same model; the facts each engine inserts on the way count the work
/// semi-naive evaluation avoids.
pub fn e8(sizes: &[i64]) -> Table {
    use algrec_datalog::engine::Compiled;
    use algrec_datalog::fixpoint::{naive, semi_naive};
    use algrec_datalog::interp::Interp;

    let mut t = Table::new(
        "E8",
        "Ablation: naive vs semi-naive evaluation (TC on random graphs)",
        &[
            "n",
            "edges",
            "tc",
            "rounds",
            "facts_naive",
            "facts_semi_naive",
            "agree",
        ],
    );
    for &n in sizes {
        let db = w::random_graph("edge", n, (2 * n) as usize, false, 31 + n as u64);
        let compiled = Compiled::compile(&w::tc_datalog()).unwrap();
        let base = Interp::from_database(&db);

        let mut m1 = budget().meter();
        let (out_n, stats_n) = naive(&compiled, &base, &|_, _| false, &mut m1).unwrap();
        let mut m2 = budget().meter();
        let (out_s, _) = semi_naive(&compiled, &base, &|_, _| false, &mut m2).unwrap();

        assert_eq!(out_n, out_s, "E8: engines must agree at n={n}");
        assert!(
            m2.facts() <= m1.facts(),
            "E8: semi-naive inserted more facts than naive at n={n}"
        );
        t.row(vec![
            n.to_string(),
            db.get("edge").unwrap().len().to_string(),
            out_s.count("tc").to_string(),
            stats_n.rounds.to_string(),
            m1.facts().to_string(),
            m2.facts().to_string(),
            "yes".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each experiment runs (small sizes) and its internal assertions hold.

    #[test]
    fn e1_runs() {
        let t = e1(&[8]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn e2_runs() {
        let t = e2(&[8]);
        assert_eq!(t.rows.len(), 3);
        assert!(t.rows[2][3].contains("NO"));
    }

    #[test]
    fn e3_runs() {
        let t = e3(&[8]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn e4_runs() {
        let t = e4(&[6]);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e5_runs() {
        let t = e5();
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e6_runs() {
        let t = e6(8, &[0.0, 0.5]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn e7_runs() {
        let t = e7();
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn e8_runs() {
        let t = e8(&[10]);
        assert_eq!(t.rows.len(), 1);
    }
}
