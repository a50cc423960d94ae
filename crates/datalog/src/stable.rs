//! Stable models and the extended valid semantics.
//!
//! The paper situates the valid semantics \[6\] among the declarative
//! semantics for negation, alongside the well-founded \[24\] and stable
//! model \[11\] semantics, and notes (Section 7) that its results "can be
//! easily adjusted to capture other semantics for negation". This module
//! provides:
//!
//! * **Grounding** relative to an alternating-fixpoint result: every rule
//!   instance that could fire in *some* model sandwiched between the
//!   certain and possible sets (every stable model is — the well-founded
//!   model approximates all stable models).
//! * **Stable model enumeration** via the Gelfond–Lifschitz reduct,
//!   searching over the undefined atoms only. The search space is the
//!   residue the alternating fixpoint could not decide, so stratified and
//!   acyclic programs are checked in a single candidate.
//! * The **extended valid semantics**: the alternating fixpoint refined by
//!   promoting facts that hold in *every* stable completion — the "true in
//!   all possible scenarios" strengthening that distinguishes the valid
//!   semantics of \[6\] from the plain well-founded model (e.g. deriving `r`
//!   from `p ← ¬q, q ← ¬p, r ← p, r ← q`).

use crate::engine::{enumerate_bindings, eval_expr, Compiled, FactSource};
use crate::error::EvalError;
use crate::interp::{Fact, Interp, ThreeValued};
use crate::wellfounded::alternating_fixpoint;
use algrec_value::budget::Meter;
use std::collections::BTreeSet;

/// A ground rule after EDB simplification: the head fires if all `pos`
/// (IDB) facts hold and no `neg` (IDB) fact holds.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct GroundRule {
    /// Head fact.
    pub head: Fact,
    /// Positive IDB conditions.
    pub pos: Vec<Fact>,
    /// Negative IDB conditions.
    pub neg: Vec<Fact>,
}

/// A grounded program plus the three-valued scaffold it was built from.
#[derive(Clone, Debug)]
pub struct GroundProgram {
    /// Simplified ground rules.
    pub rules: Vec<GroundRule>,
    /// Certain IDB facts (subset of every stable model).
    pub certain: BTreeSet<Fact>,
    /// Undefined IDB facts (the stable-model search space).
    pub unknown: Vec<Fact>,
}

/// Ground a compiled program against an alternating-fixpoint result.
///
/// Soundness: any stable model `M` of the program satisfies
/// `certain ⊆ M ⊆ possible`, so enumerating rule bodies against `possible`
/// with negation allowed on anything not certainly true produces every
/// instance that can fire in any such `M`.
pub fn ground(
    compiled: &Compiled,
    base: &Interp,
    tv: &ThreeValued,
    meter: &mut Meter,
) -> Result<GroundProgram, EvalError> {
    let idb: BTreeSet<&str> = compiled
        .rules
        .iter()
        .map(|r| r.head.pred.as_str())
        .collect();
    let mut rules = BTreeSet::new();
    meter.phase_start("ground");

    for (rule, plan) in compiled.rules.iter().zip(&compiled.plans) {
        let certain = &tv.certain;
        let possible = &tv.possible;
        enumerate_bindings(
            plan,
            &FactSource::full(possible),
            &|p, args| !certain.holds(p, args),
            meter,
            &mut |bindings, meter| {
                let head_args = rule
                    .head
                    .args
                    .iter()
                    .map(|e| eval_expr(e, bindings))
                    .collect::<Result<Vec<_>, _>>()?;
                meter.add_facts(1)?;
                let head: Fact = (rule.head.pred.clone(), head_args);

                let mut pos = Vec::new();
                let mut neg = Vec::new();
                for lit in &rule.body {
                    match lit {
                        crate::ast::Literal::Pos(a) if idb.contains(a.pred.as_str()) => {
                            let args = a
                                .args
                                .iter()
                                .map(|e| eval_expr(e, bindings))
                                .collect::<Result<Vec<_>, _>>()?;
                            // A certainly-true condition is derivable in
                            // the reduct of every candidate (certain facts
                            // derive through negations on certainly-false
                            // facts only), so it can be dropped.
                            if !tv.certain.holds(&a.pred, &args) {
                                pos.push((a.pred.clone(), args));
                            }
                        }
                        crate::ast::Literal::Neg(a) if idb.contains(a.pred.as_str()) => {
                            let args = a
                                .args
                                .iter()
                                .map(|e| eval_expr(e, bindings))
                                .collect::<Result<Vec<_>, _>>()?;
                            let f: Fact = (a.pred.clone(), args);
                            if tv.certain.holds(&f.0, &f.1) {
                                // ¬f is false in every candidate model:
                                // the instance never fires.
                                return Ok(());
                            }
                            if tv.possible.holds(&f.0, &f.1) {
                                neg.push(f);
                            }
                            // else: certainly false — condition satisfied,
                            // drop it.
                        }
                        // EDB literals and comparisons were decided during
                        // enumeration (their truth does not vary with M).
                        _ => {}
                    }
                }
                rules.insert(GroundRule { head, pos, neg });
                Ok(())
            },
        )?;
    }

    let certain: BTreeSet<Fact> = tv
        .certain
        .iter()
        .filter(|(p, _)| idb.contains(*p))
        .map(|(p, args)| (p.to_string(), args.clone()))
        .collect();
    let unknown: Vec<Fact> = tv
        .unknown_facts()
        .into_iter()
        .filter(|(p, _)| idb.contains(p.as_str()))
        .collect();
    let _ = base;
    meter.phase_end();
    Ok(GroundProgram {
        rules: rules.into_iter().collect(),
        certain,
        unknown,
    })
}

/// Least model of the Gelfond–Lifschitz reduct of `rules` with respect to
/// candidate `m`.
fn reduct_lfp(rules: &[GroundRule], m: &BTreeSet<Fact>) -> BTreeSet<Fact> {
    let applicable: Vec<&GroundRule> = rules
        .iter()
        .filter(|r| r.neg.iter().all(|f| !m.contains(f)))
        .collect();
    let mut derived: BTreeSet<Fact> = BTreeSet::new();
    loop {
        let mut changed = false;
        for r in &applicable {
            if !derived.contains(&r.head) && r.pos.iter().all(|f| derived.contains(f)) {
                derived.insert(r.head.clone());
                changed = true;
            }
        }
        if !changed {
            return derived;
        }
    }
}

/// Is `m` a stable model of the ground program?
pub fn is_stable(gp: &GroundProgram, m: &BTreeSet<Fact>) -> bool {
    reduct_lfp(&gp.rules, m) == *m
}

/// Enumerate all stable models of a ground program by branching over the
/// undefined atoms. Fails with [`EvalError::TooManyUnknowns`] if more than
/// `cap` atoms are undefined.
pub fn stable_models(gp: &GroundProgram, cap: usize) -> Result<Vec<BTreeSet<Fact>>, EvalError> {
    if gp.unknown.len() > cap {
        return Err(EvalError::TooManyUnknowns {
            found: gp.unknown.len(),
            cap,
        });
    }
    let mut models = Vec::new();
    let n = gp.unknown.len();
    // Every stable model contains the certain facts and differs only on
    // the unknowns.
    for mask in 0u64..(1u64 << n) {
        let mut m: BTreeSet<Fact> = gp.certain.clone();
        for (i, f) in gp.unknown.iter().enumerate() {
            if mask & (1 << i) != 0 {
                m.insert(f.clone());
            }
        }
        if is_stable(gp, &m) {
            models.push(m);
        }
    }
    Ok(models)
}

/// Result of the extended valid semantics.
#[derive(Clone, Debug)]
pub struct ValidOutcome {
    /// The plain alternating-fixpoint (well-founded) result.
    pub wfs: ThreeValued,
    /// The refinement: certain facts additionally include facts true in
    /// every stable completion; possible facts exclude facts true in none.
    pub refined: ThreeValued,
    /// Number of stable models of the residual program (`None` if the
    /// search was skipped because the residue exceeded the cap).
    pub stable_count: Option<usize>,
}

/// The extended valid semantics: alternating fixpoint, then refine the
/// undefined facts by stable completions. If the residue is larger than
/// `cap` undefined atoms, the refinement is skipped and the plain
/// alternating-fixpoint result is returned (with `stable_count = None`).
pub fn valid_extended(
    compiled: &Compiled,
    base: &Interp,
    cap: usize,
    meter: &mut Meter,
) -> Result<ValidOutcome, EvalError> {
    let (wfs, _) = alternating_fixpoint(compiled, base, meter)?;
    refine_wfs(compiled, base, wfs, cap, meter)
}

/// Refine an already-computed well-founded model by stable completions —
/// the tail of [`valid_extended`], split out so callers that *maintain*
/// the alternating fixpoint incrementally (the `algrec-incr` substrate)
/// can reuse the refinement without recomputing the fixpoint itself.
pub fn refine_wfs(
    compiled: &Compiled,
    base: &Interp,
    wfs: ThreeValued,
    cap: usize,
    meter: &mut Meter,
) -> Result<ValidOutcome, EvalError> {
    if wfs.is_exact() {
        return Ok(ValidOutcome {
            refined: wfs.clone(),
            wfs,
            stable_count: Some(1),
        });
    }
    let gp = ground(compiled, base, &wfs, meter)?;
    meter.phase_start("stable-search");
    let models = stable_models(&gp, cap);
    meter.phase_end();
    let models = match models {
        Ok(m) => m,
        Err(EvalError::TooManyUnknowns { .. }) => {
            return Ok(ValidOutcome {
                refined: wfs.clone(),
                wfs,
                stable_count: None,
            });
        }
        Err(e) => return Err(e),
    };
    if models.is_empty() {
        // No stable completion: the well-founded residue stands.
        return Ok(ValidOutcome {
            refined: wfs.clone(),
            wfs,
            stable_count: Some(0),
        });
    }
    // Promote facts in every stable model; demote facts in none.
    let mut refined = wfs.clone();
    for (p, args) in wfs.unknown_facts() {
        let f: Fact = (p.clone(), args.clone());
        let in_all = models.iter().all(|m| m.contains(&f));
        let in_none = models.iter().all(|m| !m.contains(&f));
        if in_all {
            refined.certain.insert(&p, args);
        } else if in_none {
            // remove from possible
            let remaining: Vec<Vec<algrec_value::Value>> = refined
                .possible
                .facts(&p)
                .filter(|a| a.as_slice() != args.as_slice())
                .cloned()
                .collect();
            refined.possible.clear_pred(&p);
            for a in remaining {
                refined.possible.insert(&p, a);
            }
        }
    }
    debug_assert!(refined.invariant_holds());
    Ok(ValidOutcome {
        wfs,
        refined,
        stable_count: Some(models.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Expr, Literal, Program, Rule};
    use algrec_value::{Budget, Truth, Value};

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn compile(p: &Program) -> Compiled {
        Compiled::compile(p).unwrap()
    }

    /// p ← ¬q, q ← ¬p: two stable models {p}, {q}.
    fn choice_program() -> Program {
        Program::from_rules([
            Rule::fact(Atom::new("d", [Expr::lit("a")])),
            Rule::new(
                Atom::new("p", [v("X")]),
                [
                    Literal::Pos(Atom::new("d", [v("X")])),
                    Literal::Neg(Atom::new("q", [v("X")])),
                ],
            ),
            Rule::new(
                Atom::new("q", [v("X")]),
                [
                    Literal::Pos(Atom::new("d", [v("X")])),
                    Literal::Neg(Atom::new("p", [v("X")])),
                ],
            ),
        ])
    }

    #[test]
    fn choice_has_two_stable_models() {
        let p = choice_program();
        let c = compile(&p);
        let mut meter = Budget::SMALL.meter();
        let (wfs, _) = alternating_fixpoint(&c, &Interp::new(), &mut meter).unwrap();
        assert_eq!(wfs.unknown_count(), 2);
        let gp = ground(&c, &Interp::new(), &wfs, &mut meter).unwrap();
        let models = stable_models(&gp, 16).unwrap();
        assert_eq!(models.len(), 2);
        for m in &models {
            // d(a) plus exactly one of p(a), q(a)
            assert_eq!(m.len(), 2);
            assert!(m.contains(&("d".to_string(), vec![s("a")])));
        }
    }

    #[test]
    fn valid_extended_promotes_scenario_invariants() {
        // p ← ¬q, q ← ¬p, r ← p, r ← q: r holds in every stable model,
        // so the (extended) valid semantics derives it although the
        // well-founded model leaves it undefined.
        let mut prog = choice_program();
        prog.push(Rule::new(
            Atom::new("r", [v("X")]),
            [Literal::Pos(Atom::new("p", [v("X")]))],
        ));
        prog.push(Rule::new(
            Atom::new("r", [v("X")]),
            [Literal::Pos(Atom::new("q", [v("X")]))],
        ));
        let c = compile(&prog);
        let mut meter = Budget::SMALL.meter();
        let out = valid_extended(&c, &Interp::new(), 16, &mut meter).unwrap();
        assert_eq!(out.stable_count, Some(2));
        assert_eq!(out.wfs.truth("r", &[s("a")]), Truth::Unknown);
        assert_eq!(out.refined.truth("r", &[s("a")]), Truth::True);
        assert_eq!(out.refined.truth("p", &[s("a")]), Truth::Unknown);
    }

    #[test]
    fn no_stable_model_detected() {
        // w ← ¬w: undefined under WFS, no stable model.
        let prog = Program::from_rules([
            Rule::fact(Atom::new("d", [Expr::lit("a")])),
            Rule::new(
                Atom::new("w", [v("X")]),
                [
                    Literal::Pos(Atom::new("d", [v("X")])),
                    Literal::Neg(Atom::new("w", [v("X")])),
                ],
            ),
        ]);
        let c = compile(&prog);
        let mut meter = Budget::SMALL.meter();
        let out = valid_extended(&c, &Interp::new(), 16, &mut meter).unwrap();
        assert_eq!(out.stable_count, Some(0));
        assert_eq!(out.refined.truth("w", &[s("a")]), Truth::Unknown);
    }

    #[test]
    fn stratified_program_single_stable_model() {
        let prog = Program::from_rules([
            Rule::fact(Atom::new("e", [Expr::int(1)])),
            Rule::new(
                Atom::new("a", [v("X")]),
                [Literal::Pos(Atom::new("e", [v("X")]))],
            ),
            Rule::new(
                Atom::new("b", [v("X")]),
                [
                    Literal::Pos(Atom::new("e", [v("X")])),
                    Literal::Neg(Atom::new("a", [v("X")])),
                ],
            ),
        ]);
        let c = compile(&prog);
        let mut meter = Budget::SMALL.meter();
        let out = valid_extended(&c, &Interp::new(), 16, &mut meter).unwrap();
        assert_eq!(out.stable_count, Some(1));
        assert!(out.refined.is_exact());
        assert_eq!(out.refined.truth("a", &[Value::int(1)]), Truth::True);
        assert_eq!(out.refined.truth("b", &[Value::int(1)]), Truth::False);
    }

    #[test]
    fn win_cycle_stable_models() {
        // 1 ⇄ 2: stable models are {win(1)} and {win(2)}.
        let prog = Program::from_rules([Rule::new(
            Atom::new("win", [v("X")]),
            [
                Literal::Pos(Atom::new("move", [v("X"), v("Y")])),
                Literal::Neg(Atom::new("win", [v("Y")])),
            ],
        )]);
        let c = compile(&prog);
        let mut base = Interp::new();
        base.insert("move", vec![Value::int(1), Value::int(2)]);
        base.insert("move", vec![Value::int(2), Value::int(1)]);
        let mut meter = Budget::SMALL.meter();
        let (wfs, _) = alternating_fixpoint(&c, &base, &mut meter).unwrap();
        let gp = ground(&c, &base, &wfs, &mut meter).unwrap();
        let models = stable_models(&gp, 16).unwrap();
        assert_eq!(models.len(), 2);
    }

    #[test]
    fn self_loop_win_has_no_stable_model() {
        // move(a,a): win(a) ← ¬win(a) after grounding — no stable model.
        let prog = Program::from_rules([Rule::new(
            Atom::new("win", [v("X")]),
            [
                Literal::Pos(Atom::new("move", [v("X"), v("Y")])),
                Literal::Neg(Atom::new("win", [v("Y")])),
            ],
        )]);
        let c = compile(&prog);
        let mut base = Interp::new();
        base.insert("move", vec![s("a"), s("a")]);
        let mut meter = Budget::SMALL.meter();
        let out = valid_extended(&c, &base, 16, &mut meter).unwrap();
        assert_eq!(out.stable_count, Some(0));
    }

    #[test]
    fn cap_respected() {
        // Chain of choices: 10 unknown atoms with cap 3 → skipped search.
        let mut rules = vec![];
        for k in 0..5 {
            rules.push(Rule::fact(Atom::new("d", [Expr::int(k)])));
        }
        rules.push(Rule::new(
            Atom::new("p", [v("X")]),
            [
                Literal::Pos(Atom::new("d", [v("X")])),
                Literal::Neg(Atom::new("q", [v("X")])),
            ],
        ));
        rules.push(Rule::new(
            Atom::new("q", [v("X")]),
            [
                Literal::Pos(Atom::new("d", [v("X")])),
                Literal::Neg(Atom::new("p", [v("X")])),
            ],
        ));
        let prog = Program::from_rules(rules);
        let c = compile(&prog);
        let mut meter = Budget::SMALL.meter();
        let out = valid_extended(&c, &Interp::new(), 3, &mut meter).unwrap();
        assert_eq!(out.stable_count, None);
        assert_eq!(out.refined, out.wfs);
    }

    #[test]
    fn ground_rule_simplification() {
        // b(X) :- e(X), not a(X): with a(1) certainly false, the ground
        // rule for b(1) should have no conditions left.
        let prog = Program::from_rules([
            Rule::fact(Atom::new("e", [Expr::int(1)])),
            Rule::new(
                Atom::new("a", [v("X")]),
                [
                    Literal::Pos(Atom::new("e", [v("X")])),
                    Literal::Pos(Atom::new("never", [v("X")])),
                ],
            ),
            Rule::new(
                Atom::new("b", [v("X")]),
                [
                    Literal::Pos(Atom::new("e", [v("X")])),
                    Literal::Neg(Atom::new("a", [v("X")])),
                ],
            ),
        ]);
        let c = compile(&prog);
        let mut meter = Budget::SMALL.meter();
        let (wfs, _) = alternating_fixpoint(&c, &Interp::new(), &mut meter).unwrap();
        let gp = ground(&c, &Interp::new(), &wfs, &mut meter).unwrap();
        let b_rule = gp
            .rules
            .iter()
            .find(|r| r.head.0 == "b")
            .expect("ground rule for b");
        assert!(b_rule.pos.is_empty());
        assert!(b_rule.neg.is_empty());
    }
}
