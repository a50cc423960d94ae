//! Valid-semantics evaluation of `algebra=` / `IFP-algebra=` programs.
//!
//! A recursive program is a system of set-constant equations
//! `Sᵢ = expᵢ(S₁, …, Sₙ)` (Section 3.2). Its semantics is the valid model
//! of the corresponding specification; operationally (Section 2.2) this is
//! an alternating fixpoint:
//!
//! * **possible pass** — the least fixpoint of the system where sets being
//!   *subtracted* are read from the current certain bound (`only facts not
//!   in T are allowed to be used negatively`): an overestimate;
//! * **certain pass** — the least fixpoint where subtracted sets are read
//!   from the possible bound (`we use negatively only facts from F`): an
//!   underestimate;
//!
//! alternating until the certain bound stabilizes. Membership that ends
//! between the bounds is `Unknown` — the program is then *not
//! well-defined* (it has no initial valid model), which Proposition 3.2
//! shows is undecidable to rule out syntactically, and which this
//! evaluator therefore detects at runtime: `S = {a} − S` reports
//! `MEM(a, S) = Unknown`, never a made-up answer.
//!
//! # Evaluation strategy
//!
//! Within one inner least fixpoint the subtracted side is *fixed*: every
//! equation reads the varying environment only at positive polarity, so
//! the iteration operator is monotone and its iterates increase from the
//! empty environment. Under [`EvalOptions::delta`] each equation whose
//! body admits delta rules (no positive-polarity read of a recursive
//! constant inside a difference right-side) is therefore advanced
//! semi-naively — iteration k evaluates the body's *delta* against the
//! facts iteration k−1 added, Jacobi-style (all equations read the
//! start-of-iteration environment, additions are applied after the
//! sweep). Equations outside the fragment fall back to full
//! re-evaluation. Join indexes and the values of subexpressions that do
//! not mention any recursive constant are cached across iterations (and,
//! for fully invariant expressions, across alternation rounds). All of it
//! is observation-equivalent to the naive evaluation.

use crate::eval::{EvalOptions, Evaluator, SetEnv, SetRef};
use crate::expr::AlgExpr;
use crate::program::AlgProgram;
use crate::CoreError;
use algrec_value::budget::Meter;
use algrec_value::{Budget, Database, Symbol, Trace, Truth, TvSet, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The result of valid evaluation: three-valued sets for every recursive
/// constant and for the query.
#[derive(Clone, Debug)]
pub struct ValidAlgebraResult {
    /// Three-valued value of each recursive constant.
    pub constants: BTreeMap<String, TvSet>,
    /// Three-valued value of the query expression.
    pub query: TvSet,
    /// Outer alternation rounds.
    pub outer_rounds: usize,
}

impl ValidAlgebraResult {
    /// Membership of `v` in the query result — the paper's `MEM`, three
    /// valued.
    pub fn member(&self, v: &Value) -> Truth {
        self.query.member(v)
    }

    /// Is the whole program well-defined (two-valued everywhere — an
    /// initial valid model exists for the observables)?
    pub fn is_well_defined(&self) -> bool {
        self.query.is_exact() && self.constants.values().all(TvSet::is_exact)
    }
}

/// Reject IFP operators whose body refers to a recursive constant: the
/// inflationary operator is not monotone in its free names, which would
/// break the alternating fixpoint. Corollary 3.6 (IFP-algebra= =
/// algebra=) says such programs lose no expressiveness by rewriting — and
/// `algrec-translate` automates exactly that rewriting.
fn check_no_ifp_over_recursion(expr: &AlgExpr, rec: &[String]) -> Result<(), CoreError> {
    match expr {
        AlgExpr::Name(_) | AlgExpr::Lit(_) => Ok(()),
        AlgExpr::Union(a, b) | AlgExpr::Diff(a, b) | AlgExpr::Product(a, b) => {
            check_no_ifp_over_recursion(a, rec)?;
            check_no_ifp_over_recursion(b, rec)
        }
        AlgExpr::Select(a, _) | AlgExpr::Map(a, _) => check_no_ifp_over_recursion(a, rec),
        AlgExpr::Ifp { body, .. } => {
            let names = body.names();
            if let Some(bad) = rec.iter().find(|r| names.contains(r.as_str())) {
                return Err(CoreError::Unsupported(format!(
                    "IFP body references the recursive constant `{bad}`; rewrite the IFP as \
                     a recursive constant itself (Corollary 3.6: IFP is redundant in algebra=, \
                     and algrec-translate::ifp_to_recursion does this mechanically)"
                )));
            }
            check_no_ifp_over_recursion(body, rec)
        }
        AlgExpr::Apply(_, args) => args
            .iter()
            .try_for_each(|a| check_no_ifp_over_recursion(a, rec)),
    }
}

/// The inner least fixpoint of the equation system with the subtracted
/// side fixed to `fixed_neg`. Runs inside its own fixpoint context so
/// caches live exactly as long as their invariants hold.
fn lfp(
    ev: &mut Evaluator<'_>,
    defs: &[(Symbol, &AlgExpr)],
    fixed_neg: &SetEnv,
    meter: &mut Meter,
) -> Result<SetEnv, CoreError> {
    let rec_syms: Vec<Symbol> = defs.iter().map(|(s, _)| *s).collect();
    // Positive-only: within this fixpoint, negative occurrences of the
    // recursive constants read `fixed_neg`, so only positive occurrences
    // see varying state.
    ev.push_ctx(rec_syms, true);
    let result = lfp_loop(ev, defs, fixed_neg, meter);
    ev.pop_ctx();
    result
}

fn lfp_loop(
    ev: &mut Evaluator<'_>,
    defs: &[(Symbol, &AlgExpr)],
    fixed_neg: &SetEnv,
    meter: &mut Meter,
) -> Result<SetEnv, CoreError> {
    let eligible: Vec<bool> = defs
        .iter()
        .map(|(_, body)| ev.opts.delta && ev.delta_ok(body, true))
        .collect();
    let mut env: SetEnv = defs.iter().map(|(s, _)| (*s, SetRef::default())).collect();
    let mut deltas: BTreeMap<Symbol, BTreeSet<Value>> = BTreeMap::new();
    let mut first = true;
    loop {
        meter.tick_iteration()?;
        let mut new_deltas: BTreeMap<Symbol, BTreeSet<Value>> = BTreeMap::new();
        let mut changed = false;
        for (k, (sym, body)) in defs.iter().enumerate() {
            let current = &env[sym];
            let add: BTreeSet<Value> = if first || !eligible[k] {
                let full = ev.eval(body, &env, fixed_neg, true, meter)?;
                full.difference(current).cloned().collect()
            } else {
                let d = ev.eval_delta(body, &env, fixed_neg, &deltas, true, meter)?;
                d.into_iter().filter(|v| !current.contains(v)).collect()
            };
            changed |= !add.is_empty();
            new_deltas.insert(*sym, add);
        }
        let added: usize = new_deltas.values().map(BTreeSet::len).sum();
        meter.record_delta(added);
        if !changed {
            return Ok(env);
        }
        // Jacobi update: every equation above read the start-of-iteration
        // environment; merge the additions only now.
        for (sym, add) in &new_deltas {
            if !add.is_empty() {
                meter.add_facts(add.len())?;
                Arc::make_mut(env.get_mut(sym).expect("env has all defs"))
                    .extend(add.iter().cloned());
            }
        }
        deltas = new_deltas;
        first = false;
    }
}

/// Evaluate a (possibly recursive) algebra program under the valid
/// semantics with the default (fully optimized) strategy.
pub fn eval_valid(
    program: &AlgProgram,
    db: &Database,
    budget: Budget,
) -> Result<ValidAlgebraResult, CoreError> {
    eval_valid_with(program, db, budget, EvalOptions::OPTIMIZED)
}

/// [`eval_valid`] with explicit strategy options (ablation and agreement
/// testing).
pub fn eval_valid_with(
    program: &AlgProgram,
    db: &Database,
    budget: Budget,
    opts: EvalOptions,
) -> Result<ValidAlgebraResult, CoreError> {
    eval_valid_traced(program, db, budget, opts, Trace::Null)
}

/// [`eval_valid_with`] with evaluation telemetry: alternation rounds, the
/// possible/certain passes, per-sweep delta sizes and index traffic flow
/// to `trace` (see [`algrec_value::stats`]). With [`Trace::Null`] this is
/// exactly [`eval_valid_with`]. On success the size of the query's upper
/// bound is reported as `facts_materialized`; on a budget error the
/// events collected so far show consumption at the point of failure.
pub fn eval_valid_traced(
    program: &AlgProgram,
    db: &Database,
    budget: Budget,
    opts: EvalOptions,
    trace: Trace,
) -> Result<ValidAlgebraResult, CoreError> {
    eval_valid_metered(program, db, opts, &mut budget.meter_traced(trace))
}

/// [`eval_valid_with`] charged to the caller's `meter`: the evaluation's
/// iterations, facts, delta rounds and result size land on its counters
/// (and its trace, if one is attached), exactly as
/// [`eval_valid_traced`] reports them on a meter of its own.
pub fn eval_valid_metered(
    program: &AlgProgram,
    db: &Database,
    opts: EvalOptions,
    meter: &mut Meter,
) -> Result<ValidAlgebraResult, CoreError> {
    let inlined = program.inline()?;
    let rec_names: Vec<String> = inlined.defs.iter().map(|d| d.name.clone()).collect();
    for d in &inlined.defs {
        check_no_ifp_over_recursion(&d.body, &rec_names)?;
    }
    check_no_ifp_over_recursion(&inlined.query, &rec_names)?;

    let mut ev = Evaluator::new(db, opts);

    // Non-recursive program: exact evaluation, trivially two-valued.
    if inlined.defs.is_empty() {
        let empty = SetEnv::new();
        let q = ev.eval(&inlined.query, &empty, &empty, true, meter)?;
        meter.record_materialized(q.len());
        return Ok(ValidAlgebraResult {
            constants: BTreeMap::new(),
            query: TvSet::exact((*q).clone()),
            outer_rounds: 0,
        });
    }

    let defs: Vec<(Symbol, &AlgExpr)> = inlined
        .defs
        .iter()
        .map(|d| (Symbol::of(&d.name), &d.body))
        .collect();
    let rec_syms: Vec<Symbol> = defs.iter().map(|(s, _)| *s).collect();
    // Whole-run context: expressions not mentioning any recursive
    // constant at all are cached across inner fixpoints, alternation
    // rounds and the final query passes.
    ev.push_ctx(rec_syms.clone(), false);

    // Alternating fixpoint.
    let mut certain: SetEnv = rec_syms.iter().map(|s| (*s, SetRef::default())).collect();
    let mut outer_rounds = 0usize;
    meter.phase_start("alternation");
    let possible = loop {
        outer_rounds += 1;
        meter.tick_iteration()?;
        // Possible pass: subtracted sets read the certain bound.
        meter.phase_start("possible");
        let possible = lfp(&mut ev, &defs, &certain, meter);
        meter.phase_end();
        let possible = possible?;
        // Certain pass: subtracted sets read the possible bound.
        meter.phase_start("certain");
        let next_certain = lfp(&mut ev, &defs, &possible, meter);
        meter.phase_end();
        let next_certain = next_certain?;
        if next_certain == certain {
            break possible;
        }
        certain = next_certain;
    };
    meter.phase_end();

    let mut constants = BTreeMap::new();
    for name in &rec_names {
        let sym = Symbol::of(name);
        let lower = (*certain[&sym]).clone();
        let mut upper = (*possible[&sym]).clone();
        // The bounds are nested at convergence; keep the invariant robust
        // against budget-truncated runs.
        upper.extend(lower.iter().cloned());
        constants.insert(
            name.clone(),
            TvSet::from_bounds(lower, upper).expect("lower ⊆ upper by construction"),
        );
    }

    // Query: lower bound reads (certain positively, possible negatively),
    // upper bound the reverse.
    let q_lower = (*ev.eval(&inlined.query, &certain, &possible, true, meter)?).clone();
    let mut q_upper = (*ev.eval(&inlined.query, &possible, &certain, true, meter)?).clone();
    q_upper.extend(q_lower.iter().cloned());
    meter.record_materialized(q_upper.len());
    Ok(ValidAlgebraResult {
        constants,
        query: TvSet::from_bounds(q_lower, q_upper).expect("lower ⊆ upper by construction"),
        outer_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, FuncExpr, FuncOp};
    use crate::program::OpDef;
    use algrec_value::Relation;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    fn move_db(pairs: &[(i64, i64)]) -> Database {
        Database::new().with(
            "move",
            Relation::from_pairs(pairs.iter().map(|(a, b)| (i(*a), i(*b)))),
        )
    }

    /// Run optimized and baseline, assert full agreement (bounds and
    /// rounds), and return the optimized result.
    fn eval_both(p: &AlgProgram, db: &Database) -> ValidAlgebraResult {
        let opt = eval_valid_with(p, db, Budget::SMALL, EvalOptions::OPTIMIZED).unwrap();
        let base = eval_valid_with(p, db, Budget::SMALL, EvalOptions::BASELINE).unwrap();
        assert_eq!(opt.query, base.query, "query bounds disagree");
        assert_eq!(opt.constants, base.constants, "constant bounds disagree");
        assert_eq!(opt.outer_rounds, base.outer_rounds, "alternation disagrees");
        opt
    }

    /// WIN = π₁(MOVE − (π₁(MOVE) × WIN))   (Example 3).
    fn win_program() -> AlgProgram {
        AlgProgram::new(
            [OpDef::constant(
                "win",
                AlgExpr::map(
                    AlgExpr::diff(
                        AlgExpr::name("move"),
                        AlgExpr::product(
                            AlgExpr::map(AlgExpr::name("move"), FuncExpr::proj(0)),
                            AlgExpr::name("win"),
                        ),
                    ),
                    FuncExpr::proj(0),
                ),
            )],
            AlgExpr::name("win"),
        )
        .unwrap()
    }

    #[test]
    fn self_subtraction_is_undefined() {
        // S = {a} − S: "the membership status of a in S is undefined, and
        // there is no initial valid model" (Section 3.2).
        let p = AlgProgram::new(
            [OpDef::constant(
                "s",
                AlgExpr::diff(AlgExpr::lit([Value::str("a")]), AlgExpr::name("s")),
            )],
            AlgExpr::name("s"),
        )
        .unwrap();
        let out = eval_both(&p, &Database::new());
        assert_eq!(out.member(&Value::str("a")), Truth::Unknown);
        assert!(!out.is_well_defined());
    }

    #[test]
    fn win_acyclic_well_defined() {
        // 1 → 2 → 3: win(2) only.
        let out = eval_both(&win_program(), &move_db(&[(1, 2), (2, 3)]));
        assert!(out.is_well_defined());
        assert_eq!(out.member(&i(2)), Truth::True);
        assert_eq!(out.member(&i(1)), Truth::False);
        assert_eq!(out.member(&i(3)), Truth::False);
    }

    #[test]
    fn win_self_loop_undefined() {
        // "If the MOVE relation contains the tuple [a, a], then the
        // membership status of a in WIN will be undefined" (Section 3.2).
        let out = eval_both(&win_program(), &move_db(&[(7, 7)]));
        assert_eq!(out.member(&i(7)), Truth::Unknown);
        assert!(!out.is_well_defined());
    }

    #[test]
    fn win_cycle_with_escape_defined() {
        let out = eval_both(&win_program(), &move_db(&[(1, 2), (2, 1), (2, 3)]));
        assert!(out.is_well_defined());
        assert_eq!(out.member(&i(2)), Truth::True);
        assert_eq!(out.member(&i(1)), Truth::False);
    }

    #[test]
    fn even_set_example3() {
        // Sᵉ = {0} ∪ MAP₊₂(σ_{<10}(Sᵉ)) — Example 3's recursive even set,
        // windowed by a selection so the fixpoint is finite.
        let p = AlgProgram::new(
            [OpDef::constant(
                "se",
                AlgExpr::union(
                    AlgExpr::lit([i(0)]),
                    AlgExpr::map(
                        AlgExpr::select(
                            AlgExpr::name("se"),
                            FuncExpr::Cmp(
                                CmpOp::Lt,
                                Box::new(FuncExpr::Elem),
                                Box::new(FuncExpr::Lit(i(10))),
                            ),
                        ),
                        FuncExpr::App(FuncOp::Add, vec![FuncExpr::Elem, FuncExpr::Lit(i(2))]),
                    ),
                ),
            )],
            AlgExpr::name("se"),
        )
        .unwrap();
        let out = eval_both(&p, &Database::new());
        assert!(out.is_well_defined());
        assert_eq!(out.member(&i(0)), Truth::True);
        assert_eq!(out.member(&i(4)), Truth::True);
        assert_eq!(out.member(&i(3)), Truth::False);
        assert_eq!(out.member(&i(10)), Truth::True);
        assert_eq!(out.member(&i(12)), Truth::False); // windowed out
    }

    #[test]
    fn positive_self_reference_is_false_not_unknown() {
        // S = S: under the valid semantics S is empty (no derivation at
        // all), NOT unknown — this is where the alternating fixpoint is
        // strictly stronger than a naive interval (Fitting) iteration.
        let p = AlgProgram::new(
            [OpDef::constant("s", AlgExpr::name("s"))],
            AlgExpr::name("s"),
        )
        .unwrap();
        let out = eval_both(&p, &Database::new());
        assert!(out.is_well_defined());
        assert_eq!(out.query.upper_len(), 0);
    }

    #[test]
    fn positive_recursion_reaches_closure() {
        // TC as a recursive constant: tc = edge ∪ π₀₃(σ₁₌₂(tc × edge)).
        let join = AlgExpr::map(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("tc"), AlgExpr::name("edge")),
                FuncExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(FuncExpr::proj(1)),
                    Box::new(FuncExpr::proj(2)),
                ),
            ),
            FuncExpr::Tuple(vec![FuncExpr::proj(0), FuncExpr::proj(3)]),
        );
        let p = AlgProgram::new(
            [OpDef::constant(
                "tc",
                AlgExpr::union(AlgExpr::name("edge"), join),
            )],
            AlgExpr::name("tc"),
        )
        .unwrap();
        let db = Database::new().with("edge", Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]));
        let out = eval_both(&p, &db);
        assert!(out.is_well_defined());
        assert_eq!(out.member(&Value::pair(i(1), i(3))), Truth::True);
        assert_eq!(out.query.lower_len(), 3);
    }

    #[test]
    fn delta_lfp_tc_long_chain_agrees() {
        // Larger positive recursion: the semi-naive inner fixpoint must
        // produce exactly the naive closure.
        let join = AlgExpr::map(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("tc"), AlgExpr::name("edge")),
                FuncExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(FuncExpr::proj(1)),
                    Box::new(FuncExpr::proj(2)),
                ),
            ),
            FuncExpr::Tuple(vec![FuncExpr::proj(0), FuncExpr::proj(3)]),
        );
        let p = AlgProgram::new(
            [OpDef::constant(
                "tc",
                AlgExpr::union(AlgExpr::name("edge"), join),
            )],
            AlgExpr::name("tc"),
        )
        .unwrap();
        let edges: Vec<(i64, i64)> = (1..16).map(|k| (k, k + 1)).collect();
        let db = Database::new().with(
            "edge",
            Relation::from_pairs(edges.iter().map(|(a, b)| (i(*a), i(*b)))),
        );
        let out = eval_both(&p, &db);
        assert!(out.is_well_defined());
        assert_eq!(out.query.lower_len(), 15 * 16 / 2);
        assert_eq!(out.member(&Value::pair(i(1), i(16))), Truth::True);
    }

    #[test]
    fn mutual_recursion_choice_is_undefined() {
        // p = d − q; q = d − p: the two-scenario choice; both unknown.
        let p = AlgProgram::new(
            [
                OpDef::constant("p", AlgExpr::diff(AlgExpr::name("d"), AlgExpr::name("q"))),
                OpDef::constant("q", AlgExpr::diff(AlgExpr::name("d"), AlgExpr::name("p"))),
            ],
            AlgExpr::name("p"),
        )
        .unwrap();
        let db = Database::new().with("d", Relation::from_values([Value::str("a")]));
        let out = eval_both(&p, &db);
        assert_eq!(out.member(&Value::str("a")), Truth::Unknown);
        assert_eq!(out.constants["q"].member(&Value::str("a")), Truth::Unknown);
    }

    #[test]
    fn query_over_undefined_constants() {
        // query (d − s) where s = {a} − s: subtracting an unknown
        // membership yields unknown; subtracting a certain non-member
        // yields certain.
        let p = AlgProgram::new(
            [OpDef::constant(
                "s",
                AlgExpr::diff(AlgExpr::lit([Value::str("a")]), AlgExpr::name("s")),
            )],
            AlgExpr::diff(AlgExpr::name("d"), AlgExpr::name("s")),
        )
        .unwrap();
        let db = Database::new().with(
            "d",
            Relation::from_values([Value::str("a"), Value::str("b")]),
        );
        let out = eval_both(&p, &db);
        assert_eq!(out.member(&Value::str("a")), Truth::Unknown);
        assert_eq!(out.member(&Value::str("b")), Truth::True);
    }

    #[test]
    fn ifp_over_recursive_constant_rejected() {
        let p = AlgProgram::new(
            [OpDef::constant(
                "s",
                AlgExpr::ifp("x", AlgExpr::union(AlgExpr::name("x"), AlgExpr::name("s"))),
            )],
            AlgExpr::name("s"),
        )
        .unwrap();
        assert!(matches!(
            eval_valid(&p, &Database::new(), Budget::SMALL),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn ifp_over_database_is_fine_inside_recursion() {
        // s = (IFP over edge only) − s: IFP evaluates to a fixed set.
        let tc = AlgExpr::ifp(
            "x",
            AlgExpr::union(AlgExpr::name("edge"), AlgExpr::name("x")),
        );
        let p = AlgProgram::new(
            [OpDef::constant("s", AlgExpr::diff(tc, AlgExpr::name("s")))],
            AlgExpr::name("s"),
        )
        .unwrap();
        let db = Database::new().with("edge", Relation::from_values([i(1)]));
        let out = eval_both(&p, &db);
        // s = {1} − s: membership of 1 undefined.
        assert_eq!(out.member(&i(1)), Truth::Unknown);
    }

    #[test]
    fn nonrecursive_program_is_exact() {
        let p = AlgProgram::query(AlgExpr::lit([i(1), i(2)]));
        let out = eval_both(&p, &Database::new());
        assert!(out.is_well_defined());
        assert_eq!(out.query.lower_len(), 2);
        assert_eq!(out.outer_rounds, 0);
    }

    #[test]
    fn double_negation_def_is_delta_ineligible_but_agrees() {
        // s = d − (d − s): s occurs positively but inside a difference
        // right-side, so the equation is outside the delta fragment and
        // must fall back to full re-evaluation — with identical results.
        let p = AlgProgram::new(
            [OpDef::constant(
                "s",
                AlgExpr::diff(
                    AlgExpr::name("d"),
                    AlgExpr::diff(AlgExpr::name("d"), AlgExpr::name("s")),
                ),
            )],
            AlgExpr::name("s"),
        )
        .unwrap();
        let db = Database::new().with("d", Relation::from_values([Value::str("a")]));
        let out = eval_both(&p, &db);
        // s = d ∩ s has least fixpoint ∅ in the certain pass; the
        // possible pass (reading certain negatively) also derives
        // nothing: d − (d − ∅) = ∅. Well-defined and empty.
        assert!(out.is_well_defined());
        assert_eq!(out.query.upper_len(), 0);
    }
}
