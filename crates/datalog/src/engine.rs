//! Single-rule evaluation: expression evaluation, pattern matching, body
//! planning and match enumeration.
//!
//! Every semantics in this crate is built from one primitive: *apply a
//! rule once* against a source of positive facts and an oracle deciding
//! negative literals. The semantics differ only in how they choose the
//! source and the oracle (Sections 2.2, 4 and 5 of the paper):
//!
//! * minimal model: no negation;
//! * stratified: oracle = complement of completed lower strata;
//! * inflationary: oracle = "not derived *so far*" (Prop 5.1's reading);
//! * well-founded / valid alternating fixpoint: oracle alternates between
//!   an underestimate and an overestimate ("cannot be derived *at all*").
//!
//! The planner compiles each rule body to slot-resolved form: variables
//! become indices into a per-rule frame (`Vec<Option<Value>>`), equality
//! orientation and first-argument probe eligibility are decided once at
//! plan time, and positive literals with a computable leading argument
//! look their first argument up (hash index or ordered prefix range, see
//! [`Interp`]) instead of scanning every fact. The binding-visible API
//! ([`Bindings`], [`enumerate_bindings`]) is unchanged: grounding
//! reconstructs the named map from the frame at each emitted match.
//!
//! A rule is planned more than once ([`RulePlans`]): statically, and
//! with each positive literal preferred as the leading one. A firing
//! whose source carries a delta runs whichever of its two candidate
//! plans visits fewer rows at that firing's sizes — a small delta at a
//! non-leading literal starts from the delta, a cold round keeps the
//! static plan — so the choice needs no setting and cannot be stale.

use crate::ast::{CmpOp, Expr, Func, Literal, Rule};
use crate::error::EvalError;
use crate::interp::Interp;
use algrec_value::budget::Meter;
use algrec_value::Value;
use std::collections::BTreeMap;

/// Variable bindings accumulated while matching a rule body.
pub type Bindings = BTreeMap<String, Value>;

/// Evaluate an expression under bindings. Fails on unbound variables and
/// dynamic type errors — the safety analysis guarantees neither happens
/// for planned rule bodies with type-correct data.
pub fn eval_expr(e: &Expr, b: &Bindings) -> Result<Value, EvalError> {
    match e {
        Expr::Var(v) => b
            .get(v)
            .cloned()
            .ok_or_else(|| EvalError::Unsafe(format!("unbound variable {v}"))),
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Tuple(items) => Ok(Value::Tuple(
            items
                .iter()
                .map(|e| eval_expr(e, b))
                .collect::<Result<_, _>>()?,
        )),
        Expr::App(f, items) => {
            let args: Vec<Value> = items
                .iter()
                .map(|e| eval_expr(e, b))
                .collect::<Result<_, _>>()?;
            f.apply(&args)
                .ok_or_else(|| EvalError::Type(format!("{}({args:?})", f.name())))
        }
    }
}

/// Match an expression *as a pattern* against a value, extending the
/// bindings. Variables bind (or test, if already bound), literals and
/// evaluable sub-expressions test, tuple patterns destructure. Returns
/// whether the match succeeded; bindings may be partially extended on
/// failure (callers clone).
pub fn match_expr(e: &Expr, v: &Value, b: &mut Bindings) -> Result<bool, EvalError> {
    match e {
        Expr::Var(name) => match b.get(name) {
            Some(bound) => Ok(bound == v),
            None => {
                b.insert(name.clone(), v.clone());
                Ok(true)
            }
        },
        Expr::Lit(lit) => Ok(lit == v),
        Expr::Tuple(items) => match v {
            Value::Tuple(vals) if vals.len() == items.len() => {
                for (e, val) in items.iter().zip(vals) {
                    if !match_expr(e, val, b)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        },
        Expr::App(..) => {
            // Applications cannot run backwards; the planner only
            // schedules them once their variables are bound.
            Ok(eval_expr(e, b)? == *v)
        }
    }
}

/// Can `e` be *matched* once the variables in `bound` are available?
/// (Every function application inside must be fully bound; everything else
/// is a pattern.)
fn matchable(e: &Expr, bound: &dyn Fn(&str) -> bool) -> bool {
    match e {
        Expr::Var(_) | Expr::Lit(_) => true,
        Expr::Tuple(items) => items.iter().all(|e| matchable(e, bound)),
        Expr::App(..) => e.vars().iter().all(|v| bound(v)),
    }
}

/// Is `e` fully evaluable once the variables in `bound` are available?
fn evaluable(e: &Expr, bound: &dyn Fn(&str) -> bool) -> bool {
    e.vars().iter().all(|v| bound(v))
}

/// An element expression with every variable resolved to a frame slot —
/// the compiled counterpart of [`Expr`]. Produced by [`plan_body`];
/// evaluated and matched against a `Vec<Option<Value>>` frame without any
/// name lookups or string clones.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SlotExpr {
    /// A variable occurrence, resolved to its slot in the rule frame.
    Var(usize),
    /// A constant.
    Lit(Value),
    /// A tuple constructor (forwards) / destructuring pattern (backwards).
    Tuple(Vec<SlotExpr>),
    /// A function application; never runs backwards — the planner only
    /// schedules it once every argument variable is bound.
    App(Func, Vec<SlotExpr>),
}

/// A body literal compiled to slot-resolved form with all plan-time
/// decisions (equality orientation, index-probe eligibility) baked in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SlotLit {
    /// A positive atom, matched against the fact source.
    Pos {
        /// Predicate name.
        pred: String,
        /// Argument patterns.
        args: Vec<SlotExpr>,
        /// Whether the leading argument is fully computable from earlier
        /// literals when this atom is reached — if so, the engine probes
        /// the interpretation's first-argument hash index instead of
        /// scanning every fact of the predicate.
        probe_first: bool,
    },
    /// A negative atom: evaluate the arguments, consult the oracle.
    Neg {
        /// Predicate name.
        pred: String,
        /// Argument expressions (fully evaluable when reached).
        args: Vec<SlotExpr>,
    },
    /// Equality as binder-or-test. Orientation is fixed at plan time:
    /// `val` is the side evaluable when the literal is reached, `pat` is
    /// matched against its value (binding any fresh variables).
    Eq {
        /// The evaluable side.
        val: SlotExpr,
        /// The pattern side.
        pat: SlotExpr,
    },
    /// An ordering comparison; both sides evaluable when reached.
    Cmp(CmpOp, SlotExpr, SlotExpr),
}

/// A body evaluation plan: the literal indices in execution order plus the
/// slot-compiled form of every literal and the head. The plan exists iff
/// the body can be evaluated left-to-right with every negative literal,
/// comparison and function application ground when reached — the
/// operational counterpart of Definition 4.1's range restriction (see
/// `safety` for the declarative check).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BodyPlan {
    /// Indices into `rule.body` in execution order.
    pub order: Vec<usize>,
    /// The frame's variable names, in slot order (first occurrence during
    /// scheduling). `vars[i]` is the name bound at frame slot `i`.
    pub vars: Vec<String>,
    /// Slot-compiled literals, parallel to `rule.body` (so `order` indexes
    /// into this vector too).
    pub body: Vec<SlotLit>,
    /// Slot-compiled head arguments.
    pub head: Vec<SlotExpr>,
}

/// Resolve a variable name to its frame slot, allocating one on first use.
fn slot_of(vars: &mut Vec<String>, name: &str) -> usize {
    match vars.iter().position(|v| v == name) {
        Some(i) => i,
        None => {
            vars.push(name.to_string());
            vars.len() - 1
        }
    }
}

/// Compile an expression to slot form, allocating slots for fresh
/// variables in first-occurrence order.
fn compile_expr(e: &Expr, vars: &mut Vec<String>) -> SlotExpr {
    match e {
        Expr::Var(name) => SlotExpr::Var(slot_of(vars, name)),
        Expr::Lit(v) => SlotExpr::Lit(v.clone()),
        Expr::Tuple(items) => {
            SlotExpr::Tuple(items.iter().map(|e| compile_expr(e, vars)).collect())
        }
        Expr::App(f, items) => {
            SlotExpr::App(*f, items.iter().map(|e| compile_expr(e, vars)).collect())
        }
    }
}

/// Plan a rule body. Greedy: repeatedly pick the first not-yet-scheduled
/// literal that is executable given the variables bound so far, compiling
/// it to slot form as it is scheduled (so orientation and probe decisions
/// see exactly the bindings available at that point of execution).
pub fn plan_body(rule: &Rule) -> Result<BodyPlan, EvalError> {
    plan_body_leading(rule, None)
}

/// [`plan_body`] with one literal preferred: every sweep tries `lead`
/// before the others, so it runs first when it can (a positive literal
/// whose patterns need no bindings) and otherwise as soon as the planner
/// has bound what it needs — the same greedy order, never a second
/// notion of executability.
fn plan_body_leading(rule: &Rule, lead: Option<usize>) -> Result<BodyPlan, EvalError> {
    let n = rule.body.len();
    let mut scheduled = vec![false; n];
    let mut bound: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut order = Vec::with_capacity(n);
    let mut vars: Vec<String> = Vec::new();
    let mut compiled: Vec<Option<SlotLit>> = vec![None; n];

    while order.len() < n {
        let mut progressed = false;
        for i in lead.into_iter().chain(0..n) {
            if scheduled[i] {
                continue;
            }
            let lit = &rule.body[i];
            let slot_lit = {
                let bd = |v: &str| bound.contains(v);
                match lit {
                    Literal::Pos(atom) if atom.args.iter().all(|e| matchable(e, &bd)) => {
                        // The leading argument can drive an index probe iff
                        // it is computable before this atom binds anything.
                        let probe_first = matches!(atom.args.first(),
                            Some(e) if evaluable(e, &bd));
                        Some(SlotLit::Pos {
                            pred: atom.pred.clone(),
                            args: atom
                                .args
                                .iter()
                                .map(|e| compile_expr(e, &mut vars))
                                .collect(),
                            probe_first,
                        })
                    }
                    Literal::Neg(atom) if atom.args.iter().all(|e| evaluable(e, &bd)) => {
                        Some(SlotLit::Neg {
                            pred: atom.pred.clone(),
                            args: atom
                                .args
                                .iter()
                                .map(|e| compile_expr(e, &mut vars))
                                .collect(),
                        })
                    }
                    Literal::Cmp(CmpOp::Eq, l, r)
                        if (evaluable(l, &bd) && matchable(r, &bd))
                            || (evaluable(r, &bd) && matchable(l, &bd)) =>
                    {
                        // Binder or test: the evaluable side supplies the
                        // value, the other side is matched against it.
                        // (If `l` is evaluable then `r` is matchable: an
                        // evaluable side is always matchable, so the second
                        // disjunct can only fire when the first cannot.)
                        let (val, pat) = if evaluable(l, &bd) { (l, r) } else { (r, l) };
                        Some(SlotLit::Eq {
                            val: compile_expr(val, &mut vars),
                            pat: compile_expr(pat, &mut vars),
                        })
                    }
                    Literal::Cmp(op, l, r)
                        if *op != CmpOp::Eq && evaluable(l, &bd) && evaluable(r, &bd) =>
                    {
                        Some(SlotLit::Cmp(
                            *op,
                            compile_expr(l, &mut vars),
                            compile_expr(r, &mut vars),
                        ))
                    }
                    _ => None,
                }
            };
            if let Some(slot_lit) = slot_lit {
                scheduled[i] = true;
                order.push(i);
                compiled[i] = Some(slot_lit);
                for v in lit.vars() {
                    bound.insert(v.to_string());
                }
                progressed = true;
            }
        }
        if !progressed {
            let stuck: Vec<String> = (0..n)
                .filter(|i| !scheduled[*i])
                .map(|i| rule.body[i].to_string())
                .collect();
            return Err(EvalError::Unsafe(format!(
                "rule `{rule}` has no evaluable order; stuck literals: {}",
                stuck.join(", ")
            )));
        }
    }

    // The head must be fully evaluable from the body bindings.
    for e in &rule.head.args {
        if !evaluable(e, &|v| bound.contains(v)) {
            return Err(EvalError::Unsafe(format!(
                "rule `{rule}`: head variable not restricted by the body"
            )));
        }
    }
    let head = rule
        .head
        .args
        .iter()
        .map(|e| compile_expr(e, &mut vars))
        .collect();
    Ok(BodyPlan {
        order,
        vars,
        body: compiled
            .into_iter()
            .map(|l| l.expect("every literal scheduled"))
            .collect(),
        head,
    })
}

/// Evaluate a slot expression against the frame.
fn eval_slot(e: &SlotExpr, f: &[Option<Value>]) -> Result<Value, EvalError> {
    match e {
        SlotExpr::Var(i) => f[*i]
            .clone()
            .ok_or_else(|| EvalError::Unsafe(format!("unbound variable (slot {i})"))),
        SlotExpr::Lit(v) => Ok(v.clone()),
        SlotExpr::Tuple(items) => Ok(Value::Tuple(
            items
                .iter()
                .map(|e| eval_slot(e, f))
                .collect::<Result<_, _>>()?,
        )),
        SlotExpr::App(func, items) => {
            let args: Vec<Value> = items
                .iter()
                .map(|e| eval_slot(e, f))
                .collect::<Result<_, _>>()?;
            func.apply(&args)
                .ok_or_else(|| EvalError::Type(format!("{}({args:?})", func.name())))
        }
    }
}

/// Match a slot expression as a pattern against a value, recording every
/// newly filled slot on `trail` so the caller can undo cheaply.
fn match_slot(
    e: &SlotExpr,
    v: &Value,
    f: &mut [Option<Value>],
    trail: &mut Vec<usize>,
) -> Result<bool, EvalError> {
    match e {
        SlotExpr::Var(i) => match &f[*i] {
            Some(bound) => Ok(bound == v),
            None => {
                f[*i] = Some(v.clone());
                trail.push(*i);
                Ok(true)
            }
        },
        SlotExpr::Lit(lit) => Ok(lit == v),
        SlotExpr::Tuple(items) => match v {
            Value::Tuple(vals) if vals.len() == items.len() => {
                for (e, val) in items.iter().zip(vals) {
                    if !match_slot(e, val, f, trail)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        },
        SlotExpr::App(..) => Ok(eval_slot(e, f)? == *v),
    }
}

fn undo(f: &mut [Option<Value>], trail: &mut Vec<usize>, mark: usize) {
    while trail.len() > mark {
        let i = trail.pop().expect("trail length checked");
        f[i] = None;
    }
}

/// Where positive literals read their facts during one rule application.
pub struct FactSource<'a> {
    /// Facts for every positive literal by default.
    pub full: &'a Interp,
    /// Semi-naive: the body-literal index that must instead read from this
    /// delta interpretation.
    pub delta: Option<(usize, &'a Interp)>,
}

impl<'a> FactSource<'a> {
    /// A plain source reading everything from `full`.
    pub fn full(full: &'a Interp) -> Self {
        FactSource { full, delta: None }
    }

    fn interp_for(&self, body_index: usize) -> &'a Interp {
        match self.delta {
            Some((i, d)) if i == body_index => d,
            _ => self.full,
        }
    }
}

impl BodyPlan {
    /// The positive literals in execution order against `source`, each
    /// as (is its first column bound when reached, its relation's rows).
    fn positives<'a>(
        &'a self,
        source: &'a FactSource<'_>,
    ) -> impl Iterator<Item = (bool, usize)> + 'a {
        self.order.iter().filter_map(|&idx| match &self.body[idx] {
            SlotLit::Pos {
                pred, probe_first, ..
            } => Some((*probe_first, source.interp_for(idx).count(pred))),
            _ => None,
        })
    }

    /// Rows the leading positive literal feeds into the rest of the body:
    /// its relation's size when it is scanned, one bucket when a constant
    /// first argument lets it probe.
    fn lead_rows(&self, source: &FactSource<'_>) -> usize {
        let lead = self.positives(source).next();
        lead.map_or(1, |(probes, rows)| if probes { 1 } else { rows })
    }

    /// Rows this plan visits against `source`, from sizes alone: the
    /// leading literal's rows, then per later positive literal one probe
    /// per leading row when its first column is bound, or a full scan of
    /// its relation per leading row when it is not (only first columns
    /// are indexed). Coarse on purpose — it only has to rank two orders
    /// of the same body.
    fn visited_rows(&self, source: &FactSource<'_>) -> usize {
        let lead = self.lead_rows(source);
        self.positives(source)
            .skip(1)
            .fold(lead, |visited, (probes, rows)| {
                visited.saturating_add(if probes {
                    lead
                } else {
                    lead.saturating_mul(rows)
                })
            })
    }
}

/// The plans of one rule: the static plan every full firing uses, and
/// beside it one *delta-first* plan per positive body position — the
/// same body ordered with that literal preferred, so a firing whose
/// delta sits at a non-leading literal can start from the delta instead
/// of scanning the static plan's leading relation.
///
/// Which of the two a delta firing runs is decided per firing by
/// [`RulePlans::for_source`] from the delta and relation sizes of that
/// firing. There is no switch: a large delta (a cold round) keeps the
/// static plan, a small one (a maintained write) starts from the delta.
#[derive(Clone, Debug)]
pub struct RulePlans {
    fixed: BodyPlan,
    /// By body index; `None` where the literal is not positive or its
    /// delta-first plan is the static plan.
    delta_first: Vec<Option<BodyPlan>>,
}

impl RulePlans {
    /// Plan `rule` statically and delta-first at every positive literal.
    pub fn new(rule: &Rule) -> Result<Self, EvalError> {
        let fixed = plan_body(rule)?;
        let delta_first = rule
            .body
            .iter()
            .enumerate()
            .map(|(at, lit)| match lit {
                Literal::Pos(_) => Ok(Some(plan_body_leading(rule, Some(at))?)
                    .filter(|plan| plan.order != fixed.order)),
                _ => Ok(None),
            })
            .collect::<Result<_, EvalError>>()?;
        Ok(RulePlans { fixed, delta_first })
    }

    /// The static plan.
    pub fn fixed(&self) -> &BodyPlan {
        &self.fixed
    }

    /// The plan a firing against `source` runs: the static plan, unless
    /// the source carries a delta whose delta-first plan visits fewer
    /// rows (`BodyPlan::visited_rows`) at this firing's sizes.
    pub fn for_source(&self, source: &FactSource<'_>) -> &BodyPlan {
        let delta_first = source
            .delta
            .and_then(|(at, _)| self.delta_first.get(at)?.as_ref());
        match delta_first {
            Some(plan) if plan.visited_rows(source) < self.fixed.visited_rows(source) => plan,
            _ => &self.fixed,
        }
    }
}

/// Apply one rule: enumerate all satisfying bindings and emit head facts
/// into `out`. `neg` decides negative literals: `neg(pred, args)` returns
/// `true` iff `¬pred(args)` is *satisfied*. Returns the number of facts
/// that were new.
pub fn apply_rule(
    rule: &Rule,
    plans: &RulePlans,
    source: &FactSource<'_>,
    neg: &(dyn Fn(&str, &[Value]) -> bool + Sync),
    meter: &mut Meter,
    out: &mut Interp,
) -> Result<usize, EvalError> {
    let mut added = 0usize;
    let plan = plans.for_source(source);
    let mut frame: Vec<Option<Value>> = vec![None; plan.vars.len()];
    let firing = Firing::new(plan, source, neg);
    apply_rec(&firing, 0, meter, &mut frame, &mut |f, meter| {
        let args: Vec<Value> = plan
            .head
            .iter()
            .map(|e| eval_slot(e, f))
            .collect::<Result<_, _>>()?;
        for v in &args {
            meter.check_value_size(v.size())?;
        }
        if out.insert(&rule.head.pred, args) {
            added += 1;
            meter.add_facts(1)?;
        }
        Ok(())
    })?;
    Ok(added)
}

/// Enumerate all satisfying bindings of a rule body, invoking `emit` for
/// each (used by grounding for stable models, which needs the bindings
/// themselves rather than just head facts). The named binding map is
/// reconstructed from the frame per match; grounding is not on the
/// fact-derivation fast path.
pub fn enumerate_bindings(
    plans: &RulePlans,
    source: &FactSource<'_>,
    neg: &(dyn Fn(&str, &[Value]) -> bool + Sync),
    meter: &mut Meter,
    emit: &mut dyn FnMut(&Bindings, &mut Meter) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let plan = plans.for_source(source);
    let mut frame: Vec<Option<Value>> = vec![None; plan.vars.len()];
    let firing = Firing::new(plan, source, neg);
    apply_rec(&firing, 0, meter, &mut frame, &mut |f, meter| {
        let bindings: Bindings = plan
            .vars
            .iter()
            .zip(f.iter())
            .filter_map(|(name, v)| v.as_ref().map(|v| (name.clone(), v.clone())))
            .collect();
        emit(&bindings, meter)
    })
}

/// Callback invoked on every complete frame a rule body derives.
type EmitFn<'a> = dyn FnMut(&[Option<Value>], &mut Meter) -> Result<(), EvalError> + 'a;

/// What one firing holds still while the body is matched.
struct Firing<'a> {
    plan: &'a BodyPlan,
    source: &'a FactSource<'a>,
    neg: &'a (dyn Fn(&str, &[Value]) -> bool + Sync),
    /// [`BodyPlan::lead_rows`] of this firing: how many times, at least,
    /// each later literal is reached.
    lead_rows: usize,
}

impl<'a> Firing<'a> {
    fn new(
        plan: &'a BodyPlan,
        source: &'a FactSource<'a>,
        neg: &'a (dyn Fn(&str, &[Value]) -> bool + Sync),
    ) -> Self {
        Firing {
            plan,
            source,
            neg,
            lead_rows: plan.lead_rows(source),
        }
    }

    /// Is a hash index over `rows` facts worth building for this firing?
    /// Building clones, interns and hashes every row; without it each
    /// probe walks the ordered fact set instead, a few comparisons more
    /// than the hash lookup. A probe saves less than a row costs, so
    /// only a firing that probes at least once per row builds (a cold
    /// round); one that probes a handful of times (a maintained write)
    /// never does.
    fn pays_for_index(&self, rows: usize) -> bool {
        rows > 0 && self.lead_rows >= rows
    }
}

fn apply_rec(
    firing: &Firing<'_>,
    step: usize,
    meter: &mut Meter,
    frame: &mut [Option<Value>],
    emit: &mut EmitFn<'_>,
) -> Result<(), EvalError> {
    let plan = firing.plan;
    if step == plan.order.len() {
        return emit(frame, meter);
    }
    let idx = plan.order[step];
    match &plan.body[idx] {
        SlotLit::Pos {
            pred,
            args,
            probe_first,
        } => {
            let facts = firing.source.interp_for(idx);
            // First-argument probe: if the leading argument is computable
            // here (decided at plan time), look the key up instead of
            // scanning — in the interpretation's hash index when one is
            // cached or this firing pays for building it, otherwise by a
            // prefix range over the ordered fact set. A failing
            // evaluation (dynamic type error) falls back to the full
            // scan, which raises the same error lazily per candidate —
            // and raises nothing at all when there are no candidates,
            // matching the unindexed semantics. Probe order equals scan
            // order either way: index buckets and the prefix range both
            // preserve the sorted fact order.
            let first_key = if *probe_first {
                eval_slot(&args[0], frame).ok()
            } else {
                None
            };
            let index = first_key.as_ref().and_then(|_| {
                facts.cached_first_index(pred).or_else(|| {
                    firing.pays_for_index(facts.count(pred)).then(|| {
                        let ix = facts.first_index(pred);
                        meter.record_index_build(ix.key_count());
                        ix
                    })
                })
            });
            let iter: Box<dyn Iterator<Item = &Vec<Value>>> = match (&first_key, &index) {
                (Some(key), Some(ix)) => Box::new(ix.probe(key)),
                (Some(key), None) => Box::new(facts.facts_with_first(pred, key)),
                (None, _) => Box::new(facts.facts(pred)),
            };
            let mut iter = iter.peekable();
            if first_key.is_some() {
                meter.record_index_probe(iter.peek().is_some());
            }
            let mut trail: Vec<usize> = Vec::new();
            for fact in iter {
                if fact.len() != args.len() {
                    continue;
                }
                let mut ok = true;
                for (e, v) in args.iter().zip(fact) {
                    if !match_slot(e, v, frame, &mut trail)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    apply_rec(firing, step + 1, meter, frame, emit)?;
                }
                undo(frame, &mut trail, 0);
            }
            Ok(())
        }
        SlotLit::Neg { pred, args } => {
            let args: Vec<Value> = args
                .iter()
                .map(|e| eval_slot(e, frame))
                .collect::<Result<_, _>>()?;
            if (firing.neg)(pred, &args) {
                apply_rec(firing, step + 1, meter, frame, emit)?;
            }
            Ok(())
        }
        SlotLit::Eq { val, pat } => {
            let v = eval_slot(val, frame)?;
            meter.check_value_size(v.size())?;
            let mut trail: Vec<usize> = Vec::new();
            if match_slot(pat, &v, frame, &mut trail)? {
                apply_rec(firing, step + 1, meter, frame, emit)?;
            }
            undo(frame, &mut trail, 0);
            Ok(())
        }
        SlotLit::Cmp(op, l, r) => {
            let a = eval_slot(l, frame)?;
            let b = eval_slot(r, frame)?;
            if op.eval(&a, &b) {
                apply_rec(firing, step + 1, meter, frame, emit)?;
            }
            Ok(())
        }
    }
}

/// A program with precomputed body plans — the compiled form every
/// fixpoint engine consumes.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The source rules.
    pub rules: Vec<Rule>,
    /// Each rule's plans, parallel to `rules`.
    pub plans: Vec<RulePlans>,
}

impl Compiled {
    /// Plan every rule of a program.
    pub fn compile(program: &crate::ast::Program) -> Result<Self, EvalError> {
        let plans = program
            .rules
            .iter()
            .map(RulePlans::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Compiled {
            rules: program.rules.clone(),
            plans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Func, Program};
    use algrec_value::Budget;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    #[test]
    fn eval_expr_basics() {
        let mut b = Bindings::new();
        b.insert("X".into(), i(3));
        assert_eq!(eval_expr(&v("X"), &b).unwrap(), i(3));
        assert_eq!(
            eval_expr(&Expr::App(Func::Succ, vec![v("X")]), &b).unwrap(),
            i(4)
        );
        assert_eq!(
            eval_expr(&Expr::Tuple(vec![v("X"), Expr::int(1)]), &b).unwrap(),
            Value::pair(i(3), i(1))
        );
        assert!(eval_expr(&v("Y"), &b).is_err());
        assert!(matches!(
            eval_expr(&Expr::App(Func::Succ, vec![Expr::lit("a")]), &b),
            Err(EvalError::Type(_))
        ));
    }

    #[test]
    fn match_binds_and_tests() {
        let mut b = Bindings::new();
        assert!(match_expr(&v("X"), &i(1), &mut b).unwrap());
        assert_eq!(b.get("X"), Some(&i(1)));
        assert!(!match_expr(&v("X"), &i(2), &mut b).unwrap());
        assert!(match_expr(&Expr::int(5), &i(5), &mut b).unwrap());
        assert!(!match_expr(&Expr::int(5), &i(6), &mut b).unwrap());
    }

    #[test]
    fn match_destructures_tuples() {
        let mut b = Bindings::new();
        let pat = Expr::Tuple(vec![v("A"), v("B")]);
        assert!(match_expr(&pat, &Value::pair(i(1), i(2)), &mut b).unwrap());
        assert_eq!(b.get("A"), Some(&i(1)));
        assert_eq!(b.get("B"), Some(&i(2)));
        assert!(!match_expr(&pat, &i(9), &mut Bindings::new()).unwrap());
    }

    #[test]
    fn plan_orders_binders_first() {
        // q(Y) :- Y = succ(X), e(X).   must schedule e(X) first.
        let rule = Rule::new(
            Atom::new("q", [v("Y")]),
            [
                Literal::Cmp(CmpOp::Eq, v("Y"), Expr::App(Func::Succ, vec![v("X")])),
                Literal::Pos(Atom::new("e", [v("X")])),
            ],
        );
        let plan = plan_body(&rule).unwrap();
        assert_eq!(plan.order, vec![1, 0]);
    }

    #[test]
    fn plan_assigns_slots_and_probe_flags() {
        // path(X,Z) :- e(X,Y), e(Y,Z).  Slots in scheduling order: X, Y, Z.
        let rule = Rule::new(
            Atom::new("path", [v("X"), v("Z")]),
            [
                Literal::Pos(Atom::new("e", [v("X"), v("Y")])),
                Literal::Pos(Atom::new("e", [v("Y"), v("Z")])),
            ],
        );
        let plan = plan_body(&rule).unwrap();
        assert_eq!(plan.vars, vec!["X", "Y", "Z"]);
        assert_eq!(plan.head, vec![SlotExpr::Var(0), SlotExpr::Var(2)]);
        // First occurrence scans (X unbound); second probes on bound Y.
        assert_eq!(
            plan.body[0],
            SlotLit::Pos {
                pred: "e".into(),
                args: vec![SlotExpr::Var(0), SlotExpr::Var(1)],
                probe_first: false,
            }
        );
        assert_eq!(
            plan.body[1],
            SlotLit::Pos {
                pred: "e".into(),
                args: vec![SlotExpr::Var(1), SlotExpr::Var(2)],
                probe_first: true,
            }
        );
    }

    #[test]
    fn plan_orients_equality_at_plan_time() {
        // q(Y) :- e(X), Y = succ(X).   succ(X) is the value, Y the pattern.
        let rule = Rule::new(
            Atom::new("q", [v("Y")]),
            [
                Literal::Pos(Atom::new("e", [v("X")])),
                Literal::Cmp(CmpOp::Eq, v("Y"), Expr::App(Func::Succ, vec![v("X")])),
            ],
        );
        let plan = plan_body(&rule).unwrap();
        assert_eq!(
            plan.body[1],
            SlotLit::Eq {
                val: SlotExpr::App(Func::Succ, vec![SlotExpr::Var(0)]),
                pat: SlotExpr::Var(1),
            }
        );
    }

    #[test]
    fn plan_rejects_unsafe() {
        // q(X) :- not e(X).   X never restricted.
        let rule = Rule::new(
            Atom::new("q", [v("X")]),
            [Literal::Neg(Atom::new("e", [v("X")]))],
        );
        assert!(matches!(plan_body(&rule), Err(EvalError::Unsafe(_))));
        // q(X) :- e(Y).   head variable unrestricted.
        let rule2 = Rule::new(
            Atom::new("q", [v("X")]),
            [Literal::Pos(Atom::new("e", [v("Y")]))],
        );
        assert!(matches!(plan_body(&rule2), Err(EvalError::Unsafe(_))));
    }

    #[test]
    fn apply_rule_joins() {
        // path(X,Z) :- e(X,Y), e(Y,Z).
        let rule = Rule::new(
            Atom::new("path", [v("X"), v("Z")]),
            [
                Literal::Pos(Atom::new("e", [v("X"), v("Y")])),
                Literal::Pos(Atom::new("e", [v("Y"), v("Z")])),
            ],
        );
        let plan = RulePlans::new(&rule).unwrap();
        let mut facts = Interp::new();
        facts.insert("e", vec![i(1), i(2)]);
        facts.insert("e", vec![i(2), i(3)]);
        let mut out = Interp::new();
        let mut meter = Budget::SMALL.meter();
        let added = apply_rule(
            &rule,
            &plan,
            &FactSource::full(&facts),
            &|_, _| false,
            &mut meter,
            &mut out,
        )
        .unwrap();
        assert_eq!(added, 1);
        assert!(out.holds("path", &[i(1), i(3)]));
    }

    #[test]
    fn probe_with_constant_first_argument() {
        // q(Y) :- e(1, Y).   Constant leading argument probes the index
        // with no prior bindings at all.
        let rule = Rule::new(
            Atom::new("q", [v("Y")]),
            [Literal::Pos(Atom::new("e", [Expr::int(1), v("Y")]))],
        );
        let plan = plan_body(&rule).unwrap();
        match &plan.body[0] {
            SlotLit::Pos { probe_first, .. } => assert!(probe_first),
            other => panic!("unexpected {other:?}"),
        }
        let mut facts = Interp::new();
        facts.insert("e", vec![i(1), i(2)]);
        facts.insert("e", vec![i(1), i(3)]);
        facts.insert("e", vec![i(2), i(9)]);
        let mut out = Interp::new();
        let mut meter = Budget::SMALL.meter();
        apply_rule(
            &rule,
            &RulePlans::new(&rule).unwrap(),
            &FactSource::full(&facts),
            &|_, _| false,
            &mut meter,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.count("q"), 2);
        assert!(out.holds("q", &[i(2)]));
        assert!(out.holds("q", &[i(3)]));
        assert!(!out.holds("q", &[i(9)]));
    }

    #[test]
    fn apply_rule_negation_oracle() {
        // q(X) :- e(X), not p(X).
        let rule = Rule::new(
            Atom::new("q", [v("X")]),
            [
                Literal::Pos(Atom::new("e", [v("X")])),
                Literal::Neg(Atom::new("p", [v("X")])),
            ],
        );
        let plan = RulePlans::new(&rule).unwrap();
        let mut facts = Interp::new();
        facts.insert("e", vec![i(1)]);
        facts.insert("e", vec![i(2)]);
        let mut out = Interp::new();
        let mut meter = Budget::SMALL.meter();
        apply_rule(
            &rule,
            &plan,
            &FactSource::full(&facts),
            &|_, args| args[0] != i(1), // ¬p(x) holds except for 1
            &mut meter,
            &mut out,
        )
        .unwrap();
        assert!(!out.holds("q", &[i(1)]));
        assert!(out.holds("q", &[i(2)]));
    }

    #[test]
    fn apply_rule_with_functions_and_comparisons() {
        // double(Y) :- n(X), X < 3, Y = mul(X, 2).
        let rule = Rule::new(
            Atom::new("double", [v("Y")]),
            [
                Literal::Pos(Atom::new("n", [v("X")])),
                Literal::Cmp(CmpOp::Lt, v("X"), Expr::int(3)),
                Literal::Cmp(
                    CmpOp::Eq,
                    v("Y"),
                    Expr::App(Func::Mul, vec![v("X"), Expr::int(2)]),
                ),
            ],
        );
        let plan = RulePlans::new(&rule).unwrap();
        let mut facts = Interp::new();
        for n in 1..=4 {
            facts.insert("n", vec![i(n)]);
        }
        let mut out = Interp::new();
        let mut meter = Budget::SMALL.meter();
        apply_rule(
            &rule,
            &plan,
            &FactSource::full(&facts),
            &|_, _| false,
            &mut meter,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.count("double"), 2);
        assert!(out.holds("double", &[i(2)]));
        assert!(out.holds("double", &[i(4)]));
    }

    #[test]
    fn delta_source_restricts_one_occurrence() {
        // path(X,Z) :- path(X,Y), e(Y,Z).  with delta on body literal 0.
        let rule = Rule::new(
            Atom::new("path", [v("X"), v("Z")]),
            [
                Literal::Pos(Atom::new("path", [v("X"), v("Y")])),
                Literal::Pos(Atom::new("e", [v("Y"), v("Z")])),
            ],
        );
        let plan = RulePlans::new(&rule).unwrap();
        let mut full = Interp::new();
        full.insert("path", vec![i(1), i(2)]);
        full.insert("path", vec![i(5), i(6)]);
        full.insert("e", vec![i(2), i(3)]);
        full.insert("e", vec![i(6), i(7)]);
        let mut delta = Interp::new();
        delta.insert("path", vec![i(1), i(2)]); // only this one is "new"
        let mut out = Interp::new();
        let mut meter = Budget::SMALL.meter();
        apply_rule(
            &rule,
            &plan,
            &FactSource {
                full: &full,
                delta: Some((0, &delta)),
            },
            &|_, _| false,
            &mut meter,
            &mut out,
        )
        .unwrap();
        assert!(out.holds("path", &[i(1), i(3)]));
        assert!(!out.holds("path", &[i(5), i(7)])); // not rederived from old
    }

    /// The `acl_authz` delegation rule: the static plan scans `delegate`
    /// and probes `allow` on its first column; started from `allow` it
    /// must scan all of `delegate` per delta fact (`V` is `delegate`'s
    /// second column, and only first columns are indexed).
    fn delegation_rule() -> Rule {
        Rule::new(
            Atom::new("allow", [v("U"), v("R")]),
            [
                Literal::Pos(Atom::new("delegate", [v("U"), v("V")])),
                Literal::Pos(Atom::new("allow", [v("V"), v("R")])),
                Literal::Neg(Atom::new("deny", [v("U"), v("R")])),
            ],
        )
    }

    #[test]
    fn delta_first_plan_is_chosen_by_size_at_the_firing() {
        let rule = delegation_rule();
        let plans = RulePlans::new(&rule).unwrap();
        let mut full = Interp::new();
        for k in 0..60 {
            full.insert("delegate", vec![i(k + 1), i(k)]);
            full.insert("allow", vec![i(k), i(k % 3)]);
        }
        let order_for = |delta: &Interp| {
            let source = FactSource {
                full: &full,
                delta: Some((1, delta)),
            };
            plans.for_source(&source).order.clone()
        };
        // A one-fact delta (a maintained write) starts from the delta.
        let mut one = Interp::new();
        one.insert("allow", vec![i(7), i(1)]);
        assert_eq!(order_for(&one), vec![1, 0, 2]);
        // A cold round's delta keeps the static plan: delta-first would
        // scan `delegate` sixty times over.
        let mut round = Interp::new();
        for k in 0..60 {
            round.insert("allow", vec![i(k), i(k % 3)]);
        }
        assert_eq!(order_for(&round), vec![0, 1, 2]);
        // So does a full firing, and a delta at the literal that already
        // leads has no second plan to take.
        assert_eq!(
            plans.for_source(&FactSource::full(&full)).order,
            vec![0, 1, 2]
        );
        let source = FactSource {
            full: &full,
            delta: Some((0, &one)),
        };
        assert_eq!(plans.for_source(&source).order, vec![0, 1, 2]);

        // Whichever plan runs, the firing derives the same facts.
        let fire = |delta: &Interp| {
            let mut out = Interp::new();
            let mut meter = Budget::SMALL.meter();
            let source = FactSource {
                full: &full,
                delta: Some((1, delta)),
            };
            apply_rule(&rule, &plans, &source, &|_, _| true, &mut meter, &mut out).unwrap();
            out
        };
        let mut by_fact = Interp::new();
        for (p, args) in round.iter() {
            let mut single = Interp::new();
            single.insert(p, args.clone());
            by_fact.absorb(&fire(&single));
        }
        assert_eq!(by_fact, fire(&round));
        assert_eq!(by_fact.count("allow"), 60);
    }

    #[test]
    fn a_leading_literal_that_cannot_lead_runs_when_it_can() {
        // q(Y) :- e(X), p(succ(X), Y).   Preferring `p` cannot bind X for
        // its function application: the planner still schedules `e`
        // first, and `p` right after — the plan it had anyway.
        let rule = Rule::new(
            Atom::new("q", [v("Y")]),
            [
                Literal::Pos(Atom::new("e", [v("X")])),
                Literal::Pos(Atom::new(
                    "p",
                    [Expr::App(Func::Succ, vec![v("X")]), v("Y")],
                )),
            ],
        );
        assert_eq!(plan_body_leading(&rule, Some(1)).unwrap().order, vec![0, 1]);
        assert_eq!(
            plan_body_leading(&rule, Some(1)).unwrap(),
            plan_body(&rule).unwrap()
        );
    }

    #[test]
    fn small_firings_probe_the_ordered_set_and_large_ones_build() {
        // path(X,Z) :- e(X,Y), e(Y,Z).  The second literal probes `e`.
        let rule = Rule::new(
            Atom::new("path", [v("X"), v("Z")]),
            [
                Literal::Pos(Atom::new("e", [v("X"), v("Y")])),
                Literal::Pos(Atom::new("e", [v("Y"), v("Z")])),
            ],
        );
        let plans = RulePlans::new(&rule).unwrap();
        let mut full = Interp::new();
        for k in 0..200 {
            full.insert("e", vec![i(k), i(k + 1)]);
        }
        let mut delta = Interp::new();
        delta.insert("e", vec![i(10), i(11)]);
        let fire = |source: &FactSource<'_>| {
            let trace = algrec_value::Trace::collect();
            let mut meter = Budget::SMALL.meter_traced(trace.clone());
            let mut out = Interp::new();
            apply_rule(&rule, &plans, source, &|_, _| false, &mut meter, &mut out).unwrap();
            (out, trace.stats().unwrap())
        };
        // One delta fact, one probe: no index is built for it.
        let (out, stats) = fire(&FactSource {
            full: &full,
            delta: Some((0, &delta)),
        });
        assert!(out.holds("path", &[i(10), i(12)]));
        assert_eq!((stats.index_builds, stats.index_probes), (0, 1));
        assert!(full.cached_first_index("e").is_none());
        // A full firing probes once per fact: it builds, once.
        let (out, stats) = fire(&FactSource::full(&full));
        assert_eq!(out.count("path"), 199);
        assert_eq!((stats.index_builds, stats.index_probes), (1, 200));
        // And once cached, even a one-fact firing uses it.
        let (_, stats) = fire(&FactSource {
            full: &full,
            delta: Some((0, &delta)),
        });
        assert_eq!(stats.index_builds, 0);
        assert!(full.cached_first_index("e").is_some());
    }

    #[test]
    fn compile_whole_program() {
        let p = Program::from_rules([Rule::new(
            Atom::new("q", [v("X")]),
            [Literal::Pos(Atom::new("e", [v("X")]))],
        )]);
        let c = Compiled::compile(&p).unwrap();
        assert_eq!(c.rules.len(), 1);
        assert_eq!(c.plans.len(), 1);
    }

    #[test]
    fn enumerate_bindings_reconstructs_names() {
        let rule = Rule::new(
            Atom::new("q", [v("X")]),
            [
                Literal::Pos(Atom::new("e", [v("X"), v("Y")])),
                Literal::Cmp(CmpOp::Lt, v("X"), v("Y")),
            ],
        );
        let plan = RulePlans::new(&rule).unwrap();
        let mut facts = Interp::new();
        facts.insert("e", vec![i(1), i(2)]);
        facts.insert("e", vec![i(3), i(2)]);
        let mut meter = Budget::SMALL.meter();
        let mut seen = Vec::new();
        enumerate_bindings(
            &plan,
            &FactSource::full(&facts),
            &|_, _| false,
            &mut meter,
            &mut |b, _| {
                seen.push(b.clone());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].get("X"), Some(&i(1)));
        assert_eq!(seen[0].get("Y"), Some(&i(2)));
    }

    #[test]
    fn indexed_lookup_stays_lazy_on_type_errors() {
        // q(X) :- e(X), p(succ(X)).  With X bound to a string, evaluating
        // succ(X) for the first-argument index would error — but p is
        // empty, so the unindexed semantics has no candidates and raises
        // nothing. The index must not change that.
        let rule = Rule::new(
            Atom::new("q", [v("X")]),
            [
                Literal::Pos(Atom::new("e", [v("X")])),
                Literal::Pos(Atom::new("p", [Expr::App(Func::Succ, vec![v("X")])])),
            ],
        );
        let plan = RulePlans::new(&rule).unwrap();
        let mut facts = Interp::new();
        facts.insert("e", vec![Value::str("a")]);
        let mut out = Interp::new();
        let mut meter = Budget::SMALL.meter();
        let added = apply_rule(
            &rule,
            &plan,
            &FactSource::full(&facts),
            &|_, _| false,
            &mut meter,
            &mut out,
        )
        .unwrap();
        assert_eq!(added, 0);
        // With p non-empty the error must surface (the full scan hits it).
        facts.insert("p", vec![i(1)]);
        let err = apply_rule(
            &rule,
            &plan,
            &FactSource::full(&facts),
            &|_, _| false,
            &mut meter,
            &mut out,
        );
        assert!(matches!(err, Err(EvalError::Type(_))));
    }

    #[test]
    fn fact_budget_enforced() {
        let rule = Rule::new(
            Atom::new("q", [v("X")]),
            [Literal::Pos(Atom::new("e", [v("X")]))],
        );
        let plan = RulePlans::new(&rule).unwrap();
        let mut facts = Interp::new();
        for n in 0..10 {
            facts.insert("e", vec![i(n)]);
        }
        let mut out = Interp::new();
        let mut meter = Budget::new(10, 3, 64).meter();
        let err = apply_rule(
            &rule,
            &plan,
            &FactSource::full(&facts),
            &|_, _| false,
            &mut meter,
            &mut out,
        );
        assert!(matches!(err, Err(EvalError::Budget(_))));
    }
}
