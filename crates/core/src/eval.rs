//! The polarity-aware evaluator.
//!
//! One evaluator serves every language in the family. It computes the
//! exact (two-valued) value of an expression given *two* environments for
//! the recursively-defined constants: `pos`, read at positive occurrences,
//! and `neg`, read at negative occurrences (inside an odd number of
//! difference right-sides). The uses:
//!
//! * **plain algebra / IFP-algebra** (no recursion): `pos = neg` (empty) —
//!   polarity is irrelevant and the evaluator is simply the textbook one,
//!   with `IFP` evaluated inflationarily;
//! * **algebra= / IFP-algebra= under the valid semantics**: the
//!   alternating fixpoint of [`crate::valid_eval`] calls the evaluator
//!   with `(pos, neg)` set to the current (certain, possible) bounds —
//!   "only facts not in T are allowed to be used negatively"
//!   (Section 2.2) becomes *negative occurrences read the other bound*.
//!
//! # Evaluation strategy
//!
//! The paper's semantics fixes *what* is computed; this module also fixes
//! *how*, behind [`EvalOptions`] toggles so the strategies can be ablated:
//!
//! * **interning** — join indexes key on [`Vid`](algrec_value::Vid)s (hash-consed values)
//!   instead of full values, and database relations expose a shared
//!   interned first-column index;
//! * **index** — equi-join indexes are cached across fixpoint iterations
//!   for loop-invariant join sides (off: rebuilt per join call);
//! * **delta** — `IFP` bodies that are syntactically monotone in the
//!   fixpoint variable are advanced semi-naively: each iteration
//!   evaluates a *delta* of the body against the facts added last round,
//!   instead of the full body against the whole accumulation. Bodies
//!   where the variable occurs inside any difference right-side fall back
//!   to the naive loop. Loop-invariant subexpressions are also cached per
//!   fixpoint run under this toggle.
//!
//! Every strategy is observation-equivalent to the naive evaluator: same
//! sets, same canonical (`BTreeSet`) ordering, same dynamic errors.

use crate::expr::{AlgExpr, CmpOp, FuncExpr};
use crate::program::AlgProgram;
use crate::CoreError;
use algrec_value::budget::Meter;
use algrec_value::{Budget, ColumnIndex, Database, Symbol, Trace, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A shared, immutable set of values. Environments and evaluation results
/// are reference-counted so that resolving a name is O(1) instead of a
/// deep clone of the whole set.
pub type SetRef = Arc<BTreeSet<Value>>;

/// An assignment of sets to names. Keys are interned [`Symbol`]s, values
/// are shared [`SetRef`]s.
pub type SetEnv = BTreeMap<Symbol, SetRef>;

/// Evaluation-strategy toggles (see the module docs). The semantics is
/// identical under every combination; only the work done differs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvalOptions {
    /// Key join indexes by interned value ids ([`Vid`](algrec_value::Vid)) and reuse the
    /// shared first-column index of database relations.
    pub interning: bool,
    /// Cache join indexes across fixpoint iterations for loop-invariant
    /// join sides.
    pub index: bool,
    /// Advance monotone fixpoints semi-naively (delta-driven) and cache
    /// loop-invariant subexpression values per fixpoint run.
    pub delta: bool,
    /// Key the per-fixpoint value and index caches by *structural* plan
    /// ids (hash-consed in an [`algrec_plan::PlanArena`]) instead of node
    /// addresses, so structurally equal subexpressions — e.g. the
    /// pointer-distinct copies [`AlgExpr::substitute`] produces —
    /// share one cache entry (cross-rule common-subexpression sharing).
    pub plan: bool,
}

impl EvalOptions {
    /// Every optimization on (the default).
    pub const OPTIMIZED: EvalOptions = EvalOptions {
        interning: true,
        index: true,
        delta: true,
        plan: true,
    };

    /// Every optimization off — the seed evaluator's behavior, kept as
    /// the ablation baseline and the oracle for agreement tests.
    pub const BASELINE: EvalOptions = EvalOptions {
        interning: false,
        index: false,
        delta: false,
        plan: false,
    };
}

/// Concatenate two values as tuples (the relational product convention:
/// non-tuples act as 1-tuples).
pub fn tuple_concat(a: &Value, b: &Value) -> Value {
    let mut items: Vec<Value> = match a {
        Value::Tuple(t) => t.clone(),
        other => vec![other.clone()],
    };
    match b {
        Value::Tuple(t) => items.extend(t.iter().cloned()),
        other => items.push(other.clone()),
    }
    Value::Tuple(items)
}

/// Width of a value under the product convention (tuples spread,
/// non-tuples are 1-wide).
fn concat_width(v: &Value) -> usize {
    match v {
        Value::Tuple(t) => t.len(),
        _ => 1,
    }
}

/// Column `i` of a value under the product convention.
fn concat_col(v: &Value, i: usize) -> Option<&Value> {
    match v {
        Value::Tuple(t) => t.get(i),
        other if i == 0 => Some(other),
        _ => None,
    }
}

/// A recognized equi-join: a chain of selections directly over a product,
/// all of whose tests decompose into *analyzable* conjuncts — boolean
/// combinations of comparisons over literals and projections of the
/// element. Analyzable conjuncts are total except for projection range,
/// so a single width check against the joined sets decides up front
/// whether the unoptimized evaluation would raise a type error.
struct ChainJoin<'e> {
    left: &'e AlgExpr,
    right: &'e AlgExpr,
    /// Equality conjuncts `x.i = x.j` with `i < j` — the join keys.
    eqs: Vec<(usize, usize)>,
    /// Remaining analyzable conjuncts, checked on each joined tuple.
    residual: Vec<&'e FuncExpr>,
    /// Concatenated width needed for every projection to be in range.
    required_width: usize,
    /// The original tests, innermost selection first — the staged
    /// fallback when projections may go out of range (a later stage's
    /// test must then only see earlier stages' survivors).
    staged_tests: Vec<&'e FuncExpr>,
}

impl ChainJoin<'_> {
    /// Is this a single selection (conjunction semantics — every conjunct
    /// is evaluated on every pair, so an out-of-range projection anywhere
    /// is an error) rather than a chain of selections?
    fn single(&self) -> bool {
        self.staged_tests.len() == 1
    }
}

/// Width a pair must have for `t` to evaluate without error, or `None`
/// if `t` is not analyzable (contains arithmetic, nested projections, or
/// non-boolean shapes whose errors cannot be decided by widths alone).
fn conjunct_required_width(t: &FuncExpr) -> Option<usize> {
    fn arg_width(a: &FuncExpr) -> Option<usize> {
        match a {
            FuncExpr::Elem | FuncExpr::Lit(_) => Some(0),
            FuncExpr::Proj(e, k) if **e == FuncExpr::Elem => Some(k + 1),
            FuncExpr::Tuple(items) => items
                .iter()
                .map(arg_width)
                .try_fold(0usize, |m, w| Some(m.max(w?))),
            _ => None,
        }
    }
    match t {
        FuncExpr::Cmp(_, a, b) => Some(arg_width(a)?.max(arg_width(b)?)),
        FuncExpr::And(a, b) | FuncExpr::Or(a, b) => {
            Some(conjunct_required_width(a)?.max(conjunct_required_width(b)?))
        }
        FuncExpr::Not(a) => conjunct_required_width(a),
        _ => None,
    }
}

fn flatten_conjuncts<'e>(t: &'e FuncExpr, out: &mut Vec<&'e FuncExpr>) {
    if let FuncExpr::And(a, b) = t {
        flatten_conjuncts(a, out);
        flatten_conjuncts(b, out);
    } else {
        out.push(t);
    }
}

/// Recognize `expr` (a `Select` node) as an indexable join. Shapes
/// covered, superseding the seed's single `σ_{x.i=x.j}(A × B)`:
/// conjunctive tests (`And`-chains with residual comparisons), chains of
/// selections over one product, and products whose operands are
/// themselves products (the equality then straddles the outer boundary).
fn chain_join(expr: &AlgExpr) -> Option<ChainJoin<'_>> {
    let mut staged_rev: Vec<&FuncExpr> = Vec::new();
    let mut node = expr;
    while let AlgExpr::Select(a, t) = node {
        staged_rev.push(t);
        node = a;
    }
    let AlgExpr::Product(l, r) = node else {
        return None;
    };
    let staged_tests: Vec<&FuncExpr> = staged_rev.into_iter().rev().collect();
    let mut eqs = Vec::new();
    let mut residual = Vec::new();
    let mut required_width = 0usize;
    for t in &staged_tests {
        let mut conjuncts = Vec::new();
        flatten_conjuncts(t, &mut conjuncts);
        for c in conjuncts {
            required_width = required_width.max(conjunct_required_width(c)?);
            if let FuncExpr::Cmp(CmpOp::Eq, a, b) = c {
                if let (FuncExpr::Proj(ea, i), FuncExpr::Proj(eb, j)) = (&**a, &**b) {
                    if **ea == FuncExpr::Elem && **eb == FuncExpr::Elem && i != j {
                        eqs.push((*i.min(j), *i.max(j)));
                        continue;
                    }
                }
            }
            residual.push(c);
        }
    }
    if eqs.is_empty() {
        return None;
    }
    Some(ChainJoin {
        left: l,
        right: r,
        eqs,
        residual,
        required_width,
        staged_tests,
    })
}

/// One fixpoint loop's context: which names vary, plus caches for
/// loop-invariant subexpression values and join indexes, valid for the
/// context's lifetime. Keys are expression node addresses (stable for
/// the duration of an evaluation) plus polarity.
struct FixCtx {
    vars: Vec<Symbol>,
    /// `true` for the valid-semantics inner fixpoint, where the varying
    /// names are read from the varying environment only at *positive*
    /// polarity (negative occurrences read the fixed bound); `false` for
    /// IFP variables, which vary at both polarities.
    positive_only: bool,
    invariant_memo: HashMap<(usize, bool), bool>,
    values: HashMap<(usize, bool), SetRef>,
    indexes: HashMap<(usize, bool, usize), Arc<ColumnIndex<Value>>>,
}

impl FixCtx {
    fn new(vars: Vec<Symbol>, positive_only: bool) -> Self {
        FixCtx {
            vars,
            positive_only,
            invariant_memo: HashMap::new(),
            values: HashMap::new(),
            indexes: HashMap::new(),
        }
    }
}

fn key_of(e: &AlgExpr, positive: bool) -> (usize, bool) {
    (e as *const AlgExpr as usize, positive)
}

/// The evaluator: database bindings, strategy options, the IFP local
/// stack and the stack of active fixpoint contexts.
pub(crate) struct Evaluator<'a> {
    db: &'a Database,
    db_env: HashMap<Symbol, SetRef>,
    pub(crate) opts: EvalOptions,
    locals: Vec<(Symbol, SetRef)>,
    ctxs: Vec<FixCtx>,
    /// Hash-consed plan ids for cache keying (the `plan` option).
    plan_arena: algrec_plan::PlanArena,
    plan_keys: HashMap<usize, algrec_plan::PlanId>,
}

impl<'a> Evaluator<'a> {
    pub(crate) fn new(db: &'a Database, opts: EvalOptions) -> Self {
        let db_env = db
            .iter()
            .map(|(name, rel)| (Symbol::of(name), Arc::new(rel.as_set().clone())))
            .collect();
        Evaluator {
            db,
            db_env,
            opts,
            locals: Vec::new(),
            ctxs: Vec::new(),
            plan_arena: algrec_plan::PlanArena::new(),
            plan_keys: HashMap::new(),
        }
    }

    /// The cache key for `e`: its hash-consed structural plan id when
    /// the `plan` option is on — so the pointer-distinct structural
    /// twins produced by definition inlining share one cache entry —
    /// and its node address otherwise. Sharing is sound because
    /// structural twins have identical free names and therefore
    /// identical invariance classification; the invariance gates in
    /// [`Evaluator::eval`] and [`Evaluator::right_index`] already refuse
    /// any entry whose value could differ between occurrences.
    fn memo_key(&mut self, e: &AlgExpr) -> usize {
        if !self.opts.plan {
            return e as *const AlgExpr as usize;
        }
        crate::explain::lower_expr(e, &mut self.plan_arena, &mut self.plan_keys, None).index()
    }

    pub(crate) fn push_ctx(&mut self, vars: Vec<Symbol>, positive_only: bool) {
        self.ctxs.push(FixCtx::new(vars, positive_only));
    }

    pub(crate) fn pop_ctx(&mut self) {
        self.ctxs.pop();
    }

    /// Is `e` invariant with respect to context `ci` at polarity
    /// `positive` — i.e. none of the context's varying names is read from
    /// varying state anywhere inside `e`?
    fn ctx_invariant(&mut self, ci: usize, e: &AlgExpr, positive: bool) -> bool {
        let key = key_of(e, positive);
        if let Some(&v) = self.ctxs[ci].invariant_memo.get(&key) {
            return v;
        }
        let (vars, positive_only) = {
            let c = &self.ctxs[ci];
            (c.vars.clone(), c.positive_only)
        };
        let inv = vars.iter().all(|v| {
            let name = v.as_str();
            let (at_pos, at_neg) = e.polarity_scan(name, !positive);
            if positive_only {
                // Only reads at overall-positive polarity see varying
                // state; negative reads see the fixed bound.
                !at_pos
            } else {
                !at_pos && !at_neg
            }
        });
        self.ctxs[ci].invariant_memo.insert(key, inv);
        inv
    }

    /// The outermost context index `k` such that `e` is invariant with
    /// respect to *every* context from `k` inward — the context whose
    /// cache may hold `e`'s value. `None` if `e` varies in the innermost
    /// context (or caching is off / no context is active).
    fn cache_suffix(&mut self, e: &AlgExpr, positive: bool) -> Option<usize> {
        if !self.opts.delta || self.ctxs.is_empty() {
            return None;
        }
        let mut k = None;
        for ci in (0..self.ctxs.len()).rev() {
            if self.ctx_invariant(ci, e, positive) {
                k = Some(ci);
            } else {
                break;
            }
        }
        k
    }

    /// Does `e` vary in the innermost context at polarity `positive`?
    fn varies_innermost(&mut self, e: &AlgExpr, positive: bool) -> bool {
        let ci = self.ctxs.len() - 1;
        !self.ctx_invariant(ci, e, positive)
    }

    /// Evaluate `e` with positive occurrences of constants read from
    /// `pos` and negative occurrences from `neg`. IFP variables (bound
    /// locally) and database relations are polarity-independent.
    pub(crate) fn eval(
        &mut self,
        e: &AlgExpr,
        pos: &SetEnv,
        neg: &SetEnv,
        positive: bool,
        meter: &mut Meter,
    ) -> Result<SetRef, CoreError> {
        let suffix = self.cache_suffix(e, positive);
        if suffix.is_some() {
            let key = (self.memo_key(e), positive);
            for c in self.ctxs.iter().rev() {
                if let Some(v) = c.values.get(&key) {
                    return Ok(v.clone());
                }
            }
        }
        let out = self.eval_uncached(e, pos, neg, positive, meter)?;
        if let Some(k) = suffix {
            let key = (self.memo_key(e), positive);
            self.ctxs[k].values.insert(key, out.clone());
        }
        Ok(out)
    }

    fn eval_uncached(
        &mut self,
        e: &AlgExpr,
        pos: &SetEnv,
        neg: &SetEnv,
        positive: bool,
        meter: &mut Meter,
    ) -> Result<SetRef, CoreError> {
        match e {
            AlgExpr::Name(n) => {
                // Resolution order: IFP-bound locals, then the constant
                // environments, then database relations.
                let sym = Symbol::of(n);
                if let Some((_, set)) = self.locals.iter().rev().find(|(s, _)| *s == sym) {
                    return Ok(set.clone());
                }
                let env = if positive { pos } else { neg };
                if let Some(set) = env.get(&sym) {
                    return Ok(set.clone());
                }
                if let Some(set) = self.db_env.get(&sym) {
                    return Ok(set.clone());
                }
                Err(CoreError::UnknownName(n.clone()))
            }
            AlgExpr::Lit(items) => Ok(Arc::new(items.clone())),
            AlgExpr::Union(a, b) => {
                let mut l = self.eval(a, pos, neg, positive, meter)?;
                let r = self.eval(b, pos, neg, positive, meter)?;
                if l.is_empty() {
                    return Ok(r);
                }
                if !r.is_empty() {
                    Arc::make_mut(&mut l).extend(r.iter().cloned());
                }
                Ok(l)
            }
            AlgExpr::Diff(a, b) => {
                let l = self.eval(a, pos, neg, positive, meter)?;
                // Polarity flips on the subtrahend.
                let r = self.eval(b, pos, neg, !positive, meter)?;
                if r.is_empty() {
                    return Ok(l);
                }
                Ok(Arc::new(l.difference(&r).cloned().collect()))
            }
            AlgExpr::Product(a, b) => {
                let l = self.eval(a, pos, neg, positive, meter)?;
                let r = self.eval(b, pos, neg, positive, meter)?;
                let mut out = BTreeSet::new();
                for x in l.iter() {
                    for y in r.iter() {
                        let v = tuple_concat(x, y);
                        meter.check_value_size(v.size())?;
                        if out.insert(v) {
                            meter.add_facts(1)?;
                        }
                    }
                }
                Ok(Arc::new(out))
            }
            AlgExpr::Select(a, test) => {
                // Join recognition — pure evaluation strategy; the
                // semantics (including dynamic type errors) is unchanged.
                if let Some(cj) = chain_join(e) {
                    let l = self.eval(cj.left, pos, neg, positive, meter)?;
                    let r = self.eval(cj.right, pos, neg, positive, meter)?;
                    if l.is_empty() || r.is_empty() {
                        // No pairs: the unoptimized path evaluates no
                        // test, raises no error, returns ∅.
                        return Ok(Arc::new(BTreeSet::new()));
                    }
                    if join_widths_ok(&cj, &l, &r) {
                        let out = self.join(&l, &r, &cj, positive, true, meter)?;
                        return Ok(Arc::new(out));
                    }
                    if cj.single() {
                        // A conjunction evaluates every conjunct on every
                        // pair; some projection is out of range for some
                        // pair, so the unoptimized path errors. Match it.
                        return Err(CoreError::Type(format!(
                            "projection out of bounds in selection over product (needs \
                             width {})",
                            cj.required_width
                        )));
                    }
                    // A σ-chain filters in stages; a projection that is
                    // out of range on a pair an earlier stage drops is NOT
                    // an error. Replay the stages exactly.
                    return self.staged_select(&l, &r, &cj.staged_tests, meter);
                }
                let l = self.eval(a, pos, neg, positive, meter)?;
                let mut out = BTreeSet::new();
                for x in l.iter() {
                    if test.test(x)? {
                        out.insert(x.clone());
                    }
                }
                Ok(Arc::new(out))
            }
            AlgExpr::Map(a, f) => {
                let l = self.eval(a, pos, neg, positive, meter)?;
                let mut out = BTreeSet::new();
                for x in l.iter() {
                    let v = f.eval(x)?;
                    meter.check_value_size(v.size())?;
                    if out.insert(v) {
                        meter.add_facts(1)?;
                    }
                }
                Ok(Arc::new(out))
            }
            AlgExpr::Ifp { var, body } => self.eval_ifp(var, body, pos, neg, positive, meter),
            AlgExpr::Apply(name, _) => Err(CoreError::Invalid(format!(
                "application of `{name}` survived inlining; evaluate via AlgProgram APIs"
            ))),
        }
    }

    /// Inflationary fixed point: "starting with the empty set, at each
    /// step exp is applied on the result obtained in the previous step,
    /// and the result is accumulated" (Section 3.1). The fixpoint
    /// variable reads the accumulation in *both* polarities — that is
    /// precisely the inflationary reading of subtraction ("was not
    /// derived so far", Section 5).
    ///
    /// When the body is syntactically monotone in the variable (no
    /// occurrence inside any difference right-side) the loop is advanced
    /// semi-naively: iteration k evaluates a delta of the body against
    /// the facts iteration k−1 added. Every fact a full evaluation would
    /// add is still added (one-side-new pairs cover products), and every
    /// element-level error still surfaces in the iteration where the
    /// offending element first appears.
    fn eval_ifp(
        &mut self,
        var: &str,
        body: &AlgExpr,
        pos: &SetEnv,
        neg: &SetEnv,
        positive: bool,
        meter: &mut Meter,
    ) -> Result<SetRef, CoreError> {
        let vsym = Symbol::of(var);
        self.push_ctx(vec![vsym], false);
        let result = self.ifp_loop(vsym, body, pos, neg, positive, meter);
        self.pop_ctx();
        result
    }

    fn ifp_loop(
        &mut self,
        vsym: Symbol,
        body: &AlgExpr,
        pos: &SetEnv,
        neg: &SetEnv,
        positive: bool,
        meter: &mut Meter,
    ) -> Result<SetRef, CoreError> {
        let use_delta = self.opts.delta && self.delta_ok(body, positive);
        let mut acc: SetRef = Arc::new(BTreeSet::new());
        let mut delta: BTreeSet<Value> = BTreeSet::new();
        let mut first = true;
        meter.phase_start("ifp");
        loop {
            meter.tick_iteration()?;
            self.locals.push((vsym, acc.clone()));
            let step = if first || !use_delta {
                self.eval(body, pos, neg, positive, meter).map(|s| {
                    if use_delta {
                        s.difference(&acc).cloned().collect()
                    } else {
                        (*s).clone()
                    }
                })
            } else {
                let mut deltas = BTreeMap::new();
                deltas.insert(vsym, std::mem::take(&mut delta));
                self.eval_delta(body, pos, neg, &deltas, positive, meter)
            };
            self.locals.pop();
            let step = step?;
            let before = acc.len();
            let accm = Arc::make_mut(&mut acc);
            if use_delta {
                delta = step
                    .into_iter()
                    .filter(|v| accm.insert(v.clone()))
                    .collect();
            } else {
                accm.extend(step);
            }
            meter.add_facts(acc.len() - before)?;
            meter.record_delta(acc.len() - before);
            if acc.len() == before {
                meter.phase_end();
                return Ok(acc);
            }
            first = false;
        }
    }

    /// Is `body` advanceable by deltas in the innermost context? True
    /// when, within the varying region, every difference right-side is
    /// invariant and no nested IFP varies — then every varying operator
    /// is monotone in the varying names and the delta rules are sound
    /// and complete for the (increasing) fixpoint iterates.
    pub(crate) fn delta_ok(&mut self, body: &AlgExpr, positive: bool) -> bool {
        if !self.varies_innermost(body, positive) {
            return true;
        }
        match body {
            AlgExpr::Name(_) | AlgExpr::Lit(_) => true,
            AlgExpr::Union(a, b) | AlgExpr::Product(a, b) => {
                self.delta_ok(a, positive) && self.delta_ok(b, positive)
            }
            AlgExpr::Select(a, _) | AlgExpr::Map(a, _) => self.delta_ok(a, positive),
            AlgExpr::Diff(a, b) => {
                !self.varies_innermost(b, !positive) && self.delta_ok(a, positive)
            }
            AlgExpr::Ifp { .. } => false, // varying nested fixpoint
            AlgExpr::Apply(..) => false,
        }
    }

    /// The delta of `e` given `deltas` — the facts each varying name
    /// gained last iteration. Sound (every returned fact is in the full
    /// value of `e` under the current environments) and complete (every
    /// fact the full value gained since last iteration is returned);
    /// both by induction using that the fixpoint iterates increase.
    pub(crate) fn eval_delta(
        &mut self,
        e: &AlgExpr,
        pos: &SetEnv,
        neg: &SetEnv,
        deltas: &BTreeMap<Symbol, BTreeSet<Value>>,
        positive: bool,
        meter: &mut Meter,
    ) -> Result<BTreeSet<Value>, CoreError> {
        if !self.varies_innermost(e, positive) {
            return Ok(BTreeSet::new());
        }
        match e {
            AlgExpr::Name(n) => Ok(deltas.get(&Symbol::of(n)).cloned().unwrap_or_default()),
            AlgExpr::Lit(_) => Ok(BTreeSet::new()),
            AlgExpr::Union(a, b) => {
                let mut l = self.eval_delta(a, pos, neg, deltas, positive, meter)?;
                let r = self.eval_delta(b, pos, neg, deltas, positive, meter)?;
                l.extend(r);
                Ok(l)
            }
            AlgExpr::Diff(a, b) => {
                // `b` is invariant in this fixpoint (checked by
                // `delta_ok`), so new facts come only from `a`.
                let l = self.eval_delta(a, pos, neg, deltas, positive, meter)?;
                let r = self.eval(b, pos, neg, !positive, meter)?;
                Ok(l.difference(&r).cloned().collect())
            }
            AlgExpr::Product(a, b) => {
                let da = self.eval_delta(a, pos, neg, deltas, positive, meter)?;
                let db_ = self.eval_delta(b, pos, neg, deltas, positive, meter)?;
                let cur_a = self.eval(a, pos, neg, positive, meter)?;
                let cur_b = self.eval(b, pos, neg, positive, meter)?;
                let mut out = BTreeSet::new();
                // Every new pair has a new coordinate: δa × cur(b) ∪
                // cur(a) × δb (cur values already include the deltas).
                for (xs, ys) in [(&da, &*cur_b), (&*cur_a, &db_)] {
                    for x in xs.iter() {
                        for y in ys.iter() {
                            let v = tuple_concat(x, y);
                            meter.check_value_size(v.size())?;
                            if out.insert(v) {
                                meter.add_facts(1)?;
                            }
                        }
                    }
                }
                Ok(out)
            }
            AlgExpr::Select(a, test) => {
                if let Some(cj) = chain_join(e) {
                    let cur_l = self.eval(cj.left, pos, neg, positive, meter)?;
                    let cur_r = self.eval(cj.right, pos, neg, positive, meter)?;
                    if cur_l.is_empty() || cur_r.is_empty() {
                        return Ok(BTreeSet::new());
                    }
                    if join_widths_ok(&cj, &cur_l, &cur_r) {
                        let dl = self.eval_delta(cj.left, pos, neg, deltas, positive, meter)?;
                        let dr = self.eval_delta(cj.right, pos, neg, deltas, positive, meter)?;
                        // δl joins the *full* right side (its cached index
                        // is valid); full left joins δr, whose ad-hoc
                        // index must never enter the caches.
                        let mut out = self.join(&dl, &cur_r, &cj, positive, true, meter)?;
                        if !dr.is_empty() {
                            let dr = Arc::new(dr);
                            out.extend(self.join(&cur_l, &dr, &cj, positive, false, meter)?);
                        }
                        return Ok(out);
                    }
                    if cj.single() {
                        // The full evaluation would error on this
                        // iteration's pairs; report the same error.
                        return Err(CoreError::Type(format!(
                            "projection out of bounds in selection over product (needs \
                             width {})",
                            cj.required_width
                        )));
                    }
                    // σ-chain with possible range errors: fall through to
                    // the stage-exact filter of the argument's delta.
                }
                let l = self.eval_delta(a, pos, neg, deltas, positive, meter)?;
                let mut out = BTreeSet::new();
                for x in l {
                    if test.test(&x)? {
                        out.insert(x);
                    }
                }
                Ok(out)
            }
            AlgExpr::Map(a, f) => {
                let l = self.eval_delta(a, pos, neg, deltas, positive, meter)?;
                let mut out = BTreeSet::new();
                for x in l.iter() {
                    let v = f.eval(x)?;
                    meter.check_value_size(v.size())?;
                    if out.insert(v) {
                        meter.add_facts(1)?;
                    }
                }
                Ok(out)
            }
            // `delta_ok` bans varying nested fixpoints and applications.
            AlgExpr::Ifp { .. } | AlgExpr::Apply(..) => Err(CoreError::Invalid(
                "delta evaluation reached a non-delta-able operator".into(),
            )),
        }
    }

    /// Replay a chain of selections stage by stage over the materialized
    /// product — exact fallback semantics, including which elements each
    /// stage's test is evaluated on.
    fn staged_select(
        &mut self,
        l: &SetRef,
        r: &SetRef,
        staged_tests: &[&FuncExpr],
        meter: &mut Meter,
    ) -> Result<SetRef, CoreError> {
        let mut cur = BTreeSet::new();
        for x in l.iter() {
            for y in r.iter() {
                let v = tuple_concat(x, y);
                meter.check_value_size(v.size())?;
                if cur.insert(v) {
                    meter.add_facts(1)?;
                }
            }
        }
        for t in staged_tests {
            let mut next = BTreeSet::new();
            for x in cur {
                if t.test(&x)? {
                    next.insert(x);
                }
            }
            cur = next;
        }
        Ok(Arc::new(cur))
    }

    /// Execute a recognized join of `l` and `r`. Callers must have
    /// checked `join_widths_ok`, after which no projection can go out of
    /// range and no residual test can error.
    fn join(
        &mut self,
        l: &BTreeSet<Value>,
        r: &SetRef,
        cj: &ChainJoin<'_>,
        positive: bool,
        right_is_full: bool,
        meter: &mut Meter,
    ) -> Result<BTreeSet<Value>, CoreError> {
        let mut out = BTreeSet::new();
        if l.is_empty() || r.is_empty() {
            return Ok(out);
        }
        let mut local_indexes: HashMap<usize, Arc<ColumnIndex<Value>>> = HashMap::new();
        for x in l.iter() {
            let w = concat_width(x);
            // Classify the equalities for this left element's width.
            let mut ok = true;
            let mut straddle: Vec<(usize, usize)> = Vec::new(); // (left col, right col)
            let mut right_conds: Vec<(usize, usize)> = Vec::new();
            for &(i, j) in &cj.eqs {
                if j < w {
                    if concat_col(x, i) != concat_col(x, j) {
                        ok = false;
                        break;
                    }
                } else if i >= w {
                    right_conds.push((i - w, j - w));
                } else {
                    straddle.push((i, j - w));
                }
            }
            if !ok {
                continue;
            }
            let emit = |this: &mut Self,
                        y: &Value,
                        out: &mut BTreeSet<Value>,
                        meter: &mut Meter|
             -> Result<(), CoreError> {
                let _ = this;
                let v = tuple_concat(x, y);
                for t in &cj.residual {
                    if !t.test(&v)? {
                        return Ok(());
                    }
                }
                meter.check_value_size(v.size())?;
                if out.insert(v) {
                    meter.add_facts(1)?;
                }
                Ok(())
            };
            let matches_rest = |y: &Value| -> bool {
                straddle
                    .iter()
                    .skip(1)
                    .all(|&(i, o)| concat_col(x, i) == concat_col(y, o))
                    && right_conds
                        .iter()
                        .all(|&(oi, oj)| concat_col(y, oi) == concat_col(y, oj))
            };
            if let Some(&(ki, off)) = straddle.first() {
                let key = concat_col(x, ki).expect("ki < w");
                let idx = match local_indexes.get(&off) {
                    Some(idx) => idx.clone(),
                    None => {
                        let idx =
                            self.right_index(r, cj.right, positive, off, right_is_full, meter)?;
                        local_indexes.insert(off, idx.clone());
                        idx
                    }
                };
                let candidates: Vec<Value> = idx.probe(key).cloned().collect();
                meter.record_index_probe(!candidates.is_empty());
                for y in &candidates {
                    if matches_rest(y) {
                        emit(self, y, &mut out, meter)?;
                    }
                }
            } else {
                for y in r.iter() {
                    if matches_rest(y) {
                        emit(self, y, &mut out, meter)?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// The index of `r` on column `off`, with three sources in order of
    /// preference: the shared first-column index of a database relation,
    /// a context cache entry for a loop-invariant join side, or a fresh
    /// build for this call.
    fn right_index(
        &mut self,
        r: &SetRef,
        right_expr: &AlgExpr,
        positive: bool,
        off: usize,
        right_is_full: bool,
        meter: &mut Meter,
    ) -> Result<Arc<ColumnIndex<Value>>, CoreError> {
        if right_is_full && off == 0 && self.opts.index && self.opts.interning {
            if let AlgExpr::Name(n) = right_expr {
                if let Some(db_set) = self.db_env.get(&Symbol::of(n)) {
                    if Arc::ptr_eq(r, db_set) {
                        if let Some(rel) = self.db.get(n) {
                            return Ok(rel.first_index());
                        }
                    }
                }
            }
        }
        let cache_at = if self.opts.index && right_is_full {
            self.cache_suffix(right_expr, positive)
        } else {
            None
        };
        let key = (self.memo_key(right_expr), positive, off);
        if cache_at.is_some() {
            for c in self.ctxs.iter().rev() {
                if let Some(idx) = c.indexes.get(&key) {
                    // A cached index is only valid for the set it was
                    // built from; invariance guarantees that.
                    return Ok(idx.clone());
                }
            }
        }
        let built = ColumnIndex::build(
            r.iter().cloned(),
            |v| concat_col(v, off),
            self.opts.interning,
        )
        .map_err(|bad| {
            CoreError::Type(format!(
                "projection out of bounds in join over {bad} (column {off})"
            ))
        })?;
        let built = Arc::new(built);
        meter.record_index_build(built.key_count());
        if let Some(k) = cache_at {
            self.ctxs[k].indexes.insert(key, built.clone());
        }
        Ok(built)
    }
}

/// Can every projection mentioned by the recognized join stay in range on
/// every pair? (Widths are checked against the *minimum* element widths:
/// `required ≤ min_w(l) + min_w(r)` ⇔ no pair can be too narrow.)
fn join_widths_ok(cj: &ChainJoin<'_>, l: &BTreeSet<Value>, r: &BTreeSet<Value>) -> bool {
    let min_l = l.iter().map(concat_width).min().unwrap_or(0);
    let min_r = r.iter().map(concat_width).min().unwrap_or(0);
    let need = cj
        .required_width
        .max(cj.eqs.iter().map(|&(_, j)| j + 1).max().unwrap_or(0));
    need <= min_l + min_r
}

/// Evaluate a non-recursive program (plain `algebra` or `IFP-algebra`)
/// exactly, with the default (fully optimized) strategy. Recursion is
/// rejected — use [`crate::valid_eval::eval_valid`], which computes the
/// valid semantics that recursion requires (Section 3.2: recursive
/// equations may have no initial valid model, so their evaluation must be
/// three-valued).
pub fn eval_exact(
    program: &AlgProgram,
    db: &Database,
    budget: Budget,
) -> Result<BTreeSet<Value>, CoreError> {
    eval_exact_with(program, db, budget, EvalOptions::OPTIMIZED)
}

/// [`eval_exact`] with explicit strategy options (ablation and agreement
/// testing).
pub fn eval_exact_with(
    program: &AlgProgram,
    db: &Database,
    budget: Budget,
    opts: EvalOptions,
) -> Result<BTreeSet<Value>, CoreError> {
    eval_exact_traced(program, db, budget, opts, Trace::Null)
}

/// [`eval_exact_with`] with evaluation telemetry: fixpoint phases,
/// per-round delta sizes and index traffic flow to `trace` (see
/// [`algrec_value::stats`]). With [`Trace::Null`] this is exactly
/// [`eval_exact_with`]. On success the result size is reported as
/// `facts_materialized`; on a budget error the events already emitted
/// show consumption at the point of failure.
pub fn eval_exact_traced(
    program: &AlgProgram,
    db: &Database,
    budget: Budget,
    opts: EvalOptions,
    trace: Trace,
) -> Result<BTreeSet<Value>, CoreError> {
    let inlined = program.inline()?;
    if !inlined.defs.is_empty() {
        return Err(CoreError::Unsupported(format!(
            "program defines recursive constants ({}); exact evaluation is only for the \
             non-recursive algebra / IFP-algebra — use eval_valid for algebra=",
            inlined
                .defs
                .iter()
                .map(|d| d.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    let empty = SetEnv::new();
    let mut meter = budget.meter_traced(trace);
    let mut ev = Evaluator::new(db, opts);
    let out = ev.eval(&inlined.query, &empty, &empty, true, &mut meter)?;
    meter.record_materialized(out.len());
    Ok(Arc::try_unwrap(out).unwrap_or_else(|a| (*a).clone()))
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

    fn db_edges(pairs: &[(i64, i64)]) -> Database {
        Database::new().with(
            "edge",
            Relation::from_pairs(pairs.iter().map(|(a, b)| (i(*a), i(*b)))),
        )
    }

    fn eval(e: AlgExpr, db: &Database) -> BTreeSet<Value> {
        let opt = eval_exact_with(
            &AlgProgram::query(e.clone()),
            db,
            Budget::SMALL,
            EvalOptions::OPTIMIZED,
        )
        .unwrap();
        let base = eval_exact_with(
            &AlgProgram::query(e),
            db,
            Budget::SMALL,
            EvalOptions::BASELINE,
        )
        .unwrap();
        assert_eq!(opt, base, "optimized and baseline evaluation disagree");
        opt
    }

    #[test]
    fn set_operations() {
        let db = Database::new()
            .with("r", Relation::from_values([i(1), i(2)]))
            .with("s", Relation::from_values([i(2), i(3)]));
        let union = eval(AlgExpr::union(AlgExpr::name("r"), AlgExpr::name("s")), &db);
        assert_eq!(union.len(), 3);
        let diff = eval(AlgExpr::diff(AlgExpr::name("r"), AlgExpr::name("s")), &db);
        assert_eq!(diff, [i(1)].into_iter().collect());
        let prod = eval(
            AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
            &db,
        );
        assert_eq!(prod.len(), 4);
        assert!(prod.contains(&Value::pair(i(1), i(2))));
    }

    #[test]
    fn select_and_map() {
        let db = Database::new().with("n", Relation::from_values((0..6).map(i)));
        let evens = eval(
            AlgExpr::select(
                AlgExpr::name("n"),
                FuncExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(FuncExpr::App(
                        FuncOp::Mul,
                        vec![FuncExpr::Lit(i(0)), FuncExpr::Elem],
                    )),
                    Box::new(FuncExpr::Lit(i(0))),
                ),
            ),
            &db,
        );
        assert_eq!(evens.len(), 6); // 0*x = 0 always — selects everything
        let doubled = eval(
            AlgExpr::map(
                AlgExpr::name("n"),
                FuncExpr::App(FuncOp::Mul, vec![FuncExpr::Elem, FuncExpr::Lit(i(2))]),
            ),
            &db,
        );
        assert_eq!(doubled, (0..6).map(|k| i(2 * k)).collect());
    }

    #[test]
    fn ifp_transitive_closure() {
        // TC = IFP_{x. edge ∪ π₀₃(σ₁₌₂(x × edge))}
        let join = AlgExpr::map(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("x"), AlgExpr::name("edge")),
                FuncExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(FuncExpr::proj(1)),
                    Box::new(FuncExpr::proj(2)),
                ),
            ),
            FuncExpr::Tuple(vec![FuncExpr::proj(0), FuncExpr::proj(3)]),
        );
        let tc = AlgExpr::ifp("x", AlgExpr::union(AlgExpr::name("edge"), join));
        let out = eval(tc, &db_edges(&[(1, 2), (2, 3), (3, 4)]));
        assert_eq!(out.len(), 6);
        assert!(out.contains(&Value::pair(i(1), i(4))));
    }

    #[test]
    fn ifp_non_positive_is_inflationary() {
        // IFP_{x. {a} − x}: the Section 4 Example 4 expression. Result {a}.
        let e = AlgExpr::ifp(
            "x",
            AlgExpr::diff(AlgExpr::lit([Value::str("a")]), AlgExpr::name("x")),
        );
        let out = eval(e, &Database::new());
        assert_eq!(out, [Value::str("a")].into_iter().collect());
    }

    #[test]
    fn nonrecursive_defs_inline_and_evaluate() {
        let inter = OpDef::new(
            "inter",
            ["x", "y"],
            AlgExpr::diff(
                AlgExpr::name("x"),
                AlgExpr::diff(AlgExpr::name("x"), AlgExpr::name("y")),
            ),
        );
        let p = AlgProgram::new(
            [inter],
            AlgExpr::Apply("inter".into(), vec![AlgExpr::name("r"), AlgExpr::name("s")]),
        )
        .unwrap();
        let db = Database::new()
            .with("r", Relation::from_values([i(1), i(2), i(3)]))
            .with("s", Relation::from_values([i(2), i(3), i(4)]));
        let out = eval_exact(&p, &db, Budget::SMALL).unwrap();
        assert_eq!(out, [i(2), i(3)].into_iter().collect());
    }

    #[test]
    fn recursion_rejected_by_exact_eval() {
        let p = AlgProgram::new(
            [OpDef::constant(
                "s",
                AlgExpr::diff(AlgExpr::lit([Value::str("a")]), AlgExpr::name("s")),
            )],
            AlgExpr::name("s"),
        )
        .unwrap();
        assert!(matches!(
            eval_exact(&p, &Database::new(), Budget::SMALL),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_name_reported() {
        let err = eval_exact(
            &AlgProgram::query(AlgExpr::name("nope")),
            &Database::new(),
            Budget::SMALL,
        )
        .unwrap_err();
        assert_eq!(err, CoreError::UnknownName("nope".into()));
    }

    #[test]
    fn runaway_ifp_hits_budget() {
        // IFP_{x. {0} ∪ MAP₊₂(x)} generates the even numbers — infinite;
        // the budget must stop it (Section 3.1).
        let e = AlgExpr::ifp(
            "x",
            AlgExpr::union(
                AlgExpr::lit([i(0)]),
                AlgExpr::map(
                    AlgExpr::name("x"),
                    FuncExpr::App(FuncOp::Add, vec![FuncExpr::Elem, FuncExpr::Lit(i(2))]),
                ),
            ),
        );
        for opts in [EvalOptions::OPTIMIZED, EvalOptions::BASELINE] {
            let err = eval_exact_with(
                &AlgProgram::query(e.clone()),
                &Database::new(),
                Budget::new(50, 1_000_000, 64),
                opts,
            );
            assert!(matches!(err, Err(CoreError::Budget(_))));
        }
    }

    #[test]
    fn bounded_even_window_succeeds() {
        // The same even-number generator, windowed by a selection.
        let e = AlgExpr::ifp(
            "x",
            AlgExpr::union(
                AlgExpr::lit([i(0)]),
                AlgExpr::map(
                    AlgExpr::select(
                        AlgExpr::name("x"),
                        FuncExpr::Cmp(
                            CmpOp::Lt,
                            Box::new(FuncExpr::Elem),
                            Box::new(FuncExpr::Lit(i(10))),
                        ),
                    ),
                    FuncExpr::App(FuncOp::Add, vec![FuncExpr::Elem, FuncExpr::Lit(i(2))]),
                ),
            ),
        );
        let out = eval(e, &Database::new());
        assert_eq!(out, (0..=5).map(|k| i(2 * k)).collect());
    }

    #[test]
    fn join_recognition_matches_fallback() {
        // σ_{x.1 = x.2}(r × s) via the join path equals element-wise
        // filtering of the materialized product.
        let db = Database::new()
            .with(
                "r",
                Relation::from_pairs([(i(1), i(2)), (i(3), i(4)), (i(5), i(2))]),
            )
            .with(
                "s",
                Relation::from_pairs([(i(2), i(9)), (i(4), i(8)), (i(7), i(7))]),
            );
        let joined = eval(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
                FuncExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(FuncExpr::proj(1)),
                    Box::new(FuncExpr::proj(2)),
                ),
            ),
            &db,
        );
        // manual expectation
        let mut expect = BTreeSet::new();
        for rv in db.get("r").unwrap().iter() {
            for sv in db.get("s").unwrap().iter() {
                let c = tuple_concat(rv, sv);
                let t = c.as_tuple().unwrap();
                if t[1] == t[2] {
                    expect.insert(c);
                }
            }
        }
        assert_eq!(joined, expect);
        assert_eq!(joined.len(), 3);
    }

    #[test]
    fn join_recognition_left_only_and_right_only_columns() {
        let db = Database::new()
            .with("r", Relation::from_pairs([(i(1), i(1)), (i(1), i(2))]))
            .with("s", Relation::from_pairs([(i(5), i(5)), (i(5), i(6))]));
        // both columns on the left: σ_{x.0 = x.1}
        let left = eval(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
                FuncExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(FuncExpr::proj(0)),
                    Box::new(FuncExpr::proj(1)),
                ),
            ),
            &db,
        );
        assert_eq!(left.len(), 2); // (1,1) × both s rows
                                   // both columns on the right: σ_{x.2 = x.3}
        let right = eval(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
                FuncExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(FuncExpr::proj(2)),
                    Box::new(FuncExpr::proj(3)),
                ),
            ),
            &db,
        );
        assert_eq!(right.len(), 2); // both r rows × (5,5)
    }

    #[test]
    fn join_out_of_range_is_a_type_error_like_fallback() {
        let db = Database::new()
            .with("r", Relation::from_values([i(1)]))
            .with("s", Relation::from_values([i(2)]));
        let q = AlgProgram::query(AlgExpr::select(
            AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
            FuncExpr::Cmp(
                CmpOp::Eq,
                Box::new(FuncExpr::proj(1)),
                Box::new(FuncExpr::proj(5)),
            ),
        ));
        for opts in [EvalOptions::OPTIMIZED, EvalOptions::BASELINE] {
            assert!(matches!(
                eval_exact_with(&q, &db, Budget::SMALL, opts),
                Err(CoreError::Type(_))
            ));
        }
    }

    #[test]
    fn tuple_concat_flattens() {
        assert_eq!(
            tuple_concat(&Value::pair(i(1), i(2)), &i(3)),
            Value::tuple([i(1), i(2), i(3)])
        );
        assert_eq!(
            tuple_concat(&i(1), &Value::pair(i(2), i(3))),
            Value::tuple([i(1), i(2), i(3)])
        );
    }

    #[test]
    fn shadowing_ifp_vars() {
        // ifp(x, {1} ∪ ifp(x, x ∪ {2})) — inner binder shadows outer.
        let inner = AlgExpr::ifp(
            "x",
            AlgExpr::union(AlgExpr::name("x"), AlgExpr::lit([i(2)])),
        );
        let outer = AlgExpr::ifp("x", AlgExpr::union(AlgExpr::lit([i(1)]), inner));
        let out = eval(outer, &Database::new());
        assert_eq!(out, [i(1), i(2)].into_iter().collect());
    }

    // ---- widened join recognition, one test per recognized shape ----

    fn pairs_db() -> Database {
        Database::new()
            .with(
                "r",
                Relation::from_pairs([(i(1), i(2)), (i(2), i(2)), (i(3), i(4))]),
            )
            .with(
                "s",
                Relation::from_pairs([(i(2), i(7)), (i(4), i(7)), (i(4), i(8))]),
            )
    }

    /// Oracle: materialize the product and filter with the given tests in
    /// stages (the unoptimized evaluation order).
    fn staged_oracle(db: &Database, l: &str, r: &str, tests: &[FuncExpr]) -> BTreeSet<Value> {
        let mut cur = BTreeSet::new();
        for x in db.get(l).unwrap().iter() {
            for y in db.get(r).unwrap().iter() {
                cur.insert(tuple_concat(x, y));
            }
        }
        for t in tests {
            cur.retain(|v| t.test(v).unwrap());
        }
        cur
    }

    fn eq(ci: usize, cj: usize) -> FuncExpr {
        FuncExpr::Cmp(
            CmpOp::Eq,
            Box::new(FuncExpr::proj(ci)),
            Box::new(FuncExpr::proj(cj)),
        )
    }

    #[test]
    fn widened_join_conjunctive_test() {
        // σ_{x.1=x.2 ∧ x.1=x.0}(r × s): two equalities in one And.
        let db = pairs_db();
        let test = FuncExpr::And(Box::new(eq(1, 2)), Box::new(eq(1, 0)));
        let got = eval(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
                test.clone(),
            ),
            &db,
        );
        assert_eq!(got, staged_oracle(&db, "r", "s", &[test]));
        assert!(got.contains(&Value::tuple([i(2), i(2), i(2), i(7)])));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn widened_join_equality_plus_residual() {
        // σ_{x.1=x.2 ∧ x.3 < x.1·…}: equality drives the index, the
        // comparison residual filters joined tuples.
        let db = pairs_db();
        let residual = FuncExpr::Cmp(
            CmpOp::Lt,
            Box::new(FuncExpr::proj(0)),
            Box::new(FuncExpr::proj(3)),
        );
        let test = FuncExpr::And(Box::new(eq(1, 2)), Box::new(residual));
        let got = eval(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
                test.clone(),
            ),
            &db,
        );
        assert_eq!(got, staged_oracle(&db, "r", "s", &[test]));
    }

    #[test]
    fn widened_join_select_chain() {
        // σ_{x.0 < x.3}(σ_{x.1=x.2}(r × s)): the chain's stages merge
        // into one indexed join.
        let db = pairs_db();
        let outer = FuncExpr::Cmp(
            CmpOp::Lt,
            Box::new(FuncExpr::proj(0)),
            Box::new(FuncExpr::proj(3)),
        );
        let got = eval(
            AlgExpr::select(
                AlgExpr::select(
                    AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
                    eq(1, 2),
                ),
                outer.clone(),
            ),
            &db,
        );
        assert_eq!(got, staged_oracle(&db, "r", "s", &[eq(1, 2), outer]));
    }

    #[test]
    fn widened_join_nested_product() {
        // σ_{x.3=x.4}((r × r) × s): the left operand is itself a product;
        // the equality straddles the outer boundary and is indexed.
        let db = pairs_db();
        let got = eval(
            AlgExpr::select(
                AlgExpr::product(
                    AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("r")),
                    AlgExpr::name("s"),
                ),
                eq(3, 4),
            ),
            &db,
        );
        // oracle over the 3-way product
        let mut expect = BTreeSet::new();
        for a in db.get("r").unwrap().iter() {
            for b in db.get("r").unwrap().iter() {
                for c in db.get("s").unwrap().iter() {
                    let v = tuple_concat(&tuple_concat(a, b), c);
                    if eq(3, 4).test(&v).unwrap() {
                        expect.insert(v);
                    }
                }
            }
        }
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn select_chain_out_of_range_only_errors_like_staged_fallback() {
        // σ_{x.5=x.0}(σ_{x.0=x.1}(r × s)): x.5 is out of range for every
        // pair, but the *staged* fallback only evaluates the outer test
        // on inner survivors. With no survivors there is no error — the
        // widened path must not introduce one.
        let db = Database::new()
            .with("r", Relation::from_pairs([(i(1), i(2))]))
            .with("s", Relation::from_pairs([(i(3), i(4))]));
        let chain = AlgExpr::select(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
                eq(0, 1), // (1,2,…) never satisfies x.0=x.1 → no survivors
            ),
            eq(5, 0),
        );
        let out = eval(chain, &db);
        assert!(out.is_empty());
        // Same projections in a single conjunction DO error (every
        // conjunct is evaluated on every pair).
        let single = AlgExpr::select(
            AlgExpr::product(AlgExpr::name("r"), AlgExpr::name("s")),
            FuncExpr::And(Box::new(eq(0, 1)), Box::new(eq(5, 0))),
        );
        for opts in [EvalOptions::OPTIMIZED, EvalOptions::BASELINE] {
            assert!(matches!(
                eval_exact_with(&AlgProgram::query(single.clone()), &db, Budget::SMALL, opts),
                Err(CoreError::Type(_))
            ));
        }
    }

    #[test]
    fn delta_ifp_agrees_with_naive_on_non_monotone_body() {
        // IFP body with the variable inside a double subtraction —
        // delta-ineligible, must fall back and agree with baseline.
        let e = AlgExpr::ifp(
            "x",
            AlgExpr::union(
                AlgExpr::lit([i(1)]),
                AlgExpr::diff(
                    AlgExpr::lit([i(2), i(3)]),
                    AlgExpr::diff(AlgExpr::lit([i(3)]), AlgExpr::name("x")),
                ),
            ),
        );
        let out = eval(e, &Database::new());
        assert!(out.contains(&i(1)));
        assert!(out.contains(&i(2)));
    }

    #[test]
    fn delta_ifp_tc_agrees_with_baseline_on_longer_chain() {
        // A 12-node chain: the semi-naive loop must produce exactly the
        // same closure as the naive loop (checked inside `eval`).
        let edges: Vec<(i64, i64)> = (1..12).map(|k| (k, k + 1)).collect();
        let join = AlgExpr::map(
            AlgExpr::select(
                AlgExpr::product(AlgExpr::name("x"), AlgExpr::name("edge")),
                eq(1, 2),
            ),
            FuncExpr::Tuple(vec![FuncExpr::proj(0), FuncExpr::proj(3)]),
        );
        let tc = AlgExpr::ifp("x", AlgExpr::union(AlgExpr::name("edge"), join));
        let out = eval(tc, &db_edges(&edges));
        assert_eq!(out.len(), 11 * 12 / 2);
        assert!(out.contains(&Value::pair(i(1), i(12))));
    }
}
