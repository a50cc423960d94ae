//! Theorem 6.2 as the planner: `algebra=` programs over flat relations
//! run as deduction.
//!
//! The paper's main result is that `algebra=` under the valid semantics
//! and safe deduction define the same queries. [`plan`] uses it as an
//! evaluation strategy: it maps an algebra program, together with the
//! shapes of the relations it reads, to a *column-typed* deductive
//! [`Program`], or reports the program outside the class below. Served
//! algebra views then run on the same two maintainers as datalog views
//! (stratum-by-stratum or alternating, whichever `plan_datalog` picks),
//! and `algrec alg` on the cold datalog evaluator. Outside the class
//! both keep `algrec_core::eval_valid`.
//!
//! # The translation
//!
//! Every set whose members share one [`Shape`] becomes a predicate with
//! one column per tuple component — not Proposition 5.4's unary
//! predicate over whole tuple values, whose products and projections go
//! through value-building function terms. A sub-expression translates
//! to a union of conjunctive bodies, each with one output term per
//! column:
//!
//! * a product conjoins the bodies of its two sides;
//! * `select(…, x.i = x.j)` unifies two columns; any other comparison
//!   becomes a `Literal::Cmp`; or/not go to disjunctive normal form, one
//!   body per disjunct;
//! * a projecting `map` just rewrites the output terms;
//! * `R − S` negates a predicate holding `S` — **guarded**: its rules
//!   conjoin `R`'s body first, so `S` is only derived inside `R`. For WIN
//!   that keeps `π₁(MOVE) × WIN` (quadratic) down to its part inside
//!   MOVE.
//!
//! # The class
//!
//! All of these must hold, or the program stays on the recompute path:
//!
//! * every relation read exists, and its members are scalars or tuples
//!   of non-tuples, all of one width (`{[]}` is width 0, the identity of
//!   `*`); a relation read while empty is planned as [`Shape::Empty`];
//! * both sides of every union and difference have one shape, and every
//!   projection is in range;
//! * a `map` builds its result only from the element, projections,
//!   literals and tuples of these; a `select` test is a boolean
//!   combination of comparisons over those;
//! * no IFP after inlining (Corollary 3.6 makes it redundant);
//! * no recursive constant under two nested difference right-hand sides;
//! * no recursive constant in the minuend of a difference: the guard
//!   reads the minuend inside a negation, which is only sound when the
//!   minuend is two-valued.
//!
//! The last two are where answers would change. `def s = a − (b − s)`
//! over `a = {1, 2}`, `b = {2, 3}` is `{1}` in the algebra, while a
//! predicate for `b − s` leaves `s(2)` unknown under the valid
//! semantics. And guarding a three-valued minuend (`r = {a} − r`, then
//! `r − {a}`) turns a false member into an unknown one.
//!
//! The planner lives in `algrec-serve` because this crate already
//! depends on both `algrec-core` and `algrec-datalog`; a new edge to
//! `algrec-translate` would change the benchmark's lock file.

use crate::session::{plan_datalog, ServeError, StrategyPin};
use algrec_core::{AlgExpr, AlgProgram, CmpOp, FuncExpr, ValidAlgebraResult};
use algrec_datalog::ast::{Atom, CmpOp as DCmp, Expr, Literal, Program, Rule};
use algrec_datalog::interp::{FactSet, Interp};
use algrec_datalog::{evaluate_traced, Semantics};
use algrec_value::{Budget, Database, DatabaseDelta, Meter, Trace, TvSet, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What every member of a set looks like: the columns of the predicate
/// that holds it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Empty on every database (`{}`, and what only such sets feed); it
    /// joins with every other shape.
    Empty,
    /// Non-tuple values, one column.
    Scalar,
    /// `k`-tuples of non-tuples, `k` columns.
    Tuple(usize),
}

impl Shape {
    /// The shape of one member; `None` for a tuple with a tuple component.
    pub fn of(v: &Value) -> Option<Shape> {
        match v {
            Value::Tuple(items) if items.iter().any(|x| matches!(x, Value::Tuple(_))) => None,
            Value::Tuple(items) => Some(Shape::Tuple(items.len())),
            _ => Some(Shape::Scalar),
        }
    }

    fn width(self) -> usize {
        match self {
            Shape::Empty => 0,
            Shape::Scalar => 1,
            Shape::Tuple(k) => k,
        }
    }

    /// The least shape covering both, `None` if they conflict.
    fn join(self, other: Shape) -> Option<Shape> {
        match (self, other) {
            (Shape::Empty, s) | (s, Shape::Empty) => Some(s),
            (a, b) => (a == b).then_some(a),
        }
    }

    /// The member one fact of this shape's predicate stands for.
    fn member(self, args: &[Value]) -> Value {
        match self {
            Shape::Scalar => args[0].clone(),
            _ => Value::Tuple(args.to_vec()),
        }
    }
}

/// The predicate holding the query, unless it names a recursive
/// constant. The translation's own predicates are `$1`, `$2`, …, and a
/// constant's is `$` before its name, which never starts with a digit.
const QUERY: &str = "$0";

/// The predicate holding a recursive constant. No relation name a parser
/// accepts starts with `$`.
fn constant_pred(name: &str) -> String {
    format!("${name}")
}

/// One set of the answer: the predicate holding it and its shape.
#[derive(Debug)]
struct Output {
    pred: String,
    shape: Shape,
}

/// An in-class program's translation and the shapes it was planned for.
#[derive(Debug)]
pub struct Plan {
    /// The column-typed deductive program.
    pub program: Arc<Program>,
    /// Every relation the program reads, with its planned shape.
    reads: BTreeMap<String, Shape>,
    query: Output,
    /// Each recursive constant by name.
    constants: Vec<(String, Output)>,
}

impl Plan {
    /// Does the program read any of these relations?
    pub fn reads_any(&self, names: &BTreeSet<String>) -> bool {
        self.reads.keys().any(|name| names.contains(name))
    }

    /// Does every member `delta` inserts into a relation read have its
    /// planned shape? O(delta); removals cannot break a shape.
    pub fn admits(&self, delta: &DatabaseDelta) -> bool {
        delta
            .iter()
            .all(|(name, change)| match self.reads.get(name) {
                Some(&shape) => change.added().iter().all(|v| Shape::of(v) == Some(shape)),
                None => true,
            })
    }

    /// The part of `delta` on relations the program reads.
    pub fn restrict(&self, delta: &DatabaseDelta) -> DatabaseDelta {
        let mut out = DatabaseDelta::new();
        for (name, change) in delta.iter() {
            if self.reads.contains_key(name) {
                for v in change.added() {
                    out.insert(name, v.clone());
                }
                for v in change.removed() {
                    out.remove(name, v.clone());
                }
            }
        }
        out
    }

    /// The relations the program reads: the database its maintainer
    /// starts from.
    pub fn database(&self, db: &Database) -> Database {
        let mut out = Database::new();
        for name in self.reads.keys() {
            if let Some(rel) = db.get(name) {
                out.set(name.clone(), rel.clone());
            }
        }
        out
    }

    fn outputs(&self) -> impl Iterator<Item = &Output> {
        std::iter::once(&self.query).chain(self.constants.iter().map(|(_, o)| o))
    }

    /// The fact sets of `(certain, possible)` the answer is read from.
    /// Captured at one publish and again at the next, the two compare
    /// equal by pointer unless maintenance touched a set in between (a
    /// mutation un-shares it first), and by content only then.
    pub(crate) fn answer_sets(
        &self,
        (certain, possible): (&Interp, &Interp),
    ) -> Vec<Option<FactSet>> {
        self.outputs()
            .flat_map(|o| [certain.fact_set(&o.pred), possible.fact_set(&o.pred)])
            .map(Option::<&FactSet>::cloned)
            .collect()
    }

    /// Read the answer off a model of the program: `certain` holds the
    /// true facts, `possible` the true and unknown ones — one
    /// interpretation twice for a two-valued model. No algebra
    /// alternation ran, so `outer_rounds` is 0.
    pub fn answer(&self, (certain, possible): (&Interp, &Interp)) -> ValidAlgebraResult {
        let set = |o: &Output| {
            let lower: BTreeSet<Value> =
                certain.facts(&o.pred).map(|a| o.shape.member(a)).collect();
            if std::ptr::eq(certain, possible) {
                return TvSet::exact(lower);
            }
            let mut upper: BTreeSet<Value> =
                possible.facts(&o.pred).map(|a| o.shape.member(a)).collect();
            upper.extend(lower.iter().cloned());
            TvSet::from_bounds(lower, upper).expect("lower ⊆ upper by construction")
        };
        ValidAlgebraResult {
            query: set(&self.query),
            constants: self
                .constants
                .iter()
                .map(|(name, o)| (name.clone(), set(o)))
                .collect(),
            outer_rounds: 0,
        }
    }

    /// Evaluate cold on the datalog evaluator, under the semantics of the
    /// maintainer a served view of the translation runs: stratified or
    /// valid.
    pub fn evaluate(
        &self,
        db: &Database,
        budget: Budget,
        trace: Trace,
    ) -> Result<ValidAlgebraResult, ServeError> {
        let semantics = match plan_datalog(&self.program, Semantics::Valid, StrategyPin::Auto)? {
            "stratified-incremental" => Semantics::Stratified,
            _ => Semantics::Valid,
        };
        let out = evaluate_traced(&self.program, &self.database(db), semantics, budget, trace)?;
        Ok(self.answer((&out.model.certain, &out.model.possible)))
    }
}

/// How an algebra program runs on one database.
pub enum Route {
    /// In the class: its translation, for the caller to evaluate or
    /// maintain.
    Planned(Plan),
    /// Outside it: `algrec_core`'s answer.
    Evaluated(ValidAlgebraResult),
}

/// Plan `program` for `db`, or evaluate it with `algrec_core`, charged
/// to `meter`, when it is outside the class — how a served view is
/// materialized; [`eval_valid`] takes the same two roads.
pub fn route(program: &AlgProgram, db: &Database, meter: &mut Meter) -> Result<Route, ServeError> {
    Ok(match plan(program, db) {
        Some(plan) => Route::Planned(plan),
        None => Route::Evaluated(algrec_core::eval_valid_metered(
            program,
            db,
            algrec_core::EvalOptions::OPTIMIZED,
            meter,
        )?),
    })
}

/// Evaluate an algebra program under the valid semantics: through its
/// translation when [`plan`] accepts it, else by `algrec_core`.
pub fn eval_valid(
    program: &AlgProgram,
    db: &Database,
    budget: Budget,
    trace: Trace,
) -> Result<ValidAlgebraResult, ServeError> {
    match plan(program, db) {
        Some(plan) => plan.evaluate(db, budget, trace),
        None => Ok(algrec_core::eval_valid_traced(
            program,
            db,
            budget,
            algrec_core::EvalOptions::OPTIMIZED,
            trace,
        )?),
    }
}

/// The plan of what [`eval_valid`] runs: the translated program's for an
/// in-class program, `algrec_core`'s otherwise.
pub fn explain(program: &AlgProgram, db: &Database) -> Result<String, ServeError> {
    match plan(program, db) {
        Some(plan) => Ok(algrec_datalog::explain_program(
            &plan.program,
            &plan.database(db),
            None,
        )?),
        None => Ok(algrec_core::explain_program(program, db)),
    }
}

/// Translate `program` for the relations of `db`, or `None` when it is
/// outside the class (see the module docs).
pub fn plan(program: &AlgProgram, db: &Database) -> Option<Plan> {
    let inlined = program.inline().ok()?;
    let names: BTreeSet<&str> = inlined.defs.iter().map(|d| d.name.as_str()).collect();
    // A name a program built without the parser may hold, whose
    // predicate would be one of the translation's own.
    if names
        .iter()
        .any(|n| n.starts_with(|c: char| c.is_ascii_digit()))
    {
        return None;
    }
    let bodies = inlined.defs.iter().map(|d| &d.body);
    if !bodies.chain([&inlined.query]).all(|e| placed(e, &names, 0)) {
        return None;
    }
    let mut t = Translator {
        db,
        reads: BTreeMap::new(),
        constants: names
            .iter()
            .map(|n| (n.to_string(), Shape::Empty))
            .collect(),
        rules: Vec::new(),
        vars: 0,
        preds: 0,
    };
    // A constant's shape is its body's, which may read the constant: grow
    // the shapes from `Empty` until a pass changes none. Each constant
    // changes at most once, so this ends.
    let bodies = loop {
        t.rules.clear();
        t.vars = 0;
        t.preds = 0;
        let mut bodies = Vec::new();
        let mut changed = false;
        for d in &inlined.defs {
            let (shape, branches) = t.set(&d.body)?;
            let was = t.constants[&d.name];
            let now = was.join(shape)?;
            changed |= now != was;
            t.constants.insert(d.name.clone(), now);
            bodies.push(branches);
        }
        if !changed {
            break bodies;
        }
    };
    for (d, branches) in inlined.defs.iter().zip(bodies) {
        t.define(&constant_pred(&d.name), branches);
    }
    let (pred, shape) = match &inlined.query {
        AlgExpr::Name(n) if names.contains(n.as_str()) => (constant_pred(n), t.constants[n]),
        query => {
            let (shape, branches) = t.set(query)?;
            t.define(QUERY, branches);
            (QUERY.to_string(), shape)
        }
    };
    let constants = inlined.defs.iter().map(|d| {
        let output = Output {
            pred: constant_pred(&d.name),
            shape: t.constants[&d.name],
        };
        (d.name.clone(), output)
    });
    Some(Plan {
        constants: constants.collect(),
        program: Arc::new(Program::from_rules(t.rules)),
        reads: t.reads,
        query: Output { pred, shape },
    })
}

/// Where recursive constants may occur: never in a minuend, never under
/// two nested subtrahends (`under` counts the subtrahends around `e`).
fn placed(e: &AlgExpr, constants: &BTreeSet<&str>, under: usize) -> bool {
    match e {
        AlgExpr::Name(n) => under < 2 || !constants.contains(n.as_str()),
        AlgExpr::Lit(_) => true,
        AlgExpr::Union(a, b) | AlgExpr::Product(a, b) => {
            placed(a, constants, under) && placed(b, constants, under)
        }
        AlgExpr::Select(a, _) | AlgExpr::Map(a, _) => placed(a, constants, under),
        AlgExpr::Diff(a, b) => {
            a.names().is_disjoint(constants)
                && placed(a, constants, under)
                && placed(b, constants, under + 1)
        }
        AlgExpr::Ifp { .. } | AlgExpr::Apply(..) => false,
    }
}

/// One conjunctive body of a set: it derives the member whose columns
/// are `out` wherever `body` holds.
#[derive(Clone)]
struct Branch {
    body: Vec<Literal>,
    /// One term per column: a variable the body binds, or a non-tuple
    /// literal.
    out: Vec<Expr>,
}

impl Branch {
    /// Replace the variable `var` by `by` everywhere.
    fn subst(&mut self, var: &str, by: &Expr) {
        for lit in &mut self.body {
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => {
                    a.args.iter_mut().for_each(|e| subst(e, var, by))
                }
                Literal::Cmp(_, l, r) => {
                    subst(l, var, by);
                    subst(r, var, by);
                }
            }
        }
        self.out.iter_mut().for_each(|e| subst(e, var, by));
    }

    /// Conjoin the equations `pairs` by substitution; `false` when they
    /// cannot hold. Variables stand for columns, which hold non-tuples.
    fn equate(&mut self, mut pairs: Vec<(Expr, Expr)>) -> bool {
        while let Some(pair) = pairs.pop() {
            match pair {
                (Expr::Var(x), Expr::Var(y)) if x == y => {}
                (Expr::Var(x), t) | (t, Expr::Var(x)) => {
                    if matches!(t, Expr::Tuple(_) | Expr::Lit(Value::Tuple(_))) {
                        return false;
                    }
                    self.subst(&x, &t);
                    for (a, b) in &mut pairs {
                        subst(a, &x, &t);
                        subst(b, &x, &t);
                    }
                }
                (Expr::Tuple(a), Expr::Tuple(b)) if a.len() == b.len() => {
                    pairs.extend(a.into_iter().zip(b));
                }
                (Expr::Tuple(a), Expr::Lit(Value::Tuple(b)))
                | (Expr::Lit(Value::Tuple(b)), Expr::Tuple(a))
                    if a.len() == b.len() =>
                {
                    pairs.extend(a.into_iter().zip(b.into_iter().map(Expr::Lit)));
                }
                (Expr::Lit(a), Expr::Lit(b)) if a == b => {}
                _ => return false,
            }
        }
        true
    }
}

fn subst(e: &mut Expr, var: &str, by: &Expr) {
    match e {
        Expr::Var(v) if v == var => *e = by.clone(),
        Expr::Tuple(items) | Expr::App(_, items) => {
            items.iter_mut().for_each(|x| subst(x, var, by))
        }
        _ => {}
    }
}

/// The value of a variable-free term.
fn ground(e: &Expr) -> Option<Value> {
    match e {
        Expr::Lit(v) => Some(v.clone()),
        Expr::Tuple(items) => items
            .iter()
            .map(ground)
            .collect::<Option<_>>()
            .map(Value::Tuple),
        _ => None,
    }
}

/// The term an element function computes from the element `x`: `None`
/// when it uses anything but the element, projections in range, literals
/// and tuples.
fn term(f: &FuncExpr, x: &Expr) -> Option<Expr> {
    match f {
        FuncExpr::Elem => Some(x.clone()),
        FuncExpr::Lit(v) => Some(Expr::Lit(v.clone())),
        FuncExpr::Tuple(items) => items
            .iter()
            .map(|f| term(f, x))
            .collect::<Option<_>>()
            .map(Expr::Tuple),
        FuncExpr::Proj(e, i) => match term(e, x)? {
            Expr::Tuple(items) => items.get(*i).cloned(),
            Expr::Lit(Value::Tuple(items)) => items.get(*i).cloned().map(Expr::Lit),
            _ => None,
        },
        _ => None,
    }
}

/// A member term as the shape and columns of a set: `None` for a tuple
/// with a tuple component.
fn columns(t: Expr) -> Option<(Shape, Vec<Expr>)> {
    let scalar = |e: &Expr| match e {
        Expr::Var(_) => true,
        Expr::Lit(v) => !matches!(v, Value::Tuple(_)),
        _ => false,
    };
    match t {
        Expr::Tuple(items) => items
            .iter()
            .all(scalar)
            .then_some((Shape::Tuple(items.len()), items)),
        Expr::Lit(Value::Tuple(items)) => {
            let shape = Shape::of(&Value::Tuple(items.clone()))?;
            Some((shape, items.into_iter().map(Expr::Lit).collect()))
        }
        t => scalar(&t).then(|| (Shape::Scalar, vec![t])),
    }
}

fn dcmp(op: CmpOp) -> DCmp {
    match op {
        CmpOp::Eq => DCmp::Eq,
        CmpOp::Ne => DCmp::Ne,
        CmpOp::Lt => DCmp::Lt,
        CmpOp::Le => DCmp::Le,
        CmpOp::Gt => DCmp::Gt,
        CmpOp::Ge => DCmp::Ge,
    }
}

struct Translator<'a> {
    db: &'a Database,
    reads: BTreeMap<String, Shape>,
    /// Each recursive constant's shape so far.
    constants: BTreeMap<String, Shape>,
    rules: Vec<Rule>,
    vars: usize,
    preds: usize,
}

impl Translator<'_> {
    fn fresh_vars(&mut self, n: usize) -> Vec<Expr> {
        (0..n)
            .map(|_| {
                self.vars += 1;
                Expr::var(format!("V{}", self.vars))
            })
            .collect()
    }

    /// A predicate name of the translation's own (`$1`, `$2`, …).
    fn fresh_pred(&mut self) -> String {
        self.preds += 1;
        format!("${}", self.preds)
    }

    /// One branch reading all of predicate `pred`.
    fn atom(&mut self, pred: &str, shape: Shape) -> Branch {
        let out = self.fresh_vars(shape.width());
        Branch {
            body: vec![Literal::Pos(Atom::new(pred, out.clone()))],
            out,
        }
    }

    /// Rules deriving `pred` from each branch.
    fn define(&mut self, pred: &str, branches: Vec<Branch>) {
        for mut b in branches {
            prune(&mut b.body, &b.out, 0);
            self.rules.push(Rule::new(Atom::new(pred, b.out), b.body));
        }
    }

    /// A fresh predicate holding the union of `branches`, read as one
    /// branch.
    fn materialize(&mut self, branches: Vec<Branch>, shape: Shape) -> Branch {
        let pred = self.fresh_pred();
        self.define(&pred, branches);
        self.atom(&pred, shape)
    }

    /// A relation's shape, read off its members the first time.
    fn relation(&mut self, name: &str) -> Option<Shape> {
        if let Some(&shape) = self.reads.get(name) {
            return Some(shape);
        }
        if name.starts_with('$') {
            return None;
        }
        let mut shape = Shape::Empty;
        for v in self.db.get(name)?.iter() {
            let s = Shape::of(v)?;
            if shape != Shape::Empty && s != shape {
                return None;
            }
            shape = s;
        }
        self.reads.insert(name.to_string(), shape);
        Some(shape)
    }

    /// Translate one set expression: its shape and its branches.
    fn set(&mut self, e: &AlgExpr) -> Option<(Shape, Vec<Branch>)> {
        match e {
            AlgExpr::Name(n) => {
                let (pred, shape) = match self.constants.get(n) {
                    Some(&shape) => (constant_pred(n), shape),
                    None => (n.clone(), self.relation(n)?),
                };
                if shape == Shape::Empty {
                    return Some((shape, Vec::new()));
                }
                Some((shape, vec![self.atom(&pred, shape)]))
            }
            AlgExpr::Lit(items) => {
                let mut shape = Shape::Empty;
                let mut branches = Vec::new();
                for v in items {
                    shape = shape.join(Shape::of(v)?)?;
                    let out = match v {
                        Value::Tuple(cols) => cols.iter().cloned().map(Expr::Lit).collect(),
                        v => vec![Expr::Lit(v.clone())],
                    };
                    branches.push(Branch {
                        body: Vec::new(),
                        out,
                    });
                }
                Some((shape, branches))
            }
            AlgExpr::Union(a, b) => {
                let (sa, mut ba) = self.set(a)?;
                let (sb, bb) = self.set(b)?;
                ba.extend(bb);
                Some((sa.join(sb)?, ba))
            }
            AlgExpr::Product(a, b) => {
                let (sa, ba) = self.set(a)?;
                let (sb, bb) = self.set(b)?;
                if sa == Shape::Empty || sb == Shape::Empty {
                    return Some((Shape::Empty, Vec::new()));
                }
                let mut branches = Vec::new();
                for x in &ba {
                    for y in &bb {
                        branches.push(Branch {
                            body: x.body.iter().chain(&y.body).cloned().collect(),
                            out: x.out.iter().chain(&y.out).cloned().collect(),
                        });
                    }
                }
                Some((Shape::Tuple(sa.width() + sb.width()), branches))
            }
            AlgExpr::Select(a, test) => {
                let (shape, ba) = self.set(a)?;
                if shape == Shape::Empty {
                    return Some((shape, ba));
                }
                let disjuncts = test.dnf().ok()?;
                let mut branches = Vec::new();
                for b in &ba {
                    'disjunct: for conj in &disjuncts {
                        let mut b = b.clone();
                        for (op, l, r) in conj {
                            let x = element(&b, shape);
                            let (l, r) = (term(l, &x)?, term(r, &x)?);
                            let holds = match (op, ground(&l), ground(&r)) {
                                (CmpOp::Eq, _, _) => b.equate(vec![(l, r)]),
                                (op, Some(l), Some(r)) => op.eval(&l, &r),
                                (op, _, _) => {
                                    b.body.push(Literal::Cmp(dcmp(*op), l, r));
                                    true
                                }
                            };
                            if !holds {
                                continue 'disjunct;
                            }
                        }
                        branches.push(b);
                    }
                }
                Some((shape, branches))
            }
            AlgExpr::Map(a, f) => {
                let (shape, ba) = self.set(a)?;
                if shape == Shape::Empty {
                    return Some((shape, ba));
                }
                let mut out_shape = Shape::Empty;
                let mut branches = Vec::new();
                for b in ba {
                    let (s, out) = columns(term(f, &element(&b, shape))?)?;
                    out_shape = out_shape.join(s)?;
                    branches.push(Branch { body: b.body, out });
                }
                Some((out_shape, branches))
            }
            AlgExpr::Diff(a, b) => {
                let (shape, minuend) = self.set(a)?;
                let (sb, subtrahend) = self.set(b)?;
                shape.join(sb)?;
                if shape == Shape::Empty || sb == Shape::Empty {
                    return Some((shape, minuend));
                }
                let inlined = minuend.iter().map(|m| inline_negation(m, &subtrahend));
                if let Some(branches) = inlined.collect::<Option<Vec<_>>>() {
                    return Some((shape, branches));
                }
                let mut m = match minuend.len() {
                    1 => minuend.into_iter().next().expect("one branch"),
                    _ => self.materialize(minuend, shape),
                };
                let pred = self.guarded(&m, subtrahend);
                m.body.push(Literal::Neg(Atom::new(pred, m.out.clone())));
                Some((shape, vec![m]))
            }
            AlgExpr::Ifp { .. } | AlgExpr::Apply(..) => None,
        }
    }

    /// A predicate holding the part of `subtrahend` inside `minuend`:
    /// each rule conjoins the minuend's body, then the subtrahend's.
    fn guarded(&mut self, minuend: &Branch, subtrahend: Vec<Branch>) -> String {
        let pred = self.fresh_pred();
        let mut within = Vec::new();
        for s in subtrahend {
            let mut rule = Branch {
                body: minuend.body.iter().chain(&s.body).cloned().collect(),
                out: s.out.clone(),
            };
            let pairs = minuend.out.iter().cloned().zip(s.out).collect();
            if rule.equate(pairs) {
                within.push(rule);
            }
        }
        self.define(&pred, within);
        pred
    }
}

/// The element `x` of a branch as a term.
fn element(b: &Branch, shape: Shape) -> Expr {
    match shape {
        Shape::Scalar => b.out[0].clone(),
        _ => Expr::Tuple(b.out.clone()),
    }
}

/// `m` minus a subtrahend that, inside `m`, comes down to one atom over
/// `m`'s variables: `m` with that atom negated, and no predicate for the
/// subtrahend. WIN's `move − (π₁(move) × win)` becomes
/// `move(X, Y), not win(Y)`, without a guarded predicate the maintainer
/// would carry through every pass (DESIGN §5 has the measurement).
fn inline_negation(m: &Branch, subtrahend: &[Branch]) -> Option<Branch> {
    let [s] = subtrahend else { return None };
    let mut s = s.clone();
    let mut bound = BTreeSet::new();
    for lit in &m.body {
        bound.extend(lit.vars().into_iter().map(str::to_string));
    }
    // Map the subtrahend's columns onto `m`'s, substituting only the
    // subtrahend's own variables (`m` itself must not narrow).
    for (i, by) in m.out.iter().enumerate() {
        match s.out[i].clone() {
            Expr::Var(v) if !bound.contains(&v) => s.subst(&v, by),
            col if col == *by => {}
            _ => return None,
        }
    }
    let mut body: Vec<Literal> = m.body.iter().chain(&s.body).cloned().collect();
    prune(&mut body, &m.out, m.body.len());
    match &body[m.body.len()..] {
        [Literal::Pos(atom)] if atom.vars().iter().all(|v| bound.contains(*v)) => {
            let atom = atom.clone();
            body.truncate(m.body.len());
            body.push(Literal::Neg(atom));
            Some(Branch {
                body,
                out: m.out.clone(),
            })
        }
        _ => None,
    }
}

/// Drop from `body[from..]` every positive atom another atom of the body
/// implies: one that agrees with it everywhere except where it holds a
/// variable occurring nowhere else in the rule (`move(X, B)` beside
/// `move(X, Y)`). `head` holds the rule's other terms.
fn prune(body: &mut Vec<Literal>, head: &[Expr], from: usize) {
    fn count(e: &Expr, v: &str) -> usize {
        match e {
            Expr::Var(w) => usize::from(w == v),
            Expr::Tuple(items) | Expr::App(_, items) => items.iter().map(|x| count(x, v)).sum(),
            Expr::Lit(_) => 0,
        }
    }
    let occurrences = |body: &[Literal], v: &str| -> usize {
        let terms = body.iter().flat_map(|lit| match lit {
            Literal::Pos(a) | Literal::Neg(a) => a.args.iter().collect::<Vec<_>>(),
            Literal::Cmp(_, l, r) => vec![l, r],
        });
        terms.chain(head).map(|e| count(e, v)).sum()
    };
    let mut i = from;
    while i < body.len() {
        let implied = match &body[i] {
            Literal::Pos(a) => body.iter().enumerate().any(|(j, lit)| match lit {
                Literal::Pos(b) if j != i && b.pred == a.pred && b.args.len() == a.args.len() => {
                    a.args.iter().zip(&b.args).all(|(x, y)| {
                        x == y || matches!(x, Expr::Var(v) if occurrences(body, v) == 1)
                    })
                }
                _ => false,
            }),
            _ => false,
        };
        if implied {
            body.remove(i);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_datalog::load_facts;

    fn db(facts: &str) -> Database {
        let mut db = Database::new();
        load_facts(&mut db, facts).unwrap();
        db
    }

    fn parse(src: &str) -> AlgProgram {
        algrec_core::parser::parse_program(src).unwrap()
    }

    const FACTS: &str = "e(1, 1). e(1, 2). e(2, 3). e(3, 1). e(3, 4). n(1). n(2). n(5). \
                         move(1, 2). move(2, 3). move(3, 1). move(3, 4). move(5, 5). \
                         a(1). a(2). b(2). b(3). d(1). d(2). u().";

    #[test]
    fn differences_run_as_guarded_deduction() {
        let win = plan(
            &parse("def win = map(move - (map(move, x.0) * win), x.0); query win;"),
            &db(FACTS),
        )
        .unwrap();
        // The subtrahend comes down to one atom inside the guard, so the
        // translation is the textbook rule.
        assert_eq!(
            win.program.to_string(),
            "$win(V1) :- move(V1, V2), not $win(V2).\n"
        );
        // One that does not gets a predicate, derived only inside the
        // minuend: its rules conjoin the minuend's atom first.
        let swapped = plan(
            &parse("query e - map(select(e, x.0 = 1), [x.1, x.0]);"),
            &db(FACTS),
        )
        .unwrap();
        assert_eq!(
            swapped.program.to_string(),
            "$1(V4, 1) :- e(V4, 1), e(1, V4).\n\
             $0(V1, V2) :- e(V1, V2), not $1(V1, V2).\n"
        );
    }

    /// Every program answers exactly like `algrec_core`, errors included,
    /// whichever side of the class it is on.
    #[test]
    fn answers_equal_core_in_and_out_of_class() {
        let inside = [
            "def win = map(move - (map(move, x.0) * win), x.0); query win;",
            "def p$tc = (map(({[]} * e), [x.0, x.1]) union \
             map(select((({[]} * p$tc) * e), x.2 = x.1), [x.0, x.3])); query p$tc;",
            "def s = {'a'} - s; query s;",
            "def s = s; query s;",
            "def p = d - q; def q = d - p; query p;",
            "def s = {'a'} - s; query d - s;",
            "query select(e, x.0 = x.1 or x.0 < 2);",
            "query select(e, not (x.0 != 2 and x.1 >= 3));",
            "query select(e, x = [1, 2] or x.1 = 4);",
            "query select(e, x.0 = 1 and x.0 = 2);",
            "query map(e * n, [x.2, x.0]);",
            "query e - map(select(e, x.0 = 1), [x.1, x.0]);",
            "query {[1, 2], [3, 4]} union e;",
            "query map(n, [x, x]) - e;",
            "query {} union n;",
            "query n - {};",
            "query map(e, x.0) union n;",
            "query map(n, [x]) * map(n, [x]);",
            "query map({[]} * n, [x.0]);",
            "query u * e;",
            "query map(e, ['k', x.1, 7]);",
            "query a - (b - d);",
            "def s = (n * n) - (map(s, [x.1, x.0]) union (e - {[1, 1]})); query s;",
            // A constant named like the query keeps its own predicate.
            "def query = n union query; query {7};",
        ];
        let outside = [
            "def s = a - (b - s); query s;",
            "def r = {'a'} - r; query r - {'a'};",
            "query ifp(t, e union t);",
            "query map(e, add(x.0, 1));",
            "query map(e, x.5);",
            "query select(n, x.0 = 1);",
            "query missing;",
            "query e union n;",
            "query {[1, [2]]};",
            "query map(e, [x, x.0]);",
            "def s = (n * n) - (e - map(s, [x.1, x.0])); query s;",
        ];
        let db = db(FACTS);
        for (srcs, in_class) in [(&inside[..], true), (&outside[..], false)] {
            for src in srcs {
                let program = parse(src);
                assert_eq!(plan(&program, &db).is_some(), in_class, "{src}");
                // The seed evaluator: in class it checks the translation,
                // out of class the optimized evaluator the route runs.
                let baseline = algrec_core::EvalOptions::BASELINE;
                let core = algrec_core::eval_valid_with(&program, &db, Budget::SMALL, baseline);
                let ours = eval_valid(&program, &db, Budget::SMALL, Trace::Null);
                match (core, ours) {
                    (Ok(core), Ok(ours)) => {
                        assert_eq!(core.query, ours.query, "{src}");
                        assert_eq!(core.constants, ours.constants, "{src}");
                    }
                    (Err(core), Err(ours)) => assert_eq!(core.to_string(), ours.to_string()),
                    (core, ours) => panic!("{src}: core {core:?}, planned {ours:?}"),
                }
            }
        }
    }

    #[test]
    fn relations_must_be_flat_and_single_width() {
        let program = parse("query r;");
        assert!(plan(&program, &db("r(1, 2). r(3, 4).")).is_some());
        assert!(plan(&program, &db("r(1). r(3, 4).")).is_none());
        let nested = Value::pair(Value::pair(Value::int(1), Value::int(2)), Value::int(3));
        let nested = Database::new().with("r", algrec_value::Relation::from_values([nested]));
        assert!(plan(&program, &nested).is_none());
        // Read while empty: planned `Empty`, re-planned at the first insert.
        let mut empty = db("r(1).");
        empty.remove_value("r", &Value::int(1));
        let plan = plan(&program, &empty).unwrap();
        let mut delta = DatabaseDelta::new();
        delta.insert("r", Value::int(1));
        assert!(!plan.admits(&delta));
    }

    #[test]
    fn deltas_are_checked_against_planned_shapes() {
        let plan = plan(&parse("query map(e, x.0) union n;"), &db(FACTS)).unwrap();
        let check = |name: &str, v: Value, insert: bool| {
            let mut delta = DatabaseDelta::new();
            if insert {
                delta.insert(name, v);
            } else {
                delta.remove(name, v);
            }
            plan.admits(&delta)
        };
        let (one, two) = (Value::int(1), Value::int(2));
        assert!(check("e", Value::pair(one.clone(), two.clone()), true));
        assert!(check("n", one.clone(), true));
        assert!(!check("e", one.clone(), true));
        assert!(!check("n", Value::pair(one.clone(), two.clone()), true));
        assert!(!check(
            "e",
            Value::pair(one.clone(), Value::pair(two.clone(), two)),
            true
        ));
        // Removals never break a shape; relations not read are no concern.
        assert!(check("e", one.clone(), false));
        assert!(check("other", one, true));
        let mut delta = DatabaseDelta::new();
        delta.insert("other", Value::int(9));
        assert!(plan.restrict(&delta).is_empty());
    }
}
