//! The algebra expression language.
//!
//! Section 3.1 of the paper fixes the generic operator set
//! `∪ − × σ_test MAP_f IFP_exp` over sets of arbitrary element type, and
//! Section 3.2 adds named operation definitions. [`AlgExpr`] is that
//! language; [`FuncExpr`] is the first-order sublanguage of element-level
//! *restructuring functions* (for `MAP`) and boolean *selection functions*
//! (for `σ`). Functions are fixed operations, not function variables — the
//! paper's framework "is strictly first order" and treats genericity as
//! macro expansion (Section 3.1).

use algrec_value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// Interpreted element-level operations (mirrors the data-type functions
/// the paper allows on the domains).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FuncOp {
    /// Integer successor.
    Succ,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Tuple concatenation with 1-tuple lifting of non-tuples (the value
    /// form of the relational product; used by the deduction-to-algebra
    /// translation of Section 6).
    Concat,
}

impl FuncOp {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            FuncOp::Succ => 1,
            FuncOp::Add | FuncOp::Sub | FuncOp::Mul | FuncOp::Concat => 2,
        }
    }

    /// Apply to values; `None` on type error or overflow.
    pub fn apply(self, args: &[Value]) -> Option<Value> {
        match (self, args) {
            (FuncOp::Succ, [Value::Int(a)]) => Some(Value::Int(a.checked_add(1)?)),
            (FuncOp::Add, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.checked_add(*b)?)),
            (FuncOp::Sub, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.checked_sub(*b)?)),
            (FuncOp::Mul, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.checked_mul(*b)?)),
            (FuncOp::Concat, [a, b]) => {
                let mut items: Vec<Value> = match a {
                    Value::Tuple(t) => t.clone(),
                    other => vec![other.clone()],
                };
                match b {
                    Value::Tuple(t) => items.extend(t.iter().cloned()),
                    other => items.push(other.clone()),
                }
                Some(Value::Tuple(items))
            }
            _ => None,
        }
    }

    /// Printable name.
    pub fn name(self) -> &'static str {
        match self {
            FuncOp::Succ => "succ",
            FuncOp::Add => "add",
            FuncOp::Sub => "sub",
            FuncOp::Mul => "mul",
            FuncOp::Concat => "concat",
        }
    }
}

/// Comparison operators for selection tests.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate on two values (the total order on [`Value`]).
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Printable symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The complementary operator: `not (a op b)` holds exactly when
    /// `a op.negated() b` does (the order on values is total).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
        }
    }
}

/// One disjunct of a selection test in disjunctive normal form: a
/// conjunction of comparisons.
pub type Conjunction = Vec<(CmpOp, FuncExpr, FuncExpr)>;

fn cross(a: Vec<Conjunction>, b: Vec<Conjunction>) -> Vec<Conjunction> {
    let mut out = Vec::new();
    for x in &a {
        for y in &b {
            let mut c = x.clone();
            c.extend(y.iter().cloned());
            out.push(c);
        }
    }
    out
}

fn union(mut a: Vec<Conjunction>, b: Vec<Conjunction>) -> Vec<Conjunction> {
    a.extend(b);
    a
}

/// An element-level expression: a function of the current element `x`
/// (written `x` in concrete syntax). Used as the restructuring function of
/// `MAP` and (with boolean result) as the selection test of `σ`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FuncExpr {
    /// The input element.
    Elem,
    /// A constant value.
    Lit(Value),
    /// Tuple construction.
    Tuple(Vec<FuncExpr>),
    /// Projection `e.i` (0-based) from a tuple.
    Proj(Box<FuncExpr>, usize),
    /// Arithmetic.
    App(FuncOp, Vec<FuncExpr>),
    /// Comparison (boolean result).
    Cmp(CmpOp, Box<FuncExpr>, Box<FuncExpr>),
    /// Conjunction (boolean operands).
    And(Box<FuncExpr>, Box<FuncExpr>),
    /// Disjunction.
    Or(Box<FuncExpr>, Box<FuncExpr>),
    /// Negation of a boolean.
    Not(Box<FuncExpr>),
}

/// A dynamic type error in the element sublanguage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

impl FuncExpr {
    /// Projection helper `x.i`.
    pub fn proj(i: usize) -> Self {
        FuncExpr::Proj(Box::new(FuncExpr::Elem), i)
    }

    /// Evaluate on an element.
    pub fn eval(&self, x: &Value) -> Result<Value, TypeError> {
        match self {
            FuncExpr::Elem => Ok(x.clone()),
            FuncExpr::Lit(v) => Ok(v.clone()),
            FuncExpr::Tuple(items) => Ok(Value::Tuple(
                items.iter().map(|e| e.eval(x)).collect::<Result<_, _>>()?,
            )),
            FuncExpr::Proj(e, i) => {
                let v = e.eval(x)?;
                match v {
                    Value::Tuple(items) => items
                        .get(*i)
                        .cloned()
                        .ok_or_else(|| TypeError(format!("projection .{i} out of bounds"))),
                    other => Err(TypeError(format!("projection .{i} from non-tuple {other}"))),
                }
            }
            FuncExpr::App(op, items) => {
                let args: Vec<Value> = items.iter().map(|e| e.eval(x)).collect::<Result<_, _>>()?;
                op.apply(&args)
                    .ok_or_else(|| TypeError(format!("{}({args:?})", op.name())))
            }
            FuncExpr::Cmp(op, l, r) => Ok(Value::Bool(op.eval(&l.eval(x)?, &r.eval(x)?))),
            FuncExpr::And(l, r) => match (l.eval(x)?, r.eval(x)?) {
                (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a && b)),
                _ => Err(TypeError("`and` on non-booleans".into())),
            },
            FuncExpr::Or(l, r) => match (l.eval(x)?, r.eval(x)?) {
                (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a || b)),
                _ => Err(TypeError("`or` on non-booleans".into())),
            },
            FuncExpr::Not(e) => match e.eval(x)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                _ => Err(TypeError("`not` on a non-boolean".into())),
            },
        }
    }

    /// Evaluate as a selection test (must produce a boolean).
    pub fn test(&self, x: &Value) -> Result<bool, TypeError> {
        match self.eval(x)? {
            Value::Bool(b) => Ok(b),
            other => Err(TypeError(format!(
                "selection test produced non-boolean {other}"
            ))),
        }
    }

    /// This selection test in disjunctive normal form over comparisons,
    /// negations pushed onto the operators: the test holds iff some
    /// conjunction holds. `Err` is the first subterm that is not a
    /// boolean combination of comparisons and boolean literals. Both
    /// algebra-to-deduction translations turn each conjunction into one
    /// rule.
    pub fn dnf(&self) -> Result<Vec<Conjunction>, &FuncExpr> {
        self.dnf_at(true)
    }

    fn dnf_at(&self, positive: bool) -> Result<Vec<Conjunction>, &FuncExpr> {
        match self {
            FuncExpr::Lit(Value::Bool(b)) => Ok(if *b == positive { vec![vec![]] } else { vec![] }),
            FuncExpr::Cmp(op, l, r) => {
                let op = if positive { *op } else { op.negated() };
                Ok(vec![vec![(op, (**l).clone(), (**r).clone())]])
            }
            FuncExpr::And(l, r) if positive => Ok(cross(l.dnf_at(true)?, r.dnf_at(true)?)),
            FuncExpr::And(l, r) => Ok(union(l.dnf_at(false)?, r.dnf_at(false)?)),
            FuncExpr::Or(l, r) if positive => Ok(union(l.dnf_at(true)?, r.dnf_at(true)?)),
            FuncExpr::Or(l, r) => Ok(cross(l.dnf_at(false)?, r.dnf_at(false)?)),
            FuncExpr::Not(e) => e.dnf_at(!positive),
            other => Err(other),
        }
    }
}

impl fmt::Display for FuncExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncExpr::Elem => write!(f, "x"),
            FuncExpr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            FuncExpr::Lit(v) => write!(f, "{v}"),
            FuncExpr::Tuple(items) => {
                write!(f, "[")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            FuncExpr::Proj(e, i) => write!(f, "{e}.{i}"),
            FuncExpr::App(op, items) => {
                write!(f, "{}(", op.name())?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            FuncExpr::Cmp(op, l, r) => write!(f, "{l} {} {r}", op.symbol()),
            FuncExpr::And(l, r) => write!(f, "({l} and {r})"),
            FuncExpr::Or(l, r) => write!(f, "({l} or {r})"),
            FuncExpr::Not(e) => write!(f, "not {e}"),
        }
    }
}

/// An algebra expression (Section 3.1's operators plus Section 3.2's named
/// applications).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AlgExpr {
    /// A named set: a database relation, a defined constant, or — inside
    /// an operation definition — a parameter.
    Name(String),
    /// A set literal `{v₁, …, vₙ}`.
    Lit(BTreeSet<Value>),
    /// Union.
    Union(Box<AlgExpr>, Box<AlgExpr>),
    /// Difference — where negation lives (Section 3.2: "the equation
    /// contains subtraction, hence inversion of T and F for membership").
    Diff(Box<AlgExpr>, Box<AlgExpr>),
    /// Cartesian product (tuple-concatenating, as in the relational
    /// algebra generalization of \[5\]).
    Product(Box<AlgExpr>, Box<AlgExpr>),
    /// Selection `σ_test`.
    Select(Box<AlgExpr>, FuncExpr),
    /// Restructuring `MAP_f`.
    Map(Box<AlgExpr>, FuncExpr),
    /// Inflationary fixed point `IFP_{x. body}`: starting from the empty
    /// set, repeatedly apply `body` to the accumulation and accumulate.
    Ifp {
        /// The fixpoint variable.
        var: String,
        /// The body, over `var`.
        body: Box<AlgExpr>,
    },
    /// Application of a defined operation (Section 3.2).
    Apply(String, Vec<AlgExpr>),
}

impl AlgExpr {
    /// Named-set constructor.
    pub fn name(n: impl Into<String>) -> Self {
        AlgExpr::Name(n.into())
    }

    /// Set-literal constructor.
    pub fn lit(items: impl IntoIterator<Item = Value>) -> Self {
        AlgExpr::Lit(items.into_iter().collect())
    }

    /// Union helper.
    pub fn union(a: AlgExpr, b: AlgExpr) -> Self {
        AlgExpr::Union(Box::new(a), Box::new(b))
    }

    /// Difference helper.
    pub fn diff(a: AlgExpr, b: AlgExpr) -> Self {
        AlgExpr::Diff(Box::new(a), Box::new(b))
    }

    /// Product helper.
    pub fn product(a: AlgExpr, b: AlgExpr) -> Self {
        AlgExpr::Product(Box::new(a), Box::new(b))
    }

    /// Selection helper.
    pub fn select(a: AlgExpr, test: FuncExpr) -> Self {
        AlgExpr::Select(Box::new(a), test)
    }

    /// Map helper.
    pub fn map(a: AlgExpr, f: FuncExpr) -> Self {
        AlgExpr::Map(Box::new(a), f)
    }

    /// IFP helper.
    pub fn ifp(var: impl Into<String>, body: AlgExpr) -> Self {
        AlgExpr::Ifp {
            var: var.into(),
            body: Box::new(body),
        }
    }

    /// All names referenced (relations, constants, parameters, applied
    /// operations), free of IFP binders.
    pub fn names(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_names(&mut Vec::new(), &mut out);
        out
    }

    fn collect_names<'a>(&'a self, bound: &mut Vec<&'a str>, out: &mut BTreeSet<&'a str>) {
        match self {
            AlgExpr::Name(n) => {
                if !bound.contains(&n.as_str()) {
                    out.insert(n);
                }
            }
            AlgExpr::Lit(_) => {}
            AlgExpr::Union(a, b) | AlgExpr::Diff(a, b) | AlgExpr::Product(a, b) => {
                a.collect_names(bound, out);
                b.collect_names(bound, out);
            }
            AlgExpr::Select(a, _) | AlgExpr::Map(a, _) => a.collect_names(bound, out),
            AlgExpr::Ifp { var, body } => {
                bound.push(var);
                body.collect_names(bound, out);
                bound.pop();
            }
            AlgExpr::Apply(name, args) => {
                out.insert(name);
                args.iter().for_each(|a| a.collect_names(bound, out));
            }
        }
    }

    /// Does `name` occur *negatively* (under an odd number of
    /// difference-right-sides)? The positive IFP-algebra of Theorem 4.3 is
    /// the fragment where the fixpoint variable never occurs negatively.
    pub fn occurs_negatively(&self, name: &str) -> bool {
        self.polarity_scan(name, false).1
    }

    /// Does `name` occur positively?
    pub fn occurs_positively(&self, name: &str) -> bool {
        self.polarity_scan(name, false).0
    }

    /// Returns (occurs at even diff-nesting, occurs at odd diff-nesting),
    /// starting from `negated` polarity. Crate-visible: the evaluator's
    /// loop-invariant detection needs polarity-aware occurrence checks
    /// from both polarity starts.
    pub(crate) fn polarity_scan(&self, name: &str, negated: bool) -> (bool, bool) {
        match self {
            AlgExpr::Name(n) => {
                if n == name {
                    (!negated, negated)
                } else {
                    (false, false)
                }
            }
            AlgExpr::Lit(_) => (false, false),
            AlgExpr::Union(a, b) | AlgExpr::Product(a, b) => {
                let (p1, n1) = a.polarity_scan(name, negated);
                let (p2, n2) = b.polarity_scan(name, negated);
                (p1 || p2, n1 || n2)
            }
            AlgExpr::Diff(a, b) => {
                let (p1, n1) = a.polarity_scan(name, negated);
                let (p2, n2) = b.polarity_scan(name, !negated);
                (p1 || p2, n1 || n2)
            }
            AlgExpr::Select(a, _) | AlgExpr::Map(a, _) => a.polarity_scan(name, negated),
            AlgExpr::Ifp { var, body } => {
                if var == name {
                    (false, false)
                } else {
                    body.polarity_scan(name, negated)
                }
            }
            AlgExpr::Apply(_, args) => {
                // Conservative: arguments of an applied operation may be
                // used with either polarity inside its body.
                let mut pos = false;
                let mut neg = false;
                for a in args {
                    let (p1, n1) = a.polarity_scan(name, negated);
                    let (p2, n2) = a.polarity_scan(name, !negated);
                    pos |= p1 || p2;
                    neg |= n1 || n2;
                }
                (pos, neg)
            }
        }
    }

    /// Is this expression in the **positive IFP-algebra** (every IFP body
    /// uses its fixpoint variable only positively — such bodies "are
    /// certainly monotone", Section 4)?
    pub fn is_positive_ifp(&self) -> bool {
        match self {
            AlgExpr::Name(_) | AlgExpr::Lit(_) => true,
            AlgExpr::Union(a, b) | AlgExpr::Diff(a, b) | AlgExpr::Product(a, b) => {
                a.is_positive_ifp() && b.is_positive_ifp()
            }
            AlgExpr::Select(a, _) | AlgExpr::Map(a, _) => a.is_positive_ifp(),
            AlgExpr::Ifp { var, body } => !body.occurs_negatively(var) && body.is_positive_ifp(),
            AlgExpr::Apply(_, args) => args.iter().all(AlgExpr::is_positive_ifp),
        }
    }

    /// Does the expression contain an IFP operator?
    pub fn uses_ifp(&self) -> bool {
        match self {
            AlgExpr::Name(_) | AlgExpr::Lit(_) => false,
            AlgExpr::Union(a, b) | AlgExpr::Diff(a, b) | AlgExpr::Product(a, b) => {
                a.uses_ifp() || b.uses_ifp()
            }
            AlgExpr::Select(a, _) | AlgExpr::Map(a, _) => a.uses_ifp(),
            AlgExpr::Ifp { .. } => true,
            AlgExpr::Apply(_, args) => args.iter().any(AlgExpr::uses_ifp),
        }
    }

    /// Substitute expressions for names (used by definition inlining;
    /// capture is impossible because IFP variables shadow).
    pub fn substitute(&self, map: &std::collections::BTreeMap<String, AlgExpr>) -> AlgExpr {
        match self {
            AlgExpr::Name(n) => map.get(n).cloned().unwrap_or_else(|| self.clone()),
            AlgExpr::Lit(_) => self.clone(),
            AlgExpr::Union(a, b) => AlgExpr::union(a.substitute(map), b.substitute(map)),
            AlgExpr::Diff(a, b) => AlgExpr::diff(a.substitute(map), b.substitute(map)),
            AlgExpr::Product(a, b) => AlgExpr::product(a.substitute(map), b.substitute(map)),
            AlgExpr::Select(a, t) => AlgExpr::select(a.substitute(map), t.clone()),
            AlgExpr::Map(a, f) => AlgExpr::map(a.substitute(map), f.clone()),
            AlgExpr::Ifp { var, body } => {
                let mut inner = map.clone();
                inner.remove(var); // shadowed
                AlgExpr::Ifp {
                    var: var.clone(),
                    body: Box::new(body.substitute(&inner)),
                }
            }
            AlgExpr::Apply(name, args) => AlgExpr::Apply(
                name.clone(),
                args.iter().map(|a| a.substitute(map)).collect(),
            ),
        }
    }
}

impl fmt::Display for AlgExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgExpr::Name(n) => write!(f, "{n}"),
            AlgExpr::Lit(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            AlgExpr::Union(a, b) => write!(f, "({a} union {b})"),
            AlgExpr::Diff(a, b) => write!(f, "({a} - {b})"),
            AlgExpr::Product(a, b) => write!(f, "({a} * {b})"),
            AlgExpr::Select(a, t) => write!(f, "select({a}, {t})"),
            AlgExpr::Map(a, g) => write!(f, "map({a}, {g})"),
            AlgExpr::Ifp { var, body } => write!(f, "ifp({var}, {body})"),
            AlgExpr::Apply(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn funcexpr_eval() {
        let x = Value::pair(i(3), i(4));
        assert_eq!(FuncExpr::Elem.eval(&x).unwrap(), x);
        assert_eq!(FuncExpr::proj(0).eval(&x).unwrap(), i(3));
        assert_eq!(FuncExpr::proj(1).eval(&x).unwrap(), i(4));
        assert!(FuncExpr::proj(2).eval(&x).is_err());
        assert!(FuncExpr::proj(0).eval(&i(1)).is_err());
        let plus2 = FuncExpr::App(FuncOp::Add, vec![FuncExpr::Elem, FuncExpr::Lit(i(2))]);
        assert_eq!(plus2.eval(&i(5)).unwrap(), i(7));
        assert!(plus2.eval(&Value::str("a")).is_err());
    }

    #[test]
    fn funcexpr_tests() {
        let lt5 = FuncExpr::Cmp(
            CmpOp::Lt,
            Box::new(FuncExpr::Elem),
            Box::new(FuncExpr::Lit(i(5))),
        );
        assert!(lt5.test(&i(3)).unwrap());
        assert!(!lt5.test(&i(7)).unwrap());
        let both = FuncExpr::And(
            Box::new(lt5.clone()),
            Box::new(FuncExpr::Cmp(
                CmpOp::Gt,
                Box::new(FuncExpr::Elem),
                Box::new(FuncExpr::Lit(i(0))),
            )),
        );
        assert!(both.test(&i(3)).unwrap());
        assert!(!both.test(&i(-1)).unwrap());
        let neither = FuncExpr::Not(Box::new(both.clone()));
        assert!(neither.test(&i(-1)).unwrap());
        let either = FuncExpr::Or(Box::new(lt5), Box::new(neither.clone()));
        assert!(either.test(&i(3)).unwrap());
        // non-boolean test is an error
        assert!(FuncExpr::Elem.test(&i(3)).is_err());
        assert!(FuncExpr::And(
            Box::new(FuncExpr::Elem),
            Box::new(FuncExpr::Lit(Value::Bool(true)))
        )
        .test(&i(1))
        .is_err());
    }

    #[test]
    fn dnf_pushes_negation_onto_comparisons() {
        let cmp = |op, i| {
            FuncExpr::Cmp(
                op,
                Box::new(FuncExpr::proj(i)),
                Box::new(FuncExpr::Lit(Value::int(1))),
            )
        };
        // not (x.0 = 1 and (x.1 < 1 or false)) = x.0 != 1 or x.1 >= 1
        let test = FuncExpr::Not(Box::new(FuncExpr::And(
            Box::new(cmp(CmpOp::Eq, 0)),
            Box::new(FuncExpr::Or(
                Box::new(cmp(CmpOp::Lt, 1)),
                Box::new(FuncExpr::Lit(Value::Bool(false))),
            )),
        )));
        let dnf = test.dnf().unwrap();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0][0].0, CmpOp::Ne);
        assert_eq!(dnf[1][0].0, CmpOp::Ge);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negated().negated(), op);
            assert_ne!(op.eval(&i(1), &i(2)), op.negated().eval(&i(1), &i(2)));
        }
        assert_eq!(FuncExpr::Elem.dnf(), Err(&FuncExpr::Elem));
    }

    #[test]
    fn names_and_binding() {
        // ifp(x, edge union map(x, x)) references edge only.
        let e = AlgExpr::ifp(
            "x",
            AlgExpr::union(AlgExpr::name("edge"), AlgExpr::name("x")),
        );
        assert_eq!(e.names().into_iter().collect::<Vec<_>>(), vec!["edge"]);
        let open = AlgExpr::diff(AlgExpr::name("a"), AlgExpr::name("b"));
        assert_eq!(open.names().len(), 2);
    }

    #[test]
    fn polarity() {
        // {a} - x : x occurs negatively.
        let e = AlgExpr::diff(AlgExpr::lit([i(1)]), AlgExpr::name("x"));
        assert!(e.occurs_negatively("x"));
        assert!(!e.occurs_positively("x"));
        // x - y: x positive, y negative.
        let e2 = AlgExpr::diff(AlgExpr::name("x"), AlgExpr::name("y"));
        assert!(e2.occurs_positively("x"));
        assert!(!e2.occurs_negatively("x"));
        assert!(e2.occurs_negatively("y"));
        // double negation: x - (y - z): z positive.
        let e3 = AlgExpr::diff(
            AlgExpr::name("x"),
            AlgExpr::diff(AlgExpr::name("y"), AlgExpr::name("z")),
        );
        assert!(e3.occurs_positively("z"));
        assert!(!e3.occurs_negatively("z"));
        assert!(e3.occurs_negatively("y"));
    }

    #[test]
    fn positive_ifp_detection() {
        // IFP_{x. edge ∪ π13(x ⋈ edge)} is positive.
        let tc = AlgExpr::ifp(
            "x",
            AlgExpr::union(AlgExpr::name("edge"), AlgExpr::name("x")),
        );
        assert!(tc.is_positive_ifp());
        assert!(tc.uses_ifp());
        // IFP_{x. {a} − x} is not (the Section 4 Example 4 expression).
        let bad = AlgExpr::ifp("x", AlgExpr::diff(AlgExpr::lit([i(1)]), AlgExpr::name("x")));
        assert!(!bad.is_positive_ifp());
        assert!(!AlgExpr::name("r").uses_ifp());
    }

    #[test]
    fn substitution_respects_shadowing() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("x".to_string(), AlgExpr::name("replaced"));
        let open = AlgExpr::union(AlgExpr::name("x"), AlgExpr::name("y"));
        let sub = open.substitute(&map);
        assert_eq!(
            sub,
            AlgExpr::union(AlgExpr::name("replaced"), AlgExpr::name("y"))
        );
        // under ifp(x, …) the binder shadows
        let shadowed = AlgExpr::ifp("x", AlgExpr::name("x"));
        assert_eq!(shadowed.substitute(&map), shadowed);
    }

    #[test]
    fn display() {
        let e = AlgExpr::map(
            AlgExpr::diff(AlgExpr::name("move"), AlgExpr::name("win")),
            FuncExpr::proj(0),
        );
        assert_eq!(e.to_string(), "map((move - win), x.0)");
        let l = AlgExpr::lit([i(2), i(1)]);
        assert_eq!(l.to_string(), "{1, 2}");
        let s = AlgExpr::select(
            AlgExpr::name("r"),
            FuncExpr::Cmp(
                CmpOp::Eq,
                Box::new(FuncExpr::Elem),
                Box::new(FuncExpr::Lit(i(1))),
            ),
        );
        assert_eq!(s.to_string(), "select(r, x = 1)");
    }

    #[test]
    fn funcop_basics() {
        assert_eq!(FuncOp::Succ.arity(), 1);
        assert_eq!(FuncOp::Add.arity(), 2);
        assert_eq!(FuncOp::Mul.apply(&[i(3), i(4)]), Some(i(12)));
        assert_eq!(FuncOp::Sub.apply(&[i(3), i(4)]), Some(i(-1)));
        assert_eq!(FuncOp::Succ.apply(&[i(i64::MAX)]), None);
        assert_eq!(FuncOp::Add.name(), "add");
        assert_eq!(
            FuncOp::Concat.apply(&[Value::pair(i(1), i(2)), i(3)]),
            Some(Value::tuple([i(1), i(2), i(3)]))
        );
        assert_eq!(FuncOp::Concat.arity(), 2);
        assert_eq!(FuncOp::Concat.name(), "concat");
    }
}
