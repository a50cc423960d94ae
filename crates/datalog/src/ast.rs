//! Abstract syntax of deductive programs.
//!
//! The paper's deductive language (Section 4) consists of Horn clauses
//! `Q₁, …, Qₙ → Rᵢ(x̄)` where each `Qⱼ` is an atomic formula `R(x̄ⱼ)` or
//! `exp₁ = exp₂`, or a negated atomic formula, over the data types of a
//! specification — in particular, interpreted functions on the domains
//! (successor, addition, tuple formation) are allowed.
//!
//! We write rules head-first (`head :- body`) as is conventional, but the
//! structure is exactly the paper's.

use algrec_value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// An interpreted function symbol. The paper's framework is first order:
/// these are fixed operations of the imported data-type specifications
/// (nat, tuples), not function variables (cf. the genericity caveat in
/// Section 3.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Func {
    /// Successor on integers (the `SUCC` of the NAT specification).
    Succ,
    /// Addition on integers.
    Add,
    /// Subtraction on integers.
    Sub,
    /// Multiplication on integers.
    Mul,
    /// Projection of the `i`-th component (0-based) of a tuple — the
    /// paper's `x.i` restructuring primitives.
    Proj(usize),
    /// Tuple concatenation with 1-tuple lifting of non-tuples: the value
    /// form of the algebra's cartesian product `×`, used by the
    /// algebra-to-deduction translations (Section 5).
    Concat,
}

impl Func {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Func::Succ | Func::Proj(_) => 1,
            Func::Add | Func::Sub | Func::Mul | Func::Concat => 2,
        }
    }

    /// Apply to evaluated arguments. Returns `None` on a dynamic type
    /// error (e.g. projecting from a non-tuple).
    pub fn apply(self, args: &[Value]) -> Option<Value> {
        match (self, args) {
            (Func::Succ, [Value::Int(i)]) => Some(Value::Int(i.checked_add(1)?)),
            (Func::Add, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.checked_add(*b)?)),
            (Func::Sub, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.checked_sub(*b)?)),
            (Func::Mul, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.checked_mul(*b)?)),
            (Func::Proj(i), [Value::Tuple(t)]) => t.get(i).cloned(),
            (Func::Concat, [a, b]) => {
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
    pub fn name(self) -> String {
        match self {
            Func::Succ => "succ".into(),
            Func::Add => "add".into(),
            Func::Sub => "sub".into(),
            Func::Mul => "mul".into(),
            Func::Proj(i) => format!("proj{i}"),
            Func::Concat => "concat".into(),
        }
    }
}

/// A term: a value expression over variables, constants and interpreted
/// functions.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Expr {
    /// A variable.
    Var(String),
    /// A constant value.
    Lit(Value),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Interpreted function application.
    App(Func, Vec<Expr>),
}

impl Expr {
    /// Variable constructor.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// Constant constructor.
    pub fn lit(v: impl Into<Value>) -> Self {
        Expr::Lit(v.into())
    }

    /// Integer constant.
    pub fn int(i: i64) -> Self {
        Expr::Lit(Value::Int(i))
    }

    /// All variables occurring in this expression, in order of first
    /// occurrence (deduplicated).
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(&v.as_str()) {
                    out.push(v);
                }
            }
            Expr::Lit(_) => {}
            Expr::Tuple(items) | Expr::App(_, items) => {
                items.iter().for_each(|e| e.collect_vars(out));
            }
        }
    }

    /// Is this expression ground (variable-free)?
    pub fn is_ground(&self) -> bool {
        self.vars().is_empty()
    }

    /// Does this expression contain a function application? Pure patterns
    /// (variables, literals, tuples of patterns) can run "backwards"
    /// (match against a value); applications cannot.
    pub fn has_app(&self) -> bool {
        match self {
            Expr::Var(_) | Expr::Lit(_) => false,
            Expr::Tuple(items) => items.iter().any(Expr::has_app),
            Expr::App(_, _) => true,
        }
    }

    /// Rename every variable with `f`.
    pub fn rename_vars(&self, f: &mut impl FnMut(&str) -> String) -> Expr {
        match self {
            Expr::Var(v) => Expr::Var(f(v)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Tuple(items) => Expr::Tuple(items.iter().map(|e| e.rename_vars(f)).collect()),
            Expr::App(func, items) => {
                Expr::App(*func, items.iter().map(|e| e.rename_vars(f)).collect())
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Lit(Value::Str(s)) => write!(f, "{s}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Tuple(items) => {
                write!(f, "[")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Expr::App(func, items) => {
                write!(f, "{}(", func.name())?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A predicate atom `R(e₁, …, eₙ)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(pred: impl Into<String>, args: impl IntoIterator<Item = Expr>) -> Self {
        Atom {
            pred: pred.into(),
            args: args.into_iter().collect(),
        }
    }

    /// All variables in the atom's arguments.
    pub fn vars(&self) -> BTreeSet<&str> {
        self.args.iter().flat_map(|e| e.vars()).collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, e) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operators available in rule bodies. `Eq` doubles as the
/// paper's `x = exp` binder (Definition 4.1, basis b and construction 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate on two values.
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
}

/// A body literal.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Literal {
    /// A positive atom `R(ē)`.
    Pos(Atom),
    /// A negated atom `¬R(ē)` — the paper's negation, interpreted by the
    /// chosen semantics.
    Neg(Atom),
    /// A comparison / equality `e₁ op e₂`.
    Cmp(CmpOp, Expr, Expr),
}

impl Literal {
    /// All variables in the literal.
    pub fn vars(&self) -> BTreeSet<&str> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.vars(),
            Literal::Cmp(_, l, r) => l.vars().into_iter().chain(r.vars()).collect(),
        }
    }

    /// The atom, if this is a (possibly negated) predicate literal.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp(..) => None,
        }
    }

    /// Is this a negated atom?
    pub fn is_negative(&self) -> bool {
        matches!(self, Literal::Neg(_))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(op, l, r) => write!(f, "{l} {} {r}", op.symbol()),
        }
    }
}

/// A rule `head :- body` (the paper's `body → head`). A rule with an empty
/// body and ground head is a fact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Head atom.
    pub head: Atom,
    /// Body literals (conjunction).
    pub body: Vec<Literal>,
}

impl Rule {
    /// Construct a rule.
    pub fn new(head: Atom, body: impl IntoIterator<Item = Literal>) -> Self {
        Rule {
            head,
            body: body.into_iter().collect(),
        }
    }

    /// Construct a fact (empty body). Panics in debug builds if the head
    /// is not ground.
    pub fn fact(head: Atom) -> Self {
        debug_assert!(
            head.args.iter().all(Expr::is_ground),
            "facts must be ground"
        );
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// All variables occurring in the rule.
    pub fn vars(&self) -> BTreeSet<&str> {
        let mut out: BTreeSet<&str> = self.head.vars();
        for lit in &self.body {
            out.extend(lit.vars());
        }
        out
    }

    /// Predicates used positively in the body.
    pub fn positive_preds(&self) -> BTreeSet<&str> {
        self.body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) => Some(a.pred.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Predicates used negatively in the body.
    pub fn negative_preds(&self) -> BTreeSet<&str> {
        self.body
            .iter()
            .filter_map(|l| match l {
                Literal::Neg(a) => Some(a.pred.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.body.is_empty() {
            write!(f, "{}.", self.head)
        } else {
            write!(f, "{} :- ", self.head)?;
            for (i, lit) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lit}")?;
            }
            write!(f, ".")
        }
    }
}

/// A deductive program: a set of rules. Predicates that appear in rule
/// heads are *intensional* (IDB); all others are *extensional* (EDB) and
/// must be supplied by the [`algrec_value::Database`].
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Build from rules.
    pub fn from_rules(rules: impl IntoIterator<Item = Rule>) -> Self {
        Program {
            rules: rules.into_iter().collect(),
        }
    }

    /// Add a rule.
    pub fn push(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Predicates defined by rules (IDB).
    pub fn idb_preds(&self) -> BTreeSet<&str> {
        self.rules.iter().map(|r| r.head.pred.as_str()).collect()
    }

    /// Predicates referenced but not defined (EDB).
    pub fn edb_preds(&self) -> BTreeSet<&str> {
        let idb = self.idb_preds();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter())
            .filter_map(Literal::atom)
            .map(|a| a.pred.as_str())
            .filter(|p| !idb.contains(p))
            .collect()
    }

    /// All predicate names mentioned anywhere.
    pub fn all_preds(&self) -> BTreeSet<&str> {
        let mut out = self.idb_preds();
        out.extend(self.edb_preds());
        out
    }

    /// Does any rule use negation? Programs without negation have the
    /// classical minimal-model semantics (Section 2.1) and every semantics
    /// in this crate coincides on them.
    pub fn has_negation(&self) -> bool {
        self.rules
            .iter()
            .any(|r| r.body.iter().any(Literal::is_negative))
    }

    /// Is the program *semipositive*: does every negated predicate stay
    /// extensional? A fact written as a rule makes its predicate a head
    /// like any other. On such a program a negated literal reads the
    /// fixed database at every stage, so the inflationary fixpoint is the
    /// least fixpoint of a monotone operator — the stratified model.
    pub fn is_semipositive(&self) -> bool {
        let idb = self.idb_preds();
        self.rules
            .iter()
            .all(|r| r.negative_preds().is_disjoint(&idb))
    }

    /// Rules whose head is `pred`.
    pub fn rules_for<'a>(&'a self, pred: &'a str) -> impl Iterator<Item = &'a Rule> + 'a {
        self.rules.iter().filter(move |r| r.head.pred == pred)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc_program() -> Program {
        // tc(X,Y) :- edge(X,Y).  tc(X,Z) :- tc(X,Y), edge(Y,Z).
        Program::from_rules([
            Rule::new(
                Atom::new("tc", [Expr::var("X"), Expr::var("Y")]),
                [Literal::Pos(Atom::new(
                    "edge",
                    [Expr::var("X"), Expr::var("Y")],
                ))],
            ),
            Rule::new(
                Atom::new("tc", [Expr::var("X"), Expr::var("Z")]),
                [
                    Literal::Pos(Atom::new("tc", [Expr::var("X"), Expr::var("Y")])),
                    Literal::Pos(Atom::new("edge", [Expr::var("Y"), Expr::var("Z")])),
                ],
            ),
        ])
    }

    #[test]
    fn func_apply() {
        assert_eq!(Func::Succ.apply(&[Value::Int(1)]), Some(Value::Int(2)));
        assert_eq!(
            Func::Add.apply(&[Value::Int(2), Value::Int(3)]),
            Some(Value::Int(5))
        );
        assert_eq!(
            Func::Sub.apply(&[Value::Int(2), Value::Int(3)]),
            Some(Value::Int(-1))
        );
        assert_eq!(
            Func::Mul.apply(&[Value::Int(2), Value::Int(3)]),
            Some(Value::Int(6))
        );
        let pair = Value::pair(Value::int(7), Value::int(8));
        assert_eq!(
            Func::Proj(1).apply(std::slice::from_ref(&pair)),
            Some(Value::Int(8))
        );
        assert_eq!(Func::Proj(2).apply(std::slice::from_ref(&pair)), None);
        assert_eq!(
            Func::Concat.apply(&[pair.clone(), Value::int(9)]),
            Some(Value::tuple([Value::int(7), Value::int(8), Value::int(9)]))
        );
        assert_eq!(
            Func::Concat.apply(&[Value::int(9), pair]),
            Some(Value::tuple([Value::int(9), Value::int(7), Value::int(8)]))
        );
        assert_eq!(Func::Concat.arity(), 2);
        assert_eq!(Func::Concat.name(), "concat");
        assert_eq!(Func::Succ.apply(&[Value::Bool(true)]), None);
        assert_eq!(Func::Succ.apply(&[Value::Int(i64::MAX)]), None);
    }

    #[test]
    fn func_arity_and_name() {
        assert_eq!(Func::Succ.arity(), 1);
        assert_eq!(Func::Add.arity(), 2);
        assert_eq!(Func::Proj(3).arity(), 1);
        assert_eq!(Func::Proj(3).name(), "proj3");
    }

    #[test]
    fn expr_vars_in_order() {
        let e = Expr::App(
            Func::Add,
            vec![
                Expr::var("Y"),
                Expr::Tuple(vec![Expr::var("X"), Expr::var("Y")]),
            ],
        );
        assert_eq!(e.vars(), vec!["Y", "X"]);
        assert!(!e.is_ground());
        assert!(e.has_app());
        assert!(!Expr::Tuple(vec![Expr::var("X")]).has_app());
        assert!(Expr::int(3).is_ground());
    }

    #[test]
    fn expr_rename() {
        let e = Expr::Tuple(vec![Expr::var("X"), Expr::int(1)]);
        let r = e.rename_vars(&mut |v| format!("{v}_0"));
        assert_eq!(r, Expr::Tuple(vec![Expr::var("X_0"), Expr::int(1)]));
    }

    #[test]
    fn cmp_ops() {
        let a = Value::int(1);
        let b = Value::int(2);
        assert!(CmpOp::Lt.eval(&a, &b));
        assert!(CmpOp::Le.eval(&a, &a));
        assert!(CmpOp::Ne.eval(&a, &b));
        assert!(CmpOp::Eq.eval(&a, &a));
        assert!(CmpOp::Gt.eval(&b, &a));
        assert!(CmpOp::Ge.eval(&b, &b));
    }

    #[test]
    fn program_idb_edb() {
        let p = tc_program();
        assert_eq!(p.idb_preds().into_iter().collect::<Vec<_>>(), vec!["tc"]);
        assert_eq!(p.edb_preds().into_iter().collect::<Vec<_>>(), vec!["edge"]);
        assert!(!p.has_negation());
        assert_eq!(p.rules_for("tc").count(), 2);
    }

    #[test]
    fn semipositive_means_only_database_predicates_are_negated() {
        let parse = |src: &str| crate::parser::parse_program(src).unwrap();
        // No negation at all.
        assert!(tc_program().is_semipositive());
        // Only a database predicate negated.
        assert!(parse("lone(X) :- n(X), not e(X, X).").is_semipositive());
        // A derived predicate negated: its own head (Example 4's shape),
        // or another rule's.
        assert!(!parse("s(X) :- n(X), not s(X).").is_semipositive());
        assert!(!parse("tc(X, Y) :- e(X, Y).\nun(X) :- n(X), not tc(X, X).").is_semipositive());
        // A fact written as a rule makes its predicate a head.
        assert!(!parse("r(a).\nq(X) :- n(X), not r(X).").is_semipositive());
    }

    #[test]
    fn rule_pred_sets() {
        let r = Rule::new(
            Atom::new("win", [Expr::var("X")]),
            [
                Literal::Pos(Atom::new("move", [Expr::var("X"), Expr::var("Y")])),
                Literal::Neg(Atom::new("win", [Expr::var("Y")])),
            ],
        );
        assert_eq!(r.positive_preds().into_iter().collect::<Vec<_>>(), ["move"]);
        assert_eq!(r.negative_preds().into_iter().collect::<Vec<_>>(), ["win"]);
        assert_eq!(r.vars().into_iter().collect::<Vec<_>>(), ["X", "Y"]);
    }

    #[test]
    fn display_round_trips_shape() {
        let p = tc_program();
        let s = p.to_string();
        assert!(s.contains("tc(X, Y) :- edge(X, Y)."));
        assert!(s.contains("tc(X, Z) :- tc(X, Y), edge(Y, Z)."));
        let f = Rule::fact(Atom::new("edge", [Expr::int(1), Expr::int(2)]));
        assert_eq!(f.to_string(), "edge(1, 2).");
        let l = Literal::Cmp(CmpOp::Le, Expr::var("X"), Expr::int(4));
        assert_eq!(l.to_string(), "X <= 4");
        let n = Literal::Neg(Atom::new("q", [Expr::var("X")]));
        assert_eq!(n.to_string(), "not q(X)");
    }
}
