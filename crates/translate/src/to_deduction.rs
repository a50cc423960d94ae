//! From algebra to deduction: Propositions 5.1 and 5.4.
//!
//! The paper's construction (Section 5): "For every sub expression in the
//! query a new predicate name is introduced, and a derived relation is
//! defined" — `E₁ ∪ E₂` becomes two rules, `E₁ − E₂` becomes a rule with a
//! negated atom, and `IFP_exp` introduces recursion. Two translation modes
//! are provided:
//!
//! * [`TranslationMode::Naive`] — the construction verbatim. By
//!   Proposition 5.1 the result is equivalent to the algebra query *when
//!   the deductive program is evaluated under the inflationary semantics*
//!   (for IFP queries) or the valid semantics (for `algebra=` recursion,
//!   Proposition 5.4). Experiment **E2** probes the exact scope of the
//!   inflationary claim: the verbatim construction is faithful on the
//!   paper's flat IFP bodies but the per-subexpression predicates lag one
//!   inflationary step each, which is observable when the fixpoint
//!   variable occurs under *nested* differences.
//! * [`TranslationMode::Staged`] — stage-indexed IFP unfolding. Every
//!   `IFP` gets an explicit stage counter (this is Proposition 5.2's
//!   simulation fused into the translation), the program is locally
//!   stratified by stage, and the valid semantics reproduces the
//!   inflationary computation exactly, nested differences included.
//!
//! Every translated set is represented by a **unary** predicate holding
//! the member value; extensional relations (whose facts are spread into
//! columns) are adapted by generated bridge rules.

use crate::error::TranslateError;
use algrec_core::expr::{AlgExpr, CmpOp as ACmp, Conjunction, FuncExpr, FuncOp};
use algrec_core::program::AlgProgram;
use algrec_datalog::ast::{
    Atom, CmpOp as DCmp, Expr as DExpr, Func as DFunc, Literal, Program, Rule,
};
use algrec_value::Database;
use std::collections::BTreeMap;

/// How to translate IFP operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TranslationMode {
    /// The paper's verbatim construction (Prop 5.1): IFP becomes direct
    /// recursion; evaluate the output under the *inflationary* semantics.
    Naive,
    /// Stage-indexed construction: IFP becomes stage-bounded recursion
    /// with the given maximum stage; evaluate the output under the
    /// *valid* (or stratified/well-founded) semantics. The bound must be
    /// at least the IFP's closure ordinal on the given database, or the
    /// result is truncated.
    Staged {
        /// Maximum stage index.
        max_stage: i64,
    },
}

/// The result of translating an algebra program.
#[derive(Clone, Debug)]
pub struct AlgebraTranslation {
    /// The deductive program.
    pub program: Program,
    /// The (unary) predicate holding the query result.
    pub result_pred: String,
}

/// Infer EDB arities from a database: tuple members spread into that many
/// columns, non-tuple members are unary. Empty relations carry no arity
/// information and are omitted (consumers then trust the arity at the use
/// site).
pub fn edb_arities(db: &Database) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (name, rel) in db.iter() {
        if let Some(v) = rel.iter().next() {
            let arity = v.as_tuple().map_or(1, <[algrec_value::Value]>::len);
            out.insert(name.to_string(), arity);
        }
    }
    out
}

struct Ctx {
    rules: Vec<Rule>,
    counter: usize,
    arities: BTreeMap<String, usize>,
    bridged: BTreeMap<String, String>,
    mode: TranslationMode,
}

impl Ctx {
    fn fresh(&mut self, tag: &str) -> String {
        self.counter += 1;
        format!("{tag}${}", self.counter)
    }

    /// Unary view of an extensional relation.
    fn bridge(&mut self, rel: &str) -> String {
        if let Some(p) = self.bridged.get(rel) {
            return p.clone();
        }
        let pred = format!("set${rel}");
        let arity = self.arities.get(rel).copied().unwrap_or(1);
        if arity == 1 {
            self.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::var("V")]),
                [Literal::Pos(Atom::new(rel, [DExpr::var("V")]))],
            ));
        } else {
            let vars: Vec<DExpr> = (0..arity).map(|i| DExpr::var(format!("X{i}"))).collect();
            self.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::Tuple(vars.clone())]),
                [Literal::Pos(Atom::new(rel, vars))],
            ));
        }
        self.bridged.insert(rel.to_string(), pred.clone());
        pred
    }
}

/// Translate a value-level element function to a deduction expression over
/// the variable `v`.
fn fexpr_to_dexpr(f: &FuncExpr, v: &str) -> Result<DExpr, TranslateError> {
    match f {
        FuncExpr::Elem => Ok(DExpr::var(v)),
        FuncExpr::Lit(val) => Ok(DExpr::Lit(val.clone())),
        FuncExpr::Tuple(items) => Ok(DExpr::Tuple(
            items
                .iter()
                .map(|e| fexpr_to_dexpr(e, v))
                .collect::<Result<_, _>>()?,
        )),
        FuncExpr::Proj(e, i) => Ok(DExpr::App(DFunc::Proj(*i), vec![fexpr_to_dexpr(e, v)?])),
        FuncExpr::App(op, items) => {
            let dop = match op {
                FuncOp::Succ => DFunc::Succ,
                FuncOp::Add => DFunc::Add,
                FuncOp::Sub => DFunc::Sub,
                FuncOp::Mul => DFunc::Mul,
                FuncOp::Concat => DFunc::Concat,
            };
            Ok(DExpr::App(
                dop,
                items
                    .iter()
                    .map(|e| fexpr_to_dexpr(e, v))
                    .collect::<Result<Vec<_>, _>>()?,
            ))
        }
        FuncExpr::Cmp(..) | FuncExpr::And(..) | FuncExpr::Or(..) | FuncExpr::Not(..) => {
            Err(TranslateError::Unsupported(
                "boolean-valued element expression in a value position \
                 (restructure the MAP function to avoid embedded booleans)"
                    .into(),
            ))
        }
    }
}

fn acmp_to_dcmp(op: ACmp) -> DCmp {
    match op {
        ACmp::Eq => DCmp::Eq,
        ACmp::Ne => DCmp::Ne,
        ACmp::Lt => DCmp::Lt,
        ACmp::Le => DCmp::Le,
        ACmp::Gt => DCmp::Gt,
        ACmp::Ge => DCmp::Ge,
    }
}

/// A selection test in disjunctive normal form (one rule per disjunct).
fn dnf(test: &FuncExpr) -> Result<Vec<Conjunction>, TranslateError> {
    test.dnf().map_err(|other| {
        TranslateError::Unsupported(format!(
            "selection test `{other}` is not a boolean combination of comparisons"
        ))
    })
}

/// Translate an expression; `bindings` maps algebra names (recursive
/// constants, IFP variables) to their predicates. Returns the (unary)
/// predicate holding the expression's value.
fn translate(
    expr: &AlgExpr,
    ctx: &mut Ctx,
    bindings: &BTreeMap<String, String>,
) -> Result<String, TranslateError> {
    match expr {
        AlgExpr::Name(n) => {
            if let Some(pred) = bindings.get(n) {
                Ok(pred.clone())
            } else {
                Ok(ctx.bridge(n))
            }
        }
        AlgExpr::Lit(items) => {
            let pred = ctx.fresh("lit");
            for v in items {
                ctx.rules
                    .push(Rule::fact(Atom::new(pred.clone(), [DExpr::Lit(v.clone())])));
            }
            Ok(pred)
        }
        AlgExpr::Union(a, b) => {
            let pa = translate(a, ctx, bindings)?;
            let pb = translate(b, ctx, bindings)?;
            let pred = ctx.fresh("un");
            for p in [pa, pb] {
                ctx.rules.push(Rule::new(
                    Atom::new(pred.clone(), [DExpr::var("V")]),
                    [Literal::Pos(Atom::new(p, [DExpr::var("V")]))],
                ));
            }
            Ok(pred)
        }
        AlgExpr::Diff(a, b) => {
            let pa = translate(a, ctx, bindings)?;
            let pb = translate(b, ctx, bindings)?;
            let pred = ctx.fresh("df");
            ctx.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::var("V")]),
                [
                    Literal::Pos(Atom::new(pa, [DExpr::var("V")])),
                    Literal::Neg(Atom::new(pb, [DExpr::var("V")])),
                ],
            ));
            Ok(pred)
        }
        AlgExpr::Product(a, b) => {
            let pa = translate(a, ctx, bindings)?;
            let pb = translate(b, ctx, bindings)?;
            let pred = ctx.fresh("pr");
            ctx.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::var("V")]),
                [
                    Literal::Pos(Atom::new(pa, [DExpr::var("A")])),
                    Literal::Pos(Atom::new(pb, [DExpr::var("B")])),
                    Literal::Cmp(
                        DCmp::Eq,
                        DExpr::var("V"),
                        DExpr::App(DFunc::Concat, vec![DExpr::var("A"), DExpr::var("B")]),
                    ),
                ],
            ));
            Ok(pred)
        }
        AlgExpr::Select(a, test) => {
            let pa = translate(a, ctx, bindings)?;
            let pred = ctx.fresh("sel");
            for conj in dnf(test)? {
                let mut body = vec![Literal::Pos(Atom::new(pa.clone(), [DExpr::var("V")]))];
                for (op, l, r) in &conj {
                    body.push(Literal::Cmp(
                        acmp_to_dcmp(*op),
                        fexpr_to_dexpr(l, "V")?,
                        fexpr_to_dexpr(r, "V")?,
                    ));
                }
                ctx.rules
                    .push(Rule::new(Atom::new(pred.clone(), [DExpr::var("V")]), body));
            }
            Ok(pred)
        }
        AlgExpr::Map(a, f) => {
            let pa = translate(a, ctx, bindings)?;
            let pred = ctx.fresh("mp");
            ctx.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::var("W")]),
                [
                    Literal::Pos(Atom::new(pa, [DExpr::var("V")])),
                    Literal::Cmp(DCmp::Eq, DExpr::var("W"), fexpr_to_dexpr(f, "V")?),
                ],
            ));
            Ok(pred)
        }
        AlgExpr::Ifp { var, body } => match ctx.mode {
            TranslationMode::Naive => {
                // The Prop 5.1 construction: the IFP variable *is* the
                // fixpoint predicate.
                let pred = ctx.fresh("ifp");
                let mut inner = bindings.clone();
                inner.insert(var.clone(), pred.clone());
                let pb = translate(body, ctx, &inner)?;
                ctx.rules.push(Rule::new(
                    Atom::new(pred.clone(), [DExpr::var("V")]),
                    [Literal::Pos(Atom::new(pb, [DExpr::var("V")]))],
                ));
                Ok(pred)
            }
            TranslationMode::Staged { max_stage } => {
                translate_ifp_staged(var, body, ctx, bindings, max_stage)
            }
        },
        AlgExpr::Apply(name, _) => Err(TranslateError::Unsupported(format!(
            "application of `{name}` must be inlined before translation \
             (AlgProgram::inline)"
        ))),
    }
}

/// Stage-indexed IFP translation: the Prop 5.2 stage simulation fused into
/// Prop 5.1. The IFP body may reference its own variable and static names
/// only (an IFP over another recursive constant is rejected, as in
/// `algrec_core::valid_eval`).
fn translate_ifp_staged(
    var: &str,
    body: &AlgExpr,
    ctx: &mut Ctx,
    bindings: &BTreeMap<String, String>,
    max_stage: i64,
) -> Result<String, TranslateError> {
    for n in body.names() {
        if n != var && bindings.contains_key(n) {
            return Err(TranslateError::Unsupported(format!(
                "staged IFP body references the bound name `{n}`; only the IFP's own \
                 variable and database relations are supported (rewrite via algebra= \
                 recursion, Corollary 3.6)"
            )));
        }
    }
    // Stage domain: stg(0). stg(J) :- stg(I), I < B, J = succ(I).
    let stg = ctx.fresh("stg");
    ctx.rules
        .push(Rule::fact(Atom::new(stg.clone(), [DExpr::int(0)])));
    ctx.rules.push(Rule::new(
        Atom::new(stg.clone(), [DExpr::var("J")]),
        [
            Literal::Pos(Atom::new(stg.clone(), [DExpr::var("I")])),
            Literal::Cmp(DCmp::Lt, DExpr::var("I"), DExpr::int(max_stage)),
            Literal::Cmp(
                DCmp::Eq,
                DExpr::var("J"),
                DExpr::App(DFunc::Succ, vec![DExpr::var("I")]),
            ),
        ],
    ));

    // Accumulator acc(I, V): the IFP accumulation after I steps.
    let acc = ctx.fresh("acc");
    // Body at stage I (staged because it references `var`).
    let body_pred = translate_staged_expr(body, var, &acc, &stg, ctx, bindings)?;
    let step = |ctx: &mut Ctx, from: &str, staged_from: bool| {
        let mut lits = vec![
            Literal::Pos(Atom::new(stg.clone(), [DExpr::var("I")])),
            Literal::Cmp(DCmp::Lt, DExpr::var("I"), DExpr::int(max_stage)),
            Literal::Cmp(
                DCmp::Eq,
                DExpr::var("J"),
                DExpr::App(DFunc::Succ, vec![DExpr::var("I")]),
            ),
        ];
        lits.push(Literal::Pos(if staged_from {
            Atom::new(from, [DExpr::var("I"), DExpr::var("V")])
        } else {
            Atom::new(from, [DExpr::var("V")])
        }));
        ctx.rules.push(Rule::new(
            Atom::new(acc.clone(), [DExpr::var("J"), DExpr::var("V")]),
            lits,
        ));
    };
    // acc(J, V) :- …, acc(I, V).  and  acc(J, V) :- …, body(I, V).
    step(ctx, &acc.clone(), true);
    step(ctx, &body_pred, true);

    // Result: the union over stages (accumulation is monotone in stages).
    let result = ctx.fresh("ifp");
    ctx.rules.push(Rule::new(
        Atom::new(result.clone(), [DExpr::var("V")]),
        [Literal::Pos(Atom::new(
            acc,
            [DExpr::var("I"), DExpr::var("V")],
        ))],
    ));
    Ok(result)
}

/// Translate a staged sub-expression (one referencing the IFP variable):
/// produces a binary predicate `p(I, V)` = the value at stage `I`.
/// Static sub-expressions fall back to the plain translation and are
/// wrapped with a stage guard where needed.
#[allow(clippy::too_many_arguments)]
fn translate_staged_expr(
    expr: &AlgExpr,
    var: &str,
    acc: &str,
    stg: &str,
    ctx: &mut Ctx,
    bindings: &BTreeMap<String, String>,
) -> Result<String, TranslateError> {
    // Static? Translate unstaged, then lift: p(I, V) :- stg(I), p0(V).
    if !expr.names().contains(var) {
        let p0 = translate(expr, ctx, bindings)?;
        let pred = ctx.fresh("lift");
        ctx.rules.push(Rule::new(
            Atom::new(pred.clone(), [DExpr::var("I"), DExpr::var("V")]),
            [
                Literal::Pos(Atom::new(stg, [DExpr::var("I")])),
                Literal::Pos(Atom::new(p0, [DExpr::var("V")])),
            ],
        ));
        return Ok(pred);
    }
    match expr {
        AlgExpr::Name(n) if n == var => Ok(acc.to_string()),
        AlgExpr::Name(_) | AlgExpr::Lit(_) => unreachable!("static cases handled above"),
        AlgExpr::Union(a, b) => {
            let pa = translate_staged_expr(a, var, acc, stg, ctx, bindings)?;
            let pb = translate_staged_expr(b, var, acc, stg, ctx, bindings)?;
            let pred = ctx.fresh("sun");
            for p in [pa, pb] {
                ctx.rules.push(Rule::new(
                    Atom::new(pred.clone(), [DExpr::var("I"), DExpr::var("V")]),
                    [Literal::Pos(Atom::new(
                        p,
                        [DExpr::var("I"), DExpr::var("V")],
                    ))],
                ));
            }
            Ok(pred)
        }
        AlgExpr::Diff(a, b) => {
            let pa = translate_staged_expr(a, var, acc, stg, ctx, bindings)?;
            let pb = translate_staged_expr(b, var, acc, stg, ctx, bindings)?;
            let pred = ctx.fresh("sdf");
            ctx.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::var("I"), DExpr::var("V")]),
                [
                    Literal::Pos(Atom::new(pa, [DExpr::var("I"), DExpr::var("V")])),
                    Literal::Neg(Atom::new(pb, [DExpr::var("I"), DExpr::var("V")])),
                ],
            ));
            Ok(pred)
        }
        AlgExpr::Product(a, b) => {
            let pa = translate_staged_expr(a, var, acc, stg, ctx, bindings)?;
            let pb = translate_staged_expr(b, var, acc, stg, ctx, bindings)?;
            let pred = ctx.fresh("spr");
            ctx.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::var("I"), DExpr::var("V")]),
                [
                    Literal::Pos(Atom::new(pa, [DExpr::var("I"), DExpr::var("A")])),
                    Literal::Pos(Atom::new(pb, [DExpr::var("I"), DExpr::var("B")])),
                    Literal::Cmp(
                        DCmp::Eq,
                        DExpr::var("V"),
                        DExpr::App(DFunc::Concat, vec![DExpr::var("A"), DExpr::var("B")]),
                    ),
                ],
            ));
            Ok(pred)
        }
        AlgExpr::Select(a, test) => {
            let pa = translate_staged_expr(a, var, acc, stg, ctx, bindings)?;
            let pred = ctx.fresh("ssl");
            for conj in dnf(test)? {
                let mut body = vec![Literal::Pos(Atom::new(
                    pa.clone(),
                    [DExpr::var("I"), DExpr::var("V")],
                ))];
                for (op, l, r) in &conj {
                    body.push(Literal::Cmp(
                        acmp_to_dcmp(*op),
                        fexpr_to_dexpr(l, "V")?,
                        fexpr_to_dexpr(r, "V")?,
                    ));
                }
                ctx.rules.push(Rule::new(
                    Atom::new(pred.clone(), [DExpr::var("I"), DExpr::var("V")]),
                    body,
                ));
            }
            Ok(pred)
        }
        AlgExpr::Map(a, f) => {
            let pa = translate_staged_expr(a, var, acc, stg, ctx, bindings)?;
            let pred = ctx.fresh("smp");
            ctx.rules.push(Rule::new(
                Atom::new(pred.clone(), [DExpr::var("I"), DExpr::var("W")]),
                [
                    Literal::Pos(Atom::new(pa, [DExpr::var("I"), DExpr::var("V")])),
                    Literal::Cmp(DCmp::Eq, DExpr::var("W"), fexpr_to_dexpr(f, "V")?),
                ],
            ));
            Ok(pred)
        }
        AlgExpr::Ifp { .. } => Err(TranslateError::Unsupported(
            "an IFP nested inside another IFP's variable-dependent body; \
             rewrite the inner IFP as a recursive constant (Corollary 3.6)"
                .into(),
        )),
        AlgExpr::Apply(name, _) => Err(TranslateError::Unsupported(format!(
            "application of `{name}` must be inlined before translation"
        ))),
    }
}

/// Translate a whole algebra program (Props 5.1 / 5.4). Recursive
/// constants become mutually recursive predicates named after themselves;
/// the query gets predicate `result$`.
pub fn algebra_to_datalog(
    program: &AlgProgram,
    arities: &BTreeMap<String, usize>,
    mode: TranslationMode,
) -> Result<AlgebraTranslation, TranslateError> {
    let inlined = program.inline()?;
    let mut ctx = Ctx {
        rules: Vec::new(),
        counter: 0,
        arities: arities.clone(),
        bridged: BTreeMap::new(),
        mode,
    };
    // Recursive constants: Sᵢ ↦ predicate Sᵢ (Prop 5.4: "each predicate
    // Rᵢ … is represented by a corresponding set constant" — here in the
    // reverse direction, the constant names its predicate).
    let mut bindings = BTreeMap::new();
    for d in &inlined.defs {
        bindings.insert(d.name.clone(), format!("c${}", d.name));
    }
    for d in &inlined.defs {
        let body_pred = translate(&d.body, &mut ctx, &bindings)?;
        ctx.rules.push(Rule::new(
            Atom::new(bindings[&d.name].clone(), [DExpr::var("V")]),
            [Literal::Pos(Atom::new(body_pred, [DExpr::var("V")]))],
        ));
    }
    let query_pred = translate(&inlined.query, &mut ctx, &bindings)?;
    let result_pred = "result$".to_string();
    ctx.rules.push(Rule::new(
        Atom::new(result_pred.clone(), [DExpr::var("V")]),
        [Literal::Pos(Atom::new(query_pred, [DExpr::var("V")]))],
    ));
    Ok(AlgebraTranslation {
        program: Program::from_rules(ctx.rules),
        result_pred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_core::parser::parse_program;
    use algrec_datalog::{evaluate, Semantics};
    use algrec_value::{Budget, Relation, Truth, Value};

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    fn result_set(
        t: &AlgebraTranslation,
        db: &Database,
        sem: Semantics,
    ) -> std::collections::BTreeSet<Value> {
        let out = evaluate(&t.program, db, sem, Budget::SMALL).unwrap();
        out.model
            .certain
            .facts(&t.result_pred)
            .map(|args| args[0].clone())
            .collect()
    }

    #[test]
    fn example4_naive_inflationary() {
        // Q = IFP_{ {a} − x }: algebra answer {a}; naive translation is
        // equivalent under the inflationary semantics but leaves q(a)
        // undefined under the valid semantics (the paper's Example 4).
        let p = parse_program("query ifp(x, {'a'} - x);").unwrap();
        let t = algebra_to_datalog(&p, &BTreeMap::new(), TranslationMode::Naive).unwrap();
        let db = Database::new();

        let infl = result_set(&t, &db, Semantics::Inflationary);
        assert_eq!(infl, [Value::str("a")].into_iter().collect());

        let valid = evaluate(&t.program, &db, Semantics::Valid, Budget::SMALL).unwrap();
        assert_eq!(
            valid.model.truth(&t.result_pred, &[Value::str("a")]),
            Truth::Unknown
        );
    }

    #[test]
    fn example4_staged_valid() {
        // The staged translation recovers the inflationary answer *under
        // the valid semantics* (Prop 5.1 ∘ Prop 5.2).
        let p = parse_program("query ifp(x, {'a'} - x);").unwrap();
        let t = algebra_to_datalog(
            &p,
            &BTreeMap::new(),
            TranslationMode::Staged { max_stage: 4 },
        )
        .unwrap();
        let valid = result_set(&t, &Database::new(), Semantics::Valid);
        assert_eq!(valid, [Value::str("a")].into_iter().collect());
    }

    #[test]
    fn tc_ifp_all_modes() {
        let p =
            parse_program("query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));")
                .unwrap();
        let db = Database::new().with(
            "edge",
            Relation::from_pairs([(i(1), i(2)), (i(2), i(3)), (i(3), i(4))]),
        );
        let arities = edb_arities(&db);
        let expect: std::collections::BTreeSet<Value> =
            algrec_core::eval_exact(&p, &db, Budget::SMALL).unwrap();
        assert_eq!(expect.len(), 6);

        let naive = algebra_to_datalog(&p, &arities, TranslationMode::Naive).unwrap();
        assert_eq!(result_set(&naive, &db, Semantics::Inflationary), expect);
        // positive IFP: the naive translation is even valid-correct
        assert_eq!(result_set(&naive, &db, Semantics::Valid), expect);

        let staged =
            algebra_to_datalog(&p, &arities, TranslationMode::Staged { max_stage: 8 }).unwrap();
        assert_eq!(result_set(&staged, &db, Semantics::Valid), expect);
    }

    #[test]
    fn nested_difference_separates_naive_from_staged() {
        // exp(x) = a − (a − x): IFP is ∅ (intersection with the empty
        // accumulation). The verbatim Prop 5.1 construction under the
        // inflationary semantics gives {1} instead — the one-step lag of
        // the per-subexpression predicates. The staged construction is
        // exact. Experiment E2 quantifies this.
        let p = parse_program("query ifp(x, a - (a - x));").unwrap();
        let db = Database::new().with("a", Relation::from_values([i(1)]));
        let arities = edb_arities(&db);

        let expect = algrec_core::eval_exact(&p, &db, Budget::SMALL).unwrap();
        assert!(expect.is_empty());

        let naive = algebra_to_datalog(&p, &arities, TranslationMode::Naive).unwrap();
        let naive_result = result_set(&naive, &db, Semantics::Inflationary);
        assert_eq!(naive_result, [i(1)].into_iter().collect()); // the discrepancy

        let staged =
            algebra_to_datalog(&p, &arities, TranslationMode::Staged { max_stage: 4 }).unwrap();
        assert_eq!(result_set(&staged, &db, Semantics::Valid), expect);
    }

    #[test]
    fn recursive_constants_prop54() {
        // WIN under algebra= ↔ deduction, both valid semantics.
        let p =
            parse_program("def win = map(move - (map(move, x.0) * win), x.0); query win;").unwrap();
        let db = Database::new().with("move", Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]));
        let t = algebra_to_datalog(&p, &edb_arities(&db), TranslationMode::Naive).unwrap();
        let out = evaluate(&t.program, &db, Semantics::Valid, Budget::SMALL).unwrap();
        assert_eq!(out.model.truth(&t.result_pred, &[i(2)]), Truth::True);
        assert_eq!(out.model.truth(&t.result_pred, &[i(1)]), Truth::False);
        assert_eq!(out.model.truth(&t.result_pred, &[i(3)]), Truth::False);
    }

    #[test]
    fn recursive_undefined_propagates() {
        // S = {a} − S: undefined on both sides.
        let p = parse_program("def s = {'a'} - s; query s;").unwrap();
        let t = algebra_to_datalog(&p, &BTreeMap::new(), TranslationMode::Naive).unwrap();
        let out = evaluate(
            &t.program,
            &Database::new(),
            Semantics::Valid,
            Budget::SMALL,
        )
        .unwrap();
        assert_eq!(
            out.model.truth(&t.result_pred, &[Value::str("a")]),
            Truth::Unknown
        );
    }

    #[test]
    fn select_dnf_multirule() {
        let p = parse_program("query select(n, x < 3 or x > 7);").unwrap();
        let db = Database::new().with("n", Relation::from_values((0..10).map(i)));
        let t = algebra_to_datalog(&p, &edb_arities(&db), TranslationMode::Naive).unwrap();
        let got = result_set(&t, &db, Semantics::Valid);
        let expect = algrec_core::eval_exact(&p, &db, Budget::SMALL).unwrap();
        assert_eq!(got, expect);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn map_and_product_translate() {
        let p = parse_program("query map(a * b, [x.1, x.0]);").unwrap();
        let db = Database::new()
            .with("a", Relation::from_values([i(1), i(2)]))
            .with("b", Relation::from_values([i(10)]));
        let t = algebra_to_datalog(&p, &edb_arities(&db), TranslationMode::Naive).unwrap();
        let got = result_set(&t, &db, Semantics::Valid);
        let expect = algrec_core::eval_exact(&p, &db, Budget::SMALL).unwrap();
        assert_eq!(got, expect);
        assert!(got.contains(&Value::pair(i(10), i(1))));
    }

    #[test]
    fn unsupported_constructs_reported() {
        // boolean in a MAP value position
        let p = parse_program("query map(a, x = 1);").unwrap();
        assert!(matches!(
            algebra_to_datalog(&p, &BTreeMap::new(), TranslationMode::Naive),
            Err(TranslateError::Unsupported(_))
        ));
        // nested staged IFP over the outer variable
        let p2 = parse_program("query ifp(x, ifp(y, y union x));").unwrap();
        assert!(matches!(
            algebra_to_datalog(
                &p2,
                &BTreeMap::new(),
                TranslationMode::Staged { max_stage: 3 }
            ),
            Err(TranslateError::Unsupported(_))
        ));
    }

    #[test]
    fn edb_arities_inference() {
        let db = Database::new()
            .with("p", Relation::from_pairs([(i(1), i(2))]))
            .with("u", Relation::from_values([i(1)]));
        let a = edb_arities(&db);
        assert_eq!(a["p"], 2);
        assert_eq!(a["u"], 1);
    }
}
