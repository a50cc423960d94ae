//! Human-readable query plans (`explain`).
//!
//! Renders, per rule, the join order and access paths the compiled
//! executor ([`crate::compiled`]) would choose against a given database:
//! scans, first-column index probes and antijoins, with the cost model
//! seeded from the database's cardinalities and (optionally) an observed
//! index hit-rate from collected [`EvalStats`]. Plan nodes are interned
//! in a hash-consing [`algrec_plan::PlanArena`], so access paths shared
//! between rules render once and are cross-referenced (`#N` tags) — the
//! common-subexpression sharing the plan IR exists for.
//!
//! Rules the compiled executor cannot take (function applications,
//! comparisons, tuple patterns) are annotated `(interpreted)` and shown
//! in the interpreted engine's greedy body order instead, so `explain`
//! always reflects the path that will actually run.

use crate::ast::{Expr, Literal, Program, Rule};
use crate::engine::plan_body;
use crate::error::EvalError;
use algrec_plan::{Catalog, FirstCol, JoinLit, PlanArena, PlanId};
use algrec_value::relation::first_column;
use algrec_value::{Database, EvalStats, Relation, Value};
use std::collections::{BTreeSet, HashSet};

/// The statistics the cost model keeps of one relation, read off the
/// relation itself: its row count and its number of distinct first
/// columns.
pub fn relation_stats(rel: &Relation) -> (usize, usize) {
    let first: HashSet<&Value> = rel.iter().filter_map(first_column).collect();
    (rel.len(), first.len())
}

/// Build a [`Catalog`] from `(relation, rows, distinct first columns)`
/// rows. Empty relations are left out, so they cost what an unknown
/// relation costs.
pub fn catalog_from<'a>(stats: impl IntoIterator<Item = (&'a str, usize, usize)>) -> Catalog {
    let mut catalog = Catalog::new();
    for (pred, rows, first_keys) in stats {
        if rows > 0 {
            catalog.set(pred, rows, first_keys);
        }
    }
    catalog
}

/// Build a [`Catalog`] from the extensional database: per-relation row
/// counts and distinct-first-column counts, the statistics the cost
/// model runs on.
pub fn catalog_of(db: &Database) -> Catalog {
    catalog_from(db.iter().map(|(name, rel)| {
        let (rows, first_keys) = relation_stats(rel);
        (name, rows, first_keys)
    }))
}

/// A literal abstracted for ordering, with display info retained.
struct ExpLit {
    join: JoinLit,
    positive: bool,
    pred: String,
    arity: usize,
    /// Display form of the first argument (probe key label).
    first_label: Option<String>,
}

fn slot_of(vars: &mut Vec<String>, name: &str) -> usize {
    match vars.iter().position(|v| v == name) {
        Some(i) => i,
        None => {
            vars.push(name.to_string());
            vars.len() - 1
        }
    }
}

/// Abstract a compilable rule body for the join orderer; `None` when any
/// argument is not a plain variable or constant (interpreted fallback).
fn explain_lits(rule: &Rule) -> Option<(Vec<ExpLit>, Vec<String>)> {
    let mut vars: Vec<String> = Vec::new();
    let mut lits = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        let (atom, positive) = match lit {
            Literal::Pos(a) => (a, true),
            Literal::Neg(a) => (a, false),
            _ => return None,
        };
        let mut slots = Vec::with_capacity(atom.args.len());
        for arg in &atom.args {
            match arg {
                Expr::Var(name) => slots.push(Some(slot_of(&mut vars, name))),
                Expr::Lit(_) => slots.push(None),
                _ => return None,
            }
        }
        let first = match atom.args.first() {
            Some(Expr::Lit(_)) => FirstCol::Const,
            Some(Expr::Var(_)) => FirstCol::Var(slots[0].expect("var slot")),
            _ => FirstCol::None,
        };
        lits.push(ExpLit {
            join: JoinLit {
                pred: Some(atom.pred.clone()),
                produces: if positive {
                    slots.iter().flatten().copied().collect()
                } else {
                    Vec::new()
                },
                requires: if positive {
                    Vec::new()
                } else {
                    slots.iter().flatten().copied().collect()
                },
                first: if positive { first } else { FirstCol::None },
                forced_first: false,
            },
            positive,
            pred: atom.pred.clone(),
            arity: atom.args.len(),
            first_label: atom.args.first().map(|a| a.to_string()),
        });
    }
    // Head must be plain too, or the executor falls back.
    if !rule
        .head
        .args
        .iter()
        .all(|a| matches!(a, Expr::Var(_) | Expr::Lit(_)))
    {
        return None;
    }
    Some((lits, vars))
}

/// Intern the plan of one compilable rule, returning its root node.
fn plan_compiled_rule(
    rule: &Rule,
    lits: &[ExpLit],
    nvars: usize,
    catalog: &Catalog,
    idb: &BTreeSet<&str>,
    arena: &mut PlanArena,
) -> PlanId {
    let joins: Vec<JoinLit> = lits.iter().map(|l| l.join.clone()).collect();
    let order = catalog.order_join(&joins, nvars);
    let mut bound = vec![false; nvars];
    let mut children = Vec::with_capacity(order.len());
    for &i in &order {
        let lit = &lits[i];
        let sig = format!("{}/{}", lit.pred, lit.arity);
        let child = if !lit.positive {
            arena.leaf("antijoin", sig)
        } else {
            let probeable = match lit.join.first {
                FirstCol::Const => true,
                FirstCol::Var(v) => bound[v],
                FirstCol::None => false,
            };
            if probeable {
                let key = lit.first_label.as_deref().unwrap_or("?");
                arena.leaf("probe", format!("{sig} on {key}"))
            } else if idb.contains(lit.pred.as_str()) {
                arena.leaf("scan", format!("{sig} [idb]"))
            } else {
                arena.leaf(
                    "scan",
                    format!("{sig} ({:.0} rows)", catalog.card(&lit.pred)),
                )
            }
        };
        children.push(child);
        for &v in &lit.join.produces {
            bound[v] = true;
        }
    }
    arena.node("project", rule.head.to_string(), children)
}

/// Intern the fallback plan of a rule the compiled executor cannot take:
/// the interpreted engine's greedy body order, annotated `(interpreted)`.
fn plan_interpreted_rule(rule: &Rule, arena: &mut PlanArena) -> Result<PlanId, EvalError> {
    let plan = plan_body(rule)?;
    let mut children = Vec::with_capacity(plan.order.len());
    for &i in &plan.order {
        let lit = &rule.body[i];
        let op = match lit {
            Literal::Pos(_) => "scan",
            Literal::Neg(_) => "antijoin",
            Literal::Cmp(..) => "filter",
        };
        children.push(arena.leaf(op, lit.to_string()));
    }
    Ok(arena.node("project", format!("{} (interpreted)", rule.head), children))
}

/// Render the plan for every rule of `program` against `db`.
///
/// `stats` — when provided (e.g. from a previous traced run) — refines
/// the catalog's index hit-rate via [`Catalog::observe`]. Errors only
/// when a rule body cannot be put in any evaluable order, i.e. exactly
/// when evaluation itself would fail the safety check.
pub fn explain_program(
    program: &Program,
    db: &Database,
    stats: Option<&EvalStats>,
) -> Result<String, EvalError> {
    let mut catalog = catalog_of(db);
    if let Some(stats) = stats {
        catalog.observe(stats);
    }
    explain_with_catalog(program, &catalog)
}

/// [`explain_program`] against statistics the caller already holds (the
/// serving layer keeps them current per changed relation instead of
/// re-reading the database).
pub fn explain_with_catalog(program: &Program, catalog: &Catalog) -> Result<String, EvalError> {
    let idb = program.idb_preds();
    let mut arena = PlanArena::new();
    let mut roots = Vec::with_capacity(program.rules.len());
    for (r, rule) in program.rules.iter().enumerate() {
        // Safety first, exactly as evaluation would check it — an
        // unorderable body must fail `explain` too, compiled or not.
        plan_body(rule)?;
        let root = match explain_lits(rule) {
            Some((lits, vars)) => {
                plan_compiled_rule(rule, &lits, vars.len(), catalog, &idb, &mut arena)
            }
            None => plan_interpreted_rule(rule, &mut arena)?,
        };
        roots.push((format!("rule {r}"), root));
    }
    Ok(arena.render(&roots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use algrec_value::{Relation, Value};

    fn edges_db() -> Database {
        let mut pairs = Vec::new();
        for k in 0..10i64 {
            pairs.push((Value::int(k), Value::int(k + 1)));
        }
        Database::new().with("edge", Relation::from_pairs(pairs))
    }

    #[test]
    fn catalog_counts_what_the_interpretation_would_hold() {
        // Binary, unary, zero-arity and empty relations: the statistics
        // read off the relations are those of the loaded interpretation.
        let i = Value::int;
        let db = edges_db()
            .with("u", Relation::from_values([i(7), i(8)]))
            .with("flag", Relation::from_values([Value::Tuple(vec![])]))
            .with("none", Relation::new())
            .with(
                "fan",
                Relation::from_pairs([(i(1), i(2)), (i(1), i(3)), (i(2), i(3))]),
            );
        let interp = crate::interp::Interp::from_database(&db);
        let catalog = catalog_of(&db);
        for (name, rel) in db.iter() {
            let (rows, first_keys) = relation_stats(rel);
            assert_eq!(rows, interp.count(name), "{name}");
            let distinct: HashSet<&Value> = interp.facts(name).filter_map(|f| f.first()).collect();
            assert_eq!(first_keys, distinct.len(), "{name}");
            if rows > 0 {
                assert_eq!(catalog.card(name), rows as f64, "{name}");
            }
        }
        assert_eq!(relation_stats(db.get("fan").unwrap()), (3, 2));
        assert_eq!(relation_stats(db.get("flag").unwrap()), (1, 0));
        // An empty relation costs what an unknown one does.
        assert_eq!(catalog.card("none"), catalog.card("never-heard-of"));
    }

    #[test]
    fn tc_plan_probes_edge_and_shares_scans() {
        let program = parse_program(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- tc(X, Y), edge(Y, Z).",
        )
        .unwrap();
        let text = explain_program(&program, &edges_db(), None).unwrap();
        // The recursive rule scans tc (bigger estimated cost avoided via
        // probe on the bound join column of edge).
        assert!(text.contains("probe edge/2 on Y"), "{text}");
        assert!(text.contains("scan edge/2 (10 rows)"), "{text}");
        assert!(text.contains("project tc(X, Z)"), "{text}");
    }

    #[test]
    fn shared_access_paths_are_cross_referenced() {
        let program = parse_program(
            "a(X) :- edge(X, Y).\n\
             b(Y) :- edge(X, Y).",
        )
        .unwrap();
        let text = explain_program(&program, &edges_db(), None).unwrap();
        // Both rules scan edge identically: the second occurrence must be
        // rendered as a shared reference, not duplicated.
        assert!(text.contains("shared #"), "{text}");
    }

    #[test]
    fn non_compilable_rules_are_marked_interpreted() {
        let program = parse_program("nat(succ(X)) :- nat(X).").unwrap();
        let text = explain_program(&program, &Database::new(), None).unwrap();
        assert!(text.contains("(interpreted)"), "{text}");
    }

    #[test]
    fn unsafe_rules_error_like_evaluation() {
        let program = parse_program("p(X) :- not q(X).").unwrap();
        assert!(explain_program(&program, &Database::new(), None).is_err());
    }
}
