//! Algebra plans: lowering [`AlgExpr`] trees into the hash-consed plan
//! IR and rendering them for `explain`.
//!
//! The lowering is *structural*: two pointer-distinct but structurally
//! equal subexpressions — as produced in bulk by
//! [`AlgProgram::substitute`](crate::program::AlgProgram) when recursive
//! definitions are inlined — intern to the same [`PlanId`]. The
//! evaluator uses those ids as cache keys when
//! [`EvalOptions::plan`](crate::eval::EvalOptions) is on (shared
//! loop-invariant values and join indexes across copies), and `explain`
//! renders the arena with shared nodes cross-referenced, making the
//! common-subexpression structure visible.

use crate::expr::AlgExpr;
use crate::program::AlgProgram;
use algrec_plan::{PlanArena, PlanId};
use algrec_value::Database;
use std::collections::HashMap;

/// The size of a relation by name; `None` when there is no such
/// relation.
pub type RowsOf<'a> = dyn Fn(&str) -> Option<usize> + 'a;

/// Intern `e` (and its whole subtree) into `arena`, memoizing by node
/// address in `keys` so repeated lowering of a shared subtree is O(1).
///
/// Labels are chosen injectively per structural shape (names, rendered
/// selection/map functions, fixpoint variables), so two expressions
/// receive the same [`PlanId`] iff they are structurally equal. When
/// `rows` is provided, the leaves naming a relation it knows are
/// annotated with their row counts (for rendering only — the evaluator
/// lowers without one, so cache keys never depend on data).
pub(crate) fn lower_expr(
    e: &AlgExpr,
    arena: &mut PlanArena,
    keys: &mut HashMap<usize, PlanId>,
    rows: Option<&RowsOf<'_>>,
) -> PlanId {
    let ptr = e as *const AlgExpr as usize;
    if let Some(&id) = keys.get(&ptr) {
        return id;
    }
    let id = match e {
        AlgExpr::Name(n) => match rows.and_then(|rows| rows(n)) {
            Some(len) => arena.leaf("scan", format!("{n} ({len} rows)")),
            None => arena.leaf("name", n.clone()),
        },
        AlgExpr::Lit(_) => arena.leaf("lit", e.to_string()),
        AlgExpr::Union(a, b) => {
            let ca = lower_expr(a, arena, keys, rows);
            let cb = lower_expr(b, arena, keys, rows);
            arena.node("union", "", vec![ca, cb])
        }
        AlgExpr::Diff(a, b) => {
            let ca = lower_expr(a, arena, keys, rows);
            let cb = lower_expr(b, arena, keys, rows);
            arena.node("diff", "", vec![ca, cb])
        }
        AlgExpr::Product(a, b) => {
            let ca = lower_expr(a, arena, keys, rows);
            let cb = lower_expr(b, arena, keys, rows);
            arena.node("product", "", vec![ca, cb])
        }
        AlgExpr::Select(a, t) => {
            let ca = lower_expr(a, arena, keys, rows);
            arena.node("select", t.to_string(), vec![ca])
        }
        AlgExpr::Map(a, f) => {
            let ca = lower_expr(a, arena, keys, rows);
            arena.node("map", f.to_string(), vec![ca])
        }
        AlgExpr::Ifp { var, body } => {
            let cb = lower_expr(body, arena, keys, rows);
            arena.node("fix", var.clone(), vec![cb])
        }
        AlgExpr::Apply(name, args) => {
            let children = args
                .iter()
                .map(|a| lower_expr(a, arena, keys, rows))
                .collect();
            arena.node("apply", name.clone(), children)
        }
    };
    keys.insert(ptr, id);
    id
}

/// Render the plan of every definition and the query of `program`
/// against `db`: relation leaves carry row counts, and subplans shared
/// across definitions (hash-consed) are cross-referenced instead of
/// duplicated.
pub fn explain_program(program: &AlgProgram, db: &Database) -> String {
    explain_with_rows(program, &|name| db.get(name).map(|rel| rel.len()))
}

/// [`explain_program`] against row counts the caller already holds.
pub fn explain_with_rows(program: &AlgProgram, rows: &RowsOf<'_>) -> String {
    let mut arena = PlanArena::new();
    let mut keys = HashMap::new();
    let mut roots = Vec::with_capacity(program.defs.len() + 1);
    for def in &program.defs {
        roots.push((
            format!("def {}", def.name),
            lower_expr(&def.body, &mut arena, &mut keys, Some(rows)),
        ));
    }
    roots.push((
        "query".to_string(),
        lower_expr(&program.query, &mut arena, &mut keys, Some(rows)),
    ));
    arena.render(&roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use algrec_value::{Relation, Value};

    #[test]
    fn win_plan_shows_fixpoint_and_scans() {
        let program =
            parse_program("def win = map(move - (map(move, x.0) * win), x.0); query win;").unwrap();
        let db = Database::new().with(
            "move",
            Relation::from_pairs([(Value::int(1), Value::int(2))]),
        );
        let text = explain_program(&program, &db);
        assert!(text.contains("scan move (1 rows)"), "{text}");
        assert!(text.contains("map"), "{text}");
        assert!(text.contains("def win"), "{text}");
        assert!(text.contains("query"), "{text}");
    }

    #[test]
    fn structurally_equal_subplans_are_shared() {
        let program = parse_program("def a = map(move, x.0) * map(move, x.0); query a;").unwrap();
        let db = Database::new().with(
            "move",
            Relation::from_pairs([(Value::int(1), Value::int(2))]),
        );
        let text = explain_program(&program, &db);
        // `map(move, x.0)` occurs twice structurally: rendered once, then
        // cross-referenced.
        assert!(text.contains("shared #"), "{text}");
    }

    #[test]
    fn lowering_is_structural_not_positional() {
        let program = parse_program("query (move * move) - (move * move);").unwrap();
        let mut arena = PlanArena::new();
        let mut keys = HashMap::new();
        let AlgExpr::Diff(a, b) = &program.query else {
            panic!("expected diff");
        };
        let ia = lower_expr(a, &mut arena, &mut keys, None);
        let ib = lower_expr(b, &mut arena, &mut keys, None);
        assert_eq!(ia, ib, "pointer-distinct twins share one plan id");
    }
}
