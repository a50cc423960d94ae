//! Shared parsing and loading of ground facts — the extensional database.
//!
//! Fact files are Datalog fact lists (`edge(1, 2).`); the same grammar
//! also carries single-fact deltas in the line protocol's `assert` /
//! `retract` requests. Everything that consumes ground facts — the
//! `algrec` CLI's facts-file argument and the line protocol — goes
//! through this module, so the parse rules (ground
//! heads only, no rule bodies) and the in-place loading strategy are
//! defined exactly once.

use crate::ast::{Expr, Rule};
use crate::interp::{args_tuple, Fact};
use crate::parser::{parse_program, ParseError};
use algrec_value::{Database, Value};

fn ground_fact(rule: &Rule) -> Result<Fact, ParseError> {
    if !rule.body.is_empty() {
        return Err(ParseError {
            offset: 0,
            message: format!("expected a ground fact, found rule `{rule}`"),
        });
    }
    let args: Vec<Value> = rule
        .head
        .args
        .iter()
        .map(|e| match e {
            Expr::Lit(v) => Ok(v.clone()),
            other => Err(ParseError {
                offset: 0,
                message: format!("non-ground fact argument `{other}` in `{rule}`"),
            }),
        })
        .collect::<Result<_, _>>()?;
    Ok((rule.head.pred.clone(), args))
}

/// Parse one ground fact, e.g. `edge(1, 2)` (the trailing period is
/// optional, matching how deltas are written interactively).
pub fn parse_fact(src: &str) -> Result<Fact, ParseError> {
    let trimmed = src.trim();
    let with_dot = if trimmed.ends_with('.') {
        trimmed.to_string()
    } else {
        format!("{trimmed}.")
    };
    let program = parse_program(&with_dot)?;
    match program.rules.as_slice() {
        [rule] => ground_fact(rule),
        _ => Err(ParseError {
            offset: 0,
            message: format!("expected exactly one fact, got `{trimmed}`"),
        }),
    }
}

/// Parse a facts file: a sequence of ground facts, comments allowed.
pub fn parse_facts(src: &str) -> Result<Vec<Fact>, ParseError> {
    let program = parse_program(src)?;
    program.rules.iter().map(ground_fact).collect()
}

/// Convert a fact to the [`Database`] member convention: unary facts are
/// bare values, wider facts are tuples.
pub fn fact_value(fact: &Fact) -> (String, Value) {
    (fact.0.clone(), args_tuple(&fact.1))
}

/// Parse `src` as a facts file and load every fact into `db` **in
/// place**; returns the number of genuinely new members. Replaces the old
/// per-fact clone-the-whole-relation loader (which made loading O(n²) in
/// the relation size).
pub fn load_facts(db: &mut Database, src: &str) -> Result<usize, ParseError> {
    let facts = parse_facts(src)?;
    let mut added = 0usize;
    for fact in &facts {
        let (name, member) = fact_value(fact);
        if db.insert_value(name, member) {
            added += 1;
        }
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn parses_single_fact_with_or_without_dot() {
        assert_eq!(
            parse_fact("edge(1, 2)").unwrap(),
            ("edge".to_string(), vec![i(1), i(2)])
        );
        assert_eq!(
            parse_fact(" edge(1, 2). ").unwrap(),
            ("edge".to_string(), vec![i(1), i(2)])
        );
        // Zero-arity atoms are not in the grammar.
        assert!(parse_fact("flag.").is_err());
    }

    #[test]
    fn rejects_rules_and_variables() {
        assert!(parse_fact("p(X)").is_err());
        assert!(parse_fact("p(1) :- q(1)").is_err());
        assert!(parse_facts("e(1, 2).\np(X) :- e(X, Y).").is_err());
        assert!(parse_fact("e(1). e(2).").is_err());
    }

    #[test]
    fn loads_in_place_and_counts_new() {
        let mut db = Database::new();
        let n = load_facts(&mut db, "edge(1, 2).\nedge(2, 3).\nnode(1).").unwrap();
        assert_eq!(n, 3);
        assert!(db.get("edge").unwrap().contains(&Value::pair(i(1), i(2))));
        assert!(db.get("node").unwrap().contains(&i(1)));
        // Reloading adds nothing.
        assert_eq!(load_facts(&mut db, "edge(1, 2).").unwrap(), 0);
    }

    #[test]
    fn loading_is_not_quadratic() {
        // 20k facts into one relation: the old clone-per-fact loader took
        // O(n²) member copies; the in-place loader is effectively linear.
        // We assert behavior (all present), and rely on the shared path
        // for performance.
        let src: String = (0..20_000)
            .map(|k| format!("e({k}, {}).\n", k + 1))
            .collect();
        let mut db = Database::new();
        let start = std::time::Instant::now();
        assert_eq!(load_facts(&mut db, &src).unwrap(), 20_000);
        assert_eq!(db.get("e").unwrap().len(), 20_000);
        // Generous bound: in-place loading of 20k facts is well under 5s
        // even in debug builds; the quadratic loader blew far past it.
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }
}
