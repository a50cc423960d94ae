//! Shared parsing and loading of ground facts — the extensional database.
//!
//! Fact files are Datalog fact lists (`edge(1, 2).`); the same grammar
//! also carries single-fact deltas in the line protocol's `assert` /
//! `retract` requests. Everything that consumes ground facts — the
//! `algrec` CLI's facts-file argument and the line protocol — goes
//! through this module, so the parse rules (ground heads only, no rule
//! bodies) are defined exactly once. [`load_facts`] parses a whole file
//! once and builds each relation the database does not hold yet in one
//! sorted bulk build (DESIGN.md §5, "Loading the EDB").

use crate::ast::{Expr, Rule};
use crate::interp::{args_tuple, Fact};
use crate::parser::{parse_program, ParseError};
use algrec_value::{Database, Relation, Value};
use std::collections::BTreeMap;

/// Check that `rule` is a ground fact and take its predicate and
/// arguments by value.
fn ground_fact(rule: Rule) -> Result<Fact, ParseError> {
    if !rule.body.is_empty() {
        return Err(ParseError {
            offset: 0,
            message: format!("expected a ground fact, found rule `{rule}`"),
        });
    }
    if let Some(other) = rule.head.args.iter().find(|e| !matches!(e, Expr::Lit(_))) {
        return Err(ParseError {
            offset: 0,
            message: format!("non-ground fact argument `{other}` in `{rule}`"),
        });
    }
    let args = rule
        .head
        .args
        .into_iter()
        .filter_map(|e| match e {
            Expr::Lit(v) => Some(v),
            _ => None,
        })
        .collect();
    Ok((rule.head.pred, args))
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
    match <[Rule; 1]>::try_from(parse_program(&with_dot)?.rules) {
        Ok([rule]) => ground_fact(rule),
        Err(_) => Err(ParseError {
            offset: 0,
            message: format!("expected exactly one fact, got `{trimmed}`"),
        }),
    }
}

/// Parse a facts file: a sequence of ground facts, comments allowed.
pub fn parse_facts(src: &str) -> Result<Vec<Fact>, ParseError> {
    let program = parse_program(src)?;
    program.rules.into_iter().map(ground_fact).collect()
}

/// Convert a fact to the [`Database`] member convention: unary facts are
/// bare values, wider facts are tuples.
pub fn fact_value(fact: &Fact) -> (String, Value) {
    (fact.0.clone(), args_tuple(&fact.1))
}

/// [`fact_value`]'s member convention on owned arguments.
fn into_member(mut args: Vec<Value>) -> Value {
    match args.len() {
        1 => args.pop().expect("one argument"),
        _ => Value::Tuple(args),
    }
}

/// Parse `src` as a facts file and load every fact into `db`; returns
/// the number of genuinely new members. Nothing is loaded if any fact
/// fails to parse.
///
/// The members are grouped per predicate first. A relation `db` does not
/// hold yet is built in one sort ([`Relation::from_values`]); its new
/// members are its distinct members. A relation it holds already takes
/// the members one by one, counting the ones it did not have.
pub fn load_facts(db: &mut Database, src: &str) -> Result<usize, ParseError> {
    let mut groups: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for rule in parse_program(src)?.rules {
        let (name, args) = ground_fact(rule)?;
        groups.entry(name).or_default().push(into_member(args));
    }
    let mut added = 0usize;
    for (name, members) in groups {
        match db.get_mut(&name) {
            Some(rel) => {
                for member in members {
                    added += usize::from(rel.insert(member));
                }
            }
            None => {
                let rel = Relation::from_values(members);
                added += rel.len();
                db.set(name, rel);
            }
        }
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The per-fact loader [`load_facts`] replaced: parse every fact,
    /// then one [`Database::insert_value`] each.
    fn load_per_fact(db: &mut Database, src: &str) -> Result<usize, ParseError> {
        let mut added = 0;
        for fact in &parse_facts(src)? {
            let (name, member) = fact_value(fact);
            added += usize::from(db.insert_value(name, member));
        }
        Ok(added)
    }

    /// A random facts file over `p` and `q`: mixed arities under one
    /// predicate, duplicates (`a` and `'a'` are one string), negative
    /// ints, booleans, quoted strings and `%` comments. With `tuples`,
    /// some arguments are tuple literals (`p([1, 2])` next to `p(1, 2)`,
    /// `p([1])` next to `p(1)`), which the facts grammar rejects.
    fn facts_text() -> impl Strategy<Value = String> {
        let arg = prop::sample::select(&[
            "-2", "-1", "0", "1", "2", "true", "false", "a", "'a'", "'b c'",
        ]);
        let tuple = prop::sample::select(&["[1, 2]", "[1]", "[a, -1]"]);
        let fact = (
            prop::sample::select(&["p", "q"]),
            prop::collection::vec((arg, tuple), 1..4),
            0..4usize,
        );
        (prop::collection::vec(fact, 0..12), any::<bool>()).prop_map(|(facts, tuples)| {
            let mut text = String::new();
            for (pred, args, extra) in facts {
                let args: Vec<&str> = args
                    .iter()
                    .enumerate()
                    .map(|(k, &(plain, tuple))| if tuples && k == extra { tuple } else { plain })
                    .collect();
                text.push_str(&format!("{pred}({}).", args.join(", ")));
                text.push_str(if extra == 0 { " % a comment\n" } else { "\n" });
                if extra == 3 {
                    text.push_str("% a comment line\n");
                }
            }
            text
        })
    }

    proptest! {
        /// Bulk loading gives the database and the count the per-fact
        /// loop gives, into an empty database and into one that already
        /// holds some of the relations (one of them possibly empty); a
        /// file that fails to parse loads nothing on either path.
        #[test]
        fn bulk_load_matches_per_fact(
            pre in facts_text(),
            src in facts_text(),
            empty_q in any::<bool>(),
        ) {
            let mut preloaded = Database::new();
            if empty_q {
                preloaded.set("q", Relation::new());
            }
            let _ = load_per_fact(&mut preloaded, &pre);
            for start in [Database::new(), preloaded] {
                let (mut bulk, mut per_fact) = (start.clone(), start.clone());
                let got = load_facts(&mut bulk, &src);
                let want = load_per_fact(&mut per_fact, &src);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(&bulk, &per_fact);
                if got.is_err() {
                    prop_assert_eq!(&bulk, &start);
                }
            }
        }
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
