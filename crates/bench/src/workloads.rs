//! Workload generators and the program zoo used by the experiments.
//!
//! The paper has no evaluation section, so the workloads are synthesized
//! from its own running examples: graphs for transitive closure
//! (Theorem 4.3), MOVE graphs with a controllable cycle fraction for the
//! WIN game (Sections 3.2 and 6), and the IFP-algebra queries behind
//! Prop 5.1 (Example 4 and a nested difference). Generators are
//! deterministic in their seed.

use algrec_core::parser::parse_program as parse_alg;
use algrec_core::AlgProgram;
use algrec_datalog::parser::parse_program as parse_dl;
use algrec_datalog::Program;
use algrec_value::{Database, Relation, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

fn pairs_to_db(name: &str, pairs: impl IntoIterator<Item = (i64, i64)>) -> Database {
    Database::new().with(
        name,
        Relation::from_pairs(
            pairs
                .into_iter()
                .map(|(a, b)| (Value::int(a), Value::int(b))),
        ),
    )
}

/// A random graph with `m` edges over `n` nodes (no self-loops unless
/// `loops`).
pub fn random_graph(name: &str, n: i64, m: usize, loops: bool, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: BTreeSet<(i64, i64)> = BTreeSet::new();
    let mut guard = 0usize;
    while edges.len() < m && guard < m * 50 {
        guard += 1;
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if loops || a != b {
            edges.insert((a, b));
        }
    }
    pairs_to_db(name, edges)
}

/// A MOVE graph with a controllable amount of cyclicity: a DAG backbone
/// plus `round(cycle_fraction × n)` back edges closing cycles.
pub fn winmove_graph(n: i64, cycle_fraction: f64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: BTreeSet<(i64, i64)> = BTreeSet::new();
    // backbone path plus random forward edges
    for k in 0..n - 1 {
        edges.insert((k, k + 1));
    }
    for _ in 0..n {
        let a = rng.random_range(0..n - 1);
        let b = rng.random_range(a + 1..n);
        edges.insert((a, b));
    }
    // back edges introduce cycles
    let backs = (cycle_fraction * n as f64).round() as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < backs && guard < backs * 100 + 10 {
        guard += 1;
        let a = rng.random_range(1..n);
        let b = rng.random_range(0..a);
        if edges.insert((a, b)) {
            added += 1;
        }
    }
    pairs_to_db("move", edges)
}

/// Add a unary `node` relation enumerating `0..n` to a database.
pub fn with_nodes(mut db: Database, n: i64) -> Database {
    db.set("node", Relation::from_values((0..n).map(Value::int)));
    db
}

/// Transitive closure, deductively.
pub fn tc_datalog() -> Program {
    parse_dl("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).").unwrap()
}

/// Transitive closure plus its complement (stratified, Theorem 4.3's
/// shape).
pub fn unreach_datalog() -> Program {
    parse_dl(
        "tc(X, Y) :- edge(X, Y).\n\
         tc(X, Z) :- tc(X, Y), edge(Y, Z).\n\
         un(X, Y) :- node(X), node(Y), not tc(X, Y).",
    )
    .unwrap()
}

/// The WIN game, deductively.
pub fn win_datalog() -> Program {
    parse_dl("win(X) :- move(X, Y), not win(Y).").unwrap()
}

/// Transitive closure as a positive IFP-algebra query.
pub fn tc_algebra() -> AlgProgram {
    parse_alg("query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));").unwrap()
}

/// The complement query (unreachable pairs) in the positive IFP-algebra.
pub fn unreach_algebra() -> AlgProgram {
    parse_alg(
        "def tc = ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));
         query (node * node) - tc;",
    )
    .unwrap()
}

/// Example 4's non-positive IFP query.
pub fn example4_algebra() -> AlgProgram {
    parse_alg("query ifp(x, {'a'} - x);").unwrap()
}

/// The nested-difference IFP query that separates the naive Prop 5.1
/// translation from the staged one.
pub fn nested_diff_algebra() -> AlgProgram {
    parse_alg("query ifp(x, a - (a - x));").unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = random_graph("e", 10, 15, false, 42);
        let b = random_graph("e", 10, 15, false, 42);
        assert_eq!(a, b);
        let c = random_graph("e", 10, 15, false, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn winmove_cycle_fraction_zero_is_acyclic() {
        let db = winmove_graph(16, 0.0, 3);
        for v in db.get("move").unwrap().iter() {
            let t = v.as_tuple().unwrap();
            assert!(t[0].as_int().unwrap() < t[1].as_int().unwrap());
        }
        // and a positive fraction adds back edges
        let db2 = winmove_graph(16, 0.5, 3);
        let backs = db2
            .get("move")
            .unwrap()
            .iter()
            .filter(|v| {
                let t = v.as_tuple().unwrap();
                t[0].as_int().unwrap() > t[1].as_int().unwrap()
            })
            .count();
        assert!(backs > 0);
    }

    #[test]
    fn programs_parse() {
        let _ = (
            tc_datalog(),
            unreach_datalog(),
            win_datalog(),
            tc_algebra(),
            unreach_algebra(),
            example4_algebra(),
            nested_diff_algebra(),
        );
    }

    #[test]
    fn with_nodes_adds_relation() {
        let db = with_nodes(random_graph("edge", 4, 3, false, 1), 4);
        assert_eq!(db.get("node").unwrap().len(), 4);
    }
}
