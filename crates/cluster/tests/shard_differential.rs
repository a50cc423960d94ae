//! The cluster's core correctness claim, tested differentially: a
//! sharded durable node answers exactly like a plain in-memory session,
//! before and after crash recovery.
//!
//! The thread override is process-global, so this file holds exactly
//! one `#[test]`: the binary cannot race another test mutating it.

use algrec_cluster::open_primary;
use algrec_datalog::Semantics;
use algrec_sched::set_threads;
use algrec_serve::{QueryAnswer, Session};
use algrec_store::SyncPolicy;
use algrec_value::Budget;
use std::collections::BTreeSet;

/// Restore the sequential defaults even when an assertion unwinds.
struct KnobGuard;

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_threads(1);
    }
}

const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";
/// Transitive closure plus a negation stratum over the node set.
const TC_NEG: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n\
                      n(X) :- e(X, Y).\nn(Y) :- e(X, Y).\n\
                      non(X, Y) :- n(X), n(Y), not tc(X, Y).";
const WIN: &str = "win(X) :- e(X, Y), not win(Y).";

/// A dense deterministic digraph, large enough (> 256 facts) that every
/// fixpoint round of the two-thread node takes the parallel path.
fn dense_edges() -> Vec<(i64, i64)> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut edges = BTreeSet::new();
    while edges.len() < 300 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((state >> 33) % 40) as i64;
        let b = ((state >> 13) % 40) as i64;
        edges.insert((a, b));
    }
    edges.into_iter().collect()
}

/// A query answer flattened for comparison.
fn answer_of(session: &mut Session, view: &str) -> (Vec<String>, Vec<String>) {
    match session.query(view, None).unwrap() {
        QueryAnswer::Datalog { certain, unknown } => (certain, unknown),
        QueryAnswer::Algebra { .. } => panic!("datalog view expected"),
    }
}

/// Node-level differential: a sharded durable primary (2 shards, 2
/// threads) must answer exactly like a plain in-memory session run
/// sequentially — including after a reopen.
fn node_differential(edges: &[(i64, i64)]) {
    let dir = std::env::temp_dir().join(format!("algrec-shard-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let facts: String = edges
        .iter()
        .map(|(a, b)| format!("e({a}, {b}). "))
        .collect();
    let views: [(&str, &str, Semantics); 3] = [
        ("closure", TC, Semantics::SemiNaive),
        ("frontier", TC_NEG, Semantics::Stratified),
        ("games", WIN, Semantics::WellFounded),
    ];

    // The plain reference, fully sequential.
    set_threads(1);
    let mut plain = Session::new(Budget::LARGE);
    plain.load(&facts).unwrap();
    for (name, src, semantics) in views {
        plain.register_datalog(name, src, semantics).unwrap();
    }
    plain
        .retract_fact(&format!("e({}, {})", edges[0].0, edges[0].1))
        .unwrap();
    plain.assert_fact("e(90, 91)").unwrap();
    let plain_answers: Vec<_> = views
        .iter()
        .map(|(n, _, _)| answer_of(&mut plain, n))
        .collect();

    // The cluster node, sharded on disk.
    set_threads(2);
    let (mut node, _, _) = open_primary(&dir, 2, Budget::LARGE, SyncPolicy::Always).unwrap();
    node.load(&facts).unwrap();
    for (name, src, semantics) in views {
        node.register_datalog(name, src, semantics).unwrap();
    }
    node.retract_fact(&format!("e({}, {})", edges[0].0, edges[0].1))
        .unwrap();
    node.assert_fact("e(90, 91)").unwrap();
    assert_eq!(node.db_summary(), plain.db_summary());
    for ((name, _, _), expected) in views.iter().zip(&plain_answers) {
        assert_eq!(
            &answer_of(&mut node, name),
            expected,
            "sharded node diverged on `{name}`"
        );
    }
    drop(node);

    // Crash-recover the node: everything must still match.
    let (mut reopened, report, _) =
        open_primary(&dir, 2, Budget::LARGE, SyncPolicy::Always).unwrap();
    assert!(report.commits >= 5, "load + 3 registers + 2 fact commits");
    assert_eq!(reopened.db_summary(), plain.db_summary());
    for ((name, _, _), expected) in views.iter().zip(&plain_answers) {
        assert_eq!(
            &answer_of(&mut reopened, name),
            expected,
            "recovered node diverged on `{name}`"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_nodes_match_a_plain_session() {
    let _guard = KnobGuard;
    node_differential(&dense_edges());
}
