//! Determinism across thread counts: evaluating the same program on the
//! same database must be **bit-identical** at every worker-pool width —
//! same model, same rounds, same deterministic trace counters. The
//! dense random graphs generated here exceed the engine's fan-out
//! threshold, so the {2, 4, 8}-thread runs genuinely take the
//! hash-partitioned parallel path that the single-threaded baseline
//! never enters.
//!
//! The thread override is process-global (`algrec::sched::set_threads`),
//! so this file holds exactly one `#[test]`: the test binary cannot race
//! another test mutating the override.

use algrec::datalog::{evaluate_traced, parser::parse_program, Semantics};
use algrec::sched::set_threads;
use algrec::value::{Budget, Database, EvalStats, Relation, Trace, Value};
use proptest::prelude::*;

const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";
const WIN: &str = "win(X) :- e(X, Y), not win(Y).";

/// Restore the sequential defaults even when an assertion unwinds, so a
/// failure can't leak a parallel override into a rerun within the same
/// process.
struct ThreadGuard;

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        set_threads(1);
    }
}

fn database_of(edges: &[(i64, i64)]) -> Database {
    Database::new().with(
        "e",
        Relation::from_pairs(edges.iter().map(|&(a, b)| (Value::int(a), Value::int(b)))),
    )
}

/// The deterministic subset of collected evaluation statistics: phase
/// iterations, facts inserted, and the per-round delta trail. Wall-clock
/// and index-probe telemetry are legitimately schedule-dependent.
fn deterministic_stats(stats: &EvalStats) -> (Vec<(String, usize)>, usize, Vec<usize>) {
    (
        stats
            .phases
            .iter()
            .map(|(name, p)| (name.clone(), p.iterations))
            .collect(),
        stats.facts_inserted,
        stats.deltas.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn outputs_are_bit_identical_across_thread_counts(
        edges in proptest::collection::btree_set((0i64..40, 0i64..40), 260..320)
    ) {
        let _guard = ThreadGuard;
        let edges: Vec<(i64, i64)> = edges.into_iter().collect();
        let db = database_of(&edges);
        for (src, semantics) in [(TC, Semantics::SemiNaive), (WIN, Semantics::Valid)] {
            let program = parse_program(src).unwrap();

            set_threads(1);
            let base_trace = Trace::collect();
            let baseline =
                evaluate_traced(&program, &db, semantics, Budget::LARGE, base_trace.clone())
                    .unwrap();
            let base_stats = deterministic_stats(&base_trace.stats().unwrap());

            for threads in [2, 4, 8] {
                set_threads(threads);
                let trace = Trace::collect();
                let out = evaluate_traced(&program, &db, semantics, Budget::LARGE, trace.clone())
                    .unwrap();
                prop_assert_eq!(&out.model, &baseline.model, "model diverged at {} threads", threads);
                prop_assert_eq!(out.rounds, baseline.rounds);
                prop_assert_eq!(
                    deterministic_stats(&trace.stats().unwrap()),
                    base_stats.clone(),
                    "deterministic trace counters diverged at {} threads",
                    threads
                );
            }
        }
    }
}
