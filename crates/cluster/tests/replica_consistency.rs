//! The replication invariant, property-tested: **a replica's state is
//! always the cold evaluation of its position.** However the primary's
//! log generations are chunked into pulls, however often a pull is
//! retried (re-feeding frames already applied, exactly what the TCP
//! puller does after a dropped connection), and whether the replica
//! starts from generation 0 or bootstraps from a snapshot because
//! compaction took the older logs, the replica session must be
//! indistinguishable from a fresh session that loaded snapshot `gen` and
//! folded the first `records` records of its log ([`rebuild_at`]).
//!
//! The workload mixes fact batches, single asserts, retracts, and view
//! registrations, and the primary snapshots every few records, so
//! records of every kind cross seals and compactions.

use algrec_cluster::{open_primary, rebuild_at, Position, ReplicaCore};
use algrec_datalog::Semantics;
use algrec_serve::{QueryAnswer, Session, SharedSession};
use algrec_store::codec::HEADER_LEN;
use algrec_store::snapshot::{snapshot_path, wal_generations, wal_path};
use algrec_store::{read_from, StoreOptions, SyncPolicy};
use algrec_value::Budget;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One primary-side operation.
#[derive(Debug, Clone)]
enum Op {
    /// Assert a batch of edges (one record).
    Batch(Vec<(i64, i64)>),
    /// Retract one edge (no-ops if absent — then nothing is logged).
    Retract(i64, i64),
    /// Register a transitive-closure view (unique name per index).
    Register,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest's `prop_oneof` is unweighted; repeating the
    // batch arm biases the mix toward delta records.
    prop_oneof![
        proptest::collection::vec((0i64..12, 0i64..12), 1..6).prop_map(Op::Batch),
        proptest::collection::vec((0i64..12, 0i64..12), 1..6).prop_map(Op::Batch),
        (0i64..12, 0i64..12).prop_map(|(a, b)| Op::Retract(a, b)),
        Just(Op::Register),
    ]
}

/// Drive the ops through a primary snapshotting every `cadence` records,
/// leaving its retained generations on disk. Returns its final position.
fn build_primary(dir: &Path, ops: &[Op], cadence: usize) -> Position {
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(cadence),
    };
    let (mut session, _, primary) = open_primary(dir, Budget::LARGE, options).unwrap();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Batch(edges) => {
                let facts: String = edges
                    .iter()
                    .map(|(a, b)| format!("e({a}, {b}). "))
                    .collect();
                session.load(&facts).unwrap();
            }
            Op::Retract(a, b) => {
                session.retract_fact(&format!("e({a}, {b})")).unwrap();
            }
            Op::Register => {
                session
                    .register_datalog(
                        &format!("tc_{i}"),
                        "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).",
                        Semantics::SemiNaive,
                    )
                    .unwrap();
            }
        }
    }
    primary.position()
}

/// Everything observable about a session, for equality checks.
fn observe(session: &mut Session) -> (Vec<(String, usize)>, Vec<String>, Vec<QueryAnswer>) {
    let views: Vec<String> = session
        .view_names()
        .iter()
        .map(|(name, ..)| name.clone())
        .collect();
    let answers = views
        .iter()
        .map(|name| session.query(name, None).unwrap())
        .collect();
    (session.db_summary(), views, answers)
}

/// The replica must equal the cold rebuild of exactly its position.
fn check(dir: &Path, core: &ReplicaCore) -> Result<(), TestCaseError> {
    let at = core.position();
    let mut cold = rebuild_at(dir, at, Budget::LARGE).unwrap();
    let expected = observe(&mut cold);
    let (check, _) = core
        .shared()
        .with_writer(|live| -> Result<(), TestCaseError> {
            prop_assert_eq!(&observe(live), &expected, "at {:?}", at);
            Ok(())
        })
        .unwrap();
    check
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replica_state_is_always_the_cold_eval_of_its_position(
        ops in proptest::collection::vec(op_strategy(), 4..14),
        cadence in 2usize..5,
        schedule in proptest::collection::vec((1usize..4, 0u8..10), 1..30),
    ) {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "algrec-repl-consistency-{}-{:x}",
            std::process::id(),
            ops.len() * 1000 + cadence * 100 + schedule.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let last = build_primary(&dir, &ops, cadence);

        // The replica starts where the oldest retained log starts: at
        // generation 0 from an empty session, or from that generation's
        // snapshot once compaction has taken generation 0.
        let gens = wal_generations(&dir).unwrap();
        prop_assert!(gens.len() <= 2, "retained logs {:?}", gens);
        let shared = Arc::new(SharedSession::new(Session::new(Budget::LARGE)));
        let mut core = ReplicaCore::new(shared);
        if gens[0] > 0 {
            let image = std::fs::read(snapshot_path(&dir, gens[0])).unwrap();
            core.bootstrap(gens[0], &image).unwrap();
            check(&dir, &core)?;
        }

        let mut steps = schedule.iter().cycle();
        for (i, &gen) in gens.iter().enumerate() {
            prop_assert_eq!(core.position(), Position { gen, records: 0 });
            let log = std::fs::read(wal_path(&dir, gen)).unwrap();
            let ends: Vec<usize> = read_from(&log, HEADER_LEN)
                .unwrap()
                .frames
                .iter()
                .map(|f| f.end)
                .collect();
            let start_of = |frame: usize| if frame == 0 { HEADER_LEN } else { ends[frame - 1] };
            // Frames applied so far.
            let mut fed = 0usize;
            while fed < ends.len() {
                let &(frames, coin) = steps.next().unwrap();
                // Coin 0: a retried pull, starting a frame before the
                // applied offset; the overlap must be skipped.
                let from = if coin == 0 { fed.saturating_sub(1) } else { fed };
                let to = (fed + frames).min(ends.len());
                let applied = core
                    .feed(&log[start_of(from)..ends[to - 1]], start_of(from) as u64)
                    .unwrap();
                prop_assert_eq!(applied, to - fed);
                fed = to;
                prop_assert_eq!(core.position(), Position { gen, records: fed as u64 });
                if coin >= 7 {
                    check(&dir, &core)?;
                }
            }
            if i + 1 < gens.len() {
                // The log is sealed: the next generation's snapshot is
                // exactly the state at its end.
                core.seal();
                check(&dir, &core)?;
            }
        }

        prop_assert_eq!(core.position(), last, "every retained record applied");
        check(&dir, &core)?;
        // At the final position the cold rebuild is the primary's own
        // recovery.
        let (mut recovered, _, _) =
            open_primary(&dir, Budget::LARGE, StoreOptions::default()).unwrap();
        let (live, _) = core.shared().with_writer(observe).unwrap();
        prop_assert_eq!(observe(&mut recovered), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
