//! Fault injection: crash the store every way we can and prove recovery
//! restores **exactly the committed prefix** — the state after the last
//! WAL record that made it to disk intact, with view answers
//! bit-identical to a cold evaluation of that state.
//!
//! Faults exercised:
//! * clean restart (the trivial crash) after random op sequences;
//! * truncation of the WAL at *every* byte offset (torn tail);
//! * single-byte corruption at arbitrary offsets (bit rot / torn write);
//! * a writer that dies partway through an append, via the [`LogFile`]
//!   shim — the kill-mid-append case where the tail is garbage the
//!   moment the process vanishes;
//! * crash-equivalent restarts across automatic snapshot+compaction
//!   boundaries.

use algrec_datalog::Semantics;
use algrec_serve::{QueryAnswer, Session};
use algrec_store::snapshot::{encode_snapshot, snapshot_path, wal_path, SnapshotState};
use algrec_store::{open, LogFile, StoreOptions, SyncPolicy, Wal, WalRecord};
use algrec_value::{Budget, Database, DatabaseDelta, Trace, Value};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";
const WIN: &str = "win(X) :- e(X, Y), not win(Y).";

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique, self-cleaning store directory per test case.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path = std::env::temp_dir().join(format!(
            "algrec-fault-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TestDir(path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One randomized session operation.
#[derive(Clone, Debug)]
enum Op {
    Assert(i64, i64),
    Retract(i64, i64),
    RegisterTc,
    RegisterWin,
    Unregister(&'static str),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..5i64, 0..5i64).prop_map(|(a, b)| Op::Assert(a, b)),
        (0..5i64, 0..5i64).prop_map(|(a, b)| Op::Assert(a, b)),
        (0..5i64, 0..5i64).prop_map(|(a, b)| Op::Retract(a, b)),
        Just(Op::RegisterTc),
        Just(Op::RegisterWin),
        prop::sample::select(&["paths", "game"]).prop_map(Op::Unregister),
    ]
}

/// Apply one op, tolerating domain errors (duplicate registration,
/// unknown view): those never reach the log, which is the point — only
/// *committed* changes are durable.
fn run_op(session: &mut Session, op: &Op) {
    match op {
        Op::Assert(a, b) => {
            let _ = session.assert_fact(&format!("e({a}, {b})"));
        }
        Op::Retract(a, b) => {
            let _ = session.retract_fact(&format!("e({a}, {b})"));
        }
        Op::RegisterTc => {
            let _ = session.register_datalog("paths", TC, Semantics::Stratified);
        }
        Op::RegisterWin => {
            let _ = session.register_datalog("game", WIN, Semantics::Valid);
        }
        Op::Unregister(name) => {
            let _ = session.unregister(name);
        }
    }
}

/// Every view's full answer, in catalog order.
fn all_answers(session: &mut Session) -> Vec<(String, QueryAnswer)> {
    session
        .catalog()
        .iter()
        .map(|v| (v.name.clone(), session.query(&v.name, None).unwrap()))
        .collect()
}

/// Assert `session` is exactly `db` + `views`, and that its answers are
/// bit-identical to a cold evaluation of the same state.
fn assert_state(session: &mut Session, db: &Database, answers: &[(String, QueryAnswer)]) {
    assert_eq!(session.db(), db, "recovered EDB differs");
    let recovered = all_answers(session);
    assert_eq!(recovered, answers, "recovered view answers differ");
    algrec_store::verify_against_cold(session).expect("cold-eval divergence");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clean restart: whatever a session committed, reopening the store
    /// reproduces it exactly — EDB, catalog, and every view answer.
    #[test]
    fn restart_reproduces_committed_state(ops in prop::collection::vec(arb_op(), 1..20)) {
        let dir = TestDir::new("restart");
        let options = StoreOptions { sync: SyncPolicy::Always, snapshot_every: None };
        let (mut session, report) =
            open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        prop_assert!(!report.restored_anything());
        for op in &ops {
            run_op(&mut session, op);
        }
        let db = session.db().clone();
        let answers = all_answers(&mut session);
        drop(session); // "crash": no orderly close exists, none is needed

        let (mut recovered, report) =
            open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        prop_assert_eq!(report.snapshot_gen, None);
        assert_state(&mut recovered, &db, &answers);
    }

    /// Torn tail: truncate the WAL at an arbitrary byte offset. Recovery
    /// must restore the longest intact record prefix — computed here
    /// independently by replaying that many ops on a parallel session.
    #[test]
    fn truncation_restores_longest_intact_prefix(
        ops in prop::collection::vec(arb_op(), 1..14),
        cut_seed in any::<u32>(),
    ) {
        let dir = TestDir::new("trunc");
        let options = StoreOptions { sync: SyncPolicy::Always, snapshot_every: None };
        let (mut session, _) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        for op in &ops {
            run_op(&mut session, op);
        }
        drop(session);

        let log = wal_path(&dir.0, 0);
        let bytes = std::fs::read(&log).unwrap();
        let cut = algrec_store::codec::HEADER_LEN
            + cut_seed as usize % (bytes.len() - algrec_store::codec::HEADER_LEN + 1);
        std::fs::write(&log, &bytes[..cut]).unwrap();

        // How many records survive the cut decides the expected state.
        let surviving = algrec_store::wal::read_wal(&bytes[..cut]).unwrap().records;
        let mut expected = Session::new(Budget::SMALL);
        replay_reference(&mut expected, &surviving);
        let db = expected.db().clone();
        let answers = all_answers(&mut expected);

        let (mut recovered, report) =
            open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        prop_assert_eq!(report.replayed, surviving.len());
        assert_state(&mut recovered, &db, &answers);

        // The truncation is persistent: the next open sees a clean log.
        drop(recovered);
        let (_, report) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        prop_assert_eq!(report.truncated_bytes, 0);
    }

    /// Bit flip: corrupt one byte anywhere after the header. Recovery
    /// keeps exactly the records before the damaged one.
    #[test]
    fn corruption_restores_prefix_before_damage(
        ops in prop::collection::vec(arb_op(), 2..14),
        pos_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let dir = TestDir::new("flip");
        let options = StoreOptions { sync: SyncPolicy::Always, snapshot_every: None };
        let (mut session, _) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        for op in &ops {
            run_op(&mut session, op);
        }
        drop(session);

        let log = wal_path(&dir.0, 0);
        let mut bytes = std::fs::read(&log).unwrap();
        let header = algrec_store::codec::HEADER_LEN;
        let pos = header + pos_seed as usize % (bytes.len() - header);
        bytes[pos] ^= flip;
        std::fs::write(&log, &bytes).unwrap();

        let survivors = algrec_store::wal::read_wal(&bytes).unwrap().records;
        let mut expected = Session::new(Budget::SMALL);
        replay_reference(&mut expected, &survivors);
        let db = expected.db().clone();
        let answers = all_answers(&mut expected);

        let (mut recovered, report) =
            open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        prop_assert_eq!(report.replayed, survivors.len());
        assert_state(&mut recovered, &db, &answers);
    }

    /// Snapshots + compaction change nothing observable: with aggressive
    /// auto-snapshotting, restarts at arbitrary points still reproduce
    /// the committed state, and the log directory stays compacted.
    #[test]
    fn snapshot_compaction_preserves_state_across_restarts(
        rounds in prop::collection::vec(prop::collection::vec(arb_op(), 1..6), 1..4),
        every in 1usize..4,
    ) {
        let dir = TestDir::new("snap");
        let options = StoreOptions { sync: SyncPolicy::Always, snapshot_every: Some(every) };
        let mut db = Database::new();
        let mut answers = Vec::new();
        for ops in &rounds {
            let (mut session, report) =
                open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
            assert_state(&mut session, &db, &answers);
            prop_assert!(report.replayed < every + 1, "log was not being compacted");
            for op in ops {
                run_op(&mut session, op);
            }
            db = session.db().clone();
            answers = all_answers(&mut session);
        }
        // Retention stays bounded after all that churn: two generation
        // pairs (the previous one is the CRC-failure fallback target).
        let snaps = algrec_store::snapshot::snapshot_generations(&dir.0).unwrap();
        let wals = algrec_store::snapshot::wal_generations(&dir.0).unwrap();
        prop_assert!(snaps.len() <= 2, "snapshots not compacted: {snaps:?}");
        prop_assert!(!wals.is_empty() && wals.len() <= 2, "{wals:?}");
    }
}

/// Replay reference: apply decoded records to a plain session the same
/// way recovery does, as an independent oracle for expected state.
fn replay_reference(session: &mut Session, records: &[WalRecord]) {
    for record in records {
        match record {
            WalRecord::Delta(delta) => {
                session.apply_delta(delta).unwrap();
            }
            WalRecord::RegisterDatalog {
                name,
                semantics,
                program,
                strategy,
            } => {
                let semantics = algrec_serve::parse_semantics(semantics).unwrap();
                let pin = algrec_serve::StrategyPin::parse(strategy).unwrap();
                session
                    .register_datalog_pinned(name, program, semantics, pin)
                    .unwrap();
            }
            WalRecord::RegisterAlgebra { name, program } => {
                session.register_algebra(name, program).unwrap();
            }
            WalRecord::Unregister { name } => {
                session.unregister(name).unwrap();
            }
            WalRecord::Sequenced { inner, .. } => {
                replay_reference(session, std::slice::from_ref(inner));
            }
        }
    }
}

/// A log file that dies after writing `budget` more bytes, leaving a
/// half-written record on disk — byte-exact what SIGKILL mid-append (or
/// a power cut mid-write) leaves behind.
struct DyingFile {
    inner: std::fs::File,
    budget: usize,
}

impl LogFile for DyingFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.len() <= self.budget {
            self.budget -= bytes.len();
            self.inner.write_all(bytes)
        } else {
            let partial = &bytes[..self.budget];
            self.budget = 0;
            self.inner.write_all(partial)?;
            self.inner.sync_data()?;
            Err(std::io::Error::other("simulated crash mid-append"))
        }
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.sync_data()
    }
}

/// Kill mid-append: a writer with a byte budget dies partway through a
/// record. Everything fully appended before the death recovers; the
/// half-record does not, and is truncated away.
#[test]
fn kill_mid_append_recovers_committed_prefix() {
    let mut delta_of = |k: i64| {
        let mut d = DatabaseDelta::new();
        d.insert("e", Value::pair(Value::int(k), Value::int(k + 1)));
        WalRecord::Delta(d)
    };
    let records: Vec<WalRecord> = (0..40).map(&mut delta_of).collect();
    let frame_bytes = |r: &WalRecord| algrec_store::codec::frame_record(&r.encode()).len();
    let header = algrec_store::codec::HEADER_LEN;

    // Die at every interesting offset: record boundaries and mid-record.
    let mut budgets = vec![header, header + 1];
    let mut acc = header;
    for r in &records {
        let n = frame_bytes(r);
        budgets.push(acc + n / 2);
        budgets.push(acc + n);
        acc += n;
    }

    for budget in budgets {
        let dir = TestDir::new("kill");
        let log = wal_path(&dir.0, 0);
        let file = DyingFile {
            inner: std::fs::File::create(&log).unwrap(),
            budget,
        };
        let mut committed = 0usize;
        match Wal::create(Box::new(file), SyncPolicy::Always, Trace::default()) {
            Err(_) => {} // died inside the header: an empty store
            Ok(mut wal) => {
                for record in &records {
                    match wal.append(record) {
                        Ok(_) => committed += 1,
                        Err(_) => break,
                    }
                }
            }
        }

        let options = StoreOptions {
            sync: SyncPolicy::Always,
            snapshot_every: None,
        };
        let (mut recovered, report) =
            open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        assert_eq!(
            report.replayed, committed,
            "budget {budget}: wrong committed prefix recovered"
        );
        let mut expected = Session::new(Budget::SMALL);
        replay_reference(&mut expected, &records[..committed]);
        assert_eq!(recovered.db(), expected.db(), "budget {budget}");
        // And the store keeps working after the repair.
        recovered.assert_fact("e(100, 101)").unwrap();
    }
}

/// An unreadable (version-bumped) WAL must refuse to open rather than
/// come up empty and silently orphan committed data.
#[test]
fn version_bumped_log_refuses_to_open() {
    let dir = TestDir::new("version");
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: None,
    };
    let (mut session, _) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
    session.assert_fact("e(1, 2)").unwrap();
    drop(session);

    let log = wal_path(&dir.0, 0);
    let mut bytes = std::fs::read(&log).unwrap();
    bytes[8] = 0x63;
    std::fs::write(&log, &bytes).unwrap();

    let Err(err) = open(&dir.0, Budget::SMALL, options, Trace::default()) else {
        panic!("version-bumped log opened");
    };
    assert!(
        matches!(err, algrec_store::StoreError::Corrupt { .. }),
        "unexpected error: {err}"
    );
}

/// The reader that stays: a store whose newest snapshot is a *row-codec*
/// image (what earlier binaries wrote) reopens to exactly the committed
/// state — snapshot plus a WAL tail that registers a view — and the
/// next snapshot it writes is columnar.
#[test]
fn row_codec_snapshot_reopens_and_is_superseded_by_a_columnar_one() {
    let dir = TestDir::new("rowsnap");
    let gen = 3;

    // The snapshotted prefix, then the tail logged after it.
    let mut expected = Session::new(Budget::SMALL);
    for k in 0..6 {
        expected.assert_fact(&format!("e({k}, {})", k + 1)).unwrap();
    }
    let image = encode_snapshot(&SnapshotState {
        db: expected.db().clone(),
        views: Vec::new(),
    });
    assert!(!algrec_store::colsnap::is_column_snapshot(&image));
    std::fs::write(snapshot_path(&dir.0, gen), &image).unwrap();

    let mut tail_delta = DatabaseDelta::new();
    tail_delta.insert("e", Value::pair(Value::int(6), Value::int(7)));
    tail_delta.remove("e", Value::pair(Value::int(0), Value::int(1)));
    let tail = [
        WalRecord::RegisterDatalog {
            name: "paths".into(),
            semantics: "stratified".into(),
            program: TC.into(),
            strategy: "auto".into(),
        },
        WalRecord::Delta(tail_delta),
    ];
    let file = std::fs::File::create(wal_path(&dir.0, gen)).unwrap();
    let mut wal = Wal::create(Box::new(file), SyncPolicy::Always, Trace::default()).unwrap();
    for record in &tail {
        wal.append(record).unwrap();
    }
    drop(wal);

    replay_reference(&mut expected, &tail);
    let want_db = expected.db().clone();
    let want_answers = all_answers(&mut expected);
    assert_eq!(want_answers.len(), 1, "the tail's view is registered");

    // Two replayed records count toward the schedule: one more write
    // triggers the next snapshot.
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(3),
    };
    let (mut session, report) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
    assert_eq!(report.snapshot_gen, Some(gen));
    assert_eq!(report.replayed, tail.len());
    assert_eq!(report.snapshot_fallbacks, 0);
    assert_state(&mut session, &want_db, &want_answers);

    session.assert_fact("e(7, 8)").unwrap();
    let db = session.db().clone();
    let answers = all_answers(&mut session);
    drop(session);
    let snaps = algrec_store::snapshot::snapshot_generations(&dir.0).unwrap();
    assert_eq!(snaps, [gen + 1, gen], "new generation beside the row one");
    let newest = std::fs::read(snapshot_path(&dir.0, gen + 1)).unwrap();
    assert!(algrec_store::colsnap::is_column_snapshot(&newest));

    let (mut reopened, report) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
    assert_eq!(report.snapshot_gen, Some(gen + 1));
    assert_eq!(report.replayed, 0);
    assert_state(&mut reopened, &db, &answers);
}

/// Columnar snapshots: a bit flip anywhere in the newest snapshot's run
/// region fails the CRC validation walk, and recovery falls back to the
/// previous generation plus its write-ahead log — restoring exactly the
/// committed state, with nothing replayed from the broken file.
#[test]
fn corrupt_columnar_run_region_falls_back_to_wal_replay() {
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(2),
    };
    type Damage = fn(&mut Vec<u8>);
    let cases: [(&str, Damage); 3] = [
        ("flip", |bytes| {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01; // the final run's CRC footer
        }),
        ("flip-mid", |bytes| {
            let mid = bytes.len() - bytes.len() / 4;
            bytes[mid] ^= 0x80; // inside the run region payload
        }),
        ("truncate", |bytes| {
            bytes.truncate(bytes.len() - 5); // torn mid-run
        }),
    ];
    for (tag, damage) in cases {
        let dir = TestDir::new("colsnap");
        let (mut session, _) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
        for k in 0..7 {
            session.assert_fact(&format!("e({k}, {})", k + 1)).unwrap();
        }
        session
            .register_datalog("paths", TC, Semantics::Stratified)
            .unwrap();
        let db = session.db().clone();
        let answers = all_answers(&mut session);
        drop(session);

        let snaps = algrec_store::snapshot::snapshot_generations(&dir.0).unwrap();
        assert!(
            snaps.len() == 2,
            "{tag}: retention pair expected: {snaps:?}"
        );
        let newest = algrec_store::snapshot::snapshot_path(&dir.0, snaps[0]);
        let mut bytes = std::fs::read(&newest).unwrap();
        assert!(
            algrec_store::colsnap::validate_column_snapshot(&bytes).is_ok(),
            "{tag}: snapshot must start valid"
        );
        damage(&mut bytes);
        assert!(
            algrec_store::colsnap::validate_column_snapshot(&bytes).is_err(),
            "{tag}: damage must fail the CRC walk"
        );
        std::fs::write(&newest, &bytes).unwrap();

        let trace = Trace::collect();
        let (mut recovered, report) = open(&dir.0, Budget::SMALL, options, trace.clone()).unwrap();
        assert_eq!(report.snapshot_fallbacks, 1, "{tag}");
        assert_eq!(report.snapshot_gen, Some(snaps[1]), "{tag}");
        assert!(report.replayed > 0, "{tag}: the gap replays from the WAL");
        assert_state(&mut recovered, &db, &answers);
        // The surviving older snapshot was mapped and validated, not
        // decoded blind: the byte count surfaces in the trace.
        let stats = trace.stats().unwrap();
        assert!(stats.store.snapshot_maps >= 1, "{tag}: {:?}", stats.store);
        assert!(stats.store.mapped_bytes > 0, "{tag}");
    }
}

/// Without the previous generation's log, a corrupt newest columnar
/// snapshot cannot be silently skipped — the gap between the two
/// snapshots would be unrecoverable — so the corruption surfaces.
#[test]
fn corrupt_columnar_snapshot_without_fallback_log_refuses_to_open() {
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(2),
    };
    let dir = TestDir::new("colsnap-nolog");
    let (mut session, _) = open(&dir.0, Budget::SMALL, options, Trace::default()).unwrap();
    for k in 0..7 {
        session.assert_fact(&format!("e({k}, {})", k + 1)).unwrap();
    }
    drop(session);

    let snaps = algrec_store::snapshot::snapshot_generations(&dir.0).unwrap();
    assert_eq!(snaps.len(), 2, "{snaps:?}");
    let newest = algrec_store::snapshot::snapshot_path(&dir.0, snaps[0]);
    let mut bytes = std::fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&newest, &bytes).unwrap();
    std::fs::remove_file(wal_path(&dir.0, snaps[1])).unwrap();

    let Err(err) = open(&dir.0, Budget::SMALL, options, Trace::default()) else {
        panic!("corrupt snapshot with no fallback log opened");
    };
    assert!(
        matches!(err, algrec_store::StoreError::Corrupt { .. }),
        "unexpected error: {err}"
    );
}

/// Recovery telemetry: replayed records and snapshot writes surface in
/// the trace a front end passes in (`--trace` shows them).
#[test]
fn recovery_and_snapshot_emit_trace_events() {
    let dir = TestDir::new("trace");
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(2),
    };
    let trace = Trace::collect();
    let (mut session, _) = open(&dir.0, Budget::SMALL, options, trace.clone()).unwrap();
    for k in 0..5 {
        session.assert_fact(&format!("e({k}, {})", k + 1)).unwrap();
    }
    let stats = trace.stats().unwrap();
    assert_eq!(stats.store.wal_records, 5);
    assert!(stats.store.wal_fsyncs >= 5);
    assert!(stats.store.snapshots >= 2, "snapshot_every=2 over 5 ops");
    assert!(stats.store.snapshot_bytes > 0);
    drop(session);

    let trace = Trace::collect();
    let (_, report) = open(&dir.0, Budget::SMALL, options, trace.clone()).unwrap();
    let stats = trace.stats().unwrap();
    assert_eq!(stats.store.recovery_replayed, report.replayed);
}
