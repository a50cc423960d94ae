//! Recovery is a load, then one build per view: the WAL tail is folded
//! into a database plus a pending catalog, and each surviving view is
//! built once, cold, on the recovered database.
//!
//! These tests pin what that means at the edges: no logged delta reaches
//! a view's maintainer, a drop and re-registration of one name recovers
//! the later program, a log that does not fit its own catalog fails to
//! open with a structured error, and a view whose cold build exhausts
//! the budget fails the open by name.

use algrec_datalog::Semantics;
use algrec_serve::{QueryAnswer, Session};
use algrec_store::snapshot::wal_path;
use algrec_store::{open, StoreError, StoreOptions, SyncPolicy, Wal, WalRecord};
use algrec_value::{Budget, DatabaseDelta, Trace, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";
const SWAPPED: &str = "rev(Y, X) :- e(X, Y).";

const NO_SNAPSHOTS: StoreOptions = StoreOptions {
    sync: SyncPolicy::Always,
    snapshot_every: None,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique, self-cleaning store directory per test.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path = std::env::temp_dir().join(format!(
            "algrec-recovery-{tag}-{}-{}",
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

fn reopen(dir: &TestDir, budget: Budget) -> Result<Session, StoreError> {
    open(&dir.0, budget, NO_SNAPSHOTS, Trace::Null).map(|(session, _)| session)
}

/// Write a generation-0 log holding exactly `records`.
fn write_log(dir: &TestDir, records: &[WalRecord]) {
    let file = std::fs::File::create(wal_path(&dir.0, 0)).unwrap();
    let mut wal = Wal::create(Box::new(file), SyncPolicy::Always, Trace::Null).unwrap();
    for record in records {
        wal.append(record).unwrap();
    }
}

fn edge(a: i64, b: i64) -> WalRecord {
    let mut delta = DatabaseDelta::new();
    delta.insert("e", Value::pair(Value::int(a), Value::int(b)));
    WalRecord::Delta(delta)
}

fn register(name: &str, program: &str) -> WalRecord {
    WalRecord::RegisterDatalog {
        name: name.into(),
        semantics: "stratified".into(),
        program: program.into(),
        strategy: "auto".into(),
    }
}

#[test]
fn a_recovered_view_is_built_once_and_maintains_no_logged_delta() {
    let dir = TestDir::new("built-once");
    let answer = {
        let (mut session, _) = open(&dir.0, Budget::SMALL, NO_SNAPSHOTS, Trace::Null).unwrap();
        session
            .register_datalog("paths", TC, Semantics::Stratified)
            .unwrap();
        for i in 0..20 {
            session.assert_fact(&format!("e({i}, {})", i + 1)).unwrap();
        }
        session.query("paths", None).unwrap()
    };

    let mut session = reopen(&dir, Budget::SMALL).unwrap();
    let stats = session.stats(Some("paths")).unwrap();
    assert_eq!(stats[0].deltas_applied, 0, "no delta reached the view");
    assert_eq!(stats[0].rebuilds, 0, "the one build is the registration");
    assert_eq!(session.query("paths", None).unwrap(), answer);
}

#[test]
fn a_dropped_and_re_registered_name_recovers_the_later_program() {
    let dir = TestDir::new("re-register");
    let (db, answer) = {
        let (mut session, _) = open(&dir.0, Budget::SMALL, NO_SNAPSHOTS, Trace::Null).unwrap();
        session
            .register_datalog("v", TC, Semantics::Stratified)
            .unwrap();
        session.load("e(1, 2). e(2, 3).").unwrap();
        session.unregister("v").unwrap();
        session
            .register_datalog("v", SWAPPED, Semantics::Stratified)
            .unwrap();
        session.assert_fact("e(3, 4)").unwrap();
        (session.db().clone(), session.query("v", None).unwrap())
    };
    let QueryAnswer::Datalog { certain, .. } = &answer else {
        panic!("datalog view");
    };
    assert_eq!(certain, &["rev(2, 1).", "rev(3, 2).", "rev(4, 3)."]);

    let mut session = reopen(&dir, Budget::SMALL).unwrap();
    assert_eq!(session.db(), &db);
    assert_eq!(session.catalog()[0].program, SWAPPED);
    assert_eq!(session.query("v", None).unwrap(), answer);
    assert_eq!(session.stats(Some("v")).unwrap()[0].deltas_applied, 0);
}

#[test]
fn a_log_that_does_not_fit_its_catalog_is_an_error_not_a_panic() {
    let unknown = TestDir::new("unknown-drop");
    write_log(
        &unknown,
        &[
            edge(1, 2),
            WalRecord::Unregister {
                name: "ghost".into(),
            },
        ],
    );
    let Err(err) = reopen(&unknown, Budget::SMALL) else {
        panic!("a drop of an unknown view opened");
    };
    assert!(
        matches!(&err, StoreError::Replay { record: 1, error } if error.contains("ghost")),
        "unexpected error: {err}"
    );

    let twice = TestDir::new("double-register");
    write_log(&twice, &[register("v", TC), edge(1, 2), register("v", TC)]);
    let Err(err) = reopen(&twice, Budget::SMALL) else {
        panic!("a name registered twice opened");
    };
    assert!(
        matches!(&err, StoreError::Replay { record: 2, .. }),
        "unexpected error: {err}"
    );
}

#[test]
fn a_view_whose_cold_build_exhausts_the_budget_fails_the_open_by_name() {
    // Edge by edge, each write derives at most one new path per node of
    // the chain; built cold, the closure of 30 edges is 465 paths.
    let tight = Budget::new(10_000, 200, 256);
    let dir = TestDir::new("budget");
    {
        let (mut session, _) = open(&dir.0, tight, NO_SNAPSHOTS, Trace::Null).unwrap();
        session
            .register_datalog("paths", TC, Semantics::Stratified)
            .unwrap();
        for i in 0..30 {
            let outcome = session.assert_fact(&format!("e({i}, {})", i + 1)).unwrap();
            assert!(
                outcome.views.iter().all(|v| v.error.is_none()),
                "edge {i} was maintained within the budget"
            );
        }
        assert!(!session.stats(Some("paths")).unwrap()[0].dirty);
    }

    let Err(err) = reopen(&dir, tight) else {
        panic!("a cold build past the budget opened");
    };
    assert!(
        matches!(&err, StoreError::Build { view, .. } if view == "paths"),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("paths"), "{err}");

    // The same store opens under a budget the cold build fits in.
    let mut session = reopen(&dir, Budget::SMALL).unwrap();
    let QueryAnswer::Datalog { certain, .. } = session.query("paths", Some("tc")).unwrap() else {
        panic!("datalog view");
    };
    assert_eq!(certain.len(), 465);
}
