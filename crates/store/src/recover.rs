//! Crash recovery: rebuild a live [`Session`] from the newest snapshot
//! plus the write-ahead log after it.
//!
//! A view's answer is a function of the database alone, so recovery is
//! a load, not a replay. The snapshot (or an empty state) is a
//! [`SnapshotState`]: a database plus a catalog of view definitions.
//! [`fold_record`] applies each logged record to it — a delta to the
//! database, a registration or a drop to the catalog — and
//! [`materialize`] then installs the database and builds each surviving
//! view once, cold. The cluster's checkpoint loader and its epoch-vector
//! rebuild use the same two functions. [`apply_record`] is the one live
//! meaning of a record, for a replica that serves reads between commits.
//!
//! A torn WAL tail (crash mid-append) is truncated on disk to the valid
//! prefix before the log is reopened for appending; the committed prefix
//! is exactly what survives.

use crate::codec::{CodecError, HEADER_LEN};
use crate::snapshot::{load_snapshot_with_fallback, wal_generations, wal_path, SnapshotState};
use crate::wal::{read_wal, WalRecord};
use crate::StoreError;
use algrec_serve::{parse_semantics, ServeError, Session, StrategyPin, ViewDef};
use algrec_value::{Budget, DatabaseDelta, Trace, TraceEvent};
use std::path::Path;

/// What recovery found and did.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// Generation of the snapshot loaded, if one existed.
    pub snapshot_gen: Option<u64>,
    /// Relations restored from the snapshot.
    pub snapshot_relations: usize,
    /// Views re-registered from the snapshot catalog.
    pub snapshot_views: usize,
    /// WAL records folded in after the snapshot.
    pub replayed: usize,
    /// Bytes of torn WAL tail truncated (0 on a clean shutdown).
    pub truncated_bytes: usize,
    /// Corrupt snapshot generations skipped on the way to a usable one
    /// (possible only while the older generation's log survives, so the
    /// fallback folds in every commit the broken snapshot covered).
    pub snapshot_fallbacks: usize,
}

impl RecoveryReport {
    /// Did recovery restore anything at all (vs. a brand-new store)?
    pub fn restored_anything(&self) -> bool {
        self.snapshot_gen.is_some() || self.replayed > 0
    }
}

/// The view a registration record defines.
fn view_def(record: WalRecord) -> Result<ViewDef, String> {
    match record {
        WalRecord::RegisterDatalog {
            name,
            semantics,
            program,
            strategy,
        } => Ok(ViewDef {
            name,
            kind: "datalog",
            program,
            semantics: Some(parse_semantics(&semantics)?),
            strategy: StrategyPin::parse(&strategy)
                .ok_or_else(|| format!("bad strategy `{strategy}`"))?,
        }),
        WalRecord::RegisterAlgebra { name, program } => Ok(ViewDef {
            name,
            kind: "algebra",
            program,
            semantics: None,
            strategy: StrategyPin::Auto,
        }),
        other => Err(format!("not a registration: {other:?}")),
    }
}

/// Register `view` on `session` through the entry point a client uses;
/// an algebra view is the one without semantics.
fn register_view(session: &mut Session, view: &ViewDef) -> Result<(), ServeError> {
    match view.semantics {
        None => session.register_algebra(&view.name, &view.program),
        Some(s) => session.register_datalog_pinned(&view.name, &view.program, s, view.strategy),
    }
    .map(|_| ())
}

/// Apply one logged record to a live session: the delta through
/// [`Session::apply_delta`], which maintains every view, a registration
/// or a drop through the session's own entry points. A sequence stamp
/// is stripped; a nested one is an error.
pub fn apply_record(session: &mut Session, record: WalRecord) -> Result<(), String> {
    let applied = match record.into_inner() {
        WalRecord::Delta(delta) => session.apply_delta(&delta).map(|_| ()),
        WalRecord::Unregister { name } => session.unregister(&name),
        register => register_view(session, &view_def(register)?),
    };
    applied.map_err(|e| e.to_string())
}

/// Fold one logged record into a database plus a pending catalog: a
/// delta is applied to `state.db` exactly as [`Session::apply_delta`]
/// applies it, a registration inserts its [`ViewDef`] (in name order), a
/// drop removes one. Registering a name twice or dropping an unknown
/// name is an error. A sequence stamp is stripped; a nested one is an
/// error.
pub fn fold_record(state: &mut SnapshotState, record: WalRecord) -> Result<(), String> {
    let views = &mut state.views;
    match record.into_inner() {
        WalRecord::Delta(delta) => {
            delta.apply(&mut state.db);
        }
        WalRecord::Unregister { name } => {
            let at = views
                .binary_search_by(|v| v.name.cmp(&name))
                .map_err(|_| format!("unregister of unknown view {name}"))?;
            views.remove(at);
        }
        register => {
            let view = view_def(register)?;
            match views.binary_search_by(|v| v.name.cmp(&view.name)) {
                Ok(_) => return Err(format!("view {} registered twice", view.name)),
                Err(at) => views.insert(at, view),
            }
        }
    }
    Ok(())
}

/// Build a session from a database plus a catalog: install the database
/// wholesale, then register each view once, cold, under `budget`. A
/// view whose build fails — its program no longer parses, or its cold
/// build exhausts the budget — fails the whole build, naming the view.
pub fn materialize(state: SnapshotState, budget: Budget) -> Result<Session, StoreError> {
    let mut session = Session::new(budget);
    session.restore_database(state.db);
    for view in &state.views {
        register_view(&mut session, view).map_err(|e| StoreError::Build {
            view: view.name.clone(),
            error: e.to_string(),
        })?;
    }
    Ok(session)
}

/// Rebuild a session from the store directory: load the newest usable
/// snapshot (or start empty), [`fold_record`] every logged record after
/// it, then [`materialize`]. Returns the session, the report, and the
/// active generation (whose WAL should be appended to).
pub fn recover(
    dir: &Path,
    budget: Budget,
    trace: &Trace,
) -> Result<(Session, RecoveryReport, u64), StoreError> {
    std::fs::create_dir_all(dir)?;
    let mut report = RecoveryReport::default();

    let (loaded, fallbacks) = load_snapshot_with_fallback(dir, trace)?;
    report.snapshot_fallbacks = fallbacks;
    let (loaded_gen, mut state) = match loaded {
        Some((gen, state)) => {
            report.snapshot_gen = Some(gen);
            report.snapshot_relations = state.db.len();
            report.snapshot_views = state.views.len();
            (gen, state)
        }
        None => (0, SnapshotState::default()),
    };

    // Fold every log from the loaded generation on, oldest first.
    // There is more than one only after a snapshot fallback (or a crash
    // between writing a snapshot and compacting): the older generation's
    // log carries the records between the two snapshots. Only the
    // *newest* log may legitimately hold a torn tail — older logs were
    // sealed by their successor snapshot, so damage there is corruption,
    // not a crash artifact.
    let gens: Vec<u64> = wal_generations(dir)?
        .into_iter()
        .filter(|&g| g >= loaded_gen)
        .collect();
    let newest = gens.last().copied();
    let mut active_gen = loaded_gen;
    for g in gens {
        active_gen = g;
        let log_path = wal_path(dir, g);
        let bytes = std::fs::read(&log_path)?;
        if bytes.len() < HEADER_LEN {
            // Crash during log creation: nothing was ever committed to
            // this log. Remove the stub; open() recreates it.
            report.truncated_bytes += bytes.len();
            std::fs::remove_file(&log_path)?;
            continue;
        }
        let contents = read_wal(&bytes).map_err(|e| StoreError::Corrupt {
            path: log_path.clone(),
            error: e,
        })?;
        if contents.valid_len < bytes.len() {
            if Some(g) != newest {
                return Err(StoreError::Corrupt {
                    path: log_path.clone(),
                    error: CodecError::TornTail {
                        valid_len: contents.valid_len,
                    },
                });
            }
            report.truncated_bytes += bytes.len() - contents.valid_len;
            let file = std::fs::OpenOptions::new().write(true).open(&log_path)?;
            file.set_len(contents.valid_len as u64)?;
            file.sync_all()?;
        }
        for record in contents.records {
            fold_record(&mut state, record).map_err(|error| StoreError::Replay {
                record: report.replayed,
                error,
            })?;
            report.replayed += 1;
        }
    }

    if report.replayed > 0 {
        trace.emit(TraceEvent::RecoveryReplay(report.replayed));
    }
    Ok((materialize(state, budget)?, report, active_gen))
}

/// Check that the recovered session answers every view query exactly as
/// a cold session would: fresh session, same EDB, same registrations,
/// compare [`algrec_serve::QueryAnswer`]s for equality. This is the
/// paper's invariant — a materialized view is a pure function of the
/// EDB — applied to durability. The fault-injection tests run it on
/// every recovered state.
pub fn verify_against_cold(session: &mut Session) -> Result<(), String> {
    let mut cold = Session::new(session.budget());
    let mut delta = DatabaseDelta::new();
    let mut empties = Vec::new();
    for (name, rel) in session.db().iter() {
        if rel.is_empty() {
            empties.push(name.to_string());
        }
        for v in rel.iter() {
            delta.insert(name.to_string(), v.clone());
        }
    }
    cold.apply_delta(&delta)
        .map_err(|e| format!("cold load: {e}"))?;
    for name in empties {
        cold.ensure_relation(&name);
    }
    let catalog = session.catalog();
    for view in &catalog {
        match (view.kind, view.semantics) {
            ("algebra", _) => cold
                .register_algebra(&view.name, &view.program)
                .map(|_| ())
                .map_err(|e| format!("cold register {}: {e}", view.name))?,
            (_, Some(semantics)) => cold
                .register_datalog_pinned(&view.name, &view.program, semantics, view.strategy)
                .map(|_| ())
                .map_err(|e| format!("cold register {}: {e}", view.name))?,
            (_, None) => return Err(format!("catalog entry {} has no semantics", view.name)),
        }
    }
    for view in &catalog {
        let recovered = session
            .query(&view.name, None)
            .map_err(|e| format!("recovered query {}: {e}", view.name))?;
        let fresh = cold
            .query(&view.name, None)
            .map_err(|e| format!("cold query {}: {e}", view.name))?;
        if recovered != fresh {
            return Err(format!(
                "view {} diverges from cold evaluation:\n  recovered: {recovered:?}\n  cold:      {fresh:?}",
                view.name
            ));
        }
    }
    Ok(())
}
