//! Durable storage for the algrec serving layer.
//!
//! [`open`] turns a directory into a crash-safe home for a
//! [`Session`]: it recovers whatever state the directory holds (newest
//! snapshot + write-ahead-log tail, see [`recover`](mod@recover)) and attaches a
//! [`DurableStore`] as the session's durability hook, so every change
//! the session commits from then on is write-ahead-logged — and, every
//! `snapshot_every` records, compacted into a fresh snapshot.
//!
//! The invariant the whole crate is built around: **a recovered session
//! is indistinguishable from one that never crashed**. A view's answer
//! is a function of the database alone, so recovery folds the committed
//! prefix into a database plus a view catalog and then builds each view
//! once, by the same engine that maintains it live
//! ([`recover::materialize`]). What fsync guaranteed before the crash —
//! per [`SyncPolicy`] — is exactly what the recovered session holds.
//!
//! Layering: [`codec`] (bytes) → [`wal`] / [`snapshot`] (files) →
//! [`recover`](mod@recover) (session) → [`DurableStore`] (live hook).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod colsnap;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use colsnap::ColumnSnapshotMeta;
pub use recover::{recover, verify_against_cold, RecoveryReport};
pub use wal::{read_from, LogFile, SyncPolicy, Wal, WalFrame, WalRecord, WalSegment};

use crate::codec::CodecError;
use crate::snapshot::{compact, wal_path, write_snapshot, SnapshotState};
use algrec_serve::{Durability, DurableEvent, Session, ViewDef};
use algrec_value::{Budget, Database, Trace};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a store could not be opened or written.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A store file failed to decode (wrong magic, incompatible format
    /// version, or corruption that torn-tail truncation cannot explain).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What the codec rejected.
        error: CodecError,
    },
    /// A logged record does not fit the state it is folded into: a
    /// registration of a name already taken, or a drop of an unknown one.
    Replay {
        /// Zero-based index of the WAL record.
        record: usize,
        /// What was wrong with it.
        error: String,
    },
    /// The directory holds files of the retired sharded fleet layout —
    /// per-shard `shard-*.wal` logs or a `checkpoint.ck` — which this
    /// store does not read.
    Legacy {
        /// The data directory.
        dir: PathBuf,
        /// The retired files found, by name.
        files: Vec<String>,
    },
    /// A recovered view could not be built on the recovered database —
    /// for instance, its cold build exhausted the budget.
    Build {
        /// The view's name.
        view: String,
        /// The session's error.
        error: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { path, error } => {
                write!(f, "corrupt store file {}: {error}", path.display())
            }
            StoreError::Replay { record, error } => {
                write!(f, "recovery failed at wal record {record}: {error}")
            }
            StoreError::Legacy { dir, files } => write!(
                f,
                "{} holds files of the retired sharded layout ({}); \
                 this build reads only wal-*.log and snapshot-*.snap generations",
                dir.display(),
                files.join(", ")
            ),
            StoreError::Build { view, error } => write!(f, "building view {view} failed: {error}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// How a [`DurableStore`] behaves.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// When the write-ahead log fsyncs (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Write a snapshot (and compact the log) after this many logged
    /// records; `None` disables automatic snapshots.
    pub snapshot_every: Option<usize>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync: SyncPolicy::Always,
            snapshot_every: Some(1024),
        }
    }
}

/// The live durability hook: write-ahead-logs every committed session
/// change, snapshots and compacts on schedule. Created by [`open`].
pub struct DurableStore {
    dir: PathBuf,
    gen: u64,
    wal: Wal,
    options: StoreOptions,
    since_snapshot: usize,
    trace: Trace,
}

impl Durability for DurableStore {
    fn record(&mut self, event: &DurableEvent<'_>) -> Result<(), String> {
        let record = WalRecord::from(event);
        self.wal
            .append(&record)
            .map_err(|e| format!("wal append: {e}"))?;
        self.since_snapshot += 1;
        Ok(())
    }

    fn wants_snapshot(&self) -> bool {
        self.options
            .snapshot_every
            .is_some_and(|n| self.since_snapshot >= n)
    }

    fn snapshot(&mut self, db: &Database, catalog: &[ViewDef]) -> Result<(), String> {
        let gen = self.gen + 1;
        let state = SnapshotState {
            db: db.clone(),
            views: catalog.to_vec(),
        };
        write_snapshot(&self.dir, gen, &state, &self.trace)
            .map_err(|e| format!("writing snapshot {gen}: {e}"))?;
        // The snapshot is durable; start its (empty) log, then drop
        // every older generation. Order matters: a crash here must leave
        // either the old generation intact or the new one complete.
        let file = std::fs::File::create(wal_path(&self.dir, gen))
            .map_err(|e| format!("creating wal {gen}: {e}"))?;
        self.wal = Wal::create(Box::new(file), self.options.sync, self.trace.clone())
            .map_err(|e| format!("initializing wal {gen}: {e}"))?;
        let prev = self.gen;
        self.gen = gen;
        self.since_snapshot = 0;
        // Retention keeps one previous generation pair: if the new
        // snapshot later fails its CRC walk, recovery falls back to the
        // previous snapshot and replays its log — nothing committed
        // depends on the broken file.
        compact(&self.dir, prev).map_err(|e| format!("compacting before {prev}: {e}"))?;
        Ok(())
    }
}

/// Open (creating if needed) the durable store in `dir`: recover the
/// persisted session, then attach the store so new changes are logged.
/// The returned [`RecoveryReport`] says what was restored.
pub fn open(
    dir: &Path,
    budget: Budget,
    options: StoreOptions,
    trace: Trace,
) -> Result<(Session, RecoveryReport), StoreError> {
    let (mut session, report, gen) = recover::recover(dir, budget, &trace)?;
    let path = wal_path(dir, gen);
    let wal = if path.exists() {
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Wal::new(Box::new(file), options.sync, trace.clone())
    } else {
        Wal::create(
            Box::new(std::fs::File::create(&path)?),
            options.sync,
            trace.clone(),
        )?
    };
    session.set_durability(Box::new(DurableStore {
        dir: dir.to_path_buf(),
        gen,
        wal,
        options,
        // Count replayed records toward the snapshot schedule, so a
        // store recovered from a long log compacts promptly.
        since_snapshot: report.replayed,
        trace,
    }));
    Ok((session, report))
}
