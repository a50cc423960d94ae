//! The primary: an ordinary durable store whose files replicas read.
//!
//! [`open_primary`] opens the data directory with [`algrec_store::open`],
//! exactly as `serve --data-dir` does: the same WAL generations, columnar
//! snapshots, snapshot fallback and compaction. The fleet writes no file
//! of its own. It only observes the store: a thin durability hook counts
//! the records of the active generation, so the primary can report its
//! [`Position`] without reading its log, and the cluster server answers
//! replication pulls straight from the generation files.
//!
//! A generation's log is *sealed* once a newer log exists: the store
//! writes snapshot `g + 1`, then creates `wal-{g+1}`, and never appends
//! to `wal-{g}` again. The state at the end of a sealed log is therefore
//! the state snapshot `g + 1` holds, and a replica that has applied the
//! whole of `wal-{g}` moves on to the header of `wal-{g+1}` with nothing
//! to load. A replica whose generation is no longer retained pulls the
//! newest snapshot image instead.

use algrec_serve::{Durability, DurableEvent, Json, Session, ViewDef};
use algrec_store::codec::HEADER_LEN;
use algrec_store::colsnap::{decode_column_snapshot, validate_column_snapshot};
use algrec_store::recover::{fold_record, materialize};
use algrec_store::snapshot::{
    snapshot_generations, snapshot_path, wal_generations, wal_path, SnapshotState,
};
use algrec_store::wal::read_wal;
use algrec_store::{read_from, RecoveryReport, StoreError, StoreOptions};
use algrec_value::{Budget, Database, Trace};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The byte offset a log's first frame starts at.
pub(crate) const LOG_START: u64 = HEADER_LEN as u64;

/// A point in the primary's commit order: `records` records into the
/// log of generation `gen`. The derived order is lexicographic, which is
/// commit order: generation `g + 1` starts from a snapshot of everything
/// in generation `g`'s log.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Position {
    /// The WAL generation.
    pub gen: u64,
    /// Records of that generation's log.
    pub records: u64,
}

impl Position {
    /// The line-protocol form, `[gen, records]`.
    pub fn to_json(self) -> Json {
        Json::Arr(vec![
            Json::Int(self.gen as i64),
            Json::Int(self.records as i64),
        ])
    }

    /// Parse the line-protocol form: exactly two non-negative integers.
    pub fn from_json(value: &Json) -> Option<Position> {
        let count = |v: &Json| v.as_int().and_then(|n| u64::try_from(n).ok());
        match value {
            Json::Arr(items) => match items.as_slice() {
                [gen, records] => Some(Position {
                    gen: count(gen)?,
                    records: count(records)?,
                }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Why a replication pull failed, with the line-protocol error code the
/// server answers: `io`, `bad-offset`, `gone` (the generation is no
/// longer retained, so the subscriber bootstraps from a snapshot) or
/// `stale-offset` (the subscriber's prefix is not in the log; fatal for
/// it).
#[derive(Debug)]
pub struct PullError {
    /// Line-protocol error code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

fn pull_error(code: &'static str, message: String) -> PullError {
    PullError { code, message }
}

/// Read a generation file, answering `gone` when it is not retained.
fn open_retained(path: &Path, what: &str) -> Result<std::fs::File, PullError> {
    std::fs::File::open(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => pull_error("gone", format!("{what} is no longer retained")),
        _ => pull_error("io", format!("{what}: {e}")),
    })
}

/// One log pull: intact frames of one generation's log.
pub struct LogChunk {
    /// The raw frame bytes.
    pub frames: Vec<u8>,
    /// The offset to resume from.
    pub next: usize,
    /// The log's valid length when it was read.
    pub end: usize,
    /// A newer generation existed before the log was read, so `end` is
    /// final: nothing is ever appended to this log again.
    pub sealed: bool,
}

/// One chunk of a snapshot image.
pub struct ImageChunk {
    /// The image bytes from the requested offset.
    pub bytes: Vec<u8>,
    /// The image's size in bytes.
    pub size: u64,
}

/// A primary's data directory and live counters, shared between the
/// session's durability hook (which advances the position) and the
/// cluster server (which serves pulls and `cluster-stats` from it).
pub struct Primary {
    dir: PathBuf,
    position: Mutex<Position>,
    /// Bytes served to replication subscribers.
    shipped: AtomicU64,
}

impl Primary {
    fn lock(&self) -> MutexGuard<'_, Position> {
        self.position.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Where the primary's commit order stands: the active generation and
    /// the records appended to its log.
    pub fn position(&self) -> Position {
        *self.lock()
    }

    /// Total bytes served to replication subscribers so far.
    pub fn shipped_bytes(&self) -> u64 {
        self.shipped.load(Ordering::SeqCst)
    }

    /// The newest snapshot generation in the directory, if any.
    pub fn newest_snapshot(&self) -> Result<Option<u64>, PullError> {
        snapshot_generations(&self.dir)
            .map(|gens| gens.first().copied())
            .map_err(|e| pull_error("io", format!("listing snapshots: {e}")))
    }

    /// Serve one log pull: the intact frames of `wal-{gen}` from byte
    /// `offset`, at most `max_bytes` (always at least one frame when one
    /// is available, so a large frame cannot stall a subscriber).
    pub fn pull_log(
        &self,
        gen: u64,
        offset: usize,
        max_bytes: usize,
    ) -> Result<LogChunk, PullError> {
        // Look for a newer log *before* reading this one: once it exists,
        // every append to this log has happened, so the bytes read below
        // are final.
        let sealed = wal_generations(&self.dir)
            .map_err(|e| pull_error("io", format!("listing logs: {e}")))?
            .last()
            .is_some_and(|&newest| newest > gen);
        let what = format!("wal generation {gen}");
        let io = |e: std::io::Error| pull_error("io", format!("{what}: {e}"));
        let mut file = open_retained(&wal_path(&self.dir, gen), &what)?;
        let len = file.metadata().map_err(io)?.len() as usize;
        if offset > len {
            // The subscriber's prefix is longer than our log (we were
            // rebuilt), which is irrecoverable for it.
            return Err(pull_error(
                "stale-offset",
                format!("{what}: offset {offset} past its {len} bytes"),
            ));
        }
        if offset < HEADER_LEN {
            return Err(pull_error(
                "bad-offset",
                format!("{what}: offset {offset} points inside the {HEADER_LEN}-byte header"),
            ));
        }
        // Read the header and the log from `offset` on, as one image whose
        // frames sit `shift` bytes before the log's own: a caught-up
        // subscriber's poll then reads a header, not the whole log.
        let shift = offset - HEADER_LEN;
        let mut image = vec![0; HEADER_LEN];
        file.read_exact(&mut image).map_err(io)?;
        file.seek(SeekFrom::Start(offset as u64)).map_err(io)?;
        file.read_to_end(&mut image).map_err(io)?;
        let segment = read_from(&image, HEADER_LEN)
            .map_err(|e| pull_error("bad-offset", format!("{what}: {e}")))?;
        let mut next = HEADER_LEN;
        for frame in &segment.frames {
            if next > HEADER_LEN && frame.end - HEADER_LEN > max_bytes {
                break;
            }
            next = frame.end;
        }
        let frames = image[HEADER_LEN..next].to_vec();
        self.shipped
            .fetch_add(frames.len() as u64, Ordering::SeqCst);
        Ok(LogChunk {
            frames,
            next: next + shift,
            end: segment.valid_len + shift,
            sealed,
        })
    }

    /// Serve one image pull: at most `max_bytes` of `snapshot-{gen}` from
    /// byte `offset`. Snapshot files are immutable once written, so the
    /// chunks of one generation always join into one image.
    pub fn pull_snapshot(
        &self,
        gen: u64,
        offset: u64,
        max_bytes: usize,
    ) -> Result<ImageChunk, PullError> {
        let what = format!("snapshot generation {gen}");
        let io = |e: std::io::Error| pull_error("io", format!("{what}: {e}"));
        let mut file = open_retained(&snapshot_path(&self.dir, gen), &what)?;
        let size = file.metadata().map_err(io)?.len();
        if offset > size {
            return Err(pull_error(
                "bad-offset",
                format!("{what}: offset {offset} past its {size} bytes"),
            ));
        }
        file.seek(SeekFrom::Start(offset)).map_err(io)?;
        let mut bytes = Vec::new();
        file.take(max_bytes as u64)
            .read_to_end(&mut bytes)
            .map_err(io)?;
        self.shipped.fetch_add(bytes.len() as u64, Ordering::SeqCst);
        Ok(ImageChunk { bytes, size })
    }
}

/// The position of the newest log in `dir`, the one the store appends
/// to: its generation and its intact records.
fn log_position(dir: &Path) -> Result<Position, StoreError> {
    let gen = wal_generations(dir)?.last().copied().unwrap_or(0);
    let path = wal_path(dir, gen);
    let bytes = std::fs::read(&path)?;
    let contents = read_wal(&bytes).map_err(|error| StoreError::Corrupt { path, error })?;
    Ok(Position {
        gen,
        records: contents.records.len() as u64,
    })
}

/// The primary's durability hook: the store's own, counting the records
/// it appends. Runs inside the session writer lock, so a position read
/// after a write's reply covers that write.
struct Tap {
    store: Box<dyn Durability + Send>,
    primary: Arc<Primary>,
}

impl Durability for Tap {
    fn record(&mut self, event: &DurableEvent<'_>) -> Result<(), String> {
        self.store.record(event)?;
        self.primary.lock().records += 1;
        Ok(())
    }

    fn wants_snapshot(&self) -> bool {
        self.store.wants_snapshot()
    }

    fn snapshot(&mut self, db: &Database, catalog: &[ViewDef]) -> Result<(), String> {
        let written = self.store.snapshot(db, catalog);
        // Success starts the next generation; a failure may stop anywhere
        // between the image and the new log. Either way the newest log on
        // disk is the one the store appends to next.
        match log_position(&self.primary.dir) {
            Ok(at) => *self.primary.lock() = at,
            Err(e) => return written.and(Err(format!("locating the active log: {e}"))),
        }
        written
    }
}

/// Open (creating if needed) a primary in `dir`: an ordinary durable
/// store, recovered and attached as [`algrec_store::open`] does, whose
/// durability hook also advances the returned [`Primary`]'s position.
pub fn open_primary(
    dir: &Path,
    budget: Budget,
    options: StoreOptions,
) -> Result<(Session, RecoveryReport, Arc<Primary>), StoreError> {
    let (mut session, report) = algrec_store::open(dir, budget, options, Trace::Null)?;
    let primary = Arc::new(Primary {
        dir: dir.to_path_buf(),
        position: Mutex::new(log_position(dir)?),
        shipped: AtomicU64::new(0),
    });
    if let Some(store) = session.clear_durability() {
        session.set_durability(Box::new(Tap {
            store,
            primary: Arc::clone(&primary),
        }));
    }
    Ok((session, report, primary))
}

/// Validate, then decode, a snapshot image: the columnar image, the only
/// one the store writes.
pub(crate) fn decode_image(bytes: &[u8]) -> Result<SnapshotState, String> {
    validate_column_snapshot(bytes)
        .and_then(|_| decode_column_snapshot(bytes))
        .map_err(|e| format!("snapshot image: {e}"))
}

/// Rebuild a session at `at`: load snapshot `at.gen` (generation 0
/// starts empty), fold the first `at.records` records of that
/// generation's log, then build each view once. This is the cold
/// evaluation a replica at `at` must be indistinguishable from (the
/// replica-consistency proptest pins this).
pub fn rebuild_at(dir: &Path, at: Position, budget: Budget) -> Result<Session, String> {
    let mut state = if at.gen == 0 {
        SnapshotState::default()
    } else {
        let path = snapshot_path(dir, at.gen);
        decode_image(&std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?)?
    };
    let path = wal_path(dir, at.gen);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records = read_wal(&bytes)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .records;
    if (records.len() as u64) < at.records {
        return Err(format!(
            "{} holds {} record(s), not {}",
            path.display(),
            records.len(),
            at.records
        ));
    }
    for (i, record) in records.into_iter().take(at.records as usize).enumerate() {
        fold_record(&mut state, record).map_err(|e| format!("folding record {i}: {e}"))?;
    }
    materialize(state, budget).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_pulls_walk_the_log_frame_by_frame_from_any_offset() {
        let dir = std::env::temp_dir().join(format!("algrec-primary-pull-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut session, _, primary) =
            open_primary(&dir, Budget::LARGE, StoreOptions::default()).unwrap();
        for i in 0..5 {
            session.assert_fact(&format!("e({i}, {})", i + 1)).unwrap();
        }
        assert_eq!(primary.position(), Position { gen: 0, records: 5 });
        let log = std::fs::read(wal_path(&dir, 0)).unwrap();

        // A one-byte budget still ships one whole frame per pull, and the
        // pulls join into the log's bytes after its header.
        let (mut shipped, mut offset, mut pulls) = (Vec::new(), HEADER_LEN, 0);
        while offset < log.len() {
            let chunk = primary.pull_log(0, offset, 1).unwrap();
            assert_eq!((chunk.end, chunk.sealed), (log.len(), false));
            assert!(chunk.next > offset);
            shipped.extend_from_slice(&chunk.frames);
            offset = chunk.next;
            pulls += 1;
        }
        assert_eq!((shipped.as_slice(), pulls), (&log[HEADER_LEN..], 5));
        let idle = primary.pull_log(0, log.len(), 1).unwrap();
        assert!(idle.frames.is_empty() && idle.next == log.len());

        let code = |gen, offset| primary.pull_log(gen, offset, 1).err().map(|e| e.code);
        assert_eq!(code(0, log.len() + 1), Some("stale-offset"));
        assert_eq!(code(0, HEADER_LEN - 1), Some("bad-offset"));
        assert_eq!(code(1, HEADER_LEN), Some("gone"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
