//! The sharded durable primary: one combined session, N per-shard
//! write-ahead logs.
//!
//! The extensional database is hash-partitioned by first-column value
//! ([`algrec_datalog::fixpoint::shard_of_fact`]) across `N` shard logs
//! (`shard-0.wal` … `shard-{N-1}.wal` in the data directory). The
//! *session* stays combined — queries, view maintenance and fixpoint
//! evaluation see the union — but every committed change is durably
//! split:
//!
//! * a delta is partitioned into per-shard sub-deltas, and each
//!   non-empty part is appended to its owning shard's log wrapped in
//!   [`WalRecord::Sequenced`] `{seq, parts}` — the commit's position in
//!   the global order and how many parts it was split into;
//! * view registrations and drops are whole-commit records; they ship
//!   in shard 0's stream (with their own sequence number) so replicas
//!   interleave them correctly with deltas.
//!
//! Any reader holding all N logs — crash [`open_primary`] recovery, a
//! catching-up replica — reconstructs the primary's exact commit order:
//! per-log sequence numbers are monotone (parts are appended under the
//! session writer lock, in commit order), so merging the streams by
//! sequence number and re-uniting multi-part deltas (the partition is
//! disjoint; union restores the original) yields the same commits in
//! the same order: recovery folds them into a database plus a catalog
//! and builds each view once, a replica applies them one by one to its
//! live session (both through `algrec_store::recover`). A commit with
//! a missing part — possible only at a torn tail after a crash — is an
//! *incomplete suffix*: recovery truncates every log at its first frame
//! of the first incomplete commit, exactly like single-log torn-tail
//! truncation.

use algrec_serve::{Durability, DurableEvent, Session, ViewDef};
use algrec_store::codec::{frame_record, next_record, HEADER_LEN};
use algrec_store::recover::{fold_record, materialize};
use algrec_store::snapshot::{decode_any_snapshot, SnapshotState};
use algrec_store::{read_from, SyncPolicy, Wal, WalRecord};
use algrec_value::{Budget, Database, DatabaseDelta, Trace, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The shard a delta member belongs to: the first-column hash of the
/// fact, matching the engine's fixpoint partitioner. A non-tuple member
/// is its own single column.
pub fn shard_of_member(name: &str, member: &Value, n: usize) -> usize {
    match member.as_tuple() {
        Some(items) => algrec_datalog::fixpoint::shard_of_fact(name, items, n),
        None => algrec_datalog::fixpoint::shard_of_fact(name, std::slice::from_ref(member), n),
    }
}

/// Split a delta into per-shard sub-deltas by [`shard_of_member`]. The
/// parts are disjoint and their union is the input.
pub fn partition_delta(delta: &DatabaseDelta, n: usize) -> Vec<DatabaseDelta> {
    let mut parts = vec![DatabaseDelta::new(); n];
    for (name, rd) in delta.iter() {
        for v in rd.added() {
            parts[shard_of_member(name, v, n)].insert(name, v.clone());
        }
        for v in rd.removed() {
            parts[shard_of_member(name, v, n)].remove(name, v.clone());
        }
    }
    parts
}

/// Merge per-shard delta parts back into one delta (inverse of
/// [`partition_delta`] — the parts are disjoint, so insertion order is
/// irrelevant; merging shard-minor keeps it deterministic anyway).
fn merge_parts(parts: &[DatabaseDelta]) -> DatabaseDelta {
    let mut merged = DatabaseDelta::new();
    for part in parts {
        for (name, rd) in part.iter() {
            for v in rd.added() {
                merged.insert(name, v.clone());
            }
            for v in rd.removed() {
                merged.remove(name, v.clone());
            }
        }
    }
    merged
}

/// Reassemble one commit from its parts, in shard order: a whole-commit
/// record (a registration or a drop, always a single part) as it is,
/// delta parts re-united by [`merge_parts`].
pub(crate) fn reassemble(parts: Vec<WalRecord>) -> WalRecord {
    let mut deltas = Vec::with_capacity(parts.len());
    for part in parts {
        match part {
            WalRecord::Delta(delta) => deltas.push(delta),
            whole => return whole,
        }
    }
    WalRecord::Delta(merge_parts(&deltas))
}

/// Why a replication pull failed, with the line-protocol error code
/// the server should answer (`bad-request`, `io`, `bad-offset`, or
/// `stale-offset` — the last one is fatal for the subscriber).
pub struct PullError {
    /// Line-protocol error code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// One shard's log and its live counters.
struct ShardLog {
    path: PathBuf,
    wal: Mutex<Wal>,
    /// Records appended — the shard's *epoch*.
    epoch: AtomicU64,
    /// Byte length of the log's valid prefix (header included).
    offset: AtomicU64,
}

/// The per-shard write-ahead logs of a sharded primary, shared between
/// the session's durability hook (which appends) and the cluster server
/// (which serves `repl` pulls and `cluster-stats` from it).
pub struct ShardSet {
    shards: Vec<ShardLog>,
    next_seq: AtomicU64,
    /// Frame bytes served to replication subscribers.
    shipped: AtomicU64,
}

impl ShardSet {
    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the set holds no shards (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Per-shard epochs: records appended to each log.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.epoch.load(Ordering::SeqCst))
            .collect()
    }

    /// Per-shard byte offsets: the valid length of each log.
    pub fn offsets(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.offset.load(Ordering::SeqCst))
            .collect()
    }

    /// Total frame bytes served to replication subscribers so far.
    pub fn shipped_bytes(&self) -> u64 {
        self.shipped.load(Ordering::SeqCst)
    }

    /// The on-disk path of shard `k`'s log.
    pub fn path(&self, k: usize) -> &Path {
        &self.shards[k].path
    }

    /// Serve one replication pull: the intact frames of shard `k`'s log
    /// from byte `offset`, at most `max_bytes` (always at least one
    /// frame when one is available, so a large frame cannot stall a
    /// subscriber). Returns `(chunk, next, end)` — the raw frame bytes,
    /// the offset to resume from, and the log's current valid length.
    pub fn pull(
        &self,
        k: usize,
        offset: usize,
        max_bytes: usize,
    ) -> Result<(Vec<u8>, usize, usize), PullError> {
        let fail = |code, message| PullError { code, message };
        let shard = self.shards.get(k).ok_or_else(|| {
            fail(
                "bad-request",
                format!("no shard {k} (cluster has {})", self.shards.len()),
            )
        })?;
        let bytes = std::fs::read(&shard.path)
            .map_err(|e| fail("io", format!("reading shard {k}: {e}")))?;
        let segment = read_from(&bytes, offset).map_err(|e| {
            // `read_from` rejects an offset past the file bytes — for a
            // subscriber that means its prefix is longer than our log
            // (we were rebuilt), which is irrecoverable for it.
            let code = if offset > bytes.len() {
                "stale-offset"
            } else {
                "bad-offset"
            };
            fail(code, format!("shard {k}: {e}"))
        })?;
        if segment.valid_len < offset {
            return Err(fail(
                "stale-offset",
                format!(
                    "shard {k}: offset {offset} past the log's valid length {}",
                    segment.valid_len
                ),
            ));
        }
        let mut next = offset;
        for frame in &segment.frames {
            if next > offset && frame.end - offset > max_bytes {
                break;
            }
            next = frame.end;
        }
        let chunk = bytes[offset..next].to_vec();
        self.shipped.fetch_add(chunk.len() as u64, Ordering::SeqCst);
        Ok((chunk, next, segment.valid_len))
    }

    fn append(&self, k: usize, record: &WalRecord) -> Result<(), String> {
        let shard = &self.shards[k];
        let written = shard
            .wal
            .lock()
            .map_err(|_| "shard wal lock poisoned".to_string())?
            .append(record)
            .map_err(|e| format!("shard {k} wal append: {e}"))?;
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        shard.offset.fetch_add(written as u64, Ordering::SeqCst);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Checkpoints: a columnar snapshot of the combined session, pinned to a
// global sequence number.
// ---------------------------------------------------------------------

/// The on-disk path of the primary's checkpoint in `dir`.
///
/// A checkpoint is a point-in-time image of the combined session
/// (`frame_record(next_seq) ∥ columnar snapshot image`) written every
/// `snapshot_every` commits.
/// Unlike the single-node store it **never truncates the shard logs** —
/// replicas resume from byte offsets into them — it only lets the next
/// [`open_primary_opts`] skip replaying the commit prefix the image
/// already covers. A checkpoint that fails its CRC validation is
/// ignored wholesale and recovery falls back to full log replay, so it
/// is a pure accelerator: correctness never depends on it.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.ck")
}

fn write_checkpoint(dir: &Path, next_seq: u64, state: &SnapshotState) -> Result<(), String> {
    let mut out = frame_record(&next_seq.to_le_bytes());
    out.extend_from_slice(&algrec_store::colsnap::encode_column_snapshot(state));
    let final_path = checkpoint_path(dir);
    let tmp_path = final_path.with_extension("ck.tmp");
    let io = |e: std::io::Error| format!("writing checkpoint: {e}");
    {
        let mut tmp = std::fs::File::create(&tmp_path).map_err(io)?;
        tmp.write_all(&out).map_err(io)?;
        tmp.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp_path, &final_path).map_err(io)?;
    Ok(())
}

/// Load the checkpoint if one exists and every checksum holds —
/// `None` on absence *or* damage (the logs are authoritative; a broken
/// checkpoint only costs replay time).
fn load_checkpoint(dir: &Path) -> Option<(u64, SnapshotState)> {
    let bytes = std::fs::read(checkpoint_path(dir)).ok()?;
    let mut pos = 0usize;
    let seq = next_record(&bytes, &mut pos).ok()??;
    let seq = u64::from_le_bytes(seq.try_into().ok()?);
    let state = decode_any_snapshot(&bytes[pos..], &Trace::Null).ok()?;
    Some((seq, state))
}

/// The durability hook of a sharded primary: partitions every committed
/// delta across the shard logs, stamping each part with the commit's
/// global sequence number. Runs inside the session writer lock, so log
/// order per shard is commit order. With a checkpoint cadence set it
/// also snapshots the combined session every `snapshot_every` commits.
struct ClusterDurability {
    shards: Arc<ShardSet>,
    dir: PathBuf,
    snapshot_every: Option<usize>,
    since_snapshot: usize,
}

impl Durability for ClusterDurability {
    fn record(&mut self, event: &DurableEvent<'_>) -> Result<(), String> {
        self.since_snapshot += 1;
        let n = self.shards.len();
        let seq = self.shards.next_seq.fetch_add(1, Ordering::SeqCst);
        let parts: Vec<(usize, WalRecord)> = match event {
            DurableEvent::Delta(delta) => partition_delta(delta, n)
                .into_iter()
                .enumerate()
                .filter(|(_, part)| !part.is_empty())
                .map(|(k, part)| (k, WalRecord::Delta(part)))
                .collect(),
            // Whole-commit records ride shard 0's stream so replicas
            // interleave them with deltas in commit order.
            whole => vec![(0, WalRecord::from(whole))],
        };
        let count = parts.len() as u32;
        for (k, inner) in parts {
            self.shards.append(
                k,
                &WalRecord::Sequenced {
                    seq,
                    parts: count,
                    inner: Box::new(inner),
                },
            )?;
        }
        Ok(())
    }

    fn wants_snapshot(&self) -> bool {
        self.snapshot_every
            .is_some_and(|n| self.since_snapshot >= n)
    }

    fn snapshot(&mut self, db: &Database, catalog: &[ViewDef]) -> Result<(), String> {
        let state = SnapshotState {
            db: db.clone(),
            views: catalog.to_vec(),
        };
        // Runs inside the session writer lock, after `record` for the
        // triggering commit: every commit below `next_seq` is in `db`.
        let next_seq = self.shards.next_seq.load(Ordering::SeqCst);
        write_checkpoint(&self.dir, next_seq, &state)?;
        self.since_snapshot = 0;
        Ok(())
    }
}

/// What [`open_primary`] restored.
#[derive(Debug, Default)]
pub struct ClusterRecovery {
    /// Complete commits found across all shards.
    pub commits: usize,
    /// WAL records (commit parts) found.
    pub records: usize,
    /// Bytes truncated across all logs: torn tails plus the parts of
    /// incomplete trailing commits.
    pub truncated_bytes: usize,
    /// Sequence floor of the checkpoint the session was restored from
    /// (`None`: no usable checkpoint, full replay).
    pub checkpoint_seq: Option<u64>,
    /// Commits the checkpoint satisfied without replay.
    pub skipped_commits: usize,
}

/// One shard log's decoded frames: `(seq, parts, record, frame end)`.
type ShardFrames = Vec<(u64, u32, WalRecord, usize)>;

/// Shard `k`'s log in `dir`, decoded into sequenced frames, with its
/// valid length and its length on disk — all empty for a shard whose log
/// does not exist yet.
fn read_shard_log(dir: &Path, k: usize) -> Result<(ShardFrames, usize, usize), String> {
    let path = shard_path(dir, k);
    if !path.exists() {
        return Ok((Vec::new(), 0, 0));
    }
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let segment = read_from(&bytes, HEADER_LEN).map_err(|e| format!("shard {k}: {e}"))?;
    let mut frames = Vec::with_capacity(segment.frames.len());
    for frame in segment.frames {
        match frame.record {
            WalRecord::Sequenced { seq, parts, inner } => {
                frames.push((seq, parts, *inner, frame.end));
            }
            other => {
                return Err(format!(
                    "shard {k}: unsequenced record {other:?} in a cluster log"
                ))
            }
        }
    }
    Ok((frames, segment.valid_len, bytes.len()))
}

/// The commits in `logs` that are *complete* — every one of their
/// `parts` parts present — drained in global sequence order, with the
/// per-shard cut points (frame index and byte offset) where the
/// complete prefix ends. Multi-part deltas are re-united shard-minor.
fn complete_commits(
    logs: &[(ShardFrames, usize)],
) -> (Vec<(u64, WalRecord)>, Vec<usize>, Vec<usize>) {
    let n = logs.len();
    let mut heads = vec![0usize; n];
    let mut cuts: Vec<usize> = (0..n).map(|k| HEADER_LEN.min(logs[k].1)).collect();
    let mut commits = Vec::new();
    // Walk the smallest sequence number at any head until the streams
    // run dry or a commit comes up short.
    while let Some(seq) = (0..n)
        .filter_map(|k| logs[k].0.get(heads[k]).map(|f| f.0))
        .min()
    {
        let holders: Vec<usize> = (0..n)
            .filter(|&k| logs[k].0.get(heads[k]).is_some_and(|f| f.0 == seq))
            .collect();
        let parts = logs[holders[0]].0[heads[holders[0]]].1 as usize;
        if holders.len() < parts {
            // A part is missing: it could only live past a torn tail.
            // Everything from here on is an incomplete suffix.
            break;
        }
        let mut parts = Vec::with_capacity(holders.len());
        for &k in &holders {
            let (_, _, record, end) = &logs[k].0[heads[k]];
            parts.push(record.clone());
            cuts[k] = *end;
            heads[k] += 1;
        }
        commits.push((seq, reassemble(parts)));
    }
    (commits, heads, cuts)
}

/// The on-disk path of shard `k`'s log in `dir`.
pub fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}.wal"))
}

/// Open (creating if needed) a sharded durable primary in `dir`:
/// recover the complete-commit prefix of the `n` shard logs in global
/// sequence order, truncate torn tails and incomplete trailing commits,
/// and attach the sharding durability hook so every new commit is
/// partitioned across the logs. Returns the recovered session, a
/// recovery report, and the shared [`ShardSet`] the cluster server
/// serves pulls and stats from.
pub fn open_primary(
    dir: &Path,
    n: usize,
    budget: Budget,
    sync: SyncPolicy,
) -> Result<(Session, ClusterRecovery, Arc<ShardSet>), String> {
    open_primary_opts(dir, n, budget, sync, None)
}

/// [`open_primary`] with a checkpoint cadence: every `snapshot_every`
/// commits the durability hook writes a [`checkpoint_path`] image of
/// the combined session, and recovery restores from the newest valid
/// checkpoint, folding in only the commits past its sequence floor. The
/// shard logs are **never** truncated by checkpointing — replicas keep
/// resuming from their byte offsets — and a checkpoint that fails
/// validation is ignored in favor of full log replay.
pub fn open_primary_opts(
    dir: &Path,
    n: usize,
    budget: Budget,
    sync: SyncPolicy,
    snapshot_every: Option<usize>,
) -> Result<(Session, ClusterRecovery, Arc<ShardSet>), String> {
    assert!(n >= 1, "a cluster needs at least one shard");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Decode every shard log (a missing file is a fresh shard).
    let mut logs = Vec::with_capacity(n);
    let mut on_disk = Vec::with_capacity(n);
    for k in 0..n {
        let (frames, valid, len) = read_shard_log(dir, k)?;
        logs.push((frames, valid));
        on_disk.push(len);
    }

    let (commits, heads, cuts) = complete_commits(&logs);
    let mut report = ClusterRecovery {
        commits: commits.len(),
        records: heads.iter().sum(),
        ..ClusterRecovery::default()
    };

    // Truncate each existing log to its complete-commit prefix.
    for k in 0..n {
        if on_disk[k] > 0 && on_disk[k] > cuts[k] {
            report.truncated_bytes += on_disk[k] - cuts[k];
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(shard_path(dir, k))
                .map_err(|e| format!("truncating shard {k}: {e}"))?;
            file.set_len(cuts[k] as u64)
                .map_err(|e| format!("truncating shard {k}: {e}"))?;
        }
    }

    // Load the newest valid checkpoint (or start empty), fold in the
    // complete commits past its sequence floor, in order, then build
    // each view once.
    let checkpoint = load_checkpoint(dir);
    report.checkpoint_seq = checkpoint.as_ref().map(|(seq, _)| *seq);
    let (floor, mut state) = checkpoint.unwrap_or_default();
    let next_seq = commits.last().map_or(0, |(seq, _)| seq + 1).max(floor);
    for (i, (seq, record)) in commits.into_iter().enumerate() {
        if seq < floor {
            report.skipped_commits += 1;
            continue;
        }
        fold_record(&mut state, record).map_err(|e| format!("folding commit {i}: {e}"))?;
    }
    let mut session = materialize(state, budget).map_err(|e| e.to_string())?;

    // Open the logs for appending (creating fresh ones) and build the
    // shared shard set with the recovered counters.
    let mut shards = Vec::with_capacity(n);
    for k in 0..n {
        let path = shard_path(dir, k);
        let wal = if on_disk[k] > 0 {
            let file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Wal::new(Box::new(file), sync, Trace::Null)
        } else {
            let file =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Wal::create(Box::new(file), sync, Trace::Null)
                .map_err(|e| format!("{}: {e}", path.display()))?
        };
        shards.push(ShardLog {
            path,
            wal: Mutex::new(wal),
            epoch: AtomicU64::new(heads[k] as u64),
            offset: AtomicU64::new(cuts[k].max(HEADER_LEN) as u64),
        });
    }
    let set = Arc::new(ShardSet {
        shards,
        next_seq: AtomicU64::new(next_seq),
        shipped: AtomicU64::new(0),
    });
    session.set_durability(Box::new(ClusterDurability {
        shards: Arc::clone(&set),
        dir: dir.to_path_buf(),
        snapshot_every,
        since_snapshot: 0,
    }));
    Ok((session, report, set))
}

/// Rebuild a session at a pinned epoch vector: fold, in global sequence
/// order, exactly the commits whose every part lies within the first
/// `epochs[k]` records of shard `k`'s log, then build each view once. This is the *cold
/// evaluation of an epoch vector* — what a replica that has applied
/// `epochs` must be indistinguishable from (the replica-consistency
/// proptest pins this).
pub fn rebuild_at(dir: &Path, epochs: &[u64], budget: Budget) -> Result<Session, String> {
    let mut logs = Vec::with_capacity(epochs.len());
    for (k, &limit) in epochs.iter().enumerate() {
        let (mut frames, valid, _) = read_shard_log(dir, k)?;
        frames.truncate(limit as usize);
        logs.push((frames, valid));
    }
    let (commits, _, _) = complete_commits(&logs);
    let mut state = SnapshotState::default();
    for (i, (_, record)) in commits.into_iter().enumerate() {
        fold_record(&mut state, record).map_err(|e| format!("folding commit {i}: {e}"))?;
    }
    materialize(state, budget).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_datalog::Semantics;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("algrec-cluster-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn partition_is_disjoint_and_merges_back() {
        let mut delta = DatabaseDelta::new();
        for i in 0..40 {
            delta.insert("e", Value::pair(Value::int(i), Value::int(i + 1)));
        }
        delta.remove("f", Value::int(7));
        let parts = partition_delta(&delta, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(DatabaseDelta::len).sum();
        assert_eq!(total, delta.len(), "every member lands in exactly one part");
        assert_eq!(merge_parts(&parts), delta);
        // All members of one first-column go to the same shard.
        let one = shard_of_member("e", &Value::pair(Value::int(3), Value::int(4)), 4);
        let other = shard_of_member("e", &Value::pair(Value::int(3), Value::int(9)), 4);
        assert_eq!(one, other);
    }

    #[test]
    fn sharded_open_logs_recovers_and_truncates_incomplete_commits() {
        let dir = scratch("shard-recovery");
        let n = 3;
        {
            let (mut session, report, set) =
                open_primary(&dir, n, Budget::LARGE, SyncPolicy::Always).unwrap();
            assert_eq!(report.commits, 0);
            let mut facts = String::new();
            for i in 0..30 {
                facts.push_str(&format!("e({i}, {}). ", i + 1));
            }
            session.load(&facts).unwrap();
            session
                .register_datalog(
                    "paths",
                    "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).",
                    Semantics::Stratified,
                )
                .unwrap();
            session.assert_fact("e(40, 41)").unwrap();
            session.retract_fact("e(0, 1)").unwrap();
            // The load spread across all shards; the registration went
            // to shard 0 alone.
            let epochs = set.epochs();
            assert_eq!(epochs.len(), n);
            assert!(epochs.iter().all(|&e| e >= 1), "{epochs:?}");
        }

        // Reopen: same database, same views, counters restored.
        let (mut session, report, set) =
            open_primary(&dir, n, Budget::LARGE, SyncPolicy::Always).unwrap();
        assert_eq!(report.commits, 4, "load, register, assert, retract");
        assert!(report.records >= 4);
        assert_eq!(report.truncated_bytes, 0);
        let db = session.db_summary();
        assert_eq!(db, vec![("e".to_string(), 30)]);
        let answer = session.query("paths", Some("tc")).unwrap();
        let algrec_serve::QueryAnswer::Datalog { certain, .. } = answer else {
            panic!("datalog view");
        };
        assert!(certain.contains(&"tc(40, 41).".to_string()), "{certain:?}");

        // Simulate a crash torn mid-commit: append one part of a fake
        // 2-part commit to shard 1 only. Reopen must truncate it.
        let before = set.offsets();
        drop(set);
        drop(session);
        {
            let mut delta = DatabaseDelta::new();
            delta.insert("e", Value::pair(Value::int(90), Value::int(91)));
            let file = std::fs::OpenOptions::new()
                .append(true)
                .open(shard_path(&dir, 1))
                .unwrap();
            let mut wal = Wal::new(Box::new(file), SyncPolicy::Always, Trace::Null);
            wal.append(&WalRecord::Sequenced {
                seq: 999,
                parts: 2,
                inner: Box::new(WalRecord::Delta(delta)),
            })
            .unwrap();
        }
        let (mut session, report, set) =
            open_primary(&dir, n, Budget::LARGE, SyncPolicy::Always).unwrap();
        assert_eq!(report.commits, 4, "the orphan part is not replayed");
        assert!(report.truncated_bytes > 0, "the orphan part is truncated");
        assert_eq!(set.offsets(), before, "offsets back at the commit prefix");
        assert_eq!(session.db_summary(), vec![("e".to_string(), 30)]);

        // New commits after recovery keep sequencing from where the
        // complete prefix ended.
        session.assert_fact("e(50, 51)").unwrap();
        let (session, report, _) =
            open_primary(&dir, n, Budget::LARGE, SyncPolicy::Always).unwrap();
        assert_eq!(report.commits, 5);
        assert_eq!(session.db_summary(), vec![("e".to_string(), 31)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_skips_replay_and_never_truncates_shard_logs() {
        let dir = scratch("checkpoint");
        let n = 2;
        let (db, answer, offsets) = {
            let (mut session, _, set) =
                open_primary_opts(&dir, n, Budget::LARGE, SyncPolicy::Always, Some(2)).unwrap();
            for i in 0..12 {
                session.assert_fact(&format!("e({i}, {})", i + 1)).unwrap();
            }
            session
                .register_datalog("paths", "tc(X, Y) :- e(X, Y).", Semantics::Stratified)
                .unwrap();
            (
                session.db().clone(),
                session.query("paths", Some("tc")).unwrap(),
                set.offsets(),
            )
        };
        assert!(checkpoint_path(&dir).exists(), "cadence 2 over 13 commits");

        // Reopen: the checkpoint absorbs most of the commit prefix, the
        // logs keep every byte (replicas resume from offsets into them).
        let (mut session, report, set) =
            open_primary_opts(&dir, n, Budget::LARGE, SyncPolicy::Always, Some(2)).unwrap();
        assert_eq!(report.commits, 13);
        assert!(report.checkpoint_seq.is_some());
        assert!(
            report.skipped_commits >= 11,
            "cadence 2 leaves at most the tail: {report:?}"
        );
        assert_eq!(set.offsets(), offsets, "checkpointing must not truncate");
        assert_eq!(session.db(), &db);
        assert_eq!(session.query("paths", Some("tc")).unwrap(), answer);

        // A corrupt checkpoint is ignored wholesale: full replay, same
        // state, logs untouched.
        let ck = checkpoint_path(&dir);
        let (seq, state) = load_checkpoint(&dir).unwrap();
        let mut bytes = std::fs::read(&ck).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&ck, &bytes).unwrap();
        let (mut session, report, _) =
            open_primary_opts(&dir, n, Budget::LARGE, SyncPolicy::Always, Some(2)).unwrap();
        assert_eq!(report.checkpoint_seq, None, "damage must reject the file");
        assert_eq!(report.skipped_commits, 0);
        assert_eq!(session.db(), &db);
        assert_eq!(session.query("paths", Some("tc")).unwrap(), answer);

        // A checkpoint carrying a row-codec image (what earlier binaries
        // could write) is honoured exactly like a columnar one.
        let mut row = frame_record(&seq.to_le_bytes());
        row.extend_from_slice(&algrec_store::snapshot::encode_snapshot(&state));
        std::fs::write(&ck, &row).unwrap();
        let (mut session, report, _) =
            open_primary_opts(&dir, n, Budget::LARGE, SyncPolicy::Always, Some(2)).unwrap();
        assert_eq!(report.checkpoint_seq, Some(seq));
        assert!(report.skipped_commits >= 11, "{report:?}");
        assert_eq!(session.db(), &db);
        assert_eq!(session.query("paths", Some("tc")).unwrap(), answer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_at_epoch_vector_replays_only_complete_covered_commits() {
        let dir = scratch("rebuild-at");
        let n = 2;
        let full = {
            let (mut session, _, set) =
                open_primary(&dir, n, Budget::LARGE, SyncPolicy::Always).unwrap();
            session.load("e(1, 2). e(2, 3). e(3, 4). e(4, 5).").unwrap();
            session.assert_fact("e(5, 6)").unwrap();
            session.assert_fact("e(6, 7)").unwrap();
            set.epochs()
        };
        // The full vector rebuilds the full state.
        let session = rebuild_at(&dir, &full, Budget::LARGE).unwrap();
        assert_eq!(session.db_summary(), vec![("e".to_string(), 6)]);
        // The zero vector rebuilds the empty state.
        let session = rebuild_at(&dir, &[0, 0], Budget::LARGE).unwrap();
        assert!(session.db_summary().is_empty());
        // A partial vector replays the complete commits it covers: a
        // commit with a part past the pin is excluded entirely.
        let partial: Vec<u64> = full.iter().map(|&e| e.saturating_sub(1)).collect();
        let session = rebuild_at(&dir, &partial, Budget::LARGE).unwrap();
        let members = session.db_summary().first().map_or(0, |(_, count)| *count);
        assert!(members < 6, "some suffix must be excluded");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
