//! Snapshots: a point-in-time image of a durable session, plus the file
//! naming and compaction scheme that ties snapshots to their logs.
//!
//! A snapshot holds the full extensional database **and** the view
//! catalog (every registered view's name, kind, program, semantics and
//! strategy pin), checksummed so it is either wholly valid or wholly
//! rejected — there is no "half a snapshot". Writing is
//! atomic: serialize to `snapshot-<gen>.snap.tmp`, fsync, rename over
//! the final name, fsync the directory. A crash at any point leaves
//! either the previous generation or the new one, never a mix.
//!
//! Two image formats share the file name. [`write_snapshot`] always
//! emits the columnar one ([`crate::colsnap`]); the row codec here
//! ([`encode_snapshot`] / [`decode_snapshot`], one checksummed record)
//! is what earlier binaries wrote, so it stays as the reader for their
//! stores and as the reference the columnar codec is tested against.
//! [`decode_any_snapshot`] dispatches on the header's file kind.
//!
//! Generations pair each snapshot with the log of everything after it:
//! `snapshot-<gen>.snap` + `wal-<gen>.log`. After a snapshot at
//! generation N succeeds, every generation older than N − 1 is deleted
//! ([`compact`]); the previous pair is what recovery falls back to when
//! the newest snapshot fails validation.

use crate::codec::{
    check_header, decode_database, encode_database, frame_record, next_record, write_header,
    CodecError, FileKind, Reader,
};
use algrec_serve::{parse_semantics, semantics_name, StrategyPin, ViewDef};
use algrec_value::{Database, Trace, TraceEvent};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Everything a snapshot captures.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SnapshotState {
    /// The extensional database, all relations (empty ones included).
    pub db: Database,
    /// The view catalog, in name order.
    pub views: Vec<ViewDef>,
}

const KIND_DATALOG: u8 = 0;
const KIND_ALGEBRA: u8 = 1;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn encode_view(view: &ViewDef, out: &mut Vec<u8>) {
    match view.kind {
        "algebra" => {
            out.push(KIND_ALGEBRA);
            put_str(out, &view.name);
            put_str(out, &view.program);
        }
        _ => {
            out.push(KIND_DATALOG);
            put_str(out, &view.name);
            put_str(out, &view.program);
            let semantics = view
                .semantics
                .map(semantics_name)
                .unwrap_or_else(|| "stratified".into());
            put_str(out, &semantics);
            put_str(out, view.strategy.as_str());
        }
    }
}

pub(crate) fn decode_view(r: &mut Reader<'_>) -> Result<ViewDef, CodecError> {
    match r.u8()? {
        KIND_ALGEBRA => Ok(ViewDef {
            name: r.str()?,
            kind: "algebra",
            program: r.str()?,
            semantics: None,
            strategy: StrategyPin::Auto,
        }),
        KIND_DATALOG => {
            let name = r.str()?;
            let program = r.str()?;
            let semantics = parse_semantics(&r.str()?)
                .map_err(|e| CodecError::Malformed(format!("bad semantics: {e}")))?;
            let strategy = r.str()?;
            let strategy = StrategyPin::parse(&strategy)
                .ok_or_else(|| CodecError::Malformed(format!("bad strategy `{strategy}`")))?;
            Ok(ViewDef {
                name,
                kind: "datalog",
                program,
                semantics: Some(semantics),
                strategy,
            })
        }
        other => Err(CodecError::Malformed(format!("bad view kind {other}"))),
    }
}

/// Serialize a complete row-codec snapshot file image.
pub fn encode_snapshot(state: &SnapshotState) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_database(&state.db, &mut payload);
    payload.extend_from_slice(&(state.views.len() as u32).to_le_bytes());
    for view in &state.views {
        encode_view(view, &mut payload);
    }
    let mut image = Vec::new();
    write_header(&mut image, FileKind::Snapshot);
    image.extend_from_slice(&frame_record(&payload));
    image
}

/// Decode a snapshot file image. Unlike a log, a snapshot admits no torn
/// tail: anything short of one intact record (and nothing after it) is
/// an error, and the caller falls back to an older generation.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotState, CodecError> {
    let mut pos = check_header(bytes, FileKind::Snapshot)?;
    let payload = next_record(bytes, &mut pos)?
        .ok_or(CodecError::Malformed("snapshot has no record".into()))?;
    if next_record(bytes, &mut pos)?.is_some() {
        return Err(CodecError::Malformed(
            "snapshot has more than one record".into(),
        ));
    }
    let mut r = Reader::new(payload);
    let db = decode_database(&mut r)?;
    let view_count = r.u32()? as usize;
    let mut views = Vec::with_capacity(view_count);
    for _ in 0..view_count {
        views.push(decode_view(&mut r)?);
    }
    r.finish()?;
    Ok(SnapshotState { db, views })
}

// ---------------------------------------------------------------------
// Files and generations.
// ---------------------------------------------------------------------

/// Path of the generation-`gen` snapshot in `dir`.
pub fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snapshot-{gen:012}.snap"))
}

/// Path of the generation-`gen` write-ahead log in `dir` (the log of
/// everything after snapshot `gen`).
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:012}.log"))
}

fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// All snapshot generations present in `dir`, descending (newest first).
pub fn snapshot_generations(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(gen) = parse_gen(name, "snapshot-", ".snap") {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

/// All WAL generations present in `dir`, ascending.
pub fn wal_generations(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(gen) = parse_gen(name, "wal-", ".log") {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    // Directory fsync makes the rename itself durable. Not every
    // platform supports opening a directory for sync; failure to sync
    // is not failure to persist on those, so errors are tolerated.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Write snapshot `gen` atomically: temp file, fsync, rename, dir fsync.
/// Returns the snapshot size in bytes. The image is always columnar
/// ([`crate::colsnap`]); readers dispatch on the header's file kind, so
/// row-encoded snapshots written by earlier binaries still reopen.
pub fn write_snapshot(
    dir: &Path,
    gen: u64,
    state: &SnapshotState,
    trace: &Trace,
) -> std::io::Result<usize> {
    let image = crate::colsnap::encode_column_snapshot(state);
    let final_path = snapshot_path(dir, gen);
    let tmp_path = final_path.with_extension("snap.tmp");
    {
        let mut tmp = std::fs::File::create(&tmp_path)?;
        tmp.write_all(&image)?;
        tmp.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    trace.emit(TraceEvent::SnapshotWrite(image.len()));
    Ok(image.len())
}

/// Decode a snapshot image of either kind, dispatching on the header's
/// file kind. A columnar image is **validated before it is decoded**
/// (frame CRCs plus the per-run checksum walk, no row materialization),
/// and the established byte count surfaces as
/// [`TraceEvent::SnapshotMap`] — the map-and-validate recovery path.
pub fn decode_any_snapshot(bytes: &[u8], trace: &Trace) -> Result<SnapshotState, CodecError> {
    if crate::colsnap::is_column_snapshot(bytes) {
        let meta = crate::colsnap::validate_column_snapshot(bytes)?;
        trace.emit(TraceEvent::SnapshotMap(meta.validated_bytes));
        crate::colsnap::decode_column_snapshot(bytes)
    } else {
        decode_snapshot(bytes)
    }
}

/// Load the newest decodable snapshot in `dir`, if any. A corrupt or
/// version-incompatible newest snapshot is *not* silently skipped —
/// falling back to an older generation would silently lose committed
/// state, so the error surfaces and the operator decides. (Recovery
/// proper uses [`load_snapshot_with_fallback`], which *does* step back
/// a generation when the older generation's log still holds every
/// commit the broken snapshot covered.)
pub fn load_latest_snapshot(dir: &Path) -> Result<Option<(u64, SnapshotState)>, crate::StoreError> {
    let Some(gen) = snapshot_generations(dir)?.into_iter().next() else {
        return Ok(None);
    };
    let path = snapshot_path(dir, gen);
    let bytes = std::fs::read(&path)?;
    let state =
        decode_any_snapshot(&bytes, &Trace::Null).map_err(|e| crate::StoreError::Corrupt {
            path: path.clone(),
            error: e,
        })?;
    Ok(Some((gen, state)))
}

/// Load the newest *usable* snapshot generation: walk generations
/// newest → oldest, rejecting corrupt images, and fall back to an older
/// generation only when that generation's write-ahead log is still
/// present — then the records between the two snapshots replay from it
/// and nothing committed is lost. Without that log the corruption
/// surfaces (exactly like [`load_latest_snapshot`]). Returns the loaded
/// generation and state plus how many broken generations were skipped.
pub fn load_snapshot_with_fallback(
    dir: &Path,
    trace: &Trace,
) -> Result<(Option<(u64, SnapshotState)>, usize), crate::StoreError> {
    let gens = snapshot_generations(dir)?;
    let mut skipped = 0usize;
    for (i, &gen) in gens.iter().enumerate() {
        let path = snapshot_path(dir, gen);
        let bytes = std::fs::read(&path)?;
        match decode_any_snapshot(&bytes, trace) {
            Ok(state) => return Ok((Some((gen, state)), skipped)),
            Err(error) => {
                let fallback_ok = gens
                    .get(i + 1)
                    .is_some_and(|&older| wal_path(dir, older).exists());
                if !fallback_ok {
                    return Err(crate::StoreError::Corrupt { path, error });
                }
                skipped += 1;
            }
        }
    }
    Ok((None, skipped))
}

/// Delete every snapshot and WAL file of a generation older than
/// `keep_gen`. Called after snapshot `keep_gen` is durably on disk.
pub fn compact(dir: &Path, keep_gen: u64) -> std::io::Result<()> {
    for gen in snapshot_generations(dir)? {
        if gen < keep_gen {
            let _ = std::fs::remove_file(snapshot_path(dir, gen));
        }
    }
    for gen in wal_generations(dir)? {
        if gen < keep_gen {
            let _ = std::fs::remove_file(wal_path(dir, gen));
        }
    }
    sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_datalog::Semantics;
    use algrec_value::Value;

    fn sample_state() -> SnapshotState {
        let mut db = Database::new();
        db.insert_value("e", Value::pair(Value::int(1), Value::int(2)));
        db.insert_value("label", Value::str("α"));
        db.insert_value("gone", Value::int(1));
        db.remove_value("gone", &Value::int(1));
        SnapshotState {
            db,
            views: vec![
                ViewDef {
                    name: "alg".into(),
                    kind: "algebra",
                    program: "query e;".into(),
                    semantics: None,
                    strategy: StrategyPin::Auto,
                },
                ViewDef {
                    name: "paths".into(),
                    kind: "datalog",
                    program: "tc(X, Y) :- e(X, Y).".into(),
                    semantics: Some(Semantics::ValidExtended(4)),
                    strategy: StrategyPin::Incremental,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_database_and_catalog() {
        let state = sample_state();
        let image = encode_snapshot(&state);
        let back = decode_snapshot(&image).unwrap();
        assert_eq!(back, state);
        assert!(back.db.contains("gone"), "emptied relation survives");
    }

    #[test]
    fn snapshot_rejects_truncation_corruption_and_versions() {
        let image = encode_snapshot(&sample_state());
        for cut in [0, 7, crate::codec::HEADER_LEN, image.len() - 1] {
            assert!(decode_snapshot(&image[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = image.clone();
        let mid = crate::codec::HEADER_LEN + crate::codec::FRAME_LEN + 3;
        flipped[mid] ^= 0x01;
        assert!(decode_snapshot(&flipped).is_err());
        let mut bumped = image.clone();
        bumped[8] = 0x7F;
        assert!(matches!(
            decode_snapshot(&bumped),
            Err(CodecError::Version(_))
        ));
        // Wrong kind: a WAL header on snapshot bytes.
        let mut wrong = image;
        wrong[10] = FileKind::Wal as u16 as u8;
        assert!(matches!(
            decode_snapshot(&wrong),
            Err(CodecError::WrongKind { .. })
        ));
    }

    #[test]
    fn generations_name_sort_and_compact() {
        let dir = std::env::temp_dir().join(format!(
            "algrec-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let state = sample_state();
        for gen in [0u64, 3, 12] {
            write_snapshot(&dir, gen, &state, &Trace::default()).unwrap();
            std::fs::write(wal_path(&dir, gen), b"x").unwrap();
        }
        assert_eq!(snapshot_generations(&dir).unwrap(), vec![12, 3, 0]);
        assert_eq!(wal_generations(&dir).unwrap(), vec![0, 3, 12]);

        let (gen, loaded) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(gen, 12);
        assert_eq!(loaded, state);

        compact(&dir, 12).unwrap();
        assert_eq!(snapshot_generations(&dir).unwrap(), vec![12]);
        assert_eq!(wal_generations(&dir).unwrap(), vec![12]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
