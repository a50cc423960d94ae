//! Columnar snapshots: relations persisted as sorted immutable run
//! segments over a shared value dictionary.
//!
//! This is the one image [`crate::snapshot::write_snapshot`] and the
//! cluster's checkpoints write; the row codec in [`crate::snapshot`]
//! stays as the reader for stores written before it and as the
//! reference the tests below compare against. A columnar snapshot
//! ([`FileKind::ColumnSnapshot`]) replaces the row-encoded database
//! image with three regions:
//!
//! 1. a **shape frame** — run count and pad length, so a validator
//!    knows the file's geometry without decoding anything else;
//! 2. a **meta frame** — the view catalog, the *dictionary* (every
//!    distinct component value, in canonical [`Value`] order, encoded
//!    once) and the relation directory (name + run count per relation);
//! 3. the **run region** — one [`algrec_column`] run segment per
//!    relation/shape pair, rows holding dictionary indexes instead of
//!    re-encoded values. When the region reaches a page it starts on a
//!    [`PAGE`] boundary so a mapped reader sees aligned sections.
//!
//! The payoff is [`validate_column_snapshot`]: two frame CRCs plus a
//! [`validate_run`] walk establish end-to-end integrity **without
//! materializing a single row or value** — the map-and-validate
//! recovery path. Decoding happens after (and only after) validation
//! succeeds, and a corrupt file is rejected wholesale so recovery can
//! fall back to the previous generation plus its log.
//!
//! Each run's caller tag records the member *shape* its rows encode:
//! tag `0` is a scalar member (one dictionary index per row), tag
//! `k + 1` is a `k`-tuple (rows of `k` indexes). Sets and nested
//! tuples are dictionary values themselves, so arbitrary complex
//! objects round-trip; only the top tuple layer is struck into columns.

use crate::codec::{
    check_header, decode_value, encode_value, frame_record, next_record, write_header, CodecError,
    FileKind, Reader,
};
use crate::snapshot::{decode_view, encode_view, SnapshotState};
use algrec_column::{pad_to_page, read_run, validate_run, write_run, Run, RunBuilder, PAGE};
use algrec_value::{Relation, Value};
use std::collections::BTreeMap;

/// The member shape a run's rows encode: a scalar member is one
/// dictionary index, a `k`-tuple is `k` of them.
fn shape_tag(member: &Value) -> u32 {
    match member.as_tuple() {
        Some(items) => items.len() as u32 + 1,
        None => 0,
    }
}

/// What [`validate_column_snapshot`] established without decoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColumnSnapshotMeta {
    /// Run segments in the run region.
    pub runs: usize,
    /// Rows across all runs (from the run headers).
    pub rows: usize,
    /// Total bytes whose integrity was established.
    pub validated_bytes: usize,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Is this image a columnar snapshot? (Magic + version checks still
/// happen in [`check_header`]; this only peeks at the kind tag.)
pub fn is_column_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= crate::codec::HEADER_LEN
        && bytes[..8] == crate::codec::MAGIC
        && u16::from_le_bytes([bytes[10], bytes[11]]) == FileKind::ColumnSnapshot as u16
}

fn corrupt_run(e: algrec_column::FileError) -> CodecError {
    CodecError::Malformed(format!("run segment: {e}"))
}

/// Serialize a complete columnar snapshot file image. Deterministic:
/// the dictionary is canonically sorted, relations ride in database
/// order, and each relation's runs in ascending shape-tag order.
pub fn encode_column_snapshot(state: &SnapshotState) -> Vec<u8> {
    // Dictionary: every distinct component value, canonically ordered.
    let mut dict: std::collections::BTreeSet<Value> = std::collections::BTreeSet::new();
    for (_, rel) in state.db.iter() {
        for member in rel.iter() {
            match member.as_tuple() {
                Some(items) => dict.extend(items.iter().cloned()),
                None => {
                    dict.insert(member.clone());
                }
            }
        }
    }
    let dict: Vec<Value> = dict.into_iter().collect();
    let index: BTreeMap<&Value, u32> = dict
        .iter()
        .enumerate()
        .map(|(i, v)| (v, i as u32))
        .collect();

    // One run per relation/shape pair, rows of dictionary indexes.
    let mut rels: Vec<(&str, Vec<(u32, Run)>)> = Vec::new();
    let mut row = Vec::new();
    for (name, rel) in state.db.iter() {
        let mut by_tag: BTreeMap<u32, RunBuilder> = BTreeMap::new();
        for member in rel.iter() {
            row.clear();
            match member.as_tuple() {
                Some(items) => row.extend(items.iter().map(|v| index[v])),
                None => row.push(index[member]),
            }
            by_tag.entry(shape_tag(member)).or_default().push(&row);
        }
        rels.push((
            name,
            by_tag
                .into_iter()
                .map(|(tag, b)| (tag, b.finish()))
                .collect(),
        ));
    }

    let mut runs_buf = Vec::new();
    let mut nruns = 0u32;
    for (_, runs) in &rels {
        for (tag, run) in runs {
            write_run(&mut runs_buf, run, false, *tag);
            nruns += 1;
        }
    }

    let mut meta = Vec::new();
    put_u32(&mut meta, state.views.len() as u32);
    for view in &state.views {
        encode_view(view, &mut meta);
    }
    put_u32(&mut meta, dict.len() as u32);
    for v in &dict {
        encode_value(v, &mut meta);
    }
    put_u32(&mut meta, rels.len() as u32);
    for (name, runs) in &rels {
        put_str(&mut meta, name);
        put_u32(&mut meta, runs.len() as u32);
    }

    // Geometry is known before the pad is chosen: the shape frame has a
    // fixed-size payload, so the run region's start offset is a pure
    // function of the meta frame's length.
    let unpadded = crate::codec::HEADER_LEN
        + (crate::codec::FRAME_LEN + 8)
        + (crate::codec::FRAME_LEN + meta.len());
    let pad = if runs_buf.len() >= PAGE {
        let mut probe = vec![0u8; unpadded];
        pad_to_page(&mut probe);
        probe.len() - unpadded
    } else {
        0
    };

    let mut shape = Vec::with_capacity(8);
    put_u32(&mut shape, nruns);
    put_u32(&mut shape, pad as u32);

    let mut image = Vec::with_capacity(unpadded + pad + runs_buf.len());
    write_header(&mut image, FileKind::ColumnSnapshot);
    image.extend_from_slice(&frame_record(&shape));
    image.extend_from_slice(&frame_record(&meta));
    image.resize(image.len() + pad, 0);
    debug_assert!(pad == 0 || image.len() % PAGE == 0);
    image.extend_from_slice(&runs_buf);
    image
}

/// Parse the shape frame: `(nruns, pad, offset past the meta frame)`.
fn read_shape(bytes: &[u8]) -> Result<(usize, usize, usize), CodecError> {
    let mut pos = check_header(bytes, FileKind::ColumnSnapshot)?;
    let shape = next_record(bytes, &mut pos)?.ok_or(CodecError::Malformed(
        "columnar snapshot has no frames".into(),
    ))?;
    if shape.len() != 8 {
        return Err(CodecError::Malformed(format!(
            "shape frame is {} byte(s), want 8",
            shape.len()
        )));
    }
    let nruns = u32::from_le_bytes(shape[0..4].try_into().unwrap()) as usize;
    let pad = u32::from_le_bytes(shape[4..8].try_into().unwrap()) as usize;
    Ok((nruns, pad, pos))
}

/// Establish end-to-end integrity of a columnar snapshot **without
/// decoding it**: header, the two frame CRCs, then a [`validate_run`]
/// walk over every run segment. This is what recovery runs before any
/// value is materialized; on success the subsequent decode cannot
/// encounter torn bytes.
pub fn validate_column_snapshot(bytes: &[u8]) -> Result<ColumnSnapshotMeta, CodecError> {
    let (nruns, pad, mut pos) = read_shape(bytes)?;
    next_record(bytes, &mut pos)?.ok_or(CodecError::Malformed(
        "columnar snapshot has no meta frame".into(),
    ))?;
    if bytes.len() - pos < pad {
        return Err(CodecError::Malformed("pad region truncated".into()));
    }
    pos += pad;
    let mut rows = 0usize;
    for _ in 0..nruns {
        rows += validate_run(bytes, &mut pos).map_err(corrupt_run)?.rows;
    }
    if pos != bytes.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing byte(s) after the run region",
            bytes.len() - pos
        )));
    }
    Ok(ColumnSnapshotMeta {
        runs: nruns,
        rows,
        validated_bytes: bytes.len(),
    })
}

/// Decode a columnar snapshot back into a [`SnapshotState`]. Call
/// [`validate_column_snapshot`] first; this re-checks per-run CRCs but
/// trusts the caller for the whole-file walk.
pub fn decode_column_snapshot(bytes: &[u8]) -> Result<SnapshotState, CodecError> {
    let (nruns, pad, mut pos) = read_shape(bytes)?;
    let meta = next_record(bytes, &mut pos)?.ok_or(CodecError::Malformed(
        "columnar snapshot has no meta frame".into(),
    ))?;
    if bytes.len() - pos < pad {
        return Err(CodecError::Malformed("pad region truncated".into()));
    }
    pos += pad;

    let mut r = Reader::new(meta);
    let nviews = r.u32()? as usize;
    let mut views = Vec::with_capacity(nviews);
    for _ in 0..nviews {
        views.push(decode_view(&mut r)?);
    }
    let dict_len = r.u32()? as usize;
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(decode_value(&mut r)?);
    }
    let nrels = r.u32()? as usize;
    let mut directory = Vec::with_capacity(nrels);
    let mut total_runs = 0usize;
    for _ in 0..nrels {
        let name = r.str()?;
        let runs = r.u32()? as usize;
        total_runs += runs;
        directory.push((name, runs));
    }
    r.finish()?;
    if total_runs != nruns {
        return Err(CodecError::Malformed(format!(
            "directory lists {total_runs} run(s), shape frame says {nruns}"
        )));
    }

    let lookup = |idx: u32| -> Result<&Value, CodecError> {
        dict.get(idx as usize).ok_or_else(|| {
            CodecError::Malformed(format!("dictionary index {idx} out of {}", dict.len()))
        })
    };
    let mut db = algrec_value::Database::new();
    for (name, runs) in directory {
        // Run rows are sorted by dictionary index, and the dictionary is
        // in canonical value order, so each run decodes to an already-
        // sorted member stream: collect into a `Vec` and let the set
        // bulk-build from it instead of paying a tree insert per member.
        let mut members: Vec<Value> = Vec::new();
        for _ in 0..runs {
            let (run, meta) = read_run(bytes, &mut pos).map_err(corrupt_run)?;
            let want = if meta.tag == 0 {
                1
            } else {
                meta.tag as usize - 1
            };
            let mut failed = None;
            run.for_each(|row| {
                if failed.is_some() {
                    return;
                }
                if row.len() != want {
                    failed = Some(CodecError::Malformed(format!(
                        "tag {} run holds a {}-column row",
                        meta.tag,
                        row.len()
                    )));
                    return;
                }
                let member = if meta.tag == 0 {
                    lookup(row[0]).cloned()
                } else {
                    row.iter()
                        .map(|&i| lookup(i).cloned())
                        .collect::<Result<Vec<_>, _>>()
                        .map(Value::Tuple)
                };
                match member {
                    Ok(v) => members.push(v),
                    Err(e) => failed = Some(e),
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
        }
        db.set(name, Relation::from_values(members));
    }
    if pos != bytes.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing byte(s) after the run region",
            bytes.len() - pos
        )));
    }
    Ok(SnapshotState { db, views })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decode_snapshot, encode_snapshot};
    use algrec_serve::ViewDef;
    use algrec_value::Database;

    fn sample_state() -> SnapshotState {
        let mut db = Database::new();
        for i in 0..40i64 {
            db.insert_value("e", Value::pair(Value::int(i), Value::int(i + 1)));
        }
        db.insert_value("label", Value::str("α"));
        db.insert_value("mixed", Value::int(3));
        db.insert_value(
            "mixed",
            Value::tuple([Value::int(1), Value::int(2), Value::int(3)]),
        );
        db.insert_value("mixed", Value::set([Value::int(9), Value::empty_set()]));
        db.insert_value("mixed", Value::tuple([]));
        db.insert_value("gone", Value::int(1));
        db.remove_value("gone", &Value::int(1));
        SnapshotState {
            db,
            views: vec![ViewDef {
                name: "paths".into(),
                kind: "datalog",
                program: "tc(X, Y) :- e(X, Y).".into(),
                semantics: Some(algrec_datalog::Semantics::Stratified),
                strategy: algrec_serve::StrategyPin::Auto,
            }],
        }
    }

    #[test]
    fn columnar_snapshot_round_trips_and_matches_row_codec() {
        let state = sample_state();
        let image = encode_column_snapshot(&state);
        let meta = validate_column_snapshot(&image).unwrap();
        assert!(meta.runs >= 5, "one run per relation/shape: {meta:?}");
        assert_eq!(meta.validated_bytes, image.len());
        let back = decode_column_snapshot(&image).unwrap();
        assert_eq!(back, state);
        assert!(back.db.contains("gone"), "emptied relation survives");
        // Same state through the row codec: both decoders agree.
        let row_image = encode_snapshot(&state);
        assert_eq!(decode_snapshot(&row_image).unwrap(), back);
    }

    #[test]
    fn columnar_snapshot_is_smaller_than_row_codec_on_shared_values() {
        // Transitive-closure-shaped data shares every endpoint between
        // many pairs; the dictionary pays for each value once where the
        // row codec re-encodes it per member.
        let mut db = Database::new();
        for i in 0..200i64 {
            for j in 0..6 {
                db.insert_value(
                    "tc",
                    Value::pair(
                        Value::str(format!("node-{i:04}")),
                        Value::str(format!("node-{:04}", i + j)),
                    ),
                );
            }
        }
        let state = SnapshotState {
            db,
            views: Vec::new(),
        };
        let columnar = encode_column_snapshot(&state).len();
        let rows = encode_snapshot(&state).len();
        assert!(
            columnar * 2 < rows,
            "columnar {columnar} vs row {rows}: expected at least 2x shrink"
        );
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected_by_validate() {
        let mut small = sample_state();
        small.db = {
            let mut db = Database::new();
            db.insert_value("e", Value::pair(Value::int(1), Value::int(2)));
            db.insert_value("e", Value::pair(Value::int(2), Value::int(3)));
            db
        };
        let image = encode_column_snapshot(&small);
        for byte in 0..image.len() {
            let mut bad = image.clone();
            bad[byte] ^= 0x40;
            assert!(
                validate_column_snapshot(&bad).is_err(),
                "flip at {byte} undetected"
            );
        }
        for cut in 0..image.len() {
            assert!(
                validate_column_snapshot(&image[..cut]).is_err(),
                "cut at {cut} undetected"
            );
        }
    }

    #[test]
    fn large_snapshots_page_align_the_run_region() {
        let mut db = Database::new();
        for i in 0..2000i64 {
            db.insert_value("e", Value::pair(Value::int(i), Value::int(i + 1)));
        }
        let state = SnapshotState {
            db,
            views: Vec::new(),
        };
        let image = encode_column_snapshot(&state);
        let (_, pad, pos) = read_shape(&image).unwrap();
        assert!(pad > 0, "a multi-page run region must be aligned");
        let mut pos = pos;
        next_record(&image, &mut pos).unwrap();
        assert_eq!((pos + pad) % PAGE, 0, "runs start on a page boundary");
        assert_eq!(decode_column_snapshot(&image).unwrap(), state);
    }
}
