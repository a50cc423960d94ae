//! Durable run segments: self-delimiting, CRC-footered encodings of
//! [`Run`]s.
//!
//! Each segment is `magic ∥ layout ∥ tombstone ∥ tag ∥ nrows ∥
//! payload_len ∥ payload ∥ crc32`, little-endian throughout, with the
//! CRC covering everything before it. The `tag` is caller-defined (the
//! store uses it to record the member *shape* a run's rows encode).
//!
//! The split between [`read_run`] and [`validate_run`] is the point of
//! the format: validation walks headers and checksums **without
//! materializing a single row**, so a snapshot reader can establish
//! integrity over megabytes of runs at memcpy speed and reject a
//! bit-flipped or truncated file before any decoding starts — the
//! "map + validate, don't decode" recovery path.

use crate::run::Run;

/// Page size runs are aligned to inside larger container files, so a
/// future mapped reader sees naturally aligned sections.
pub const PAGE: usize = 4096;

const RUN_MAGIC: u32 = 0x4E55_5243; // "CRUN" little-endian
const LAYOUT_PACKED: u8 = 1;
const LAYOUT_ROWS: u8 = 2;
/// magic + layout + tombstone + reserved + tag + nrows + payload_len
const RUN_HEADER: usize = 4 + 1 + 1 + 2 + 4 + 4 + 4;

/// Why a run segment was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FileError {
    /// The buffer ended inside a segment.
    Truncated,
    /// The bytes at the read position are not a run segment.
    BadMagic,
    /// Structurally invalid or checksum-mismatched segment.
    Corrupt(String),
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Truncated => write!(f, "run segment truncated"),
            FileError::BadMagic => write!(f, "not a run segment"),
            FileError::Corrupt(e) => write!(f, "corrupt run segment: {e}"),
        }
    }
}

impl std::error::Error for FileError {}

/// What a validated (or read) segment declared about itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunMeta {
    /// Rows in the run.
    pub rows: usize,
    /// The segment's tombstone flag: its rows are deletions. A format
    /// bit; snapshots hold live rows only and write 0.
    pub tombstone: bool,
    /// The caller-defined tag.
    pub tag: u32,
    /// Total encoded size, header and CRC included.
    pub bytes: usize,
}

/// CRC-32 (IEEE), table-driven — the same polynomial the store codec
/// uses, computed locally so the crate stays dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a run segment to `out`.
pub fn write_run(out: &mut Vec<u8>, run: &Run, tombstone: bool, tag: u32) {
    let start = out.len();
    put_u32(out, RUN_MAGIC);
    let mut payload: Vec<u8> = Vec::new();
    let layout = match run.packed_keys() {
        Some(keys) => {
            for &k in keys {
                payload.extend_from_slice(&k.to_le_bytes());
            }
            LAYOUT_PACKED
        }
        None => {
            // data_len ∥ data ∥ offsets (nrows + 1 entries).
            let mut data: Vec<u8> = Vec::new();
            let mut offsets: Vec<u8> = Vec::new();
            let mut pos = 0u32;
            offsets.extend_from_slice(&pos.to_le_bytes());
            let mut buf = [0u32; 2];
            for i in 0..run.len() {
                let row = run.row_at(i, &mut buf);
                for &v in row {
                    data.extend_from_slice(&v.to_le_bytes());
                }
                pos += row.len() as u32;
                offsets.extend_from_slice(&pos.to_le_bytes());
            }
            put_u32(&mut payload, pos);
            payload.extend_from_slice(&data);
            payload.extend_from_slice(&offsets);
            LAYOUT_ROWS
        }
    };
    out.push(layout);
    out.push(u8::from(tombstone));
    out.extend_from_slice(&[0u8; 2]);
    put_u32(out, tag);
    put_u32(out, run.len() as u32);
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(&payload);
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

fn read_header(bytes: &[u8], pos: usize) -> Result<(u8, RunMeta, usize), FileError> {
    let Some(header) = bytes.get(pos..pos + RUN_HEADER) else {
        return Err(FileError::Truncated);
    };
    let word = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().unwrap());
    if word(0) != RUN_MAGIC {
        return Err(FileError::BadMagic);
    }
    let layout = header[4];
    let tombstone = header[5] != 0;
    let tag = word(8);
    let rows = word(12) as usize;
    let payload_len = word(16) as usize;
    let total = RUN_HEADER + payload_len + 4;
    if bytes.len() - pos < total {
        return Err(FileError::Truncated);
    }
    Ok((
        layout,
        RunMeta {
            rows,
            tombstone,
            tag,
            bytes: total,
        },
        payload_len,
    ))
}

fn check_crc(bytes: &[u8], pos: usize, payload_len: usize) -> Result<(), FileError> {
    let body = pos + RUN_HEADER + payload_len;
    let stored = u32::from_le_bytes(bytes[body..body + 4].try_into().unwrap());
    let computed = crc32(&bytes[pos..body]);
    if stored != computed {
        return Err(FileError::Corrupt(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(())
}

/// Validate the segment at `*pos` — header shape and CRC only, **no row
/// materialization** — and advance `*pos` past it.
pub fn validate_run(bytes: &[u8], pos: &mut usize) -> Result<RunMeta, FileError> {
    let (layout, meta, payload_len) = read_header(bytes, *pos)?;
    if layout != LAYOUT_PACKED && layout != LAYOUT_ROWS {
        return Err(FileError::Corrupt(format!("unknown layout {layout}")));
    }
    check_crc(bytes, *pos, payload_len)?;
    *pos += meta.bytes;
    Ok(meta)
}

/// Read (and CRC-check) the segment at `*pos`, advancing `*pos`.
pub fn read_run(bytes: &[u8], pos: &mut usize) -> Result<(Run, RunMeta), FileError> {
    let (layout, meta, payload_len) = read_header(bytes, *pos)?;
    check_crc(bytes, *pos, payload_len)?;
    let payload = &bytes[*pos + RUN_HEADER..*pos + RUN_HEADER + payload_len];
    let word = |b: &[u8], o: usize| -> Result<u32, FileError> {
        b.get(o..o + 4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
            .ok_or(FileError::Truncated)
    };
    let run = match layout {
        LAYOUT_PACKED => {
            if payload_len != meta.rows * 8 {
                return Err(FileError::Corrupt("packed payload length".into()));
            }
            let mut keys = Vec::with_capacity(meta.rows);
            for i in 0..meta.rows {
                keys.push(u64::from_le_bytes(
                    payload[i * 8..i * 8 + 8].try_into().unwrap(),
                ));
            }
            if keys.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FileError::Corrupt("keys not strictly sorted".into()));
            }
            Run::from_sorted_keys(keys)
        }
        LAYOUT_ROWS => {
            let data_len = word(payload, 0)? as usize;
            let need = 4 + data_len * 4 + (meta.rows + 1) * 4;
            if payload_len != need {
                return Err(FileError::Corrupt("rows payload length".into()));
            }
            let mut rows: Vec<Vec<u32>> = Vec::with_capacity(meta.rows);
            let data_base = 4usize;
            let off_base = 4 + data_len * 4;
            let mut prev = word(payload, off_base)? as usize;
            if prev != 0 {
                return Err(FileError::Corrupt("offsets must start at 0".into()));
            }
            for i in 0..meta.rows {
                let end = word(payload, off_base + (i + 1) * 4)? as usize;
                if end < prev || end > data_len {
                    return Err(FileError::Corrupt("offsets not monotone".into()));
                }
                let mut row = Vec::with_capacity(end - prev);
                for j in prev..end {
                    row.push(word(payload, data_base + j * 4)?);
                }
                rows.push(row);
                prev = end;
            }
            if rows.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FileError::Corrupt("rows not strictly sorted".into()));
            }
            Run::from_rows(rows.iter().map(|r| r.as_slice()))
        }
        other => return Err(FileError::Corrupt(format!("unknown layout {other}"))),
    };
    if run.len() != meta.rows {
        return Err(FileError::Corrupt("row count mismatch".into()));
    }
    *pos += meta.bytes;
    Ok((run, meta))
}

/// Pad `out` with zero bytes to the next [`PAGE`] boundary.
pub fn pad_to_page(out: &mut Vec<u8>) {
    let rem = out.len() % PAGE;
    if rem != 0 {
        out.resize(out.len() + (PAGE - rem), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_runs() -> Vec<(Run, bool, u32)> {
        vec![
            (
                Run::from_rows([[1u32, 2].as_slice(), &[3, 4], &[3, 9]]),
                false,
                2,
            ),
            (Run::from_rows([[7u32].as_slice(), &[9]]), true, 0),
            (
                Run::from_rows([[1u32, 2, 3].as_slice(), &[4, 5, 6], &[4, 5]]),
                false,
                4,
            ),
            (Run::default(), false, 1),
        ]
    }

    #[test]
    fn segments_round_trip() {
        let runs = sample_runs();
        let mut out = Vec::new();
        for (run, tomb, tag) in &runs {
            write_run(&mut out, run, *tomb, *tag);
        }
        let mut pos = 0usize;
        for (run, tomb, tag) in &runs {
            let (back, meta) = read_run(&out, &mut pos).unwrap();
            assert_eq!(&back, run);
            assert_eq!(meta.tombstone, *tomb);
            assert_eq!(meta.tag, *tag);
            assert_eq!(meta.rows, run.len());
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn validate_walks_without_decoding_and_agrees_with_read() {
        let runs = sample_runs();
        let mut out = Vec::new();
        for (run, tomb, tag) in &runs {
            write_run(&mut out, run, *tomb, *tag);
        }
        let mut pos = 0usize;
        for (run, _, _) in &runs {
            let meta = validate_run(&out, &mut pos).unwrap();
            assert_eq!(meta.rows, run.len());
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn bit_flips_and_truncation_are_rejected() {
        let mut out = Vec::new();
        write_run(
            &mut out,
            &Run::from_rows([[1u32, 2].as_slice(), &[3, 4]]),
            false,
            0,
        );
        // Flip one bit anywhere except... anywhere at all: header flips
        // break magic/shape, payload flips break the CRC, CRC flips
        // break the comparison.
        for byte in 0..out.len() {
            let mut bad = out.clone();
            bad[byte] ^= 0x10;
            let mut pos = 0usize;
            assert!(
                validate_run(&bad, &mut pos).is_err(),
                "flip at {byte} undetected"
            );
        }
        for cut in 0..out.len() {
            let mut pos = 0usize;
            assert!(validate_run(&out[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn page_padding_aligns() {
        let mut out = vec![0u8; 100];
        pad_to_page(&mut out);
        assert_eq!(out.len(), PAGE);
        pad_to_page(&mut out);
        assert_eq!(out.len(), PAGE);
    }
}
