//! The stable, versioned binary codec of the durable store.
//!
//! Everything the store writes — write-ahead-log records and snapshots —
//! is built from two layers:
//!
//! 1. **File header** ([`write_header`] / [`check_header`]): an 8-byte
//!    magic, a little-endian `u16` format version and a `u16` file kind
//!    ([`FileKind::Wal`] / [`FileKind::Snapshot`]). Readers reject any
//!    version other than [`VERSION`] — a version-bumped file is from a
//!    different build and must not be half-understood — and any kind
//!    mismatch (a snapshot accidentally opened as a log).
//! 2. **Framed records** ([`frame_record`] / [`next_record`]): each
//!    record is `u32 length ∥ u32 CRC-32 ∥ payload`. The CRC covers the
//!    payload only. A reader that runs out of bytes mid-record or sees a
//!    CRC mismatch reports [`CodecError::TornTail`] with the offset of
//!    the last *good* byte — the write-ahead log uses this to truncate a
//!    torn tail instead of failing recovery.
//!
//! Payloads encode [`Value`]s with a one-byte tag per variant, and
//! length-prefix every string, tuple, set and sequence with a `u32`.
//! All integers are little-endian. The encoding is canonical (sets
//! serialize in their `BTreeSet` order), so encode ∘ decode is the
//! identity *and* decode ∘ encode is too — the round-trip proptests pin
//! both directions.

use algrec_value::{Database, DatabaseDelta, Relation, Value};
use std::fmt;

/// File magic: identifies any file written by this store.
pub const MAGIC: [u8; 8] = *b"ALGRECST";

/// Current format version. Bump on any incompatible layout change;
/// readers reject every other version outright.
///
/// History: 2 added the per-view maintenance-strategy pin to datalog
/// registrations (WAL records and snapshot catalog entries).
pub const VERSION: u16 = 2;

/// Size of the file header in bytes (magic + version + kind).
pub const HEADER_LEN: usize = 12;

/// Size of a record frame's prefix in bytes (length + CRC).
pub const FRAME_LEN: usize = 8;

/// What a store file contains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// An append-only write-ahead log.
    Wal = 1,
    /// A point-in-time snapshot (row-encoded values).
    Snapshot = 2,
    /// A point-in-time snapshot whose relations are stored as sorted
    /// columnar run segments (see [`crate::colsnap`]).
    ColumnSnapshot = 3,
}

impl FileKind {
    fn name(self) -> &'static str {
        match self {
            FileKind::Wal => "write-ahead log",
            FileKind::Snapshot => "snapshot",
            FileKind::ColumnSnapshot => "columnar snapshot",
        }
    }
}

/// Why a decode failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The file is shorter than a header, or the magic is wrong: not a
    /// store file at all (or torn during creation).
    BadHeader,
    /// The header carries a format version this build does not speak.
    Version(u16),
    /// The header's file kind is not the one expected.
    WrongKind {
        /// Kind the caller expected.
        expected: FileKind,
        /// Kind tag found in the header.
        found: u16,
    },
    /// A record frame is incomplete or its CRC does not match: the tail
    /// beyond `valid_len` bytes is torn and must be discarded.
    TornTail {
        /// Length of the valid prefix (header plus intact records).
        valid_len: usize,
    },
    /// A payload is structurally malformed (bad tag, bad UTF-8, short
    /// read *inside* an intact frame). Unlike a torn tail this means the
    /// writer and reader disagree — surfaced, never silently skipped.
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadHeader => f.write_str("not a store file (bad or truncated header)"),
            CodecError::Version(v) => write!(
                f,
                "unsupported store format version {v} (this build speaks {VERSION})"
            ),
            CodecError::WrongKind { expected, found } => write!(
                f,
                "expected a {} file, found kind tag {found}",
                expected.name()
            ),
            CodecError::TornTail { valid_len } => {
                write!(f, "torn record after {valid_len} valid byte(s)")
            }
            CodecError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, no deps.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize]
    })
}

// ---------------------------------------------------------------------
// Primitive writers / readers.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    debug_assert!(n <= u32::MAX as usize);
    put_u32(out, n as u32);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a decoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Malformed(format!(
                "need {n} byte(s), {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        // A length can never exceed the bytes actually present; checking
        // here turns huge corrupt lengths into an error instead of an
        // attempted multi-gigabyte allocation.
        if n > self.remaining() {
            return Err(CodecError::Malformed(format!(
                "length {n} exceeds remaining {} byte(s)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Malformed("string is not valid UTF-8".into()))
    }

    /// The decode is complete only if nothing is left over.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed(format!(
                "{} trailing byte(s) after payload",
                self.remaining()
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Values.
// ---------------------------------------------------------------------

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_TUPLE: u8 = 3;
const TAG_SET: u8 = 4;

/// Append the encoding of one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Tuple(items) => {
            out.push(TAG_TUPLE);
            put_len(out, items.len());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Set(items) => {
            out.push(TAG_SET);
            put_len(out, items.len());
            for item in items {
                encode_value(item, out);
            }
        }
    }
}

/// How deeply an encoded value may nest. The decoder recurses once per
/// level, so without a bound a short payload of nested tuple tags
/// overflows the stack of the thread that decodes it. The bound sits
/// above the datalog parser's 256 levels plus the tuple a fact's
/// arguments add.
const MAX_DEPTH: usize = 512;

/// Decode one value from the reader; a value nested deeper than 512
/// levels (`MAX_DEPTH`) is [`CodecError::Malformed`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    decode_at(r, 1)
}

fn decode_at(r: &mut Reader<'_>, depth: usize) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::Malformed(format!(
            "value nested deeper than {MAX_DEPTH}"
        )));
    }
    match r.u8()? {
        TAG_BOOL => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(CodecError::Malformed(format!("bad bool byte {other}"))),
        },
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_STR => Ok(Value::str(r.str()?)),
        TAG_TUPLE => {
            let n = r.len()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_at(r, depth + 1)?);
            }
            Ok(Value::Tuple(items))
        }
        TAG_SET => {
            let n = r.len()?;
            let mut items = std::collections::BTreeSet::new();
            for _ in 0..n {
                items.insert(decode_at(r, depth + 1)?);
            }
            Ok(Value::Set(items))
        }
        other => Err(CodecError::Malformed(format!("bad value tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// Deltas, databases, catalogs.
// ---------------------------------------------------------------------

/// Append the encoding of a database delta. Canonical: relations whose
/// delta cancelled out to nothing (an insert annulled by a remove) are
/// skipped, so equal-effect deltas encode to equal bytes.
pub fn encode_delta(delta: &DatabaseDelta, out: &mut Vec<u8>) {
    let rels: Vec<_> = delta.iter().filter(|(_, rel)| !rel.is_empty()).collect();
    put_len(out, rels.len());
    for (name, rel) in rels {
        put_str(out, name);
        put_len(out, rel.added().len());
        for v in rel.added() {
            encode_value(v, out);
        }
        put_len(out, rel.removed().len());
        for v in rel.removed() {
            encode_value(v, out);
        }
    }
}

/// Decode a database delta.
pub fn decode_delta(r: &mut Reader<'_>) -> Result<DatabaseDelta, CodecError> {
    let mut delta = DatabaseDelta::new();
    let rels = r.len()?;
    for _ in 0..rels {
        let name = r.str()?;
        let added = r.len()?;
        for _ in 0..added {
            delta.insert(name.clone(), decode_value(r)?);
        }
        let removed = r.len()?;
        for _ in 0..removed {
            delta.remove(name.clone(), decode_value(r)?);
        }
    }
    Ok(delta)
}

/// Append the encoding of a full database. Empty relations are encoded
/// too: a relation emptied by retractions stays registered, and recovery
/// must preserve that.
pub fn encode_database(db: &Database, out: &mut Vec<u8>) {
    put_len(out, db.len());
    for (name, rel) in db.iter() {
        put_str(out, name);
        put_len(out, rel.len());
        for v in rel.iter() {
            encode_value(v, out);
        }
    }
}

/// Decode a full database.
pub fn decode_database(r: &mut Reader<'_>) -> Result<Database, CodecError> {
    let mut db = Database::new();
    let rels = r.len()?;
    for _ in 0..rels {
        let name = r.str()?;
        let members = r.len()?;
        let mut rel = Relation::new();
        for _ in 0..members {
            rel.insert(decode_value(r)?);
        }
        db.set(name, rel);
    }
    Ok(db)
}

// ---------------------------------------------------------------------
// File headers and record frames.
// ---------------------------------------------------------------------

/// Append a file header for the given kind.
pub fn write_header(out: &mut Vec<u8>, kind: FileKind) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(kind as u16).to_le_bytes());
}

/// Validate a file header; returns the offset of the first record.
pub fn check_header(buf: &[u8], kind: FileKind) -> Result<usize, CodecError> {
    if buf.len() < HEADER_LEN || buf[..8] != MAGIC {
        return Err(CodecError::BadHeader);
    }
    let version = u16::from_le_bytes([buf[8], buf[9]]);
    if version != VERSION {
        return Err(CodecError::Version(version));
    }
    let found = u16::from_le_bytes([buf[10], buf[11]]);
    if found != kind as u16 {
        return Err(CodecError::WrongKind {
            expected: kind,
            found,
        });
    }
    Ok(HEADER_LEN)
}

/// Frame a payload as one record: `u32 length ∥ u32 crc ∥ payload`.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_LEN + payload.len());
    put_len(&mut out, payload.len());
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Read the record starting at `*pos`, advancing `*pos` past it.
///
/// * `Ok(Some(payload))` — an intact record.
/// * `Ok(None)` — clean end of input (no bytes left).
/// * `Err(TornTail { valid_len })` — the bytes from `valid_len` on are an
///   incomplete or corrupt record; a log reader truncates there.
pub fn next_record<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Option<&'a [u8]>, CodecError> {
    if *pos == buf.len() {
        return Ok(None);
    }
    let start = *pos;
    let torn = || CodecError::TornTail { valid_len: start };
    if buf.len() - start < FRAME_LEN {
        return Err(torn());
    }
    let len =
        u32::from_le_bytes([buf[start], buf[start + 1], buf[start + 2], buf[start + 3]]) as usize;
    let crc = u32::from_le_bytes([
        buf[start + 4],
        buf[start + 5],
        buf[start + 6],
        buf[start + 7],
    ]);
    let body_start = start + FRAME_LEN;
    if buf.len() - body_start < len {
        return Err(torn());
    }
    let payload = &buf[body_start..body_start + len];
    if crc32(payload) != crc {
        return Err(torn());
    }
    *pos = body_start + len;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn value_encoding_round_trips_nested_structures() {
        let v = Value::set([
            Value::pair(Value::int(-7), Value::str("héllo\n")),
            Value::tuple([]),
            Value::Bool(true),
            Value::set([Value::int(1), Value::empty_set()]),
        ]);
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_value(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    /// `v` wrapped in `k` one-element tuples.
    fn nest(v: Value, k: usize) -> Value {
        (0..k).fold(v, |v, _| Value::tuple([v]))
    }

    #[test]
    fn values_at_the_parser_limit_round_trip_through_log_and_snapshot() {
        // The deepest tuple expression the datalog parser admits, as the
        // first argument of a binary fact.
        let src = |k: usize| format!("p({}1{}, 2).", "[".repeat(k), "]".repeat(k));
        let k = (0..MAX_DEPTH)
            .rev()
            .find(|&k| algrec_datalog::parser::parse_program(&src(k)).is_ok())
            .unwrap();
        assert!(k >= 255, "the parser nests at least 256 expressions");
        let fact = ("p".to_string(), vec![nest(Value::int(1), k), Value::int(2)]);
        let (name, member) = algrec_datalog::facts::fact_value(&fact);

        let mut delta = DatabaseDelta::new();
        delta.insert(name.clone(), member.clone());
        let record = crate::wal::WalRecord::Delta(delta);
        assert_eq!(
            crate::wal::WalRecord::decode(&record.encode()).unwrap(),
            record
        );

        let mut db = Database::new();
        db.insert_value(name, member);
        let state = crate::snapshot::SnapshotState {
            db,
            views: Vec::new(),
        };
        let image = crate::colsnap::encode_column_snapshot(&state);
        assert_eq!(
            crate::colsnap::decode_column_snapshot(&image).unwrap(),
            state
        );

        // The bound itself: MAX_DEPTH levels decode, one more does not.
        for (levels, ok) in [(MAX_DEPTH, true), (MAX_DEPTH + 1, false)] {
            let mut bytes = Vec::new();
            encode_value(&nest(Value::int(1), levels - 1), &mut bytes);
            assert_eq!(decode_value(&mut Reader::new(&bytes)).is_ok(), ok);
        }
    }

    #[test]
    fn value_nested_past_the_bound_is_malformed_not_an_overflow() {
        // A delta record whose one member nests a million 1-tuples: the
        // record tag of an encoded delta record, then the delta by hand.
        let mut payload = crate::wal::WalRecord::Delta(DatabaseDelta::new()).encode();
        payload.truncate(1);
        put_len(&mut payload, 1);
        put_str(&mut payload, "e");
        put_len(&mut payload, 1);
        for _ in 0..1_000_000 {
            payload.push(TAG_TUPLE);
            put_len(&mut payload, 1);
        }
        encode_value(&Value::int(1), &mut payload);
        put_len(&mut payload, 0);
        assert!(matches!(
            crate::wal::WalRecord::decode(&payload),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn header_rejects_other_versions_and_kinds() {
        let mut buf = Vec::new();
        write_header(&mut buf, FileKind::Wal);
        assert_eq!(check_header(&buf, FileKind::Wal).unwrap(), HEADER_LEN);
        assert_eq!(
            check_header(&buf, FileKind::Snapshot),
            Err(CodecError::WrongKind {
                expected: FileKind::Snapshot,
                found: FileKind::Wal as u16
            })
        );
        let mut bumped = buf.clone();
        bumped[8] = VERSION as u8 + 1;
        assert_eq!(
            check_header(&bumped, FileKind::Wal),
            Err(CodecError::Version(VERSION + 1))
        );
        assert_eq!(
            check_header(&buf[..HEADER_LEN - 1], FileKind::Wal),
            Err(CodecError::BadHeader)
        );
        let mut magic = buf;
        magic[0] ^= 0xff;
        assert_eq!(
            check_header(&magic, FileKind::Wal),
            Err(CodecError::BadHeader)
        );
    }

    #[test]
    fn record_framing_detects_torn_and_corrupt_tails() {
        let a = frame_record(b"first");
        let b = frame_record(b"second record");
        let mut log: Vec<u8> = a.iter().chain(&b).copied().collect();

        // Intact: both records come back, then clean end.
        let mut pos = 0;
        assert_eq!(next_record(&log, &mut pos).unwrap(), Some(&b"first"[..]));
        assert_eq!(
            next_record(&log, &mut pos).unwrap(),
            Some(&b"second record"[..])
        );
        assert_eq!(next_record(&log, &mut pos).unwrap(), None);

        // Truncated mid-second-record: the first survives, tail reported.
        let cut = a.len() + 3;
        let mut pos = 0;
        assert!(next_record(&log[..cut], &mut pos).unwrap().is_some());
        assert_eq!(
            next_record(&log[..cut], &mut pos),
            Err(CodecError::TornTail { valid_len: a.len() })
        );

        // Bit flip inside the second payload: CRC catches it.
        let flip = a.len() + FRAME_LEN + 2;
        log[flip] ^= 0x10;
        let mut pos = 0;
        assert!(next_record(&log, &mut pos).unwrap().is_some());
        assert_eq!(
            next_record(&log, &mut pos),
            Err(CodecError::TornTail { valid_len: a.len() })
        );
    }

    #[test]
    fn corrupt_length_prefix_cannot_force_huge_allocation() {
        let mut bytes = Vec::new();
        // A string claiming u32::MAX bytes with 2 actual bytes behind it.
        bytes.push(TAG_STR);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"ab");
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_value(&mut r),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn delta_round_trip_preserves_adds_and_removes() {
        let mut d = DatabaseDelta::new();
        d.insert("e", Value::pair(Value::int(1), Value::int(2)));
        d.insert("p", Value::str("x"));
        d.remove("e", Value::pair(Value::int(9), Value::int(9)));
        let mut bytes = Vec::new();
        encode_delta(&d, &mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_delta(&mut r).unwrap(), d);
        r.finish().unwrap();
    }

    #[test]
    fn database_round_trip_keeps_empty_relations() {
        let mut db = Database::new();
        db.insert_value("e", Value::int(1));
        db.insert_value("gone", Value::int(2));
        db.remove_value("gone", &Value::int(2)); // emptied, still registered
        let mut bytes = Vec::new();
        encode_database(&db, &mut bytes);
        let mut r = Reader::new(&bytes);
        let back = decode_database(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, db);
        assert!(back.contains("gone"));
        assert_eq!(back.get("gone").unwrap().len(), 0);
    }
}
