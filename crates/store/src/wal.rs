//! The append-only write-ahead log.
//!
//! Every state change a durable [`algrec_serve::Session`] commits —
//! applied deltas, view registrations, view drops — is appended here as
//! one [`WalRecord`] *after* the in-memory commit succeeds, framed and
//! checksummed by [`crate::codec`]. On restart, [`read_wal`] replays the
//! intact prefix and reports where a torn tail (a record cut short or
//! corrupted by a crash mid-append) begins, so recovery can truncate the
//! file there and carry on.
//!
//! Durability strength is the caller's choice via [`SyncPolicy`]: fsync
//! after every record, after every N records, or never (leave it to the
//! OS). The file handle is abstracted behind [`LogFile`] so the
//! fault-injection tests can cut writes off mid-record exactly the way a
//! crash does.

use crate::codec::{
    check_header, decode_delta, encode_delta, frame_record, next_record, write_header, CodecError,
    FileKind, Reader,
};
use algrec_serve::{parse_semantics, semantics_name, DurableEvent, StrategyPin};
use algrec_value::{DatabaseDelta, Trace, TraceEvent};
use std::io::Write;

/// When the log fsyncs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// fsync after every appended record: no committed write is ever
    /// lost, at one disk flush per operation.
    Always,
    /// fsync after every N records: bounded loss window of at most N-1
    /// operations.
    EveryN(usize),
    /// Never fsync explicitly; the OS flushes when it pleases. Fastest,
    /// loses whatever the page cache held on a power cut (not on a mere
    /// process kill).
    Never,
}

impl SyncPolicy {
    /// Parse `"always"`, `"never"`, or `"every-N"` (N ≥ 1).
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            _ => match s.strip_prefix("every-").and_then(|n| n.parse().ok()) {
                Some(0) | None => Err(format!(
                    "bad sync policy {s:?} (expected always, never, or every-N with N >= 1)"
                )),
                Some(n) => Ok(SyncPolicy::EveryN(n)),
            },
        }
    }
}

/// The durable file behind a [`Wal`]. Production uses [`std::fs::File`];
/// the fault-injection tests substitute a writer that dies partway
/// through an append to simulate a crash.
pub trait LogFile: Send {
    /// Append bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Force everything appended so far to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;
}

impl LogFile for std::fs::File {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.write_all(bytes)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_data()
    }
}

/// One logged state change, in commit order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// An effective [`DatabaseDelta`] that was applied to the EDB (and
    /// propagated to every view).
    Delta(DatabaseDelta),
    /// A datalog view was registered under the named semantics.
    RegisterDatalog {
        /// View name.
        name: String,
        /// Semantics, in [`semantics_name`] form (e.g. `"stratified"`,
        /// `"valid-extended:4"`).
        semantics: String,
        /// Program source, verbatim.
        program: String,
        /// Maintenance-strategy pin, in [`StrategyPin::as_str`] form
        /// (`"auto"`, `"incremental"`, `"recompute"`), so recovery
        /// re-registers the view with the same maintainer.
        strategy: String,
    },
    /// A core-algebra view was registered.
    RegisterAlgebra {
        /// View name.
        name: String,
        /// Program source, verbatim.
        program: String,
    },
    /// A view was dropped.
    Unregister {
        /// View name.
        name: String,
    },
}

const REC_DELTA: u8 = 0;
const REC_REG_DATALOG: u8 = 1;
const REC_REG_ALGEBRA: u8 = 2;
const REC_UNREGISTER: u8 = 3;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl From<&DurableEvent<'_>> for WalRecord {
    /// The record that logs one committed session change.
    fn from(event: &DurableEvent<'_>) -> WalRecord {
        match event {
            DurableEvent::Delta(delta) => WalRecord::Delta((*delta).clone()),
            DurableEvent::RegisterDatalog {
                name,
                program,
                semantics,
                strategy,
            } => WalRecord::RegisterDatalog {
                name: (*name).to_string(),
                semantics: semantics_name(*semantics),
                program: (*program).to_string(),
                strategy: strategy.as_str().to_string(),
            },
            DurableEvent::RegisterAlgebra { name, program } => WalRecord::RegisterAlgebra {
                name: (*name).to_string(),
                program: (*program).to_string(),
            },
            DurableEvent::Unregister { name } => WalRecord::Unregister {
                name: (*name).to_string(),
            },
        }
    }
}

impl WalRecord {
    /// Encode this record's payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Delta(delta) => {
                out.push(REC_DELTA);
                encode_delta(delta, &mut out);
            }
            WalRecord::RegisterDatalog {
                name,
                semantics,
                program,
                strategy,
            } => {
                out.push(REC_REG_DATALOG);
                put_str(&mut out, name);
                put_str(&mut out, semantics);
                put_str(&mut out, program);
                put_str(&mut out, strategy);
            }
            WalRecord::RegisterAlgebra { name, program } => {
                out.push(REC_REG_ALGEBRA);
                put_str(&mut out, name);
                put_str(&mut out, program);
            }
            WalRecord::Unregister { name } => {
                out.push(REC_UNREGISTER);
                put_str(&mut out, name);
            }
        }
        out
    }

    /// Decode a record from one framed payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            REC_DELTA => WalRecord::Delta(decode_delta(&mut r)?),
            REC_REG_DATALOG => {
                let name = r.str()?;
                let semantics = r.str()?;
                // Validate eagerly: a record naming a semantics this
                // build cannot parse must fail decode, not replay.
                parse_semantics(&semantics)
                    .map_err(|e| CodecError::Malformed(format!("bad semantics: {e}")))?;
                let program = r.str()?;
                let strategy = r.str()?;
                StrategyPin::parse(&strategy)
                    .ok_or_else(|| CodecError::Malformed(format!("bad strategy `{strategy}`")))?;
                WalRecord::RegisterDatalog {
                    name,
                    semantics,
                    program,
                    strategy,
                }
            }
            REC_REG_ALGEBRA => WalRecord::RegisterAlgebra {
                name: r.str()?,
                program: r.str()?,
            },
            REC_UNREGISTER => WalRecord::Unregister { name: r.str()? },
            other => return Err(CodecError::Malformed(format!("bad wal record tag {other}"))),
        };
        r.finish()?;
        Ok(record)
    }
}

/// An open write-ahead log.
pub struct Wal {
    file: Box<dyn LogFile>,
    policy: SyncPolicy,
    unsynced: usize,
    trace: Trace,
}

impl Wal {
    /// Wrap an already-positioned log file (header written or verified
    /// by the caller; cursor at end).
    pub fn new(file: Box<dyn LogFile>, policy: SyncPolicy, trace: Trace) -> Wal {
        Wal {
            file,
            policy,
            unsynced: 0,
            trace,
        }
    }

    /// Create a fresh log: writes the WAL file header and syncs it.
    pub fn create(
        mut file: Box<dyn LogFile>,
        policy: SyncPolicy,
        trace: Trace,
    ) -> std::io::Result<Wal> {
        let mut header = Vec::new();
        write_header(&mut header, FileKind::Wal);
        file.append(&header)?;
        file.sync()?;
        Ok(Wal::new(file, policy, trace))
    }

    /// Append one record, fsyncing per the sync policy. Returns the
    /// number of bytes written (frame included).
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<usize> {
        let framed = frame_record(&record.encode());
        self.file.append(&framed)?;
        self.trace.emit(TraceEvent::WalAppend(framed.len()));
        self.unsynced += 1;
        let due = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.unsynced >= n,
            SyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(framed.len())
    }

    /// fsync now, regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync()?;
        self.unsynced = 0;
        self.trace.emit(TraceEvent::WalSync);
        Ok(())
    }
}

/// The outcome of reading a log file.
#[derive(Debug)]
pub struct WalContents {
    /// The intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix (header plus intact records).
    /// Shorter than the input iff a torn tail was found.
    pub valid_len: usize,
}

/// One intact record together with its frame's byte range in the log —
/// `end` is the offset to resume reading from (the next frame's start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Byte offset of the frame's first byte.
    pub start: usize,
    /// Byte offset one past the frame's last byte.
    pub end: usize,
    /// The decoded record.
    pub record: WalRecord,
}

/// The intact frames from some byte offset to the end of the valid
/// prefix. Produced by [`read_from`]; consumed by WAL shipping (a
/// replica pulls `[offset, valid_len)`) and by recovery (`offset` =
/// header end).
#[derive(Debug)]
pub struct WalSegment {
    /// The intact frames, in append order, with their byte ranges.
    pub frames: Vec<WalFrame>,
    /// Length in bytes of the log's valid prefix. Shorter than the input
    /// iff a torn tail was found; a shipped segment must stop here.
    pub valid_len: usize,
}

/// Read a WAL file image from `offset` — the offset-addressable segment
/// reader shared by recovery (which starts at the header's end) and WAL
/// shipping (which resumes wherever the subscriber left off). `offset`
/// must be a frame boundary at or past the header; the header itself is
/// validated regardless of where reading starts.
///
/// A torn tail — trailing bytes that do not form a complete,
/// checksum-valid record — is *expected* after a crash and is reported
/// via `valid_len`, not an error. A wrong magic, a bumped format
/// version, or a structurally malformed record inside an intact frame
/// *is* an error: those mean the file is not ours to interpret. An
/// `offset` past the valid prefix (e.g. aimed into a torn tail) returns
/// an empty segment whose `valid_len` tells the caller where the log
/// really ends.
pub fn read_from(bytes: &[u8], offset: usize) -> Result<WalSegment, CodecError> {
    let first = check_header(bytes, FileKind::Wal)?;
    if offset < first {
        return Err(CodecError::Malformed(format!(
            "offset {offset} points inside the {first}-byte header"
        )));
    }
    if offset > bytes.len() {
        return Err(CodecError::Malformed(format!(
            "offset {offset} past the end of the {}-byte log",
            bytes.len()
        )));
    }
    let mut pos = offset;
    let mut frames = Vec::new();
    loop {
        let start = pos;
        match next_record(bytes, &mut pos) {
            Ok(Some(payload)) => frames.push(WalFrame {
                start,
                end: pos,
                record: WalRecord::decode(payload)?,
            }),
            Ok(None) => {
                return Ok(WalSegment {
                    frames,
                    valid_len: pos,
                })
            }
            Err(CodecError::TornTail { valid_len }) => return Ok(WalSegment { frames, valid_len }),
            Err(e) => return Err(e),
        }
    }
}

/// Read a whole WAL file image: [`read_from`] the end of the header.
pub fn read_wal(bytes: &[u8]) -> Result<WalContents, CodecError> {
    let segment = read_from(bytes, crate::codec::HEADER_LEN)?;
    Ok(WalContents {
        records: segment.frames.into_iter().map(|f| f.record).collect(),
        valid_len: segment.valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_serve::semantics_name;
    use algrec_value::Value;

    fn sample_records() -> Vec<WalRecord> {
        let mut delta = DatabaseDelta::new();
        delta.insert("e", Value::pair(Value::int(1), Value::int(2)));
        delta.remove("e", Value::pair(Value::int(3), Value::int(4)));
        vec![
            WalRecord::Delta(delta),
            WalRecord::RegisterDatalog {
                name: "paths".into(),
                semantics: "valid-extended:4".into(),
                program: "tc(X, Y) :- e(X, Y).".into(),
                strategy: "incremental".into(),
            },
            WalRecord::RegisterAlgebra {
                name: "alg".into(),
                program: "query e;".into(),
            },
            WalRecord::Unregister { name: "alg".into() },
        ]
    }

    /// An in-memory log file for tests, readable through a shared handle.
    struct MemFile(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl MemFile {
        fn shared() -> (MemFile, std::sync::Arc<std::sync::Mutex<Vec<u8>>>) {
            let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            (MemFile(std::sync::Arc::clone(&buf)), buf)
        }
        fn fresh() -> MemFile {
            MemFile::shared().0
        }
    }
    impl LogFile for MemFile {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn records_round_trip_through_a_log() {
        let (file, buf) = MemFile::shared();
        let mut wal = Wal::create(Box::new(file), SyncPolicy::Always, Trace::default()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let image = buf.lock().unwrap().clone();
        let back = read_wal(&image).unwrap();
        assert_eq!(back.records, sample_records());
        assert_eq!(back.valid_len, image.len());
    }

    #[test]
    fn log_survives_torn_tail_and_reports_valid_prefix() {
        // Build the image by hand so we keep the bytes.
        let mut image = Vec::new();
        write_header(&mut image, FileKind::Wal);
        let recs = sample_records();
        let mut offsets = vec![image.len()];
        for rec in &recs {
            image.extend_from_slice(&frame_record(&rec.encode()));
            offsets.push(image.len());
        }

        let whole = read_wal(&image).unwrap();
        assert_eq!(whole.records, recs);
        assert_eq!(whole.valid_len, image.len());

        // Cut inside the last record: first three survive.
        let cut = offsets[3] + 5;
        let torn = read_wal(&image[..cut]).unwrap();
        assert_eq!(torn.records, recs[..3]);
        assert_eq!(torn.valid_len, offsets[3]);

        // Flip a payload bit in record 2: records 0-1 survive.
        let mut flipped = image.clone();
        flipped[offsets[2] + 10] ^= 0x04;
        let part = read_wal(&flipped).unwrap();
        assert_eq!(part.records, recs[..2]);
        assert_eq!(part.valid_len, offsets[2]);

        // Header-only file: an empty log, cleanly.
        let empty = read_wal(&image[..offsets[0]]).unwrap();
        assert!(empty.records.is_empty());

        // Bumped version: hard error, never a silent empty log.
        let mut bumped = image.clone();
        bumped[8] = 0xEE;
        assert!(matches!(read_wal(&bumped), Err(CodecError::Version(_))));
    }

    #[test]
    fn sync_policy_parses_and_batches() {
        assert_eq!(SyncPolicy::parse("always"), Ok(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("never"), Ok(SyncPolicy::Never));
        assert_eq!(SyncPolicy::parse("every-8"), Ok(SyncPolicy::EveryN(8)));
        assert!(SyncPolicy::parse("every-0").is_err());
        assert!(SyncPolicy::parse("sometimes").is_err());

        let trace = Trace::collect();
        let mut wal = Wal::create(
            Box::new(MemFile::fresh()),
            SyncPolicy::EveryN(2),
            trace.clone(),
        )
        .unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let stats = trace.stats().unwrap();
        assert_eq!(stats.store.wal_records, 4);
        // 4 appends at every-2 → 2 syncs.
        assert_eq!(stats.store.wal_fsyncs, 2);
        assert!(stats.store.wal_bytes > 0);
    }

    #[test]
    fn offset_reader_resumes_at_boundaries_and_interacts_with_torn_tails() {
        // Same hand-built image as the torn-tail test: header + 4
        // records, with every frame boundary recorded.
        let mut image = Vec::new();
        write_header(&mut image, FileKind::Wal);
        let recs = sample_records();
        let mut offsets = vec![image.len()];
        for rec in &recs {
            image.extend_from_slice(&frame_record(&rec.encode()));
            offsets.push(image.len());
        }

        // Resuming at each boundary yields exactly the remaining suffix,
        // with byte ranges matching the recorded boundaries.
        for (i, &off) in offsets.iter().enumerate() {
            let seg = read_from(&image, off).unwrap();
            assert_eq!(seg.valid_len, image.len());
            let got: Vec<_> = seg.frames.iter().map(|f| f.record.clone()).collect();
            assert_eq!(got, recs[i..]);
            for (j, frame) in seg.frames.iter().enumerate() {
                assert_eq!(frame.start, offsets[i + j]);
                assert_eq!(frame.end, offsets[i + j + 1]);
            }
        }

        // Torn tail: cut inside the last record. A reader resuming
        // before the tear gets the intact frames and the true valid_len;
        // a reader aimed exactly at the tear gets an empty segment with
        // the same valid_len (so a subscriber knows to wait, not skip).
        let cut = offsets[3] + 5;
        let torn = &image[..cut];
        let seg = read_from(torn, offsets[1]).unwrap();
        assert_eq!(seg.frames.len(), 2);
        assert_eq!(seg.valid_len, offsets[3]);
        let at_tear = read_from(torn, offsets[3]).unwrap();
        assert!(at_tear.frames.is_empty());
        assert_eq!(at_tear.valid_len, offsets[3]);

        // An offset past the end of the image is the caller's bug.
        assert!(matches!(
            read_from(&image, image.len() + 1),
            Err(CodecError::Malformed(_))
        ));
        // So is one inside the header.
        assert!(matches!(
            read_from(&image, 3),
            Err(CodecError::Malformed(_))
        ));

        // read_wal is the offset reader started at the header's end.
        let whole = read_wal(&image).unwrap();
        assert_eq!(whole.records, recs);
        assert_eq!(whole.valid_len, image.len());
    }

    #[test]
    fn deeply_nested_sequenced_payload_is_malformed_not_an_overflow() {
        // Tag 4 once stamped a record with a global commit sequence and
        // nested the stamped record after it; it is retired, so a
        // payload of such stamps is an unknown tag, rejected at once.
        let mut payload = Vec::new();
        for _ in 0..1000 {
            payload.push(4);
            payload.extend_from_slice(&0u64.to_le_bytes());
            payload.extend_from_slice(&1u32.to_le_bytes());
        }
        payload.extend_from_slice(&WalRecord::Delta(DatabaseDelta::new()).encode());
        assert!(matches!(
            WalRecord::decode(&payload),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn decode_rejects_unknown_semantics_strategies_and_tags() {
        let rec = WalRecord::RegisterDatalog {
            name: "v".into(),
            semantics: "no-such-semantics".into(),
            program: "p(X) :- q(X).".into(),
            strategy: "auto".into(),
        };
        assert!(matches!(
            WalRecord::decode(&rec.encode()),
            Err(CodecError::Malformed(_))
        ));
        let rec = WalRecord::RegisterDatalog {
            name: "v".into(),
            semantics: "stratified".into(),
            program: "p(X) :- q(X).".into(),
            strategy: "sideways".into(),
        };
        assert!(matches!(
            WalRecord::decode(&rec.encode()),
            Err(CodecError::Malformed(_))
        ));
        assert!(matches!(
            WalRecord::decode(&[0xEE]),
            Err(CodecError::Malformed(_))
        ));
        // A known-good record must still name a parseable semantics.
        let ok = WalRecord::RegisterDatalog {
            name: "v".into(),
            semantics: semantics_name(algrec_datalog::Semantics::Stratified),
            program: "p(X) :- q(X).".into(),
            strategy: "auto".into(),
        };
        assert_eq!(WalRecord::decode(&ok.encode()).unwrap(), ok);
    }
}
