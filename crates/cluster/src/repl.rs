//! WAL shipping: replicas that tail the primary's log generations.
//!
//! Replication reuses the durable artifacts the primary writes anyway:
//! a replica is another reader of the store's `wal-{gen}` logs and
//! `snapshot-{gen}` images, except it reads them over the line protocol
//! (`repl` pulls against the primary, see [`crate::server`]) instead of
//! from disk. The pulled frames are the primary's literal log bytes, so
//! the replica inherits every integrity property of the on-disk format.
//! Because a replica serves reads between commits, it applies each
//! record to its live session ([`algrec_store::recover::apply_record`])
//! instead of folding the log and building once, as recovery does.
//!
//! A replica is positioned at `(generation, records applied in that
//! generation's log)` — a [`Position`] — and at the byte offset those
//! records end at. It moves in three ways:
//!
//! * it tails the current log by byte offset;
//! * when that log is sealed (a newer generation exists) and fully
//!   applied, it moves to the next log's header: it already holds that
//!   generation's snapshot state;
//! * when its generation is no longer retained — it lagged across a
//!   compaction, or joined after generation 0 was compacted — it pulls
//!   the newest snapshot image in chunks, replaces its session with it,
//!   and tails that generation's log.
//!
//! The layer splits in two: [`ReplicaCore`], the pure state machine the
//! consistency proptest drives directly, and [`Replica`], the TCP puller
//! that feeds it, heartbeats by polling, and resubscribes from its
//! applied offset when the primary restarts. Resubscription there is
//! always valid: the core only advances past intact frames, the
//! primary's own crash recovery truncates torn tails at a frame
//! boundary, and (under `SyncPolicy::Always`) a served frame is a synced
//! frame, so a replica's applied prefix is a prefix of any future
//! primary's log.

use crate::primary::{decode_image, Position, LOG_START};
use algrec_serve::{Json, SharedSession};
use algrec_store::codec::next_record;
use algrec_store::recover::{apply_record, materialize};
use algrec_store::WalRecord;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Lowercase hex encoding of raw frame bytes for the line protocol.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
        return Err("odd-length hex string".into());
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[1] as char))?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

/// What a replica has applied, shared between its core (which advances
/// it), its puller (connectivity, the primary's log end) and its server
/// threads (`cluster-stats`, `min_epochs` checks).
#[derive(Default)]
pub struct ReplicaState {
    position: Mutex<Position>,
    /// Byte offset applied in the current generation's log.
    pub(crate) offset: AtomicU64,
    /// That log's valid length on the primary, as of the last pull.
    pub(crate) end: AtomicU64,
    /// Times the replica replaced its session with a snapshot image.
    pub bootstraps: AtomicU64,
    /// Whether the puller currently holds a live primary connection.
    pub connected: AtomicBool,
    /// Set when replication failed permanently (the primary no longer
    /// holds the replica's prefix). Reads keep serving the last applied
    /// state.
    pub fatal: AtomicBool,
    /// Raise to make the puller thread exit.
    pub stop: AtomicBool,
}

impl ReplicaState {
    /// The applied position. It only moves once the state it names is
    /// published, so a read that passes a pin sees the pinned write.
    pub fn position(&self) -> Position {
        *self.position.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Replication lag in bytes: the primary's log end minus the applied
    /// offset, as of the last pull.
    pub fn lag_bytes(&self) -> u64 {
        self.end
            .load(Ordering::SeqCst)
            .saturating_sub(self.offset.load(Ordering::SeqCst))
    }
}

/// The replication state machine: one stream of the primary's log
/// generations, applied to a local session.
///
/// Pure — no sockets, no clocks. [`feed`](ReplicaCore::feed) applies
/// pulled frames of the current generation's log,
/// [`seal`](ReplicaCore::seal) moves from the end of a sealed log to the
/// next generation's, and [`bootstrap`](ReplicaCore::bootstrap) replaces
/// the session with a snapshot image. The consistency proptest drives
/// these entry points directly, with adversarial chunkings and retried
/// (overlapping) pulls.
pub struct ReplicaCore {
    shared: Arc<SharedSession>,
    at: Position,
    /// The frame boundary up to which the current log is applied: the
    /// safe resubscription point.
    offset: u64,
    state: Arc<ReplicaState>,
}

impl ReplicaCore {
    /// A fresh core over `shared`, at the start of generation 0.
    pub fn new(shared: Arc<SharedSession>) -> ReplicaCore {
        let state = Arc::new(ReplicaState::default());
        state.offset.store(LOG_START, Ordering::SeqCst);
        ReplicaCore {
            shared,
            at: Position::default(),
            offset: LOG_START,
            state,
        }
    }

    /// The session this core applies records to.
    pub fn shared(&self) -> &Arc<SharedSession> {
        &self.shared
    }

    /// The state shared with the replica's puller and server threads.
    pub fn state(&self) -> &Arc<ReplicaState> {
        &self.state
    }

    /// The applied position.
    pub fn position(&self) -> Position {
        self.at
    }

    /// The applied byte offset in the current generation's log.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Publish the position after the state it names is visible.
    fn publish(&self) {
        *self
            .state
            .position
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = self.at;
        self.state.offset.store(self.offset, Ordering::SeqCst);
    }

    /// Apply the frames in `bytes`, pulled from byte offset `base` of the
    /// current generation's log, each through
    /// [`algrec_store::recover::apply_record`]. Frames already applied (a
    /// retried pull) are skipped; a gap past the applied offset is
    /// rejected. Returns the number of records applied.
    pub fn feed(&mut self, bytes: &[u8], base: u64) -> Result<usize, String> {
        let gen = self.at.gen;
        if base > self.offset {
            return Err(format!(
                "wal {gen}: gap — fed offset {base}, applied up to {}",
                self.offset
            ));
        }
        let mut pos = 0usize;
        let mut applied = 0usize;
        loop {
            let start = base + pos as u64;
            let payload = match next_record(bytes, &mut pos) {
                Ok(Some(p)) => p,
                Ok(None) => return Ok(applied),
                Err(e) => return Err(format!("wal {gen}: {e}")),
            };
            let end = base + pos as u64;
            if end <= self.offset {
                continue; // overlap with an earlier pull
            }
            if start < self.offset {
                return Err(format!(
                    "wal {gen}: frame at {start} straddles the applied offset {}",
                    self.offset
                ));
            }
            let record = WalRecord::decode(payload).map_err(|e| format!("wal {gen}: {e}"))?;
            let (outcome, _) = self
                .shared
                .with_writer(|session| apply_record(session, record))
                .map_err(|_| "replica session poisoned".to_string())?;
            outcome
                .map_err(|e| format!("applying record {} of wal {gen}: {e}", self.at.records))?;
            self.at.records += 1;
            self.offset = end;
            self.publish();
            applied += 1;
        }
    }

    /// Move from the end of the current log, sealed on the primary, to
    /// the start of the next generation's. The session already holds
    /// that generation's snapshot state, so nothing is loaded.
    pub fn seal(&mut self) {
        self.at = Position {
            gen: self.at.gen + 1,
            records: 0,
        };
        self.offset = LOG_START;
        self.publish();
    }

    /// Replace the session with snapshot image `gen`, validated and then
    /// built by [`algrec_store::recover::materialize`] under the
    /// session's budget, and position at the start of that generation's
    /// log.
    pub fn bootstrap(&mut self, gen: u64, image: &[u8]) -> Result<(), String> {
        let state = decode_image(image)?;
        let (built, _) = self
            .shared
            .with_writer(|session| {
                *session = materialize(state, session.budget()).map_err(|e| e.to_string())?;
                Ok::<(), String>(())
            })
            .map_err(|_| "replica session poisoned".to_string())?;
        built?;
        self.at = Position { gen, records: 0 };
        self.offset = LOG_START;
        self.state.bootstraps.fetch_add(1, Ordering::SeqCst);
        self.publish();
        Ok(())
    }
}

/// A line-protocol client channel to the primary's `repl` handler.
struct PullChannel {
    reader: BufReader<TcpStream>,
    next_id: i64,
}

impl PullChannel {
    fn connect(addr: &str) -> Result<PullChannel, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("{addr}: {e}"))?;
        Ok(PullChannel {
            reader: BufReader::new(stream),
            next_id: 1,
        })
    }

    /// One request/reply roundtrip. A non-`ok` reply surfaces the error
    /// code as `Err("code: message")` so callers can classify it.
    fn roundtrip(&mut self, mut fields: Vec<(&'static str, Json)>) -> Result<Json, String> {
        let id = self.next_id;
        self.next_id += 1;
        fields.insert(0, ("id", Json::Int(id)));
        let line = Json::obj(fields).to_string();
        let stream = self.reader.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|_| stream.write_all(b"\n"))
            .map_err(|e| format!("io: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("io: {e}"))?;
        if n == 0 {
            return Err("io: primary closed the connection".into());
        }
        let reply = algrec_serve::json::parse(reply.trim_end()).map_err(|e| format!("io: {e}"))?;
        if matches!(reply.get("ok"), Some(Json::Bool(true))) {
            return Ok(reply);
        }
        let code = reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("error");
        let message = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("");
        Err(format!("{code}: {message}"))
    }
}

/// An integer field of a pull reply.
fn int_field(reply: &Json, name: &str) -> Result<u64, String> {
    reply
        .get(name)
        .and_then(Json::as_int)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("pull reply missing {name}"))
}

/// The hex bytes field of a pull reply.
fn hex_field(reply: &Json, name: &str) -> Result<Vec<u8>, String> {
    from_hex(
        reply
            .get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("pull reply missing {name}"))?,
    )
}

/// Pull chunk budget per request.
const PULL_MAX_BYTES: i64 = 256 * 1024;

/// Replace the core's session with the primary's newest snapshot, pulled
/// in chunks. A primary whose newest snapshot is not past the core's
/// generation no longer holds the core's prefix: that is fatal.
fn bootstrap(channel: &mut PullChannel, core: &mut ReplicaCore) -> Result<(), String> {
    let hello = channel.roundtrip(vec![("op", Json::str("repl"))])?;
    let gen = hello
        .get("snapshot")
        .and_then(Json::as_int)
        .and_then(|g| u64::try_from(g).ok())
        .filter(|&g| g > core.position().gen)
        .ok_or_else(|| {
            format!(
                "stale-offset: the primary retains neither wal generation {} nor a newer snapshot",
                core.position().gen
            )
        })?;
    let mut image = Vec::new();
    loop {
        let reply = channel.roundtrip(vec![
            ("op", Json::str("repl")),
            ("snapshot", Json::Int(gen as i64)),
            ("offset", Json::Int(image.len() as i64)),
            ("max", Json::Int(PULL_MAX_BYTES)),
        ])?;
        let size = int_field(&reply, "size")?;
        let bytes = hex_field(&reply, "bytes")?;
        if bytes.is_empty() && (image.len() as u64) < size {
            return Err(format!("snapshot {gen}: empty chunk at {}", image.len()));
        }
        image.extend_from_slice(&bytes);
        if image.len() as u64 >= size {
            return core.bootstrap(gen, &image);
        }
    }
}

/// One pull against the primary: the next frames of the core's log, a
/// seal when that log is sealed and fully applied, or a bootstrap when
/// the primary no longer retains it. Returns whether the core moved.
fn step(channel: &mut PullChannel, core: &mut ReplicaCore) -> Result<bool, String> {
    let offset = core.offset();
    let reply = match channel.roundtrip(vec![
        ("op", Json::str("repl")),
        ("gen", Json::Int(core.position().gen as i64)),
        ("offset", Json::Int(offset as i64)),
        ("max", Json::Int(PULL_MAX_BYTES)),
    ]) {
        Err(e) if e.starts_with("gone:") => return bootstrap(channel, core).map(|()| true),
        reply => reply?,
    };
    let end = int_field(&reply, "end")?;
    let sealed = matches!(reply.get("sealed"), Some(Json::Bool(true)));
    core.state().end.store(end, Ordering::SeqCst);
    let frames = hex_field(&reply, "frames")?;
    let moved = !frames.is_empty();
    core.feed(&frames, offset)?;
    if sealed && core.offset() == end {
        core.seal();
        return Ok(true);
    }
    Ok(moved)
}

/// Pull from the primary at `addr` until a pull brings nothing new: the
/// core then holds at least the primary's position when the call began.
pub fn catch_up(addr: &str, core: &mut ReplicaCore) -> Result<(), String> {
    let mut channel = PullChannel::connect(addr)?;
    while step(&mut channel, core)? {}
    Ok(())
}

/// A live replica: a local [`SharedSession`] kept in sync with a
/// primary by a background puller thread.
pub struct Replica {
    shared: Arc<SharedSession>,
    state: Arc<ReplicaState>,
    puller: Option<JoinHandle<()>>,
}

impl Replica {
    /// Subscribe to the primary at `addr`: performs the `repl` hello
    /// synchronously (so a wrong address fails here), then spawns the
    /// puller thread that streams the primary's log into `shared` from
    /// the start of generation 0 — or, when that is no longer retained,
    /// from the newest snapshot.
    pub fn start(addr: &str, shared: Arc<SharedSession>) -> Result<Replica, String> {
        let mut channel = PullChannel::connect(addr)?;
        channel.roundtrip(vec![("op", Json::str("repl"))])?;
        let mut core = ReplicaCore::new(Arc::clone(&shared));
        let state = Arc::clone(core.state());
        state.connected.store(true, Ordering::SeqCst);
        let thread_addr = addr.to_string();
        let puller = std::thread::Builder::new()
            .name("algrec-replica-pull".into())
            .spawn(move || pull_loop(&thread_addr, &mut core, Some(channel)))
            .map_err(|e| format!("spawning puller: {e}"))?;
        Ok(Replica {
            shared,
            state,
            puller: Some(puller),
        })
    }

    /// The session the puller applies records to.
    pub fn shared(&self) -> &Arc<SharedSession> {
        &self.shared
    }

    /// The shared atomic state (position, lag, connectivity).
    pub fn state(&self) -> &Arc<ReplicaState> {
        &self.state
    }

    /// Stop the puller thread and wait for it to exit.
    pub fn stop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.puller.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How long the puller sleeps when a pull brought nothing new.
const IDLE_POLL: Duration = Duration::from_millis(20);
/// How long the puller waits before redialing a broken primary.
const RECONNECT_DELAY: Duration = Duration::from_millis(100);

/// The puller thread body: pull until stopped, redialing and resuming
/// from the applied offset whenever the connection or a pull fails.
fn pull_loop(addr: &str, core: &mut ReplicaCore, mut channel: Option<PullChannel>) {
    let state = Arc::clone(core.state());
    while !state.stop.load(Ordering::SeqCst) {
        let mut live = match channel
            .take()
            .map_or_else(|| PullChannel::connect(addr), Ok)
        {
            Ok(c) => c,
            Err(_) => {
                state.connected.store(false, Ordering::SeqCst);
                std::thread::sleep(RECONNECT_DELAY);
                continue;
            }
        };
        state.connected.store(true, Ordering::SeqCst);
        loop {
            if state.stop.load(Ordering::SeqCst) {
                return;
            }
            match step(&mut live, core) {
                Ok(true) => {}
                Ok(false) => std::thread::sleep(IDLE_POLL),
                Err(e) if e.starts_with("stale-offset") => {
                    // The primary no longer holds our prefix (rebuilt
                    // from scratch): keep serving the applied state.
                    state.fatal.store(true, Ordering::SeqCst);
                    state.connected.store(false, Ordering::SeqCst);
                    return;
                }
                Err(_) => {
                    // A broken connection, a malformed reply or a feed
                    // gap: redial and resume from the applied offset.
                    state.connected.store(false, Ordering::SeqCst);
                    std::thread::sleep(RECONNECT_DELAY);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(to_hex(&[0x0f, 0xa0]), "0fa0");
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "bad digit");
    }
}
