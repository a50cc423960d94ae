//! WAL shipping: replicas that pull per-shard log frames from the
//! primary and apply them in global commit order.
//!
//! Replication reuses the durable artifacts the primary writes anyway:
//! a replica is just another reader of the N shard logs, except it
//! reads them over the line protocol (`repl` pulls against the primary,
//! see [`crate::server`]) instead of from disk. The pulled frames are
//! the primary's literal log bytes, so the replica inherits every
//! integrity property of the on-disk format — CRCs, sequence stamps,
//! part counts. Because a replica serves reads between commits, it
//! applies each commit to its live session
//! ([`algrec_store::recover::apply_record`]) instead of folding the
//! log and building once, as recovery does.
//!
//! The layer splits in two:
//!
//! * [`ReplicaCore`] — the pure reassembly state machine: per-shard
//!   frame queues, complete-commit drain in sequence order, applied
//!   offsets and epochs. It has no I/O and is driven directly by the
//!   consistency proptest with adversarial chunk interleavings.
//! * [`Replica`] — the TCP puller: subscribes to a primary, feeds the
//!   core, tracks per-shard lag (log end minus applied offset),
//!   heartbeats by polling, and resubscribes from its applied offsets
//!   when the primary restarts.
//!
//! Resubscription at the applied offsets is always valid: the core only
//! advances `applied` past *complete* commits, the primary's own crash
//! recovery truncates incomplete suffixes at the same boundary, and
//! (under `SyncPolicy::Always`) a served frame is a synced frame — so a
//! replica's applied prefix is always a prefix of any future primary's
//! log.

use crate::shard::reassemble;
use algrec_serve::{Json, SharedSession};
use algrec_store::codec::next_record;
use algrec_store::recover::apply_record;
use algrec_store::WalRecord;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

/// One queued, not-yet-applied commit part.
struct Pending {
    seq: u64,
    parts: u32,
    record: WalRecord,
    /// The byte offset just past this part's frame in its shard log.
    end: u64,
}

/// The replication state machine: reassembles the primary's global
/// commit order from N per-shard frame streams and applies complete
/// commits to a local session.
///
/// Pure — no sockets, no clocks. [`feed`](ReplicaCore::feed) enqueues
/// raw frame bytes for one shard; [`drain`](ReplicaCore::drain) applies
/// every commit whose parts have all arrived. The consistency proptest
/// drives these two entry points with adversarial interleavings and
/// mid-stream [`reset_pending`](ReplicaCore::reset_pending) calls.
pub struct ReplicaCore {
    shared: Arc<SharedSession>,
    queues: Vec<VecDeque<Pending>>,
    /// Per-shard byte offsets: the frame boundary up to which every
    /// commit has been applied. Safe resubscription points.
    applied: Vec<u64>,
    /// Per-shard applied record counts, mirrored atomically so server
    /// threads can answer `cluster-stats` and check `min_epochs`.
    epochs: Arc<Vec<AtomicU64>>,
}

impl ReplicaCore {
    /// A fresh core over `shared`, expecting `shards` per-shard streams
    /// whose applied prefixes start at `start` (the log header length).
    pub fn new(shared: Arc<SharedSession>, shards: usize, start: u64) -> ReplicaCore {
        ReplicaCore {
            shared,
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            applied: vec![start; shards],
            epochs: Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Number of shard streams.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The session this core applies commits to.
    pub fn shared(&self) -> &Arc<SharedSession> {
        &self.shared
    }

    /// Per-shard applied byte offsets — the safe resubscription points.
    pub fn applied_offsets(&self) -> &[u64] {
        &self.applied
    }

    /// The atomically-mirrored per-shard epochs (applied record
    /// counts), shareable with server threads.
    pub fn epochs(&self) -> Arc<Vec<AtomicU64>> {
        Arc::clone(&self.epochs)
    }

    /// Enqueue raw frame bytes for `shard`, pulled starting at byte
    /// offset `base` of that shard's log. Frames already applied or
    /// queued (offset overlap after a retried pull) are skipped;
    /// non-contiguous bytes (a gap past the queued end) are rejected.
    pub fn feed(&mut self, shard: usize, bytes: &[u8], base: u64) -> Result<(), String> {
        if shard >= self.queues.len() {
            return Err(format!("no shard {shard}"));
        }
        let queued_end = self.queues[shard]
            .back()
            .map_or(self.applied[shard], |p| p.end);
        if base > queued_end {
            return Err(format!(
                "shard {shard}: gap — fed offset {base}, stream continues at {queued_end}"
            ));
        }
        let mut pos = 0usize;
        loop {
            let start = base + pos as u64;
            let payload = match next_record(bytes, &mut pos) {
                Ok(Some(p)) => p,
                Ok(None) => return Ok(()),
                Err(e) => return Err(format!("shard {shard}: {e}")),
            };
            let end = base + pos as u64;
            if end <= queued_end {
                continue; // overlap with an earlier pull
            }
            if start < queued_end {
                return Err(format!(
                    "shard {shard}: frame at {start} straddles the queued end {queued_end}"
                ));
            }
            match WalRecord::decode(payload).map_err(|e| format!("shard {shard}: {e}"))? {
                WalRecord::Sequenced { seq, parts, inner } => {
                    self.queues[shard].push_back(Pending {
                        seq,
                        parts,
                        record: *inner,
                        end,
                    })
                }
                other => {
                    return Err(format!(
                        "shard {shard}: unsequenced record {other:?} in a replicated stream"
                    ))
                }
            }
        }
    }

    /// Drop every queued-but-unapplied frame. Called when the pull
    /// connection breaks: the puller resubscribes from the applied
    /// offsets, so whatever was in flight will be fetched again.
    pub fn reset_pending(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
    }

    /// Apply every complete commit at the queue heads, in global
    /// sequence order. Stops (without error) at the first commit with a
    /// missing part — by the sequencing invariant the missing part is
    /// in a shard whose queue has run dry, so the caller pulls more and
    /// drains again. Returns the number of commits applied.
    pub fn drain(&mut self) -> Result<usize, String> {
        let n = self.queues.len();
        let mut committed = 0usize;
        loop {
            let Some(seq) = (0..n)
                .filter_map(|k| self.queues[k].front().map(|p| p.seq))
                .min()
            else {
                return Ok(committed);
            };
            let holders: Vec<usize> = (0..n)
                .filter(|&k| self.queues[k].front().is_some_and(|p| p.seq == seq))
                .collect();
            let parts = self.queues[holders[0]].front().unwrap().parts as usize;
            if holders.len() < parts {
                if holders.len() == n || (0..n).any(|k| self.queues[k].is_empty()) {
                    return Ok(committed); // missing part not yet pulled
                }
                return Err(format!(
                    "commit {seq}: {} of {parts} parts present but every stream has \
                     moved past it — shard logs disagree",
                    holders.len()
                ));
            }
            let mut parts = Vec::with_capacity(holders.len());
            let mut ends = Vec::with_capacity(holders.len());
            for &k in &holders {
                let pending = self.queues[k].pop_front().unwrap();
                parts.push(pending.record);
                ends.push((k, pending.end));
            }
            let record = reassemble(parts);
            let (applied, _) = self
                .shared
                .with_writer(|session| apply_record(session, record))
                .map_err(|_| "replica session poisoned".to_string())?;
            applied.map_err(|e| format!("applying commit {seq}: {e}"))?;
            // Only advance the epoch gate once the commit is actually
            // visible in a published snapshot — a pinned read that
            // passes the gate must see the pinned write.
            for (k, end) in ends {
                self.applied[k] = end;
                self.epochs[k].fetch_add(1, Ordering::SeqCst);
            }
            committed += 1;
        }
    }
}

/// Shared, atomically-readable state of a live [`Replica`], consumed by
/// the replica's server threads (`cluster-stats`, `min_epochs` checks)
/// and by its owner for shutdown.
pub struct ReplicaState {
    /// Per-shard applied record counts (the replica's epoch vector).
    pub epochs: Arc<Vec<AtomicU64>>,
    /// Per-shard primary log ends, as last reported by a pull reply.
    pub ends: Vec<AtomicU64>,
    /// Per-shard applied byte offsets.
    pub applied: Vec<AtomicU64>,
    /// Whether the puller currently holds a live primary connection.
    pub connected: AtomicBool,
    /// Set when replication failed permanently (the primary reported a
    /// stale offset — its logs no longer contain the replica's prefix).
    /// Reads keep serving the last applied state.
    pub fatal: AtomicBool,
    /// Raise to make the puller thread exit.
    pub stop: AtomicBool,
}

impl ReplicaState {
    /// Per-shard replication lag in bytes: primary log end minus
    /// applied offset, as of the last pull reply.
    pub fn lag_bytes(&self) -> Vec<u64> {
        self.ends
            .iter()
            .zip(&self.applied)
            .map(|(e, a)| {
                e.load(Ordering::SeqCst)
                    .saturating_sub(a.load(Ordering::SeqCst))
            })
            .collect()
    }

    /// The replica's epoch vector.
    pub fn epoch_vector(&self) -> Vec<u64> {
        self.epochs
            .iter()
            .map(|e| e.load(Ordering::SeqCst))
            .collect()
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

/// The primary's `repl` hello: shard count and per-shard geometry.
struct Hello {
    shards: usize,
    start: u64,
    ends: Vec<u64>,
}

fn hello(channel: &mut PullChannel) -> Result<Hello, String> {
    let reply = channel.roundtrip(vec![("op", Json::str("repl"))])?;
    let shards = reply
        .get("shards")
        .and_then(Json::as_int)
        .ok_or("hello reply missing shards")? as usize;
    let start = reply
        .get("start")
        .and_then(Json::as_int)
        .ok_or("hello reply missing start")? as u64;
    let ends = match reply.get("ends") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| v.as_int().map(|i| i as u64).ok_or("non-integer end"))
            .collect::<Result<Vec<u64>, _>>()?,
        _ => return Err("hello reply missing ends".into()),
    };
    if shards == 0 || ends.len() != shards {
        return Err(format!(
            "malformed hello: {shards} shards, {} ends",
            ends.len()
        ));
    }
    Ok(Hello {
        shards,
        start,
        ends,
    })
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
    /// synchronously (learning the shard count), then spawns the puller
    /// thread that streams frames into `shared` from offset zero.
    pub fn start(addr: &str, shared: Arc<SharedSession>) -> Result<Replica, String> {
        let mut channel = PullChannel::connect(addr)?;
        let h = hello(&mut channel)?;
        let mut core = ReplicaCore::new(Arc::clone(&shared), h.shards, h.start);
        let state = Arc::new(ReplicaState {
            epochs: core.epochs(),
            ends: h.ends.iter().map(|&e| AtomicU64::new(e)).collect(),
            applied: (0..h.shards).map(|_| AtomicU64::new(h.start)).collect(),
            connected: AtomicBool::new(true),
            fatal: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let thread_state = Arc::clone(&state);
        let thread_addr = addr.to_string();
        let puller = std::thread::Builder::new()
            .name("algrec-replica-pull".into())
            .spawn(move || pull_loop(&thread_addr, &mut core, &thread_state, Some(channel)))
            .map_err(|e| format!("spawning puller: {e}"))?;
        Ok(Replica {
            shared,
            state,
            puller: Some(puller),
        })
    }

    /// The session the puller applies commits to.
    pub fn shared(&self) -> &Arc<SharedSession> {
        &self.shared
    }

    /// The shared atomic state (epochs, lag, connectivity).
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

/// How long the puller sleeps when a sweep pulled nothing new.
const IDLE_POLL: Duration = Duration::from_millis(20);
/// How long the puller waits before redialing a broken primary.
const RECONNECT_DELAY: Duration = Duration::from_millis(100);
/// Pull chunk budget per request.
const PULL_MAX_BYTES: i64 = 256 * 1024;

/// One pull sweep over every shard: fetch from the local cursor, feed
/// the core, drain. Returns whether any frame bytes arrived.
fn sweep(
    channel: &mut PullChannel,
    core: &mut ReplicaCore,
    state: &ReplicaState,
    fetched: &mut [u64],
) -> Result<bool, String> {
    let mut progress = false;
    for (k, cursor) in fetched.iter_mut().enumerate() {
        let reply = channel.roundtrip(vec![
            ("op", Json::str("repl")),
            ("shard", Json::Int(k as i64)),
            ("offset", Json::Int(*cursor as i64)),
            ("max", Json::Int(PULL_MAX_BYTES)),
        ])?;
        let frames = reply
            .get("frames")
            .and_then(Json::as_str)
            .ok_or("pull reply missing frames")?;
        let next = reply
            .get("next")
            .and_then(Json::as_int)
            .ok_or("pull reply missing next")? as u64;
        let end = reply
            .get("end")
            .and_then(Json::as_int)
            .ok_or("pull reply missing end")? as u64;
        state.ends[k].store(end, Ordering::SeqCst);
        if !frames.is_empty() {
            let bytes = from_hex(frames)?;
            core.feed(k, &bytes, *cursor)?;
            *cursor = next;
            progress = true;
        }
    }
    core.drain()?;
    for k in 0..core.shards() {
        state.applied[k].store(core.applied_offsets()[k], Ordering::SeqCst);
    }
    Ok(progress)
}

/// The puller thread body: pull/drain until stopped, reconnecting and
/// resubscribing from the applied offsets whenever the primary drops.
fn pull_loop(
    addr: &str,
    core: &mut ReplicaCore,
    state: &ReplicaState,
    mut channel: Option<PullChannel>,
) {
    while !state.stop.load(Ordering::SeqCst) {
        let mut live = match channel.take() {
            Some(c) => c,
            None => match PullChannel::connect(addr).and_then(|mut c| {
                hello(&mut c)?;
                Ok(c)
            }) {
                Ok(c) => c,
                Err(_) => {
                    state.connected.store(false, Ordering::SeqCst);
                    std::thread::sleep(RECONNECT_DELAY);
                    continue;
                }
            },
        };
        state.connected.store(true, Ordering::SeqCst);
        // Resubscribe from the applied offsets: anything that was in
        // flight when the last connection broke gets pulled again.
        core.reset_pending();
        let mut fetched: Vec<u64> = core.applied_offsets().to_vec();
        loop {
            if state.stop.load(Ordering::SeqCst) {
                return;
            }
            match sweep(&mut live, core, state, &mut fetched) {
                Ok(true) => {}
                Ok(false) => std::thread::sleep(IDLE_POLL),
                Err(e) if e.starts_with("stale-offset") => {
                    // The primary's logs no longer contain our prefix
                    // (rebuilt from scratch). Irrecoverable without a
                    // full resync; keep serving the applied state.
                    state.fatal.store(true, Ordering::SeqCst);
                    state.connected.store(false, Ordering::SeqCst);
                    return;
                }
                Err(e) if e.starts_with("io:") => {
                    state.connected.store(false, Ordering::SeqCst);
                    std::thread::sleep(RECONNECT_DELAY);
                    break; // redial
                }
                Err(_) => {
                    // Protocol-level failure (malformed reply, feed
                    // gap): drop the connection and restart clean from
                    // the applied offsets.
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
