//! The consistent-read front end: one endpoint over a primary and its
//! replicas.
//!
//! Clients speak the ordinary line protocol to the router and never
//! learn the fleet topology. The router classifies each request with
//! [`is_read_op`]:
//!
//! * **writes** forward to the primary over a single pipelined channel;
//!   after every acknowledged write the router re-pins the primary's
//!   **position** (WAL generation, records in its log) from the
//!   primary's `cluster-stats`, while still holding the primary channel
//!   — no later write can slip between the ack and the pin.
//! * **reads** fan out round-robin across the replicas with the current
//!   pin attached as `min_epochs`. A replica that has not applied the
//!   pinned prefix answers `stale`; the router retries the others,
//!   briefly waits, and past a deadline falls back to the primary
//!   (which trivially satisfies its own pin). The result is
//!   monotonic-prefix consistency: every read observes at least the
//!   writes the router has acknowledged.
//!
//! Capacity scales with the fleet: the router keeps exactly **one
//! pipelined channel per backend**, each serialized by its own mutex,
//! so concurrent client reads genuinely spread across replicas —
//! adding a replica adds a parallel pipeline (experiment E13 measures
//! this scaling).

use crate::primary::Position;
use crate::server::serve_loop;
use algrec_serve::{error_reply_for, is_read_op, json, Handled, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fleet topology for [`serve_router`].
pub struct RouterConfig {
    /// The primary's `host:port`.
    pub primary: String,
    /// Replica `host:port` endpoints (may be empty: reads then go to
    /// the primary too).
    pub replicas: Vec<String>,
}

/// How long a read keeps retrying stale/unreachable replicas before
/// falling back to the primary.
const READ_DEADLINE: Duration = Duration::from_secs(3);
/// Pause between full retry cycles over the replica set.
const RETRY_PAUSE: Duration = Duration::from_millis(2);

/// One pipelined line-protocol channel to a backend, redialed on use
/// after any failure.
struct Channel {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl Channel {
    fn new(addr: &str) -> Channel {
        Channel {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// One request/reply roundtrip; two attempts, reconnecting between
    /// them, so a backend restart costs one retry, not an error.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        let mut last = String::new();
        for _ in 0..2 {
            if self.conn.is_none() {
                match TcpStream::connect(&self.addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        self.conn = Some(BufReader::new(stream));
                    }
                    Err(e) => {
                        last = format!("{}: {e}", self.addr);
                        continue;
                    }
                }
            }
            let reader = self.conn.as_mut().unwrap();
            let attempt = (|| -> std::io::Result<String> {
                let stream = reader.get_mut();
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
                let mut reply = String::new();
                if reader.read_line(&mut reply)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "backend closed the connection",
                    ));
                }
                Ok(reply.trim_end_matches(['\r', '\n']).to_string())
            })();
            match attempt {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    self.conn = None;
                    last = format!("{}: {e}", self.addr);
                }
            }
        }
        Err(last)
    }
}

/// The router's shared state: one mutex-serialized channel per backend
/// plus the current position pin.
struct Backends {
    primary: Mutex<Channel>,
    replicas: Vec<Mutex<Channel>>,
    /// The primary's position after the last acknowledged write (none
    /// until the first write or stats fetch).
    pin: Mutex<Option<Position>>,
    /// Round-robin cursor over the replicas.
    rr: AtomicUsize,
}

/// The position of a `cluster-stats` reply, if present.
fn position_of(reply: &Json) -> Option<Position> {
    reply.get("epochs").and_then(Position::from_json)
}

impl Backends {
    /// Forward a write to the primary and, on success, re-pin the
    /// position — under the same channel lock, so the pin can never
    /// reflect a later write than the one acknowledged.
    fn write(&self, line: &str) -> Result<String, String> {
        let mut primary = self.primary.lock().map_err(|_| "router poisoned")?;
        let reply = primary.roundtrip(line)?;
        let acked = json::parse(&reply)
            .ok()
            .is_some_and(|r| matches!(r.get("ok"), Some(Json::Bool(true))));
        if acked {
            let stats = primary.roundtrip(
                &Json::obj([
                    ("id", Json::str("router-pin")),
                    ("op", Json::str("cluster-stats")),
                ])
                .to_string(),
            )?;
            if let Some(at) = json::parse(&stats).ok().as_ref().and_then(position_of) {
                *self.pin.lock().map_err(|_| "router poisoned")? = Some(at);
            }
        }
        Ok(reply)
    }

    /// Serve a read: round-robin over the replicas with the pin
    /// attached, retrying stale/unreachable ones until the deadline,
    /// then fall back to the primary.
    fn read(&self, line: &str, req: &Json) -> Result<String, String> {
        if self.replicas.is_empty() {
            return self
                .primary
                .lock()
                .map_err(|_| "router poisoned")?
                .roundtrip(line);
        }
        let pin = *self.pin.lock().map_err(|_| "router poisoned")?;
        let pinned = match (pin, req) {
            (Some(at), Json::Obj(map)) => {
                let mut map = map.clone();
                map.insert("min_epochs".to_string(), at.to_json());
                Json::Obj(map).to_string()
            }
            _ => line.to_string(),
        };
        let deadline = Instant::now() + READ_DEADLINE;
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        loop {
            for i in 0..self.replicas.len() {
                let k = (start + i) % self.replicas.len();
                let Ok(mut replica) = self.replicas[k].lock() else {
                    continue;
                };
                let Ok(reply) = replica.roundtrip(&pinned) else {
                    continue; // unreachable: try the next replica
                };
                // A replica that is behind the pin (`stale`) or going
                // down (`shutting-down`) is a fleet-state condition the
                // client never sees: fail over to the next backend.
                let failover = json::parse(&reply).ok().is_some_and(|r| {
                    matches!(
                        r.get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(Json::as_str),
                        Some("stale" | "shutting-down")
                    )
                });
                if !failover {
                    return Ok(reply);
                }
            }
            if Instant::now() >= deadline {
                // Every replica is stale or down: the primary satisfies
                // its own pin by definition.
                return self
                    .primary
                    .lock()
                    .map_err(|_| "router poisoned")?
                    .roundtrip(line);
            }
            std::thread::sleep(RETRY_PAUSE);
        }
    }

    /// Merged fleet stats: the primary's and every replica's
    /// `cluster-stats` reply, nested under one router envelope.
    fn stats(&self, id: Json) -> Result<String, String> {
        let probe = Json::obj([
            ("id", Json::str("router-stats")),
            ("op", Json::str("cluster-stats")),
        ])
        .to_string();
        let fetch = |channel: &Mutex<Channel>| -> Json {
            channel
                .lock()
                .ok()
                .and_then(|mut c| c.roundtrip(&probe).ok())
                .and_then(|reply| json::parse(&reply).ok())
                .unwrap_or(Json::Null)
        };
        let primary = fetch(&self.primary);
        if let Some(at) = position_of(&primary) {
            *self.pin.lock().map_err(|_| "router poisoned")? = Some(at);
        }
        let replicas: Vec<Json> = self.replicas.iter().map(fetch).collect();
        Ok(Json::obj([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("role", Json::str("router")),
            ("primary", primary),
            ("replicas", Json::Arr(replicas)),
        ])
        .to_string())
    }
}

/// Serve the router on `listener` until a `shutdown` request (which the
/// router answers locally — it never forwards shutdowns to the fleet).
pub fn serve_router(listener: TcpListener, config: RouterConfig) {
    let backends = Arc::new(Backends {
        primary: Mutex::new(Channel::new(&config.primary)),
        replicas: config
            .replicas
            .iter()
            .map(|a| Mutex::new(Channel::new(a)))
            .collect(),
        pin: Mutex::new(None),
        rr: AtomicUsize::new(0),
    });
    serve_loop(listener, move |line| {
        let Ok(req) = json::parse(line) else {
            return Handled::Reply(error_reply_for(line, "bad-request", "invalid JSON"));
        };
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let op = req.get("op").and_then(Json::as_str).unwrap_or_default();
        let result = match op {
            "shutdown" => {
                return Handled::Shutdown(
                    Json::obj([
                        ("bye", Json::Bool(true)),
                        ("id", id),
                        ("ok", Json::Bool(true)),
                    ])
                    .to_string(),
                )
            }
            "cluster-stats" => backends.stats(id),
            op if is_read_op(op) => backends.read(line, &req),
            _ => backends.write(line),
        };
        Handled::Reply(match result {
            Ok(reply) => reply,
            Err(e) => error_reply_for(line, "unavailable", &e),
        })
    });
}
