//! Line-protocol TCP servers for the two cluster roles.
//!
//! Both roles speak the ordinary newline-delimited-JSON protocol — every
//! single-node operation keeps working against a cluster node — plus
//! the cluster extensions:
//!
//! * **primary** ([`serve_primary`]): adds `repl` (the replication
//!   hello, log pulls and snapshot-image pulls, served from the store's
//!   generation files by [`Primary`]) and `cluster-stats` (position,
//!   shipped bytes).
//! * **replica** ([`serve_replica`]): serves reads from its own
//!   [`SharedSession`] snapshots; rejects writes with `read-only`;
//!   honors the router's `min_epochs` pin — a [`Position`] — by
//!   answering `stale` when it has not yet applied the pinned prefix;
//!   reports its position, lag, bootstraps and connectivity in
//!   `cluster-stats`.
//!
//! The loops here are deliberately simpler than the single-node
//! server's: blocking per-connection reader threads (exiting on EOF),
//! a shared stop flag raised by `shutdown`, and a throwaway local
//! connect to unblock the acceptor. Replication subscribers hold
//! long-lived connections, so the single-node drain-and-join shutdown
//! would stall on them.

use crate::primary::{Position, Primary, PullError, LOG_START};
use crate::repl::{to_hex, ReplicaState};
use algrec_serve::{
    error_reply_for, handle_line, is_read_op, json, shutting_down_reply, Handled, Json,
    SharedSession,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default and maximum frame bytes per replication pull reply.
const PULL_DEFAULT_BYTES: usize = 256 * 1024;
const PULL_CAP_BYTES: usize = 4 * 1024 * 1024;

/// Run a line-protocol accept loop until a handler returns
/// [`Handled::Shutdown`]: one detached blocking reader thread per
/// connection, a shared stop flag, and a throwaway self-connect to
/// unblock the acceptor. After the flag rises, in-flight connections
/// answer `shutting-down` to every further request.
pub(crate) fn serve_loop<F>(listener: TcpListener, handler: F)
where
    F: Fn(&str) -> Handled + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    let stop = Arc::new(AtomicBool::new(false));
    let local = listener.local_addr().ok();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let handler = Arc::clone(&handler);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let mut reader = BufReader::new(read_half);
            let mut writer = stream;
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
                let request = line.trim_end_matches(['\r', '\n']);
                if request.is_empty() {
                    continue;
                }
                let handled = if stop.load(Ordering::SeqCst) {
                    Handled::Reply(shutting_down_reply(request))
                } else {
                    handler(request)
                };
                let shutdown = matches!(handled, Handled::Shutdown(_));
                if writer
                    .write_all(handled.line().as_bytes())
                    .and_then(|_| writer.write_all(b"\n"))
                    .is_err()
                {
                    return;
                }
                if shutdown {
                    stop.store(true, Ordering::SeqCst);
                    if let Some(addr) = local {
                        let _ = TcpStream::connect(addr);
                    }
                    return;
                }
            }
        });
    }
}

/// A non-negative integer field of a `repl` request: `Ok(None)` when
/// absent, an error when present but not a count.
fn count_field(req: &Json, name: &str) -> Result<Option<u64>, PullError> {
    req.get(name)
        .map(|v| {
            v.as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| PullError {
                    code: "bad-request",
                    message: format!("{name} must be a non-negative integer"),
                })
        })
        .transpose()
}

/// Answer one `repl` request: without `gen` or `snapshot` it is the
/// subscription hello (position and newest snapshot generation); with
/// `gen` it pulls raw frames of that generation's log from `offset`;
/// with `snapshot` it pulls a chunk of that snapshot image.
fn serve_repl(req: &Json, primary: &Primary) -> Result<Vec<(&'static str, Json)>, PullError> {
    let offset = count_field(req, "offset")?;
    let max = count_field(req, "max")?.map_or(PULL_DEFAULT_BYTES, |m| {
        (m.max(1) as usize).min(PULL_CAP_BYTES)
    });
    if let Some(gen) = count_field(req, "gen")? {
        let offset = offset.unwrap_or(LOG_START) as usize;
        let chunk = primary.pull_log(gen, offset, max)?;
        return Ok(vec![
            ("gen", Json::Int(gen as i64)),
            ("from", Json::Int(offset as i64)),
            ("next", Json::Int(chunk.next as i64)),
            ("end", Json::Int(chunk.end as i64)),
            ("sealed", Json::Bool(chunk.sealed)),
            ("frames", Json::str(to_hex(&chunk.frames))),
        ]);
    }
    if let Some(gen) = count_field(req, "snapshot")? {
        let offset = offset.unwrap_or(0);
        let chunk = primary.pull_snapshot(gen, offset, max)?;
        return Ok(vec![
            ("snapshot", Json::Int(gen as i64)),
            ("from", Json::Int(offset as i64)),
            ("size", Json::Int(chunk.size as i64)),
            ("bytes", Json::str(to_hex(&chunk.bytes))),
        ]);
    }
    Ok(vec![
        ("role", Json::str("primary")),
        ("epochs", primary.position().to_json()),
        (
            "snapshot",
            primary
                .newest_snapshot()?
                .map_or(Json::Null, |g| Json::Int(g as i64)),
        ),
    ])
}

/// An `ok` reply to `req` carrying `body`'s fields.
fn ok_reply(req: &Json, body: Vec<(&'static str, Json)>) -> String {
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    Json::obj(
        [("id", id), ("ok", Json::Bool(true))]
            .into_iter()
            .chain(body),
    )
    .to_string()
}

/// Serve a primary on `listener` until a `shutdown` request: the full
/// single-node protocol via `shared`, plus `repl` and `cluster-stats`
/// backed by the store's generation files.
pub fn serve_primary(listener: TcpListener, shared: Arc<SharedSession>, primary: Arc<Primary>) {
    serve_loop(listener, move |line| {
        let Ok(req) = json::parse(line) else {
            return handle_line(&shared, line); // uniform bad-request reply
        };
        match req.get("op").and_then(Json::as_str) {
            Some("repl") => Handled::Reply(match serve_repl(&req, &primary) {
                Ok(body) => ok_reply(&req, body),
                Err(e) => error_reply_for(line, e.code, &e.message),
            }),
            Some("cluster-stats") => Handled::Reply(ok_reply(
                &req,
                vec![
                    ("role", Json::str("primary")),
                    ("epochs", primary.position().to_json()),
                    ("shipped_bytes", Json::Int(primary.shipped_bytes() as i64)),
                ],
            )),
            _ => handle_line(&shared, line),
        }
    });
}

/// Serve a replica on `listener` until a `shutdown` request: reads
/// (position-gated by `min_epochs`) from the replica's own snapshots,
/// `read-only` rejections for writes, and replica-side `cluster-stats`.
pub fn serve_replica(listener: TcpListener, shared: Arc<SharedSession>, state: Arc<ReplicaState>) {
    serve_loop(listener, move |line| {
        let Ok(req) = json::parse(line) else {
            return handle_line(&shared, line);
        };
        let op = req.get("op").and_then(Json::as_str).unwrap_or_default();
        match op {
            "cluster-stats" => Handled::Reply(ok_reply(
                &req,
                vec![
                    ("role", Json::str("replica")),
                    ("epochs", state.position().to_json()),
                    ("lag", Json::Int(state.lag_bytes() as i64)),
                    (
                        "bootstraps",
                        Json::Int(state.bootstraps.load(Ordering::SeqCst) as i64),
                    ),
                    (
                        "connected",
                        Json::Bool(state.connected.load(Ordering::SeqCst)),
                    ),
                    ("fatal", Json::Bool(state.fatal.load(Ordering::SeqCst))),
                ],
            )),
            "repl" => Handled::Reply(error_reply_for(
                line,
                "not-primary",
                "replicas do not serve replication pulls",
            )),
            op if is_read_op(op) => match req.get("min_epochs").map(Position::from_json) {
                None => handle_line(&shared, line),
                Some(Some(pin)) if state.position() >= pin => handle_line(&shared, line),
                Some(Some(_)) => Handled::Reply(error_reply_for(
                    line,
                    "stale",
                    "replica has not applied the pinned min_epochs yet",
                )),
                Some(None) => Handled::Reply(error_reply_for(
                    line,
                    "bad-request",
                    "min_epochs must be a position [generation, records] of two \
                     non-negative integers",
                )),
            },
            _ => Handled::Reply(error_reply_for(
                line,
                "read-only",
                "replicas reject writes; send them to the primary",
            )),
        }
    });
}
