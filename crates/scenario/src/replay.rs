//! The record/replay harness: drive a recorded line-protocol trace
//! against a serving session — in-process or over live TCP — at
//! adjustable concurrency and scale-factor, and diff the replies
//! against the recording **modulo epoch tags**.
//!
//! # Determinism contract
//!
//! A trace is replayed as an alternating sequence of *write runs* and
//! *read blocks*:
//!
//! * Mutating requests replay strictly in trace order, one at a time,
//!   on a single writer connection — mirroring the serving layer's
//!   single-writer commit discipline (WAL order = commit order = epoch
//!   order).
//! * Maximal runs of consecutive read-only requests fan out across the
//!   configured number of worker connections concurrently. No write is
//!   in flight during a read block, so every read answers from the same
//!   published snapshot; replies are reassembled in trace order.
//!
//! Under this discipline the reply stream is **byte-deterministic
//! modulo epoch tags** at every concurrency: the only permitted
//! divergence is the `"epoch":N` field, which moves when a read races a
//! dirty-view rebuild (the rebuild republishes a snapshot) or when a
//! recording predates a restart. [`strip_epoch`] removes exactly that
//! field; [`diff_modulo_epoch`] compares reply streams under it.
//!
//! The **scale-factor** multiplies the read load: each read request is
//! issued `scale` times (all copies must agree modulo epoch — asserted
//! — and the first reply stands for the request in the diff). Writes
//! are never multiplied, so scaling changes the read load, not state.

use crate::corpus::Scenario;
use algrec_serve::protocol::handle_line;
use algrec_serve::shared::SharedSession;
use algrec_serve::{json, Session};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One worker's share of a read block: `(trace index, reply)` for every
/// request it claimed.
type BlockSlice = Vec<(usize, String)>;

/// Operations the protocol answers from a read snapshot. Mirrors the
/// protocol's read-path dispatch (minus `shutdown`, which a trace may
/// not contain — the runner owns server lifecycle).
pub fn is_read_request(line: &str) -> bool {
    let op = json::parse(line)
        .ok()
        .and_then(|req| req.get("op").and_then(json::Json::as_str).map(String::from))
        .unwrap_or_default();
    matches!(
        op.as_str(),
        "ping" | "query" | "explain" | "stats" | "views" | "db"
    )
}

/// Remove the `"epoch":N,` field from a reply line. Epoch tags are the
/// one scheduling artifact the determinism contract permits to differ
/// between a recording and a replay.
pub fn strip_epoch(line: &str) -> String {
    let Some(start) = line.find("\"epoch\":") else {
        return line.to_string();
    };
    let rest = &line[start + "\"epoch\":".len()..];
    let digits = rest.chars().take_while(|c| c.is_ascii_digit()).count();
    let mut end = start + "\"epoch\":".len() + digits;
    // Keys serialize sorted, so `epoch` is never last in a reply object;
    // swallow the separating comma either side to keep valid JSON.
    if line[end..].starts_with(',') {
        end += 1;
    } else if line[..start].ends_with(',') {
        return format!("{}{}", &line[..start - 1], &line[end..]);
    }
    format!("{}{}", &line[..start], &line[end..])
}

/// One divergence between a recording and a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based trace index of the diverging request.
    pub index: usize,
    /// The request line.
    pub request: String,
    /// The recorded reply (epoch-stripped).
    pub expected: String,
    /// The replayed reply (epoch-stripped).
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace line {}: replies diverge (modulo epoch)\n  request:  {}\n  expected: {}\n  actual:   {}",
            self.index + 1,
            self.request,
            self.expected,
            self.actual
        )
    }
}

/// Compare a replayed reply stream against a recording, modulo epoch
/// tags. Returns the first divergence, if any.
pub fn diff_modulo_epoch(
    trace: &[String],
    expected: &[String],
    actual: &[String],
) -> Option<Divergence> {
    for (i, (e, a)) in expected.iter().zip(actual.iter()).enumerate() {
        let (e, a) = (strip_epoch(e), strip_epoch(a));
        if e != a {
            return Some(Divergence {
                index: i,
                request: trace.get(i).cloned().unwrap_or_default(),
                expected: e,
                actual: a,
            });
        }
    }
    None
}

/// One protocol connection: send a request line, get the reply line.
pub trait Transport: Send {
    /// Round-trip one request.
    fn roundtrip(&mut self, line: &str) -> Result<String, String>;
}

/// Opens [`Transport`]s — one per replay worker.
pub trait Connector: Sync {
    /// Open one connection.
    fn connect(&self) -> Result<Box<dyn Transport>, String>;
}

/// In-process transport: requests dispatch straight into
/// [`handle_line`] against a [`SharedSession`] — the same code path the
/// TCP server runs per connection, minus the socket.
pub struct InProcess {
    shared: Arc<SharedSession>,
}

impl Transport for InProcess {
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        Ok(handle_line(&self.shared, line).line().to_string())
    }
}

/// [`Connector`] for [`InProcess`] transports over one shared session.
pub struct InProcessConnector {
    shared: Arc<SharedSession>,
}

impl InProcessConnector {
    /// Wrap an already-set-up session.
    pub fn new(session: Session) -> Self {
        InProcessConnector {
            shared: Arc::new(SharedSession::new(session)),
        }
    }

    /// The shared session, e.g. to inspect state after a replay.
    pub fn shared(&self) -> &Arc<SharedSession> {
        &self.shared
    }
}

impl Connector for InProcessConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, String> {
        Ok(Box::new(InProcess {
            shared: Arc::clone(&self.shared),
        }))
    }
}

/// TCP transport: one connection to a live `algrec serve`.
pub struct Tcp {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Transport for Tcp {
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("tcp write: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("tcp read: {e}"))?;
        if n == 0 {
            return Err("tcp read: server closed the connection".into());
        }
        Ok(reply.trim_end_matches(['\n', '\r']).to_string())
    }
}

/// [`Connector`] opening TCP connections to a live server address.
pub struct TcpConnector {
    addr: SocketAddr,
}

impl TcpConnector {
    /// Connect workers to `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        TcpConnector { addr }
    }
}

impl Connector for TcpConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("{}: {e}", self.addr))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Box::new(Tcp {
            reader,
            writer: BufWriter::new(stream),
        }))
    }
}

/// Replay knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReplayOptions {
    /// Worker connections for read blocks (writes always serialize).
    pub concurrency: usize,
    /// Times each read request is issued (read scale-factor).
    pub scale: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            concurrency: 1,
            scale: 1,
        }
    }
}

/// What a replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// One reply per trace line, in trace order (first copy under
    /// scaling).
    pub replies: Vec<String>,
    /// Executed requests (writes + reads × scale).
    pub requests: usize,
    /// Read requests in the trace (distinct lines, before scaling).
    pub reads: usize,
    /// Mutating requests in the trace.
    pub writes: usize,
}

/// Load the scenario's EDB and register its views on a fresh session —
/// the setup phase that precedes every trace replay and recording.
pub fn setup_session(session: &mut Session, scenario: &Scenario) -> Result<(), String> {
    if !scenario.edb.is_empty() {
        session
            .load(&scenario.edb)
            .map_err(|e| format!("{}: loading edb: {e}", scenario.name))?;
    }
    for view in &scenario.views {
        let result = if view.kind == "algebra" {
            session.register_algebra(&view.name, &view.program)
        } else {
            let semantics = algrec_serve::parse_semantics(&view.semantics)?;
            let pin = algrec_serve::StrategyPin::parse(&view.strategy).ok_or_else(|| {
                format!("{}: unknown strategy `{}`", scenario.name, view.strategy)
            })?;
            session.register_datalog_pinned(&view.name, &view.program, semantics, pin)
        };
        result.map_err(|e| format!("{}: registering view `{}`: {e}", scenario.name, view.name))?;
    }
    Ok(())
}

/// Replay `scenario`'s trace through `connect` under the block
/// discipline documented at module level. The session behind the
/// connector must already be set up ([`setup_session`]).
pub fn replay(
    scenario: &Scenario,
    connect: &dyn Connector,
    opts: ReplayOptions,
) -> Result<ReplayOutcome, String> {
    assert!(opts.concurrency >= 1, "concurrency must be at least 1");
    assert!(opts.scale >= 1, "scale must be at least 1");
    let reads: Vec<bool> = scenario
        .trace
        .iter()
        .map(|line| is_read_request(line))
        .collect();
    let mut workers: Vec<Box<dyn Transport>> = (0..opts.concurrency)
        .map(|_| connect.connect())
        .collect::<Result<_, _>>()?;

    let mut replies: Vec<Option<String>> = vec![None; scenario.trace.len()];
    let mut requests = 0;
    let mut i = 0;
    while i < scenario.trace.len() {
        if !reads[i] {
            let reply = workers[0].roundtrip(&scenario.trace[i])?;
            requests += 1;
            replies[i] = Some(reply);
            i += 1;
            continue;
        }
        // Maximal read block [i, j): fan out across all workers.
        let mut j = i + 1;
        while j < scenario.trace.len() && reads[j] {
            j += 1;
        }
        let next = AtomicUsize::new(i);
        let results: Vec<Result<BlockSlice, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|worker| {
                    let next = &next;
                    let trace = &scenario.trace;
                    scope.spawn(move || -> Result<BlockSlice, String> {
                        let mut out = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= j {
                                return Ok(out);
                            }
                            let mut first: Option<String> = None;
                            for _ in 0..opts.scale {
                                let reply = worker.roundtrip(&trace[k])?;
                                match &first {
                                    None => first = Some(reply),
                                    Some(f) => {
                                        if strip_epoch(f) != strip_epoch(&reply) {
                                            return Err(format!(
                                                "scaled read replies diverge at trace \
                                                     line {}:\n  first: {f}\n  later: {reply}",
                                                k + 1
                                            ));
                                        }
                                    }
                                }
                            }
                            out.push((k, first.unwrap()));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        });
        for result in results {
            for (k, reply) in result? {
                replies[k] = Some(reply);
                requests += opts.scale;
            }
        }
        i = j;
    }
    let writes = reads.iter().filter(|r| !**r).count();
    Ok(ReplayOutcome {
        replies: replies
            .into_iter()
            .map(|r| r.expect("every trace line replied"))
            .collect(),
        requests,
        reads: scenario.trace.len() - writes,
        writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Scenario, ViewSpec};
    use algrec_value::Budget;
    use std::path::PathBuf;

    fn scenario(trace: &[&str]) -> Scenario {
        Scenario {
            name: "t".into(),
            dir: PathBuf::from("."),
            title: "t".into(),
            description: String::new(),
            tags: vec![],
            views: vec![ViewSpec {
                name: "paths".into(),
                program: "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).".into(),
                semantics: "stratified".into(),
                kind: "datalog".into(),
                strategy: "auto".into(),
            }],
            edb: "e(1, 2). e(2, 3).".into(),
            trace: trace.iter().map(|s| s.to_string()).collect(),
            expected: None,
        }
    }

    const TRACE: [&str; 5] = [
        r#"{"id": 1, "op": "query", "view": "paths", "pred": "tc"}"#,
        r#"{"id": 2, "op": "assert", "fact": "e(3, 4)"}"#,
        r#"{"id": 3, "op": "query", "view": "paths", "pred": "tc"}"#,
        r#"{"id": 4, "op": "db"}"#,
        r#"{"id": 5, "op": "stats", "view": "paths"}"#,
    ];

    fn run(concurrency: usize, scale: usize) -> ReplayOutcome {
        let s = scenario(&TRACE);
        let mut session = Session::new(Budget::LARGE);
        setup_session(&mut session, &s).unwrap();
        let connector = InProcessConnector::new(session);
        replay(&s, &connector, ReplayOptions { concurrency, scale }).unwrap()
    }

    #[test]
    fn strip_epoch_removes_exactly_the_epoch_field() {
        assert_eq!(
            strip_epoch(r#"{"epoch":12,"id":1,"ok":true}"#),
            r#"{"id":1,"ok":true}"#
        );
        assert_eq!(
            strip_epoch(r#"{"certain":["tc(1, 2)."],"epoch":3,"id":1}"#),
            r#"{"certain":["tc(1, 2)."],"id":1}"#
        );
        assert_eq!(
            strip_epoch(r#"{"id":1,"ok":true}"#),
            r#"{"id":1,"ok":true}"#
        );
    }

    #[test]
    fn replay_is_deterministic_modulo_epoch_across_concurrency_and_scale() {
        let base = run(1, 1);
        assert_eq!(base.reads, 4);
        assert_eq!(base.writes, 1);
        assert_eq!(base.requests, 5);
        assert!(base.replies[2].contains("tc(1, 4)."), "{}", base.replies[2]);
        for (c, scale) in [(2, 1), (4, 1), (4, 3)] {
            let out = run(c, scale);
            let trace: Vec<String> = TRACE.iter().map(|s| s.to_string()).collect();
            assert_eq!(
                diff_modulo_epoch(&trace, &base.replies, &out.replies),
                None,
                "concurrency {c} scale {scale}"
            );
            assert_eq!(out.requests, base.writes + base.reads * scale);
        }
    }

    #[test]
    fn diff_reports_the_first_divergence() {
        let trace = vec!["{\"id\":1}".to_string()];
        let expected = vec![r#"{"epoch":1,"id":1,"ok":true}"#.to_string()];
        let actual = vec![r#"{"epoch":2,"id":1,"ok":false}"#.to_string()];
        let d = diff_modulo_epoch(&trace, &expected, &actual).unwrap();
        assert_eq!(d.index, 0);
        assert_eq!(d.expected, r#"{"id":1,"ok":true}"#);
        assert_eq!(d.actual, r#"{"id":1,"ok":false}"#);
        // Epoch-only differences are not divergences.
        assert_eq!(
            diff_modulo_epoch(
                &trace,
                &[r#"{"epoch":1,"id":1,"ok":true}"#.to_string()],
                &[r#"{"epoch":9,"id":1,"ok":true}"#.to_string()]
            ),
            None
        );
    }
}
