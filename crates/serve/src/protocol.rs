//! The NDJSON line protocol and the shared semantics-name parser.
//!
//! One request per line, one reply per line. A request is a JSON object:
//!
//! ```text
//! {"id": <any>, "op": "<operation>", ...operands}
//! ```
//!
//! and every reply echoes the request id:
//!
//! ```text
//! {"id": <any>, "ok": true,  ...payload}
//! {"id": <any>, "ok": false, "error": {"code": "<code>", "message": "…"}}
//! ```
//!
//! Operations (operands in parentheses): `ping` (optional
//! `health: true` for a structured relation/fact/view-count report),
//! `load` (`facts`),
//! `register` (`view`, `program`, optional `semantics`, optional
//! `strategy: "auto" | "incremental" | "recompute"` to pin the
//! three-valued maintainer, optional `kind: "algebra"`, which takes
//! neither `semantics` nor `strategy`), `assert` / `retract` (`fact` or
//! `facts`),
//! `query` (`view`, optional `pred`), `explain` (`view`), `stats`
//! (optional `view`), `views`, `db`, `unregister` (`view`), `shutdown`.
//!
//! Replies only carry the *deterministic* statistics subset
//! ([`OpStats`]): iteration counts, derivation work, materialized sizes
//! and delta rounds — never wall-clock times or interner sizes — so a
//! scripted session can be diffed against a golden transcript byte for
//! byte.
//!
//! **Epochs.** Every reply carries an `epoch` field (keys serialize
//! sorted, like all [`Json`] objects): the snapshot version the request
//! was answered at. Read-only
//! operations (`ping`, `query`, `explain`, `stats`, `views`, `db`,
//! `shutdown`)
//! resolve against the current [`ReadView`] snapshot without taking the
//! session writer lock and report that snapshot's epoch; mutating
//! operations serialize through [`SharedSession::with_writer`] and
//! report the epoch their commit published. A `query` against a view the
//! snapshot recorded as *dirty* transparently falls back to the writer
//! (which rebuilds the view, publishing a new epoch). Transport-level
//! errors ([`transport_error`]) carry no epoch — they are detected
//! before any session state is consulted.

use crate::json::{self, Json};
use crate::session::{
    Answer, AnswerLines, DeltaOutcome, OpStats, QueryAnswer, ReadView, ServeError, Session,
    StrategyPin, ViewReport, ViewStats,
};
use crate::shared::SharedSession;
use algrec_datalog::Semantics;
use std::collections::BTreeMap;

/// Parse a semantics name as accepted by `algrec eval --semantics` and
/// the protocol's `register` operation. The extended valid semantics
/// takes an optional branching cap: `valid-extended:N` (default 16).
pub fn parse_semantics(s: &str) -> Result<Semantics, String> {
    if let Some(rest) = s.strip_prefix("valid-extended:") {
        let cap: usize = rest.parse().map_err(|_| {
            format!(
                "invalid cap `{rest}` in `{s}`; expected a non-negative integer, \
                 as in `valid-extended:32`"
            )
        })?;
        return Ok(Semantics::ValidExtended(cap));
    }
    Ok(match s {
        "naive" => Semantics::Naive,
        "semi-naive" => Semantics::SemiNaive,
        "stratified" => Semantics::Stratified,
        "inflationary" => Semantics::Inflationary,
        "well-founded" => Semantics::WellFounded,
        "valid" => Semantics::Valid,
        "valid-extended" => Semantics::ValidExtended(16),
        other => {
            return Err(format!(
                "unknown semantics `{other}`; expected one of: naive, semi-naive, \
                 stratified, inflationary, well-founded, valid, valid-extended, \
                 valid-extended:<N>"
            ))
        }
    })
}

/// The canonical name of a semantics, inverse of [`parse_semantics`].
pub fn semantics_name(s: Semantics) -> String {
    match s {
        Semantics::Naive => "naive".into(),
        Semantics::SemiNaive => "semi-naive".into(),
        Semantics::Stratified => "stratified".into(),
        Semantics::Inflationary => "inflationary".into(),
        Semantics::WellFounded => "well-founded".into(),
        Semantics::Valid => "valid".into(),
        Semantics::ValidExtended(cap) => format!("valid-extended:{cap}"),
    }
}

/// Result of handling one protocol line.
pub enum Handled {
    /// An ordinary reply line.
    Reply(String),
    /// The reply line for a `shutdown` request; the server should stop
    /// accepting after sending it.
    Shutdown(String),
}

impl Handled {
    /// The reply line either way.
    pub fn line(&self) -> &str {
        match self {
            Handled::Reply(s) | Handled::Shutdown(s) => s,
        }
    }
}

fn stats_json(s: &OpStats) -> Json {
    Json::obj([
        ("iterations", Json::Int(s.iterations as i64)),
        ("facts_inserted", Json::Int(s.facts_inserted as i64)),
        ("facts_materialized", Json::Int(s.facts_materialized as i64)),
        ("deltas", Json::Int(s.deltas as i64)),
        ("fallbacks", Json::Int(s.fallbacks as i64)),
    ])
}

fn view_report_json(r: &ViewReport) -> Json {
    let mut obj = vec![
        ("view", Json::str(r.view.clone())),
        ("status", Json::str(r.status.as_str())),
        ("changed", Json::Int(r.changed as i64)),
        ("skipped", Json::Int(r.skipped as i64)),
        ("stats", stats_json(&r.stats)),
    ];
    if let Some(e) = &r.error {
        obj.push(("error", Json::str(e.clone())));
    }
    Json::obj(obj)
}

fn delta_json(out: &DeltaOutcome) -> Vec<(&'static str, Json)> {
    vec![
        ("requested", Json::Int(out.requested as i64)),
        ("applied", Json::Int(out.applied as i64)),
        (
            "views",
            Json::Arr(out.views.iter().map(view_report_json).collect()),
        ),
    ]
}

fn view_stats_json(v: &ViewStats) -> Json {
    Json::obj([
        ("name", Json::str(v.name.clone())),
        ("kind", Json::str(v.kind)),
        ("semantics", Json::str(v.semantics.clone())),
        ("strategy", Json::str(v.strategy)),
        ("dirty", Json::Bool(v.dirty)),
        ("deltas_applied", Json::Int(v.deltas_applied as i64)),
        ("strata_skipped", Json::Int(v.strata_skipped as i64)),
        ("rebuilds", Json::Int(v.rebuilds as i64)),
        ("registration", stats_json(&v.registration)),
        ("last", v.last.as_ref().map_or(Json::Null, stats_json)),
        ("cumulative", stats_json(&v.cumulative)),
    ])
}

/// An algebra view's `query` payload: one string plus the constants,
/// small enough to go through the [`Json`] tree. A datalog answer from
/// a snapshot is copied out of its runs by [`datalog_reply`].
fn query_json(
    query: &str,
    well_defined: bool,
    constants: &BTreeMap<String, String>,
) -> Vec<(&'static str, Json)> {
    vec![
        ("query", Json::str(query)),
        ("well_defined", Json::Bool(well_defined)),
        (
            "constants",
            Json::Obj(
                constants
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
    ]
}

/// A datalog view's `query` reply from a snapshot:
/// `{"certain":[…],"epoch":N,"id":…,"ok":true,"unknown":[…]}`, each
/// array the runs' JSON elements joined by commas. The runs were escaped
/// when their lines entered, so the reply is copied, not encoded, into
/// one buffer sized from the runs' byte counts. The keys are in the
/// order a [`Json`] object sorts them, so the bytes are those of
/// [`query_reply`] over the same lines.
fn datalog_reply(
    id: &Json,
    epoch: u64,
    certain: &AnswerLines<'_>,
    unknown: &AnswerLines<'_>,
) -> String {
    let (certain, unknown) = (certain.runs(), unknown.runs());
    let arrays_len: usize = certain
        .clone()
        .chain(unknown.clone())
        .map(|run| run.len() + 1)
        .sum();
    let mut out = String::with_capacity(arrays_len + 64);
    out.push_str("{\"certain\":");
    array_into(certain, &mut out);
    out.push_str(",\"epoch\":");
    Json::Int(epoch as i64).write_into(&mut out);
    out.push_str(",\"id\":");
    id.write_into(&mut out);
    out.push_str(",\"ok\":true,\"unknown\":");
    array_into(unknown, &mut out);
    out.push('}');
    out
}

/// A JSON array of runs of elements.
fn array_into<'a>(runs: impl Iterator<Item = &'a str>, out: &mut String) {
    out.push('[');
    for (i, run) in runs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(run);
    }
    out.push(']');
}

/// The reply to a `query` whose answer the writer computed, or an
/// algebra view's: the lines go through the [`Json`] tree.
fn query_reply(id: Json, epoch: u64, answer: &QueryAnswer) -> String {
    let fields = match answer {
        QueryAnswer::Datalog { certain, unknown } => vec![
            (
                "certain",
                Json::Arr(certain.iter().map(Json::str).collect()),
            ),
            (
                "unknown",
                Json::Arr(unknown.iter().map(Json::str).collect()),
            ),
        ],
        QueryAnswer::Algebra {
            query,
            well_defined,
            constants,
        } => query_json(query, *well_defined, constants),
    };
    ok_reply(id, epoch, fields)
}

/// What a successful operation answers, beside the reply envelope.
enum Payload<'v> {
    /// The fields of a [`Json`] object.
    Fields(Vec<(&'static str, Json)>),
    /// A `query` answer borrowed from a snapshot.
    Snapshot(Answer<'v>),
    /// A `query` answer the writer computed.
    Owned(QueryAnswer),
}

impl Payload<'_> {
    fn reply(self, id: Json, epoch: u64) -> String {
        match self {
            Payload::Fields(fields) => ok_reply(id, epoch, fields),
            Payload::Snapshot(Answer::Datalog { certain, unknown }) => {
                datalog_reply(&id, epoch, &certain, &unknown)
            }
            Payload::Snapshot(Answer::Algebra(answer)) => query_reply(id, epoch, answer),
            Payload::Owned(answer) => query_reply(id, epoch, &answer),
        }
    }
}

/// An `explain` payload: the rendered plan, one line per array element.
fn plan_json(plan: &str) -> Vec<(&'static str, Json)> {
    vec![("plan", Json::Arr(plan.lines().map(Json::str).collect()))]
}

fn ok_reply(id: Json, epoch: u64, payload: Vec<(&'static str, Json)>) -> String {
    let mut obj = vec![
        ("id", id),
        ("ok", Json::Bool(true)),
        ("epoch", Json::Int(epoch as i64)),
    ];
    obj.extend(payload);
    Json::obj(obj).to_string()
}

fn err_reply(id: Json, epoch: Option<u64>, code: &str, message: &str) -> String {
    let mut obj = vec![("id", id), ("ok", Json::Bool(false))];
    if let Some(e) = epoch {
        obj.push(("epoch", Json::Int(e as i64)));
    }
    obj.push((
        "error",
        Json::obj([
            ("code", Json::str(code.to_string())),
            ("message", Json::str(message.to_string())),
        ]),
    ));
    Json::obj(obj).to_string()
}

/// An error reply with a `null` id, for failures the transport detects
/// before a request line can be parsed at all (over-long lines, invalid
/// UTF-8). One reply per offending line, same shape as every other error.
/// Carries no epoch: the failure precedes any look at session state.
pub fn transport_error(code: &str, message: &str) -> String {
    err_reply(Json::Null, None, code, message)
}

/// An error reply for a request line the server refuses to process —
/// the request id is echoed when the line parses far enough to have
/// one, so a pipelining client can match the refusal to its request.
/// Carries no epoch: no session state was consulted. Used for
/// `shutting-down`, and by the cluster front-ends for `read-only`
/// (a write sent to a replica) and `stale` (a read whose pinned epoch
/// vector the backend has not yet caught up to).
pub fn error_reply_for(line: &str, code: &str, message: &str) -> String {
    let id = json::parse(line)
        .ok()
        .and_then(|req| req.get("id").cloned())
        .unwrap_or(Json::Null);
    err_reply(id, None, code, message)
}

/// The reply for a request line received after the server has begun
/// shutting down: the request is *not* processed, only answered.
pub fn shutting_down_reply(line: &str) -> String {
    error_reply_for(
        line,
        "shutting-down",
        "server is shutting down; request was not processed",
    )
}

fn str_field<'a>(req: &'a Json, key: &str) -> Result<&'a str, ServeError> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest(format!("missing string field `{key}`")))
}

/// Collect the facts of an `assert`/`retract` request: either a single
/// `fact` string or a `facts` array of strings, never both.
fn fact_sources(req: &Json) -> Result<Vec<String>, ServeError> {
    if req.get("fact").is_some() && req.get("facts").is_some() {
        return Err(ServeError::BadRequest(
            "expected a `fact` string or a `facts` array, not both".into(),
        ));
    }
    if let Some(f) = req.get("fact").and_then(Json::as_str) {
        return Ok(vec![f.to_string()]);
    }
    match req.get("facts") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ServeError::BadRequest("`facts` must be strings".into()))
            })
            .collect(),
        _ => Err(ServeError::BadRequest(
            "expected a `fact` string or a `facts` array".into(),
        )),
    }
}

/// The `ping` reply payload. A plain ping answers exactly
/// `{"pong": true}` (plus the envelope) — that byte shape is pinned by
/// golden transcripts and recorded scenarios, so the structured health
/// report is opt-in: a request carrying `"health": true` additionally
/// reports the relation count, total fact count, and registered-view
/// count of the snapshot (or session) answering it. The reply epoch in
/// the envelope tags which snapshot the report describes.
fn ping_payload(
    req: &Json,
    summary: &[(String, usize)],
    views: usize,
) -> Vec<(&'static str, Json)> {
    if !matches!(req.get("health"), Some(Json::Bool(true))) {
        return vec![("pong", Json::Bool(true))];
    }
    let facts: usize = summary.iter().map(|(_, n)| n).sum();
    vec![
        ("pong", Json::Bool(true)),
        ("relations", Json::Int(summary.len() as i64)),
        ("facts", Json::Int(facts as i64)),
        ("views", Json::Int(views as i64)),
    ]
}

/// Operations answerable from a published [`ReadView`] snapshot, without
/// taking the session writer lock. Public because the cluster layer
/// classifies requests the same way: reads are fair game for replicas
/// and the router's replica fan-out; everything else must reach the
/// primary's writer.
pub fn is_read_op(op: &str) -> bool {
    matches!(
        op,
        "ping" | "query" | "explain" | "stats" | "views" | "db" | "shutdown"
    )
}

/// Answer a read-only operation from a snapshot. `Ok(None)` means the
/// snapshot cannot serve it — a `query` against a view that was dirty
/// when the snapshot was taken — and the caller must fall back to the
/// writer, which rebuilds the view.
fn dispatch_read<'v>(
    view: &'v ReadView,
    op: &str,
    req: &Json,
) -> Result<Option<Payload<'v>>, ServeError> {
    let fields = match op {
        "ping" => ping_payload(req, view.db_summary(), view.view_names().len()),
        "query" => {
            let name = str_field(req, "view")?;
            let pred = req.get("pred").and_then(Json::as_str);
            return Ok(view.answer(name, pred)?.map(Payload::Snapshot));
        }
        "explain" => plan_json(&view.explain(str_field(req, "view")?)?),
        "stats" => {
            let name = req.get("view").and_then(Json::as_str);
            let stats = view.stats(name)?;
            vec![(
                "views",
                Json::Arr(stats.iter().map(view_stats_json).collect()),
            )]
        }
        "views" => vec![(
            "views",
            Json::Arr(
                view.view_names()
                    .iter()
                    .map(|(name, kind, semantics, strategy)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("kind", Json::str(*kind)),
                            ("semantics", Json::str(semantics.clone())),
                            ("strategy", Json::str(*strategy)),
                        ])
                    })
                    .collect(),
            ),
        )],
        "db" => vec![(
            "relations",
            Json::Arr(
                view.db_summary()
                    .iter()
                    .map(|(name, members)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("members", Json::Int(*members as i64)),
                        ])
                    })
                    .collect(),
            ),
        )],
        "shutdown" => vec![("bye", Json::Bool(true))],
        other => return Err(ServeError::BadRequest(format!("unknown op `{other}`"))),
    };
    Ok(Some(Payload::Fields(fields)))
}

fn dispatch(session: &mut Session, req: &Json) -> Result<Payload<'static>, ServeError> {
    let op = str_field(req, "op")?;
    let fields = match op {
        "ping" => ping_payload(req, &session.db_summary(), session.view_names().len()),
        "load" => delta_json(&session.load(str_field(req, "facts")?)?),
        "register" => {
            let view = str_field(req, "view")?;
            let program = str_field(req, "program")?;
            let kind = req.get("kind").and_then(Json::as_str).unwrap_or("datalog");
            let out = match kind {
                "algebra" => {
                    // Always the valid semantics, on the engine the
                    // planner picks: say so rather than ignore the operand.
                    if let Some(operand) = ["semantics", "strategy"]
                        .into_iter()
                        .find(|operand| req.get(operand).is_some())
                    {
                        return Err(ServeError::BadRequest(format!(
                            "an algebra view takes no `{operand}`"
                        )));
                    }
                    session.register_algebra(view, program)?
                }
                "datalog" => {
                    let semantics = match req.get("semantics").and_then(Json::as_str) {
                        Some(s) => parse_semantics(s).map_err(ServeError::BadRequest)?,
                        None => Semantics::Valid,
                    };
                    let pin = match req.get("strategy").and_then(Json::as_str) {
                        Some(s) => StrategyPin::parse(s).ok_or_else(|| {
                            ServeError::BadRequest(format!(
                                "unknown strategy `{s}`; expected one of: auto, incremental, \
                                 recompute"
                            ))
                        })?,
                        None => StrategyPin::Auto,
                    };
                    session.register_datalog_pinned(view, program, semantics, pin)?
                }
                other => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown view kind `{other}` (expected `datalog` or `algebra`)"
                    )))
                }
            };
            vec![
                ("strategy", Json::str(out.strategy)),
                ("stats", stats_json(&out.stats)),
            ]
        }
        "assert" | "retract" => {
            let mut facts = Vec::new();
            for src in fact_sources(req)? {
                facts.push(
                    algrec_datalog::parse_fact(&src)
                        .map_err(|e| ServeError::Parse(e.to_string()))?,
                );
            }
            let out = if op == "assert" {
                session.apply(&facts, &[])?
            } else {
                session.apply(&[], &facts)?
            };
            delta_json(&out)
        }
        "query" => {
            let view = str_field(req, "view")?;
            let pred = req.get("pred").and_then(Json::as_str);
            return Ok(Payload::Owned(session.query(view, pred)?));
        }
        "explain" => plan_json(&session.explain(str_field(req, "view")?)?),
        "stats" => {
            let view = req.get("view").and_then(Json::as_str);
            let stats = session.stats(view)?;
            vec![(
                "views",
                Json::Arr(stats.iter().map(view_stats_json).collect()),
            )]
        }
        "views" => vec![(
            "views",
            Json::Arr(
                session
                    .view_names()
                    .into_iter()
                    .map(|(name, kind, semantics, strategy)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("kind", Json::str(kind)),
                            ("semantics", Json::str(semantics)),
                            ("strategy", Json::str(strategy)),
                        ])
                    })
                    .collect(),
            ),
        )],
        "db" => vec![(
            "relations",
            Json::Arr(
                session
                    .db_summary()
                    .into_iter()
                    .map(|(name, members)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("members", Json::Int(members as i64)),
                        ])
                    })
                    .collect(),
            ),
        )],
        "unregister" => {
            session.unregister(str_field(req, "view")?)?;
            vec![("removed", Json::Bool(true))]
        }
        "shutdown" => vec![("bye", Json::Bool(true))],
        other => return Err(ServeError::BadRequest(format!("unknown op `{other}`"))),
    };
    Ok(Payload::Fields(fields))
}

/// Serialize one mutating request through the single-writer path,
/// rendering the committed epoch into the reply. A poisoned writer lock
/// becomes a structured `internal-error` reply (the poisoning incident
/// itself is traced by [`SharedSession::with_writer`]); reads remain
/// available, so the connection is not torn down.
fn write_path(shared: &SharedSession, id: Json, req: &Json) -> String {
    match shared.with_writer(|session| dispatch(session, req)) {
        Ok((Ok(payload), epoch)) => payload.reply(id, epoch),
        Ok((Err(e), epoch)) => err_reply(id, Some(epoch), e.code(), &e.to_string()),
        Err(poisoned) => err_reply(
            id,
            Some(shared.epoch()),
            "internal-error",
            &poisoned.to_string(),
        ),
    }
}

/// Handle one protocol line against the shared session, producing the
/// reply line (without trailing newline). Read-only operations resolve
/// against the current snapshot without blocking writers; mutating
/// operations serialize through the writer lock.
pub fn handle_line(shared: &SharedSession, line: &str) -> Handled {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Handled::Reply(err_reply(
                Json::Null,
                None,
                "bad-request",
                &format!("invalid JSON: {e}"),
            ))
        }
    };
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let op = req.get("op").and_then(Json::as_str).unwrap_or_default();
    let shutdown = op == "shutdown";
    let reply = if is_read_op(op) {
        let snap = shared.read();
        match dispatch_read(&snap.value, op, &req) {
            Ok(Some(payload)) => payload.reply(id, snap.epoch),
            // Dirty view: rebuild under the writer lock.
            Ok(None) => write_path(shared, id, &req),
            Err(e) => err_reply(id, Some(snap.epoch), e.code(), &e.to_string()),
        }
    } else {
        write_path(shared, id, &req)
    };
    if shutdown {
        Handled::Shutdown(reply)
    } else {
        Handled::Reply(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_value::{Budget, DatabaseDelta, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn parses_parameterized_semantics() {
        assert_eq!(parse_semantics("valid").unwrap(), Semantics::Valid);
        assert_eq!(
            parse_semantics("valid-extended").unwrap(),
            Semantics::ValidExtended(16)
        );
        assert_eq!(
            parse_semantics("valid-extended:3").unwrap(),
            Semantics::ValidExtended(3)
        );
        assert_eq!(
            parse_semantics("valid-extended:0").unwrap(),
            Semantics::ValidExtended(0)
        );
        let err = parse_semantics("valid-extended:x").unwrap_err();
        assert!(err.contains("valid-extended:32"), "{err}");
        let err = parse_semantics("weird").unwrap_err();
        assert!(err.contains("valid-extended:<N>"), "{err}");
        for s in [
            "naive",
            "semi-naive",
            "stratified",
            "inflationary",
            "well-founded",
            "valid",
            "valid-extended:7",
        ] {
            assert_eq!(semantics_name(parse_semantics(s).unwrap()), s);
        }
    }

    #[test]
    fn protocol_session_round_trip() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        let reply = handle_line(
            &shared,
            r#"{"id": 1, "op": "load", "facts": "e(1, 2). e(2, 3)."}"#,
        );
        assert!(reply.line().contains(r#""applied":2"#), "{}", reply.line());
        assert!(reply.line().contains(r#""ok":true"#), "{}", reply.line());
        assert!(reply.line().contains(r#""epoch":1"#), "{}", reply.line());

        let reply = handle_line(
            &shared,
            r#"{"id": 2, "op": "register", "view": "paths", "program": "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."}"#,
        );
        assert!(
            reply
                .line()
                .contains(r#""strategy":"stratified-incremental""#),
            "{}",
            reply.line()
        );
        assert!(reply.line().contains(r#""epoch":2"#), "{}", reply.line());

        let reply = handle_line(&shared, r#"{"id": 3, "op": "assert", "fact": "e(3, 4)"}"#);
        assert!(
            reply.line().contains(r#""status":"maintained""#),
            "{}",
            reply.line()
        );
        assert!(reply.line().contains(r#""epoch":3"#), "{}", reply.line());

        // Reads answer from the snapshot at the last committed epoch.
        let reply = handle_line(
            &shared,
            r#"{"id": 4, "op": "query", "view": "paths", "pred": "tc"}"#,
        );
        assert!(reply.line().contains("tc(1, 4)."), "{}", reply.line());
        assert!(reply.line().contains(r#""ok":true"#), "{}", reply.line());
        assert!(reply.line().contains(r#""epoch":3"#), "{}", reply.line());

        let reply = handle_line(&shared, r#"{"id": 5, "op": "query", "view": "nope"}"#);
        assert!(
            reply.line().contains(r#""code":"unknown-view""#),
            "{}",
            reply.line()
        );
        assert!(reply.line().contains(r#""epoch":3"#), "{}", reply.line());

        let reply = handle_line(&shared, "not json");
        assert!(
            reply.line().contains(r#""code":"bad-request""#),
            "{}",
            reply.line()
        );
        assert!(!reply.line().contains("epoch"), "{}", reply.line());

        let reply = handle_line(&shared, r#"{"id": 6, "op": "shutdown"}"#);
        assert!(matches!(reply, Handled::Shutdown(_)));
        assert!(reply.line().contains(r#""bye":true"#));
        assert!(reply.line().contains(r#""epoch":3"#), "{}", reply.line());
    }

    #[test]
    fn explain_is_a_read_and_reports_the_plan() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        handle_line(&shared, r#"{"id": 1, "op": "load", "facts": "e(1, 2)."}"#);
        handle_line(
            &shared,
            r#"{"id": 2, "op": "register", "view": "paths", "program": "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."}"#,
        );
        let reply = handle_line(&shared, r#"{"id": 3, "op": "explain", "view": "paths"}"#);
        assert!(reply.line().contains(r#""plan":["#), "{}", reply.line());
        assert!(reply.line().contains("probe e/2 on Y"), "{}", reply.line());
        // Reads answer at the last committed epoch without bumping it.
        assert!(reply.line().contains(r#""epoch":2"#), "{}", reply.line());
        let reply = handle_line(&shared, r#"{"id": 4, "op": "explain", "view": "nope"}"#);
        assert!(
            reply.line().contains(r#""code":"unknown-view""#),
            "{}",
            reply.line()
        );
        assert!(reply.line().contains(r#""epoch":2"#), "{}", reply.line());
    }

    #[test]
    fn fact_and_facts_together_are_a_bad_request() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        for op in ["assert", "retract"] {
            let reply = handle_line(
                &shared,
                &format!(r#"{{"id": 5, "op": "{op}", "fact": "e(1, 2)", "facts": ["e(3, 4)"]}}"#),
            );
            assert!(
                reply.line().contains(r#""code":"bad-request""#),
                "{}",
                reply.line()
            );
            assert!(reply.line().contains("not both"), "{}", reply.line());
        }
        // Neither fact reached the database.
        let reply = handle_line(&shared, r#"{"id": 6, "op": "db"}"#);
        assert!(
            reply.line().contains(r#""relations":[]"#),
            "{}",
            reply.line()
        );
    }

    #[test]
    fn reads_do_not_take_the_writer_lock() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        handle_line(&shared, r#"{"id": 1, "op": "load", "facts": "e(1, 2)."}"#);
        // Wedge the writer lock for the duration; snapshot reads must
        // still answer immediately.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        // Collect inside the scope, assert after: a failed assertion
        // inside would leave the wedge thread blocked and the scope's
        // implicit join deadlocked.
        let replies: Vec<String> = std::thread::scope(|scope| {
            let shared_ref = &shared;
            scope.spawn(move || {
                let _ = shared_ref.with_writer(|_| {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            });
            held_rx.recv().unwrap();
            let replies = [
                r#"{"id": 2, "op": "ping"}"#,
                r#"{"id": 3, "op": "db"}"#,
                r#"{"id": 4, "op": "views"}"#,
                r#"{"id": 5, "op": "stats"}"#,
            ]
            .iter()
            .map(|line| handle_line(&shared, line).line().to_string())
            .collect();
            release_tx.send(()).unwrap();
            replies
        });
        for reply in replies {
            assert!(reply.contains(r#""ok":true"#), "{reply}");
            assert!(reply.contains(r#""epoch":1"#), "{reply}");
        }
    }

    #[test]
    fn poisoned_writer_yields_internal_error_but_reads_survive() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        handle_line(&shared, r#"{"id": 1, "op": "load", "facts": "e(1, 2)."}"#);
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _ = shared.with_writer(|_| panic!("boom"));
                })
                .join()
        });
        let reply = handle_line(&shared, r#"{"id": 2, "op": "assert", "fact": "e(2, 3)"}"#);
        assert!(
            reply.line().contains(r#""code":"internal-error""#),
            "{}",
            reply.line()
        );
        assert!(reply.line().contains(r#""epoch":1"#), "{}", reply.line());
        // Reads keep serving the last consistent snapshot.
        let reply = handle_line(&shared, r#"{"id": 3, "op": "db"}"#);
        assert!(
            reply.line().contains(r#""members":1,"name":"e""#),
            "{}",
            reply.line()
        );
    }

    #[test]
    fn shutting_down_reply_echoes_the_request_id() {
        let line = shutting_down_reply(r#"{"id": 41, "op": "assert", "fact": "e(1, 2)"}"#);
        assert!(line.contains(r#""id":41"#), "{line}");
        assert!(line.contains(r#""code":"shutting-down""#), "{line}");
        assert!(!line.contains("epoch"), "{line}");
        let line = shutting_down_reply("not json");
        assert!(line.contains(r#""id":null"#), "{line}");
    }

    #[test]
    fn error_reply_for_carries_the_given_code() {
        let line = error_reply_for(
            r#"{"id": 7, "op": "assert", "fact": "e(1, 2)"}"#,
            "read-only",
            "replica refuses writes",
        );
        assert!(line.contains(r#""id":7"#), "{line}");
        assert!(line.contains(r#""code":"read-only""#), "{line}");
        assert!(line.contains("replica refuses writes"), "{line}");
        assert!(!line.contains("epoch"), "{line}");
    }

    #[test]
    fn plain_ping_bytes_are_stable_and_health_is_opt_in() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        handle_line(
            &shared,
            r#"{"id": 1, "op": "load", "facts": "e(1, 2). e(2, 3). f(9)."}"#,
        );
        handle_line(
            &shared,
            r#"{"id": 2, "op": "register", "view": "paths", "program": "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."}"#,
        );
        // The plain reply shape is pinned by golden transcripts and
        // recorded scenarios: exactly id, ok, epoch, pong.
        let reply = handle_line(&shared, r#"{"id": 3, "op": "ping"}"#);
        assert_eq!(reply.line(), r#"{"epoch":2,"id":3,"ok":true,"pong":true}"#);
        let reply = handle_line(&shared, r#"{"id": 4, "op": "ping", "health": true}"#);
        assert_eq!(
            reply.line(),
            r#"{"epoch":2,"facts":3,"id":4,"ok":true,"pong":true,"relations":2,"views":1}"#
        );
        // Anything but literal `true` keeps the plain shape.
        let reply = handle_line(&shared, r#"{"id": 5, "op": "ping", "health": 1}"#);
        assert_eq!(reply.line(), r#"{"epoch":2,"id":5,"ok":true,"pong":true}"#);
    }

    #[test]
    fn replies_expose_only_deterministic_stats() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        handle_line(&shared, r#"{"id": 1, "op": "load", "facts": "e(1, 2)."}"#);
        let reply = handle_line(
            &shared,
            r#"{"id": 2, "op": "register", "view": "v", "program": "p(X) :- e(X, Y)."}"#,
        );
        let line = reply.line();
        for banned in ["wall", "interned", "probes"] {
            assert!(
                !line.contains(banned),
                "nondeterministic field `{banned}` in {line}"
            );
        }
        for required in [
            "iterations",
            "facts_inserted",
            "facts_materialized",
            "deltas",
            "fallbacks",
        ] {
            assert!(line.contains(required), "missing `{required}` in {line}");
        }
    }

    /// `query_json` as it was before datalog replies were encoded from
    /// borrowed lines: the oracle [`datalog_reply`] must match byte for
    /// byte, and the algebra arm the current `query_json` must match.
    fn oracle(answer: &QueryAnswer) -> Vec<(&'static str, Json)> {
        match answer {
            QueryAnswer::Datalog { certain, unknown } => vec![
                (
                    "certain",
                    Json::Arr(certain.iter().map(Json::str).collect()),
                ),
                (
                    "unknown",
                    Json::Arr(unknown.iter().map(Json::str).collect()),
                ),
            ],
            QueryAnswer::Algebra {
                query,
                well_defined,
                constants,
            } => vec![
                ("query", Json::str(query.clone())),
                ("well_defined", Json::Bool(*well_defined)),
                (
                    "constants",
                    Json::Obj(
                        constants
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                            .collect(),
                    ),
                ),
            ],
        }
    }

    #[test]
    fn streamed_query_replies_match_the_json_tree() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        // A string constant needing every escape, and non-ASCII text.
        let odd = "q\"b\\s\n\tx\u{1}é😀";
        let load = Json::obj([
            ("id", Json::Int(1)),
            ("op", Json::str("load")),
            (
                "facts",
                Json::str(format!(
                    "e(1, 2). e(2, 3). s('{odd}'). s(plain). m(1, 2). m(2, 1). m(2, 3)."
                )),
            ),
        ]);
        let reply = handle_line(&shared, &load.to_string());
        assert!(reply.line().contains(r#""applied":7"#), "{}", reply.line());
        let register = [
            (
                "paths",
                "datalog",
                "stratified",
                "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\nt(X) :- s(X).",
            ),
            (
                "game",
                "datalog",
                "valid",
                "win(X) :- m(X, Y), not win(Y).\nodd(X) :- s(X), not odd(X).",
            ),
            ("alg", "algebra", "valid", "query e;"),
        ];
        for (view, kind, semantics, program) in register {
            let mut fields = vec![
                ("id", Json::Int(2)),
                ("op", Json::str("register")),
                ("view", Json::str(view)),
                ("kind", Json::str(kind)),
                ("program", Json::str(program)),
            ];
            if kind == "datalog" {
                fields.push(("semantics", Json::str(semantics)));
            }
            let line = Json::obj(fields);
            let reply = handle_line(&shared, &line.to_string());
            assert!(reply.line().contains(r#""ok":true"#), "{}", reply.line());
        }
        let ids = [
            Json::Null,
            Json::Bool(false),
            Json::Int(-7),
            Json::Float(2.5),
            Json::str("id \"quoted\"\n\u{1f}é"),
            Json::Arr(vec![Json::Int(1), Json::str("two")]),
            Json::obj([("k", Json::Arr(vec![])), ("a", Json::Null)]),
        ];
        let queries: [(&str, Option<&str>); 9] = [
            ("paths", Some("tc")),
            ("paths", Some("t")),
            ("paths", None),
            ("paths", Some("nope")),
            ("game", Some("win")),
            ("game", Some("odd")),
            ("game", None),
            ("game", Some("nope")),
            ("alg", None),
        ];
        let mut seen_unknown = false;
        for id in &ids {
            for (view, pred) in queries {
                let mut req = vec![
                    ("id", id.clone()),
                    ("op", Json::str("query")),
                    ("view", Json::str(view)),
                ];
                if let Some(p) = pred {
                    req.push(("pred", Json::str(p)));
                }
                let line = Json::obj(req).to_string();
                let context = format!("{view} {pred:?} id {id}");

                // The snapshot path.
                let snap = shared.read();
                let answer = snap.value.query(view, pred).unwrap().expect("clean view");
                seen_unknown |=
                    matches!(&answer, QueryAnswer::Datalog { unknown, .. } if !unknown.is_empty());
                let reply = handle_line(&shared, &line);
                assert_eq!(
                    reply.line(),
                    ok_reply(id.clone(), snap.epoch, oracle(&answer)),
                    "{context}"
                );

                // The writer fallback for a view the snapshot holds dirty.
                shared.with_writer(|s| s.mark_dirty(view)).unwrap();
                assert!(shared.read().value.answer(view, pred).unwrap().is_none());
                let reply = handle_line(&shared, &line);
                let epoch = shared.epoch();
                let (live, _) = shared.with_writer(|s| s.query(view, pred)).unwrap();
                assert_eq!(
                    reply.line(),
                    ok_reply(id.clone(), epoch, oracle(&live.unwrap())),
                    "{context}"
                );
            }
        }
        assert!(seen_unknown);
        // The escapes themselves, spelled out.
        let reply = handle_line(
            &shared,
            r#"{"id": 3, "op": "query", "view": "game", "pred": "odd"}"#,
        );
        assert_eq!(
            reply.line(),
            format!(
                r#"{{"certain":[],"epoch":{},"id":3,"ok":true,"unknown":["odd(plain)","odd(q\"b\\s\n\tx\u0001é😀)"]}}"#,
                shared.epoch()
            )
        );
    }

    /// Text for a string constant: quotes, backslashes, every control
    /// byte and non-ASCII beside plain letters, either a few characters
    /// (or none) or longer than a leaf's lines are on average.
    fn text() -> impl Strategy<Value = String> {
        prop_oneof![
            "[\u{0}-\u{1f}\"\\az é\u{7f}😀]{0,4}",
            "[\u{0}-\u{1f}\"\\az é\u{7f}😀]{40,120}",
        ]
    }

    /// The view `copy` and the undefined view `open` over the strings of
    /// `held`: for every query, what a snapshot answers and what the
    /// reply sends.
    fn check_string_views(
        shared: &SharedSession,
        held: &BTreeSet<String>,
    ) -> Result<(), TestCaseError> {
        let lines = |pred: &str, period: &str| -> Vec<String> {
            held.iter()
                .map(|s| format!("{pred}({s}){period}"))
                .collect()
        };
        let datalog = |certain, unknown| QueryAnswer::Datalog { certain, unknown };
        let cases = [
            ("copy", Some("t"), datalog(lines("t", "."), vec![])),
            ("copy", Some("s"), datalog(lines("s", "."), vec![])),
            ("copy", None, datalog(lines("t", "."), vec![])),
            ("open", Some("odd"), datalog(vec![], lines("odd", ""))),
            ("open", None, datalog(vec![], lines("odd", ""))),
        ];
        let snap = shared.read();
        for (view, pred, want) in cases {
            // The snapshot's lines, read back from their JSON form.
            let answer = snap.value.query(view, pred).unwrap().expect("a clean view");
            prop_assert_eq!(&answer, &want, "{} {:?}", view, pred);
            let mut req = vec![
                ("id", Json::Int(9)),
                ("op", Json::str("query")),
                ("view", Json::str(view)),
            ];
            req.extend(pred.map(|p| ("pred", Json::str(p))));
            let reply = handle_line(shared, &Json::obj(req).to_string());
            prop_assert_eq!(
                reply.line(),
                ok_reply(Json::Int(9), snap.epoch, oracle(&answer)),
                "{} {:?}",
                view,
                pred
            );
            // Independently of the escaper both sides share: one line,
            // no raw control byte, and the parser reads the lines back.
            prop_assert!(reply.line().bytes().all(|b| b >= 0x20), "{}", reply.line());
            let mut tree = vec![
                ("id", Json::Int(9)),
                ("ok", Json::Bool(true)),
                ("epoch", Json::Int(snap.epoch as i64)),
            ];
            tree.extend(oracle(&want));
            prop_assert_eq!(json::parse(reply.line()), Ok(Json::obj(tree)));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lines are escaped once, into their leaf's run, when their fact
        /// enters. Whatever characters a string constant holds, a snapshot
        /// reply is the bytes of the `Json` tree over the lines, and
        /// `ReadView::query` reads the lines back as they were written —
        /// at registration, and after a retraction and an insertion that
        /// copy the lines that stay.
        #[test]
        fn any_string_replies_and_reads_back_as_published(
            first in prop::collection::vec(text(), 0..160),
            removed in prop::collection::vec(0usize..160, 0..8),
            added in prop::collection::vec(text(), 0..8),
        ) {
            let mut session = Session::new(Budget::LARGE);
            let mut delta = DatabaseDelta::new();
            for s in &first {
                delta.insert("s", Value::str(s));
            }
            session.apply_delta(&delta).unwrap();
            session
                .register_datalog("copy", "t(X) :- s(X).", Semantics::Stratified)
                .unwrap();
            session
                .register_datalog("open", "odd(X) :- s(X), not odd(X).", Semantics::Valid)
                .unwrap();
            let shared = SharedSession::new(session);
            let mut held: BTreeSet<String> = first.into_iter().collect();
            check_string_views(&shared, &held)?;

            let gone: BTreeSet<String> = removed
                .iter()
                .filter_map(|&k| held.iter().nth(k % held.len().max(1)).cloned())
                .collect();
            let mut delta = DatabaseDelta::new();
            for s in &gone {
                held.remove(s);
                delta.remove("s", Value::str(s));
            }
            shared.with_writer(|s| s.apply_delta(&delta)).unwrap().0.unwrap();
            check_string_views(&shared, &held)?;

            let mut delta = DatabaseDelta::new();
            for s in &added {
                held.insert(s.clone());
                delta.insert("s", Value::str(s));
            }
            shared.with_writer(|s| s.apply_delta(&delta)).unwrap().0.unwrap();
            check_string_views(&shared, &held)?;
        }
    }

    #[test]
    fn escaped_surrogate_pairs_load_as_one_character() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        let reply = handle_line(
            &shared,
            r#"{"id": 1, "op": "load", "facts": "p('\ud83d\ude00')."}"#,
        );
        assert!(reply.line().contains(r#""applied":1"#), "{}", reply.line());
        handle_line(
            &shared,
            r#"{"id": 2, "op": "register", "view": "v", "program": "q(X) :- p(X)."}"#,
        );
        let reply = handle_line(&shared, r#"{"id": 3, "op": "query", "view": "v"}"#);
        assert_eq!(
            reply.line(),
            r#"{"certain":["q(😀)."],"epoch":2,"id":3,"ok":true,"unknown":[]}"#
        );
        // A lone surrogate encodes no character: a structured refusal.
        let reply = handle_line(
            &shared,
            r#"{"id": 4, "op": "load", "facts": "p('\ud83d')."}"#,
        );
        assert!(
            reply.line().contains(r#""code":"bad-request""#),
            "{}",
            reply.line()
        );
        assert!(reply.line().contains("surrogate"), "{}", reply.line());
        assert_eq!(shared.epoch(), 2);
    }

    #[test]
    fn register_accepts_and_validates_strategy_pins() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        handle_line(&shared, r#"{"id": 1, "op": "load", "facts": "m(1, 2)."}"#);
        let reply = handle_line(
            &shared,
            r#"{"id": 2, "op": "register", "view": "g", "program": "w(X) :- m(X, Y), not w(Y).", "semantics": "valid", "strategy": "recompute"}"#,
        );
        assert!(
            reply.line().contains(r#""strategy":"recompute-levels""#),
            "{}",
            reply.line()
        );
        let reply = handle_line(
            &shared,
            r#"{"id": 3, "op": "register", "view": "g2", "program": "w2(X) :- m(X, Y), not w2(Y).", "semantics": "valid", "strategy": "incremental"}"#,
        );
        assert!(
            reply
                .line()
                .contains(r#""strategy":"incremental-alternating""#),
            "{}",
            reply.line()
        );
        let reply = handle_line(
            &shared,
            r#"{"id": 4, "op": "register", "view": "g3", "program": "p(X) :- m(X, Y).", "strategy": "sideways"}"#,
        );
        assert!(
            reply.line().contains(r#""code":"bad-request""#),
            "{}",
            reply.line()
        );
    }

    #[test]
    fn algebra_registration_rejects_datalog_operands() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        for operand in [r#""semantics": "valid""#, r#""strategy": "recompute""#] {
            let reply = handle_line(
                &shared,
                &format!(
                    r#"{{"id": 1, "op": "register", "view": "a", "kind": "algebra", "program": "query e;", {operand}}}"#
                ),
            );
            assert!(
                reply.line().contains(r#""code":"bad-request""#),
                "{}",
                reply.line()
            );
            let name = operand.split('"').nth(1).unwrap();
            assert!(
                reply.line().contains(&format!("`{name}`")),
                "{}",
                reply.line()
            );
        }
        // Nothing was registered.
        let reply = handle_line(&shared, r#"{"id": 2, "op": "views"}"#);
        assert!(reply.line().contains(r#""views":[]"#), "{}", reply.line());
    }

    /// The nesting bound of the JSON, algebra and datalog parsers.
    const BOUND: usize = 256;

    /// Register `program` as a view (`kind` datalog or algebra) and
    /// return the reply line.
    fn register(shared: &SharedSession, kind: &str, program: &str) -> String {
        let line = Json::obj([
            ("id", Json::Int(1)),
            ("op", Json::str("register")),
            ("view", Json::str("v")),
            ("kind", Json::str(kind)),
            ("program", Json::str(program)),
        ]);
        handle_line(shared, &line.to_string()).line().to_string()
    }

    /// Query the view of [`register`], then drop it.
    fn query_and_drop(shared: &SharedSession) -> String {
        let reply = handle_line(shared, r#"{"id": 2, "op": "query", "view": "v"}"#);
        handle_line(shared, r#"{"id": 3, "op": "unregister", "view": "v"}"#);
        reply.line().to_string()
    }

    #[test]
    fn json_nesting_past_the_bound_is_a_bad_request() {
        let shared = SharedSession::new(Session::new(Budget::SMALL));
        // The request object is the first level, the id the other ones.
        let ping = |levels: usize| {
            let id = format!("{}{}", "[".repeat(levels - 1), "]".repeat(levels - 1));
            handle_line(&shared, &format!(r#"{{"id": {id}, "op": "ping"}}"#))
        };
        let reply = ping(BOUND);
        assert!(reply.line().contains(r#""pong":true"#), "{}", reply.line());
        json::parse(reply.line()).unwrap();
        let reply = ping(BOUND + 1);
        assert!(
            reply.line().contains(r#""code":"bad-request""#),
            "{}",
            reply.line()
        );
        assert!(reply.line().contains("nesting"), "{}", reply.line());
        let reply = handle_line(&shared, &"[".repeat(20_000));
        assert!(
            reply.line().contains(r#""code":"bad-request""#),
            "{}",
            reply.line()
        );
    }

    #[test]
    fn algebra_nesting_past_the_bound_is_a_parse_error() {
        let shared = SharedSession::new(Session::new(Budget::SMALL));
        handle_line(&shared, r#"{"id": 0, "op": "load", "facts": "e(1, 2)."}"#);
        // The query is the first level, each pair of parentheses one more.
        let parens = |levels: usize| {
            let n = levels - 1;
            format!("query {}e{};", "(".repeat(n), ")".repeat(n))
        };
        // `e` is one level, each `union` one more.
        let unions = |levels: usize| format!("query e{};", " union e".repeat(levels - 1));
        for program in [parens(BOUND), unions(BOUND)] {
            let reply = register(&shared, "algebra", &program);
            assert!(reply.contains(r#""ok":true"#), "{reply}");
            let reply = query_and_drop(&shared);
            assert!(reply.contains("[1, 2]"), "{reply}");
        }
        for program in [parens(BOUND + 1), unions(BOUND + 1), parens(20_000)] {
            let reply = register(&shared, "algebra", &program);
            assert!(reply.contains(r#""code":"parse""#), "{reply}");
        }
    }

    #[test]
    fn datalog_nesting_past_the_bound_is_a_parse_error() {
        let shared = SharedSession::new(Session::new(Budget::SMALL));
        handle_line(&shared, r#"{"id": 0, "op": "load", "facts": "q(0)."}"#);
        // `succ(…)` is one level, its argument one more.
        let succ = |levels: usize| {
            let n = levels - 1;
            format!("p(Y) :- q(X), Y = {}X{}.", "succ(".repeat(n), ")".repeat(n))
        };
        let reply = register(&shared, "datalog", &succ(BOUND));
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        let reply = query_and_drop(&shared);
        assert!(reply.contains(&format!("p({}).", BOUND - 1)), "{reply}");
        for program in [succ(BOUND + 1), succ(20_000)] {
            let reply = register(&shared, "datalog", &program);
            assert!(reply.contains(r#""code":"parse""#), "{reply}");
        }
    }

    #[test]
    fn out_of_range_numbers_are_a_bad_request() {
        let shared = SharedSession::new(Session::new(Budget::SMALL));
        for id in ["1e999", "-1e999"] {
            let reply = handle_line(&shared, &format!(r#"{{"id": {id}, "op": "ping"}}"#));
            assert!(
                reply.line().contains(r#""code":"bad-request""#),
                "{}",
                reply.line()
            );
            json::parse(reply.line()).unwrap();
        }
    }
}
