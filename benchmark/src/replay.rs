//! The in-process pass: the same generated stream replayed through
//! `protocol::handle_line` on a durable `SharedSession`.
//!
//! It is the correctness oracle of every run — with one connection the
//! stream is deterministic, so each live reply must equal the replayed
//! one modulo `epoch` — and, with tracing on, the source of the per-layer
//! numbers: a span around every `handle_line`, a timing wrapper around
//! the real durability hook, and a shadow `Session` (no durability) that
//! applies the same deltas through `Session::apply_delta` and
//! `Session::read_view` so those two can be timed on their own.
//!
//! The program is never handed a non-Null `Trace`: `datalog::compiled`
//! refuses traced meters, so that would measure the wrong engine.

use crate::live::LiveRun;
use crate::stats::timed_us as timed;
use crate::trace::{durations_us, self_times, Span, Tracer};
use crate::workload::{Class, Op, Plan, ViewKind};
use algrec_datalog::facts::{fact_value, parse_fact, parse_facts};
use algrec_datalog::{evaluate, Semantics};
use algrec_serve::session::format_fact;
use algrec_serve::{
    handle_line, json, parse_semantics, Durability, DurableEvent, Json, QueryAnswer, Session,
    SharedSession, ViewDef,
};
use algrec_store::snapshot::{encode_snapshot, load_latest_snapshot, SnapshotState};
use algrec_store::{LogFile, StoreOptions, SyncPolicy, Wal, WalRecord};
use algrec_value::{Budget, Database, DatabaseDelta, Trace, Value, Vid};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Drop the digits of the first `"epoch":N` of a reply: replies are
/// compared modulo the snapshot version they were answered at.
pub fn strip_epoch(reply: &str) -> String {
    const KEY: &str = "\"epoch\":";
    match reply.find(KEY) {
        Some(at) => {
            let from = at + KEY.len();
            let digits = reply[from..].bytes().take_while(u8::is_ascii_digit).count();
            format!("{}{}", &reply[..from], &reply[from + digits..])
        }
        None => reply.to_string(),
    }
}

/// The durability hook the store attached, with a span around each call
/// and a copy of every logged delta for the WAL pass.
struct TimedHook {
    inner: Box<dyn Durability + Send>,
    tracer: Tracer,
    logged: Arc<Mutex<Vec<WalRecord>>>,
}

impl Durability for TimedHook {
    fn record(&mut self, event: &DurableEvent<'_>) -> Result<(), String> {
        let out = self
            .tracer
            .span("store.record", || self.inner.record(event));
        if let DurableEvent::Delta(delta) = event {
            let record = WalRecord::Delta((*delta).clone());
            self.logged.lock().expect("log copy poisoned").push(record);
        }
        out
    }

    fn wants_snapshot(&self) -> bool {
        self.inner.wants_snapshot()
    }

    fn snapshot(&mut self, db: &Database, catalog: &[ViewDef]) -> Result<(), String> {
        self.tracer
            .span("store.snapshot", || self.inner.snapshot(db, catalog))
    }
}

/// A `LogFile` that times what goes through it.
struct TimedFile {
    file: std::fs::File,
    stats: Arc<Mutex<FileStats>>,
}

#[derive(Default)]
struct FileStats {
    write_us: Vec<f64>,
    sync_us: Vec<f64>,
    bytes: u64,
}

impl LogFile for TimedFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let started = Instant::now();
        let out = self.file.append(bytes);
        let mut stats = self.stats.lock().expect("file stats poisoned");
        stats.write_us.push(started.elapsed().as_secs_f64() * 1e6);
        stats.bytes += bytes.len() as u64;
        out
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let started = Instant::now();
        let out = self.file.sync();
        let mut stats = self.stats.lock().expect("file stats poisoned");
        stats.sync_us.push(started.elapsed().as_secs_f64() * 1e6);
        out
    }
}

/// What the in-process pass found.
pub struct Replay {
    /// Replies compared (set-up, stream, verification block).
    pub checked: usize,
    /// Replies that differed from the live ones.
    pub failed: usize,
    /// The first difference, for the log.
    pub first_failure: Option<String>,
    /// Did every view equal a cold evaluation of the final EDB?
    pub cold_ok: bool,
    /// Per-layer metrics by name (only names this pass can produce).
    pub layers: BTreeMap<String, f64>,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

fn median(v: &[f64]) -> f64 {
    crate::stats::median(v).unwrap_or(0.0)
}

fn store_options(plan: &Plan) -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(plan.snapshot_every),
    }
}

fn register(session: &mut Session, view: &crate::workload::View) -> Result<&'static str, String> {
    let out = match view.kind {
        ViewKind::Datalog(semantics) => {
            session.register_datalog(view.name, &view.program, parse_semantics(semantics)?)
        }
        ViewKind::Algebra => session.register_algebra(view.name, &view.program),
    };
    out.map(|o| o.strategy).map_err(|e| e.to_string())
}

struct Pass<'a> {
    plan: &'a Plan,
    tracer: Tracer,
    shared: SharedSession,
    /// The shadow session (tracing only).
    shadow: Option<Session>,
    /// Strategy of the shadow's first view, which names the maintainer
    /// `Session::apply_delta` spends its time in.
    strategy: &'static str,
    checked: usize,
    failed: usize,
    first_failure: Option<String>,
    layers: BTreeMap<String, f64>,
    reply_bytes: BTreeMap<&'static str, Vec<f64>>,
    derivations: f64,
    iterations: f64,
    fallbacks: f64,
    noops: f64,
}

impl Pass<'_> {
    fn check(&mut self, what: &str, live: &str, replayed: &str) {
        self.checked += 1;
        if strip_epoch(live) != strip_epoch(replayed) {
            self.failed += 1;
            self.first_failure.get_or_insert_with(|| {
                let clip = |s: &str| s.chars().take(300).collect::<String>();
                format!("{what}: live {} / replayed {}", clip(live), clip(replayed))
            });
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Replay one request; with tracing on, also time its parts on the
    /// side, outside the `handle_line` span.
    fn step(&mut self, op_id: usize, op: &Op, live: &str) {
        self.tracer.set_op(op_id as u32);
        let name = match op.class {
            Class::Load => "serve.handle_line.load",
            Class::Write => "serve.handle_line.write",
            Class::Point => "serve.handle_line.point",
            Class::Scan => "serve.handle_line.scan",
        };
        let handled = self
            .tracer
            .span(name, || handle_line(&self.shared, &op.line));
        let reply = handled.line();
        self.reply_bytes
            .entry(op.class.label())
            .or_default()
            .push(reply.len() as f64);
        self.check(&format!("request {op_id}"), live, reply);
        if self.shadow.is_some() {
            self.shadow_step(op);
        }
    }

    fn shadow_step(&mut self, op: &Op) {
        let tracer = self.tracer.clone();
        let req = tracer
            .span("serve.json_parse", || json::parse(&op.line))
            .expect("generated requests are valid JSON");
        let field = |key: &str| req.get(key).and_then(Json::as_str);
        match op.class {
            Class::Load | Class::Write => {
                let facts = if op.class == Class::Load {
                    let src = field("facts").expect("a load carries facts");
                    tracer.span("datalog.parse_facts", || parse_facts(src))
                } else {
                    let src = field("fact").expect("a write carries a fact");
                    tracer.span("datalog.parse_fact", || parse_fact(src).map(|f| vec![f]))
                }
                .expect("generated facts parse");
                let retract = field("op") == Some("retract");
                let delta = tracer.span("value.delta_build", || {
                    let mut delta = DatabaseDelta::new();
                    for fact in &facts {
                        let (name, member) = fact_value(fact);
                        if retract {
                            delta.remove(name, member);
                        } else {
                            delta.insert(name, member);
                        }
                    }
                    delta
                });
                let shadow = self.shadow.as_mut().expect("checked by the caller");
                let outcome = tracer
                    .span("serve.apply_delta", || shadow.apply_delta(&delta))
                    .expect("the shadow session applies what the server applied");
                tracer.span("serve.read_view", || black_box(shadow.read_view()));
                if outcome.applied == 0 {
                    self.noops += 1.0;
                }
                for view in &outcome.views {
                    self.derivations += view.stats.facts_inserted as f64;
                    self.iterations += view.stats.iterations as f64;
                    self.fallbacks += view.stats.fallbacks as f64;
                }
            }
            Class::Point | Class::Scan => {
                let view = field("view").expect("a query names a view");
                let snapshot = self.shared.read();
                tracer
                    .span("serve.readview_query", || {
                        black_box(snapshot.value.query(view, field("pred")))
                    })
                    .expect("the view exists");
            }
        }
    }

    /// Every view of the replayed session against a cold evaluation of
    /// the final EDB. Returns whether all agreed.
    fn cold_check(&mut self, db: &Database) -> bool {
        let snapshot = self.shared.read();
        let mut ok = true;
        for view in &self.plan.views {
            let answer = snapshot.value.query(view.name, None);
            match (&view.kind, answer) {
                (
                    ViewKind::Datalog(semantics),
                    Ok(Some(QueryAnswer::Datalog { certain, unknown })),
                ) => {
                    let semantics = parse_semantics(semantics).expect("plan semantics parse");
                    let (lines, facts) = self.cold_datalog(&view.program, db, semantics, "view");
                    ok &= lines == (certain, unknown);
                    self.set("serve.view_facts", facts);
                }
                (
                    ViewKind::Algebra,
                    Ok(Some(QueryAnswer::Algebra {
                        query, constants, ..
                    })),
                ) => {
                    let program = algrec_core::parser::parse_program(&view.program)
                        .expect("plan algebra programs parse");
                    let (cold, us) = timed(|| algrec_core::eval_valid(&program, db, Budget::LARGE));
                    self.set("core.eval_valid_us", us);
                    let cold = cold.expect("plan algebra programs evaluate");
                    ok &= cold.query.to_string() == query
                        && cold
                            .constants
                            .iter()
                            .map(|(k, v)| (k.clone(), v.to_string()))
                            .collect::<BTreeMap<_, _>>()
                            == constants;
                }
                _ => ok = false,
            }
        }
        ok
    }

    /// Cold `datalog::evaluate` (Null trace, so the compiled executor is
    /// the one measured), rendered the way a whole-view query renders.
    /// Records `datalog.*.<job>`; returns the lines and the fact count.
    fn cold_datalog(
        &mut self,
        source: &str,
        db: &Database,
        semantics: Semantics,
        job: &str,
    ) -> ((Vec<String>, Vec<String>), f64) {
        let (program, parse_us) = timed(|| algrec_datalog::parser::parse_program(source));
        let program = program.expect("plan programs parse");
        self.set("datalog.parse_program_us", parse_us);
        let (out, eval_us) = timed(|| evaluate(&program, db, semantics, Budget::LARGE));
        let out = out.expect("plan programs evaluate");
        let (lines, render_us) = timed(|| {
            let idb = program.idb_preds();
            let mut certain = Vec::new();
            for pred in &idb {
                for args in out.model.certain.facts(pred) {
                    certain.push(format!("{}.", format_fact(pred, args)));
                }
            }
            let unknown: Vec<String> = out
                .model
                .unknown_facts()
                .iter()
                .filter(|(p, _)| idb.contains(p.as_str()))
                .map(|(p, args)| format_fact(p, args))
                .collect();
            (certain, unknown)
        });
        let facts = (lines.0.len() + lines.1.len()) as f64;
        self.set(&format!("datalog.evaluate_us.{job}"), eval_us);
        self.set(&format!("datalog.rounds.{job}"), out.rounds as f64);
        self.set(&format!("datalog.model_facts.{job}"), facts);
        self.set("datalog.render_us", render_us);
        // The rest is only wanted by the traced pass.
        if self.shadow.is_none() {
            return (lines, facts);
        }
        let (_, explain_us) = timed(|| algrec_datalog::explain_program(&program, db, None));
        self.set("plan.explain_us", explain_us);
        if self.strategy == "incremental-alternating" {
            let mut meter = Budget::LARGE.meter();
            let (model, new_us) =
                timed(|| algrec_incr::IncrementalModel::new(&program, db, &mut meter));
            self.set("incr.new_us", new_us);
            let unknown = model.map_or(0, |m| m.model().unknown_count());
            self.set("incr.unknown_facts", unknown as f64);
        }
        (lines, facts)
    }
}

/// Replay `plan` in-process under `work`, comparing against what the
/// live pass was answered.
pub fn run(plan: &Plan, live: &LiveRun, trace: bool, work: &Path) -> Result<Replay, String> {
    let interned_before = algrec_value::intern::interned_value_count();
    let tracer = Tracer::default();
    let data_dir = work.join("replay-data");
    crate::live::fresh_dir(&data_dir)?;
    let (mut session, _) =
        algrec_store::open(&data_dir, Budget::LARGE, store_options(plan), Trace::Null)
            .map_err(|e| e.to_string())?;
    let logged = Arc::new(Mutex::new(Vec::new()));
    if trace {
        let inner = session
            .clear_durability()
            .expect("store::open attaches a hook");
        session.set_durability(Box::new(TimedHook {
            inner,
            tracer: tracer.clone(),
            logged: Arc::clone(&logged),
        }));
    }
    let mut pass = Pass {
        plan,
        tracer: tracer.clone(),
        shared: SharedSession::new(session),
        shadow: None,
        strategy: "",
        checked: 0,
        failed: 0,
        first_failure: None,
        layers: BTreeMap::new(),
        reply_bytes: BTreeMap::new(),
        derivations: 0.0,
        iterations: 0.0,
        fallbacks: 0.0,
        noops: 0.0,
    };

    // Set-up: the same lines the live server got.
    let setup = plan.setup_lines();
    let mut register_us = 0.0;
    for (k, line) in setup.iter().enumerate() {
        let (handled, us) = timed(|| handle_line(&pass.shared, line));
        if k > 0 {
            register_us += us;
        }
        pass.check(
            &format!("set-up line {k}"),
            &live.setup_replies[k],
            handled.line(),
        );
    }
    pass.set("serve.register_us", register_us);
    if trace {
        let mut shadow = Session::new(Budget::LARGE);
        shadow.load(&plan.edb).map_err(|e| e.to_string())?;
        for view in &plan.views {
            let strategy = register(&mut shadow, view)?;
            if pass.strategy.is_empty() {
                pass.strategy = strategy;
            }
        }
        pass.shadow = Some(shadow);
    }

    // The stream.
    let started = Instant::now();
    for (k, op) in plan.ops.iter().enumerate() {
        pass.step(k, op, &live.replies[k]);
    }
    let replay_s = started.elapsed().as_secs_f64();
    pass.tracer.set_op(u32::MAX);
    for (k, line) in plan.verify.iter().enumerate() {
        let handled = handle_line(&pass.shared, line);
        pass.check(
            &format!("verification line {k}"),
            &live.verify_before[k],
            handled.line(),
        );
    }

    // Final state against a cold evaluation.
    let (db, catalog) = pass
        .shared
        .with_writer(|s| (s.db().clone(), s.catalog()))
        .map_err(|e| e.to_string())?
        .0;
    let cold_ok = pass.cold_check(&db);

    if trace {
        layer_metrics(
            &mut pass,
            &logged,
            &db,
            catalog,
            &live.data_dir,
            work,
            replay_s,
        )?;
        let grown = algrec_value::intern::interned_value_count() - interned_before;
        pass.set("value.interned_values", grown as f64);
    }
    Ok(Replay {
        checked: pass.checked,
        failed: pass.failed,
        first_failure: pass.first_failure,
        cold_ok,
        layers: pass.layers,
        spans: tracer.spans(),
    })
}

/// Per-request sums of the side spans, by op id.
fn per_op(spans: &[Span], names: &[&str]) -> BTreeMap<u32, f64> {
    let mut out = BTreeMap::new();
    for span in spans.iter().filter(|s| names.contains(&s.name)) {
        *out.entry(span.op_id).or_insert(0.0) += span.ns() as f64 / 1e3;
    }
    out
}

/// Everything the traced pass reports beyond the replay itself.
fn layer_metrics(
    pass: &mut Pass<'_>,
    logged: &Arc<Mutex<Vec<WalRecord>>>,
    db: &Database,
    catalog: Vec<ViewDef>,
    killed_dir: &Path,
    work: &Path,
    replay_s: f64,
) -> Result<(), String> {
    let spans = pass.tracer.spans();
    let med = |name: &str| median(&durations_us(&spans, name));

    // serve: whole requests, their parts, and the counts beside them.
    for class in ["write", "point", "scan", "load"] {
        let name = format!("serve.handle_line.{class}");
        pass.set(&format!("serve.handle_line_{class}_us"), med(&name));
    }
    pass.set("serve.json_parse_us", med("serve.json_parse"));
    pass.set("serve.read_view_us", med("serve.read_view"));
    let scan_ops: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "serve.handle_line.scan")
        .map(|s| s.op_id)
        .collect();
    let parse_by_op = per_op(&spans, &["serve.json_parse"]);
    let query_by_op = per_op(&spans, &["serve.readview_query"]);
    let handle_by_op = per_op(&spans, &["serve.handle_line.scan"]);
    let pick = |map: &BTreeMap<u32, f64>| -> Vec<f64> {
        scan_ops
            .iter()
            .map(|op| map.get(op).copied().unwrap_or(0.0))
            .collect()
    };
    pass.set("serve.readview_query_us", median(&pick(&query_by_op)));
    let encode: Vec<f64> = scan_ops
        .iter()
        .map(|op| {
            let rest = |m: &BTreeMap<u32, f64>| m.get(op).copied().unwrap_or(0.0);
            (rest(&handle_by_op) - rest(&parse_by_op) - rest(&query_by_op)).max(0.0)
        })
        .collect();
    pass.set("serve.reply_encode_us", median(&encode));

    // apply_delta as the durable session runs it: the shadow's
    // maintenance plus the durability child spans of the same request.
    let durable = per_op(
        &spans,
        &["serve.apply_delta", "store.record", "store.snapshot"],
    );
    let write_ops: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "serve.handle_line.write")
        .map(|s| s.op_id)
        .collect();
    let durable_writes: Vec<f64> = write_ops
        .iter()
        .filter_map(|op| durable.get(op).copied())
        .collect();
    pass.set("serve.apply_delta_us", median(&durable_writes));
    let maintain = per_op(&spans, &["serve.apply_delta"]);
    let maintain_writes: Vec<f64> = write_ops
        .iter()
        .filter_map(|op| maintain.get(op).copied())
        .collect();
    match pass.strategy {
        "stratified-incremental" => {
            pass.set("serve.maintain_stratified_us", median(&maintain_writes));
            pass.set("serve.maintain_derivations", pass.derivations);
            pass.set("serve.maintain_iterations", pass.iterations);
        }
        "incremental-alternating" => {
            pass.set("incr.maintain_us", median(&maintain_writes));
            pass.set("incr.derivations", pass.derivations);
            pass.set("incr.fallbacks", pass.fallbacks);
        }
        _ => {}
    }
    pass.set("serve.noop_writes", pass.noops);
    for class in ["point", "scan"] {
        let bytes = pass.reply_bytes.get(class).map_or(0.0, |v| median(v));
        pass.set(&format!("serve.reply_bytes_{class}_p50"), bytes);
    }

    // trace: does the decomposition account for the whole request? A
    // write is accounted for by its side spans plus the durability
    // spans inside it; a read's reply encoding is defined as the
    // remainder, so a read accounts for itself.
    let is_read = |name: &str| matches!(name, "serve.handle_line.point" | "serve.handle_line.scan");
    let read_ops: BTreeSet<u32> = spans
        .iter()
        .filter(|s| is_read(s.name))
        .map(|s| s.op_id)
        .collect();
    let mut handle_total = 0.0;
    let mut accounted = 0.0;
    for (span, own_ns) in spans.iter().zip(self_times(&spans)) {
        if span.op_id == u32::MAX {
            continue;
        }
        if span.name.starts_with("serve.handle_line.") {
            handle_total += span.ns() as f64;
            if is_read(span.name) {
                accounted += span.ns() as f64;
            }
        } else if !read_ops.contains(&span.op_id) {
            accounted += own_ns as f64;
        }
    }
    if handle_total > 0.0 {
        pass.set("trace.coverage", accounted / handle_total);
    }
    // Recorder cost: spans recorded × the measured cost of one empty
    // span, as a share of the replayed stream's wall time. (Differencing
    // a spans-on against a spans-off replay drowns in run-to-run noise:
    // a span costs tens of nanoseconds, a request milliseconds.)
    let probe = Tracer::default();
    let (_, probe_us) = timed(|| {
        for _ in 0..10_000 {
            probe.span("probe", || ());
        }
    });
    let per_span_s = probe_us / 1e6 / 10_000.0;
    pass.set(
        "trace.overhead_share",
        spans.len() as f64 * per_span_s / replay_s.max(1e-9),
    );

    // store: the hook as a whole, then the log on its own.
    pass.set("store.record_us", med("store.record"));
    pass.set("store.snapshot_us", med("store.snapshot"));
    pass.set(
        "store.snapshots",
        durations_us(&spans, "store.snapshot").len() as f64,
    );
    let stats = Arc::new(Mutex::new(FileStats::default()));
    let path = work.join("wal-pass.log");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let shim = TimedFile {
        file,
        stats: Arc::clone(&stats),
    };
    let mut wal =
        Wal::create(Box::new(shim), SyncPolicy::Always, Trace::Null).map_err(|e| e.to_string())?;
    let mut encode_us = Vec::new();
    for record in logged.lock().expect("log copy poisoned").iter() {
        encode_us.push(timed(|| black_box(record.encode())).1);
        wal.append(record).map_err(|e| e.to_string())?;
    }
    drop(wal);
    {
        let stats = stats.lock().expect("file stats poisoned");
        pass.set("store.wal_encode_us", median(&encode_us));
        pass.set("store.wal_write_us", median(&stats.write_us));
        pass.set("store.wal_fsync_us", median(&stats.sync_us));
        pass.set("store.wal_fsyncs", stats.sync_us.len() as f64);
        pass.set("store.wal_bytes", stats.bytes as f64);
    }

    // store: recovery of what the live server left behind, on a copy
    // (`open` truncates a torn tail and reopens the log for append).
    let copy = work.join("recover-copy");
    crate::live::copy_dir(killed_dir, &copy)?;
    let (decoded, decode_us) = timed(|| load_latest_snapshot(&copy));
    decoded.map_err(|e| e.to_string())?;
    pass.set("store.snapshot_decode_us", decode_us);
    let (opened, recover_us) =
        timed(|| algrec_store::open(&copy, Budget::LARGE, store_options(pass.plan), Trace::Null));
    let (_, report) = opened.map_err(|e| e.to_string())?;
    pass.set("store.recover_us", recover_us);
    pass.set("store.recover_replayed", report.replayed as f64);

    // column: the final state through both snapshot codecs.
    let state = SnapshotState {
        db: db.clone(),
        views: catalog,
    };
    let (columnar, encode_us) = timed(|| algrec_store::colsnap::encode_column_snapshot(&state));
    let (valid, validate_us) = timed(|| algrec_store::colsnap::validate_column_snapshot(&columnar));
    valid.map_err(|e| e.to_string())?;
    pass.set("column.snapshot_encode_us", encode_us);
    pass.set("column.validate_us", validate_us);
    pass.set("column.snapshot_bytes", columnar.len() as f64);
    pass.set(
        "column.row_snapshot_bytes",
        encode_snapshot(&state).len() as f64,
    );

    // datalog and value: the costs set-up and every write pay per fact.
    pass.set("datalog.parse_fact_us", med("datalog.parse_fact"));
    let (loaded, load_us) =
        timed(|| algrec_datalog::load_facts(&mut Database::new(), &pass.plan.edb));
    loaded.map_err(|e| e.to_string())?;
    pass.set("datalog.load_facts_us", load_us);
    pass.set("value.delta_build_us", med("value.delta_build"));
    let members: Vec<&Value> = db.iter().flat_map(|(_, rel)| rel.iter()).collect();
    let (ids, intern_us) = timed(|| members.iter().map(|v| Vid::of(v)).collect::<Vec<Vid>>());
    let (_, resolve_us) = timed(|| {
        for id in &ids {
            black_box(id.resolve());
        }
    });
    pass.set("value.intern_us", intern_us);
    pass.set("value.resolve_us", resolve_us);
    Ok(())
}
