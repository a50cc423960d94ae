//! `algrec` — command-line front end for the reproduction.
//!
//! ```text
//! algrec eval   <program.dl>  [facts.dl] [--semantics S] [--pred P] [--trace] [--explain]
//! algrec alg    <program.alg> [facts.dl] [--trace] [--explain]
//! algrec spec   <spec.obj>    [--depth N]
//! algrec translate <program.dl> --pred P [facts.dl]
//! algrec stable <program.dl>  [facts.dl] [--cap N]
//! algrec repl   [facts.dl] [--data-dir DIR] [--sync P] [--snapshot-every N]
//! algrec serve  [facts.dl] [--addr HOST:PORT] [--data-dir DIR] [--sync P] [--snapshot-every N]
//! algrec scenario <list|run|record> [--corpus DIR] [-f NAME] [--concurrency LIST]
//!                                   [--scale N] [--live] [--addr HOST:PORT] [--no-recovery]
//! algrec cluster serve [facts.dl] --data-dir DIR [--addr HOST:PORT] [--sync P] [--snapshot-every N]
//! algrec cluster join  --primary HOST:PORT [--addr HOST:PORT]
//! algrec cluster route --primary HOST:PORT [--replica HOST:PORT]… [--addr HOST:PORT]
//! ```
//!
//! Every command also accepts `--threads N`, bounding the worker pool
//! the fixpoint engines fan out to (default: the machine's available
//! parallelism; `--threads 1` forces fully sequential evaluation).
//! Outputs are bit-identical at every thread count.
//!
//! * deduction programs use the Datalog syntax of `algrec_datalog::parser`;
//! * facts files are Datalog fact lists (`edge(1, 2).`), loaded as the
//!   extensional database;
//! * algebra programs use the syntax of `algrec_core::parser`; `alg`
//!   runs a program in the planner's class as its Theorem 6.2
//!   translation on the deduction engine (`algrec_serve::algebra`), any
//!   other on `algrec_core`, printing the same answer either way;
//! * specifications use the OBJ-style syntax of `algrec_adt::parser`;
//! * semantics: `naive`, `semi-naive`, `stratified`, `inflationary`,
//!   `well-founded`, `valid` (default), `valid-extended[:N]` (N caps the
//!   stable-completion branching, default 16);
//! * `--trace` streams evaluation telemetry (phases, deltas) to stderr as
//!   `% trace:` lines and prints a final stats summary (see
//!   `algrec_value::stats`);
//! * `--explain` (on `eval` and `alg`) prints the query plan — join
//!   orders, access paths, shared subplans — instead of evaluating (see
//!   `algrec_plan` and DESIGN.md §15);
//! * `repl` and `serve` run the incremental-view session behind its
//!   newline-delimited-JSON protocol: `repl` answers requests from stdin
//!   on stdout, one reply line each, until end of input or `shutdown`;
//!   `serve` answers them over TCP (the server prints `% listening on
//!   ADDR` once bound; `--addr` defaults to `127.0.0.1:0`). See
//!   `algrec_serve` and DESIGN.md §10.
//! * `--data-dir DIR` makes the session durable: state is recovered from
//!   DIR on startup (write-ahead log + snapshots, see `algrec_store` and
//!   DESIGN.md §13) and every committed change is logged. `--sync`
//!   chooses the fsync policy (`always` default, `never`, `every-N`);
//!   `--snapshot-every N` compacts the log into a snapshot every N
//!   records (default 1024, `0` disables). Without `--data-dir` the
//!   session is in-memory, exactly as before.
//! * `scenario` drives the on-disk workload corpus (default directory
//!   `scenarios/`, override with `--corpus`): `list` prints the corpus,
//!   `run` replays each scenario's recorded trace against a fresh
//!   serving session at every `--concurrency` (comma-separated, default
//!   `1,4`) and diffs replies against the recording modulo epoch tags,
//!   `record` (re)writes the recordings. `-f`/`--filter NAME` selects
//!   the one scenario of that name (an unknown name is an error);
//!   `--scale N` issues every read N times; `--live`
//!   replays over a throwaway TCP server instead of in-process;
//!   `--addr` replays against an already-running external server (e.g.
//!   a cluster router, which must be pre-seeded — recovery is skipped);
//!   `--no-recovery` skips the durable recovery leg; the command exits
//!   non-zero when any reply diverges from the recording.
//! * `cluster` runs the serving fleet (see `algrec_cluster` and
//!   DESIGN.md §17): `serve` a durable primary (the same store as
//!   `serve --data-dir`, with the same `--sync` and `--snapshot-every`;
//!   replication feed on the same port), `join` a replica subscribed to
//!   `--primary` (epoch-gated consistent reads, writes rejected),
//!   and `route` the consistent-read front end over `--primary` plus
//!   each `--replica`. All three servers print `% ROLE listening on
//!   ADDR` once bound.

use algrec::prelude::*;
use algrec::serve::parse_semantics;
use algrec::serve::session::format_fact;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("algrec: {msg}");
    ExitCode::FAILURE
}

/// Write a command's answer through one buffer on the locked stdout,
/// flushed once. A failed write — a closed pipe, say — is an error for
/// `main` to report, not a panic.
fn emit(write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> Result<(), String> {
    let mut out = BufWriter::new(std::io::stdout().lock());
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// Parse a facts file (Datalog facts only) into a database, through the
/// shared loader (one parse, one sorted build per relation).
fn load_db(path: Option<&str>) -> Result<Database, String> {
    let Some(path) = path else {
        return Ok(Database::new());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut db = Database::new();
    load_facts(&mut db, &text).map_err(|e| format!("{path}: {e}"))?;
    Ok(db)
}

struct Args {
    positional: Vec<String>,
    semantics: Semantics,
    pred: Option<String>,
    depth: usize,
    cap: usize,
    trace: bool,
    explain: bool,
    addr: Option<String>,
    data_dir: Option<String>,
    sync: algrec::store::SyncPolicy,
    snapshot_every: Option<usize>,
    corpus: String,
    filter: Option<String>,
    concurrency: Option<Vec<usize>>,
    scale: Option<usize>,
    live: bool,
    no_recovery: bool,
    primary: Option<String>,
    replica_addrs: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        semantics: Semantics::Valid,
        pred: None,
        depth: 2,
        cap: 16,
        trace: false,
        explain: false,
        addr: None,
        data_dir: None,
        sync: algrec::store::SyncPolicy::Always,
        snapshot_every: Some(1024),
        corpus: "scenarios".to_string(),
        filter: None,
        concurrency: None,
        scale: None,
        live: false,
        no_recovery: false,
        primary: None,
        replica_addrs: Vec::new(),
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--semantics" => {
                let v = it.next().ok_or("--semantics needs a value")?;
                args.semantics = parse_semantics(v)?;
            }
            "--pred" => args.pred = Some(it.next().ok_or("--pred needs a value")?.clone()),
            "--trace" => args.trace = true,
            "--explain" => args.explain = true,
            "--depth" => {
                args.depth = it
                    .next()
                    .ok_or("--depth needs a value")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?;
            }
            "--cap" => {
                args.cap = it
                    .next()
                    .ok_or("--cap needs a value")?
                    .parse()
                    .map_err(|e| format!("--cap: {e}"))?;
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                algrec::sched::set_threads(n);
            }
            "--addr" => args.addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            "--data-dir" => {
                args.data_dir = Some(it.next().ok_or("--data-dir needs a value")?.clone())
            }
            "--sync" => {
                args.sync =
                    algrec::store::SyncPolicy::parse(it.next().ok_or("--sync needs a value")?)?
            }
            "--snapshot-every" => {
                let n: usize = it
                    .next()
                    .ok_or("--snapshot-every needs a value")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
                args.snapshot_every = (n > 0).then_some(n);
            }
            "--corpus" => args.corpus = it.next().ok_or("--corpus needs a value")?.clone(),
            "-f" | "--filter" => {
                args.filter = Some(it.next().ok_or("--filter needs a value")?.clone())
            }
            "--concurrency" => {
                let list = it.next().ok_or("--concurrency needs a value")?;
                let parsed = parse_usize_list(list, "--concurrency")?;
                args.concurrency = Some(parsed);
            }
            "--scale" => {
                let n: usize = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if n == 0 {
                    return Err("--scale must be at least 1".into());
                }
                args.scale = Some(n);
            }
            "--primary" => args.primary = Some(it.next().ok_or("--primary needs a value")?.clone()),
            "--replica" => args
                .replica_addrs
                .push(it.next().ok_or("--replica needs a value")?.clone()),
            "--live" => args.live = true,
            "--no-recovery" => args.no_recovery = true,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

/// A comma-separated list of positive integers (`1,2,4`).
fn parse_usize_list(list: &str, flag: &str) -> Result<Vec<usize>, String> {
    let parsed: Vec<usize> = list
        .split(',')
        .map(|n| match n.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(_) => Err(format!("{flag} entries must be at least 1")),
            Err(e) => Err(format!("{flag}: `{n}`: {e}")),
        })
        .collect::<Result<_, _>>()?;
    if parsed.is_empty() {
        return Err(format!("{flag} needs at least one entry"));
    }
    Ok(parsed)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The trace handle a command should evaluate under: a streaming stderr
/// log under `--trace`, the zero-cost null trace otherwise.
fn trace_of(a: &Args) -> Trace {
    if a.trace {
        Trace::sink(LogSink::stderr())
    } else {
        Trace::Null
    }
}

fn cmd_eval(a: &Args) -> Result<(), String> {
    let [program_path, rest @ ..] = a.positional.as_slice() else {
        return Err("usage: algrec eval <program.dl> [facts.dl]".into());
    };
    let program =
        algrec::datalog::parser::parse_program(&read(program_path)?).map_err(|e| e.to_string())?;
    let db = load_db(rest.first().map(String::as_str))?;
    if a.explain {
        let plan =
            algrec::datalog::explain_program(&program, &db, None).map_err(|e| e.to_string())?;
        return emit(|w| writeln!(w, "{plan}"));
    }
    let out = evaluate_traced(&program, &db, a.semantics, Budget::LARGE, trace_of(a))
        .map_err(|e| e.to_string())?;
    emit(|w| match &a.pred {
        Some(p) => {
            for args in out.model.certain.facts(p) {
                writeln!(w, "{}.", format_fact(p, args))?;
            }
            for (q, args) in out.model.unknown_facts() {
                if &q == p {
                    writeln!(w, "% unknown: {}", format_fact(p, &args))?;
                }
            }
            Ok(())
        }
        None => write!(w, "{}", out.model),
    })?;
    if !out.model.is_exact() {
        eprintln!(
            "% {} fact(s) undefined — the program has no initial valid model on this database",
            out.model.unknown_count()
        );
    }
    Ok(())
}

fn cmd_alg(a: &Args) -> Result<(), String> {
    let [program_path, rest @ ..] = a.positional.as_slice() else {
        return Err("usage: algrec alg <program.alg> [facts.dl]".into());
    };
    let program =
        algrec::core::parser::parse_program(&read(program_path)?).map_err(|e| e.to_string())?;
    let db = load_db(rest.first().map(String::as_str))?;
    if a.explain {
        let plan = algrec::serve::algebra::explain(&program, &db).map_err(|e| e.to_string())?;
        return emit(|w| writeln!(w, "{plan}"));
    }
    let out = algrec::serve::algebra::eval_valid(&program, &db, Budget::LARGE, trace_of(a))
        .map_err(|e| e.to_string())?;
    emit(|w| writeln!(w, "{}", out.query))?;
    if !out.is_well_defined() {
        eprintln!("% result is three-valued (members marked `?` are undefined)");
    }
    Ok(())
}

fn cmd_spec(a: &Args) -> Result<(), String> {
    let [spec_path] = a.positional.as_slice() else {
        return Err("usage: algrec spec <spec.obj> [--depth N]".into());
    };
    let spec = algrec_adt::parser::parse_spec(&read(spec_path)?).map_err(|e| e.to_string())?;
    let vi = algrec_adt::ValidInterpretation::compute(&spec, a.depth, Budget::LARGE)
        .map_err(|e| e.to_string())?;
    let analysis = if spec.signature.constants_only() {
        Some(algrec_adt::initial_valid_model(&spec, Budget::LARGE).map_err(|e| e.to_string())?)
    } else {
        None
    };
    emit(|w| {
        writeln!(
            w,
            "valid interpretation over depth-{} window: total = {}, undefined equalities = {}",
            a.depth,
            vi.is_total(),
            vi.unknown_count()
        )?;
        for sort in spec.signature.sorts() {
            let classes = vi.classes(sort);
            writeln!(w, "sort {sort}: {} class(es)", classes.len())?;
            for class in classes {
                writeln!(
                    w,
                    "  {{ {} }}",
                    class
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )?;
            }
        }
        if let Some(analysis) = analysis {
            writeln!(w, "valid models: {}", analysis.valid_models.len())?;
            match analysis.initial {
                Some(p) => writeln!(w, "initial valid model: {p}")?,
                None => writeln!(
                    w,
                    "no initial valid model (the specification is not well-defined)"
                )?,
            }
        }
        Ok(())
    })
}

fn cmd_translate(a: &Args) -> Result<(), String> {
    let [program_path, rest @ ..] = a.positional.as_slice() else {
        return Err("usage: algrec translate <program.dl> --pred P [facts.dl]".into());
    };
    let pred = a.pred.as_ref().ok_or("translate requires --pred")?;
    let program =
        algrec::datalog::parser::parse_program(&read(program_path)?).map_err(|e| e.to_string())?;
    let db = load_db(rest.first().map(String::as_str))?;
    let alg = datalog_to_algebra(&program, pred, &algrec_translate::edb_arities(&db))
        .map_err(|e| e.to_string())?;
    emit(|w| writeln!(w, "{alg}"))
}

fn cmd_stable(a: &Args) -> Result<(), String> {
    let [program_path, rest @ ..] = a.positional.as_slice() else {
        return Err("usage: algrec stable <program.dl> [facts.dl] [--cap N]".into());
    };
    let program =
        algrec::datalog::parser::parse_program(&read(program_path)?).map_err(|e| e.to_string())?;
    let db = load_db(rest.first().map(String::as_str))?;
    let models = algrec::datalog::stable_models_of(&program, &db, a.cap, Budget::LARGE)
        .map_err(|e| e.to_string())?;
    emit(|w| {
        writeln!(w, "% {} stable model(s)", models.len())?;
        for (k, m) in models.iter().enumerate() {
            writeln!(w, "%% model {k}")?;
            write!(w, "{m}")?;
        }
        Ok(())
    })
}

/// Build a serving session, preloading an optional facts file. With
/// `--data-dir` the session is durable: recovered from the directory,
/// then write-ahead-logging every committed change. The recovery report
/// goes to stderr so stdout stays protocol-clean for `serve` and `repl`.
fn session_of(a: &Args) -> Result<Session, String> {
    let mut session = match &a.data_dir {
        Some(dir) => {
            let (session, report) = algrec::store::open(
                std::path::Path::new(dir),
                Budget::LARGE,
                store_options(a),
                trace_of(a),
            )
            .map_err(|e| format!("{dir}: {e}"))?;
            report_recovery(dir, &report);
            session
        }
        None => Session::new(Budget::LARGE),
    };
    preload(&mut session, a.positional.first())?;
    Ok(session)
}

/// The store options `--sync` and `--snapshot-every` choose.
fn store_options(a: &Args) -> algrec::store::StoreOptions {
    algrec::store::StoreOptions {
        sync: a.sync,
        snapshot_every: a.snapshot_every,
    }
}

/// Say on stderr what recovery restored, if anything, so stdout stays
/// protocol-clean.
fn report_recovery(dir: &str, report: &algrec::store::RecoveryReport) {
    if report.restored_anything() {
        eprintln!(
            "% recovered from {dir}: snapshot {} ({} relation(s), {} view(s)), \
             {} log record(s) replayed, {} torn byte(s) truncated",
            report
                .snapshot_gen
                .map_or("none".to_string(), |g| g.to_string()),
            report.snapshot_relations,
            report.snapshot_views,
            report.replayed,
            report.truncated_bytes,
        );
    }
}

/// Load an optional facts file into a session. Re-loading the same file
/// into a recovered session is a no-op: only the *effective* delta is
/// applied and logged.
fn preload(session: &mut Session, path: Option<&String>) -> Result<(), String> {
    if let Some(path) = path {
        let text = read(path)?;
        session.load(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn cmd_repl(a: &Args) -> Result<(), String> {
    let shared = SharedSession::with_trace(session_of(a)?, trace_of(a));
    algrec::serve::serve_stdio(&shared, std::io::stdin().lock(), std::io::stdout().lock())
        .map_err(|e| e.to_string())
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let session = session_of(a)?;
    let addr = a.addr.as_deref().unwrap_or("127.0.0.1:0");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    // Announce the actual address (port 0 binds an ephemeral port) so
    // scripted clients can connect; flush before blocking in accept.
    emit(|w| writeln!(w, "% listening on {bound}"))?;
    algrec::serve::serve_traced(listener, session, trace_of(a)).map_err(|e| e.to_string())
}

fn cmd_scenario(a: &Args) -> Result<(), String> {
    let [sub] = a.positional.as_slice() else {
        return Err("usage: algrec scenario <list|run|record> [--corpus DIR] [-f NAME] …".into());
    };
    let corpus = std::path::PathBuf::from(&a.corpus);
    let filter = a.filter.as_deref();
    let mut out = std::io::stdout().lock();
    match sub.as_str() {
        "list" => algrec::scenario::list(&mut out, &corpus, filter),
        "record" => algrec::scenario::record(&mut out, &corpus, filter, Budget::LARGE),
        "run" => {
            let opts = algrec::scenario::RunOptions {
                corpus,
                filter: a.filter.clone(),
                concurrency: a.concurrency.clone().unwrap_or_else(|| vec![1, 4]),
                scale: a.scale.unwrap_or(1),
                live: a.live,
                addr: a.addr.clone(),
                no_recovery: a.no_recovery,
                budget: Budget::LARGE,
            };
            let reports = algrec::scenario::run(&mut out, &opts)?;
            if !algrec::scenario::all_matched(&reports) {
                return Err("replies diverged from the recording (see above)".into());
            }
            Ok(())
        }
        other => Err(format!("unknown scenario subcommand `{other}`")),
    }
}

/// Bind `--addr` (default ephemeral loopback) and announce the bound
/// address on stdout so scripted clients know where to connect.
fn bind_announced(a: &Args, role: &str) -> Result<std::net::TcpListener, String> {
    let addr = a.addr.as_deref().unwrap_or("127.0.0.1:0");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    emit(|w| writeln!(w, "% {role} listening on {bound}"))?;
    Ok(listener)
}

/// The serving fleet: `serve` a durable primary, `join` a
/// replica to it, `route` consistent reads over the fleet.
fn cmd_cluster(a: &Args) -> Result<(), String> {
    use std::sync::Arc;
    let [sub, rest @ ..] = a.positional.as_slice() else {
        return Err("usage: algrec cluster <serve|join|route> \
             [--data-dir DIR] [--primary ADDR] [--replica ADDR]… "
            .into());
    };
    match sub.as_str() {
        "serve" => {
            let dir = a
                .data_dir
                .as_ref()
                .ok_or("cluster serve requires --data-dir")?;
            let (mut session, report, primary) = algrec::cluster::open_primary(
                std::path::Path::new(dir),
                Budget::LARGE,
                store_options(a),
            )
            .map_err(|e| format!("{dir}: {e}"))?;
            report_recovery(dir, &report);
            preload(&mut session, rest.first())?;
            let listener = bind_announced(a, "primary")?;
            let shared = Arc::new(SharedSession::new(session));
            algrec::cluster::serve_primary(listener, shared, primary);
            Ok(())
        }
        "join" => {
            let primary = a
                .primary
                .as_ref()
                .ok_or("cluster join requires --primary")?;
            let shared = Arc::new(SharedSession::new(Session::new(Budget::LARGE)));
            let mut replica = algrec::cluster::Replica::start(primary, Arc::clone(&shared))
                .map_err(|e| format!("{primary}: {e}"))?;
            let listener = bind_announced(a, "replica")?;
            algrec::cluster::serve_replica(listener, shared, Arc::clone(replica.state()));
            replica.stop();
            Ok(())
        }
        "route" => {
            let primary = a
                .primary
                .as_ref()
                .ok_or("cluster route requires --primary")?;
            let config = algrec::cluster::RouterConfig {
                primary: primary.clone(),
                replicas: a.replica_addrs.clone(),
            };
            let listener = bind_announced(a, "router")?;
            algrec::cluster::serve_router(listener, config);
            Ok(())
        }
        other => Err(format!("unknown cluster subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return fail(
            "usage: algrec <eval|alg|spec|translate|stable|repl|serve|scenario|cluster> … \
             (see --help in the README)",
        );
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let result = match cmd.as_str() {
        "eval" => cmd_eval(&args),
        "alg" => cmd_alg(&args),
        "spec" => cmd_spec(&args),
        "translate" => cmd_translate(&args),
        "stable" => cmd_stable(&args),
        "repl" => cmd_repl(&args),
        "serve" => cmd_serve(&args),
        "scenario" => cmd_scenario(&args),
        "cluster" => cmd_cluster(&args),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}
