//! The scenario runner behind `algrec scenario list|run|record`.
//!
//! * [`list`] prints the corpus (or the one scenario `-f` names) with
//!   titles, tags and semantics.
//! * [`run`] replays every selected scenario at each configured
//!   concurrency (in-process by default, against a live TCP server
//!   under `--live`, or against an already-running external server —
//!   e.g. a cluster router — under `--addr`), diffs replies against
//!   the recording modulo epoch
//!   tags, runs the durable recovery leg, and returns whether each leg
//!   matched.
//! * [`record`] replays each selected scenario once at concurrency 1
//!   and (re)writes its `expected.ndjson`.

use crate::corpus::{load_corpus, Scenario};
use crate::replay::{
    diff_modulo_epoch, replay, setup_session, strip_epoch, Connector, InProcessConnector,
    ReplayOptions, ReplayOutcome, TcpConnector,
};
use algrec_serve::json::{self, Json};
use algrec_serve::{serve, Session};
use algrec_store::{StoreOptions, SyncPolicy};
use algrec_value::{Budget, Trace};
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options for [`run`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Corpus directory.
    pub corpus: PathBuf,
    /// The name of the one scenario to run; `None` runs them all.
    pub filter: Option<String>,
    /// Concurrency legs to replay (each scenario runs once per entry).
    pub concurrency: Vec<usize>,
    /// Read scale-factor applied to every leg.
    pub scale: usize,
    /// Replay over a live TCP server (spawned per scenario on an
    /// ephemeral loopback port) instead of in-process.
    pub live: bool,
    /// Replay against an already-running external server (e.g. a
    /// cluster router) at this `host:port` instead of spawning one.
    /// The target must have been seeded with the scenario's EDB and
    /// views already — no setup is sent — the durable recovery leg
    /// is skipped (the external server owns its own durability), and
    /// the trace replays exactly once, at the widest configured
    /// concurrency: the trace's writes advance the external state, so
    /// a second leg would start from the wrong database.
    pub addr: Option<String>,
    /// Skip the durable recovery leg.
    pub no_recovery: bool,
    /// Evaluation budget for every session.
    pub budget: Budget,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            corpus: PathBuf::from("scenarios"),
            filter: None,
            concurrency: vec![1, 4],
            scale: 1,
            live: false,
            addr: None,
            no_recovery: false,
            budget: Budget::LARGE,
        }
    }
}

/// One concurrency leg of one scenario.
#[derive(Debug, Clone)]
pub struct LegReport {
    /// Worker connections used for read blocks.
    pub concurrency: usize,
    /// Did the replies match the recording (modulo epoch tags)?
    pub matched: bool,
}

/// The durable-store leg: replay against a data directory, reopen,
/// verify.
#[derive(Debug, Clone)]
pub struct RecoveryLeg {
    /// WAL records replayed on reopen.
    pub replayed: usize,
    /// Trailing read requests re-issued against the recovered session.
    pub checked: usize,
    /// Did the recovered replies match the live ones (modulo epochs)?
    pub matched: bool,
}

/// What [`run`] found for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario (directory) name.
    pub name: String,
    /// Read requests in the trace.
    pub reads: usize,
    /// Mutating requests in the trace.
    pub writes: usize,
    /// One row per replayed concurrency.
    pub legs: Vec<LegReport>,
    /// The durable recovery leg, when run.
    pub recovery: Option<RecoveryLeg>,
}

/// Load the corpus, keeping only the scenario named `filter` when one
/// is given. A name that is not in the corpus is an error.
pub fn select(corpus: &Path, filter: Option<&str>) -> Result<Vec<Scenario>, String> {
    let mut scenarios = load_corpus(corpus).map_err(|e| e.to_string())?;
    if let Some(name) = filter {
        scenarios.retain(|s| s.name == name);
        if scenarios.is_empty() {
            return Err(format!(
                "no scenario named `{name}` in {}",
                corpus.display()
            ));
        }
    }
    Ok(scenarios)
}

/// Print the selected scenarios, one per line.
pub fn list(out: &mut dyn Write, corpus: &Path, filter: Option<&str>) -> Result<(), String> {
    let scenarios = select(corpus, filter)?;
    for s in &scenarios {
        writeln!(
            out,
            "{}  [{}]  ({})  {} request(s) — {}",
            s.name,
            s.tags.join(", "),
            s.semantics_facet().join(", "),
            s.trace.len(),
            s.title,
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(out, "{} scenario(s)", scenarios.len()).map_err(|e| e.to_string())?;
    Ok(())
}

/// A fresh, set-up in-memory session for a scenario.
fn session_for(scenario: &Scenario, budget: Budget) -> Result<Session, String> {
    let mut session = Session::new(budget);
    setup_session(&mut session, scenario)?;
    Ok(session)
}

/// Run one replay leg, in-process or against a throwaway live server.
fn replay_leg(
    scenario: &Scenario,
    opts: &RunOptions,
    replay_opts: ReplayOptions,
) -> Result<ReplayOutcome, String> {
    if let Some(addr) = &opts.addr {
        // External target: the server (often a cluster router) already
        // holds the scenario's state, so no session, setup or teardown.
        use std::net::ToSocketAddrs;
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| format!("{addr}: {e}"))?
            .next()
            .ok_or_else(|| format!("{addr}: resolved to no address"))?;
        let connector = TcpConnector::new(sockaddr);
        return replay(scenario, &connector, replay_opts);
    }
    let session = session_for(scenario, opts.budget)?;
    if !opts.live {
        let connector = InProcessConnector::new(session);
        return replay(scenario, &connector, replay_opts);
    }
    // Live leg: a real `serve` loop on an ephemeral loopback port, torn
    // down with a protocol `shutdown` once the trace has replayed.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = std::thread::spawn(move || serve(listener, session));
    let connector = TcpConnector::new(addr);
    let outcome = replay(scenario, &connector, replay_opts);
    let mut control = connector.connect()?;
    control.roundtrip(r#"{"id": "scenario-shutdown", "op": "shutdown"}"#)?;
    server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    outcome
}

/// The indices of the trace's trailing maximal read block — the reads
/// that observed the scenario's *final* state, hence the reads a
/// recovered session must be able to reproduce.
fn trailing_reads(scenario: &Scenario) -> Vec<usize> {
    let mut idx: Vec<usize> = Vec::new();
    for (i, line) in scenario.trace.iter().enumerate().rev() {
        if crate::replay::is_read_request(line) {
            idx.push(i);
        } else {
            break;
        }
    }
    idx.reverse();
    idx
}

/// The fields of a `stats` reply's view that count work the session
/// did. A recovered view's describe its one cold build (DESIGN.md §13),
/// not the maintenance that preceded the crash.
const WORK_COUNTERS: [&str; 6] = [
    "deltas_applied",
    "strata_skipped",
    "rebuilds",
    "registration",
    "last",
    "cumulative",
];

/// A reply as the recovery leg compares it: epoch-stripped, and for a
/// `stats` reply without its [`WORK_COUNTERS`]. Every other field —
/// `name`, `kind`, `semantics`, `strategy`, `dirty` — must still match.
fn recovery_comparable(reply: &str) -> String {
    let Ok(mut tree) = json::parse(reply) else {
        return strip_epoch(reply);
    };
    let mut stats = false;
    if let Json::Obj(fields) = &mut tree {
        if let Some(Json::Arr(views)) = fields.get_mut("views") {
            for view in views {
                if let Json::Obj(view) = view {
                    if view.contains_key("deltas_applied") {
                        stats = true;
                        for key in WORK_COUNTERS {
                            view.remove(key);
                        }
                    }
                }
            }
        }
    }
    if stats {
        strip_epoch(&tree.to_string())
    } else {
        strip_epoch(reply)
    }
}

/// A process-unique scratch directory for a durable leg.
fn scratch_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "algrec-scenario-{}-{}-{name}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The durable leg: replay the trace against a `--data-dir`-backed
/// session (concurrency 1 — the WAL serializes writes anyway), close
/// it, reopen it, and re-issue the trailing read block against
/// the recovered session. Recovery passes when every re-issued reply
/// matches the live one modulo epoch tags and, in a `stats` reply, the
/// [`WORK_COUNTERS`].
fn recovery_leg(scenario: &Scenario, budget: Budget) -> Result<RecoveryLeg, String> {
    let dir = scratch_dir(&scenario.name);
    let _ = std::fs::remove_dir_all(&dir);
    let result = recovery_leg_in(&dir, scenario, budget);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn recovery_leg_in(dir: &Path, scenario: &Scenario, budget: Budget) -> Result<RecoveryLeg, String> {
    let options = StoreOptions {
        sync: SyncPolicy::Never,
        snapshot_every: Some(1024),
    };
    let (mut session, _) = algrec_store::open(dir, budget, options, Trace::Null)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    setup_session(&mut session, scenario)?;
    let connector = InProcessConnector::new(session);
    let live = replay(scenario, &connector, ReplayOptions::default())?;
    drop(connector);

    let (recovered, report) = algrec_store::open(dir, budget, options, Trace::Null)
        .map_err(|e| format!("{}: reopening: {e}", dir.display()))?;

    let tail = trailing_reads(scenario);
    let connector = InProcessConnector::new(recovered);
    let mut transport = connector.connect()?;
    let mut matched = true;
    for &i in &tail {
        let reply = transport.roundtrip(&scenario.trace[i])?;
        if recovery_comparable(&reply) != recovery_comparable(&live.replies[i]) {
            matched = false;
        }
    }
    Ok(RecoveryLeg {
        replayed: report.replayed,
        checked: tail.len(),
        matched,
    })
}

/// Replay every selected scenario. Returns the per-scenario reports;
/// `Err` carries the first setup/transport failure. Reply divergences
/// do **not** error here — they are reported per leg (`matched:
/// false`) so one broken scenario doesn't hide the rest; the CLI exits
/// non-zero when [`all_matched`] is false.
pub fn run(out: &mut dyn Write, opts: &RunOptions) -> Result<Vec<ScenarioReport>, String> {
    let scenarios = select(&opts.corpus, opts.filter.as_deref())?;
    if scenarios.is_empty() {
        return Err("no scenarios selected".into());
    }
    let mut reports = Vec::new();
    for scenario in &scenarios {
        let Some(expected) = &scenario.expected else {
            return Err(format!(
                "{}: no recording (expected.ndjson); run `algrec scenario record` first",
                scenario.name
            ));
        };
        writeln!(
            out,
            "scenario {}: {} request(s), {} view(s) [{}]{}",
            scenario.name,
            scenario.trace.len(),
            scenario.views.len(),
            scenario.semantics_facet().join(", "),
            match (&opts.addr, opts.live) {
                (Some(_), _) => " (external)",
                (None, true) => " (live tcp)",
                (None, false) => "",
            },
        )
        .map_err(|e| e.to_string())?;
        let mut legs = Vec::new();
        let mut reads = 0;
        let mut writes = 0;
        // An external target's state advances with the trace's writes
        // and cannot be reset between legs, so the trace replays only
        // once there — at the widest configured concurrency. In-process
        // and `--live` legs each get a fresh session.
        let ladder: Vec<usize> = if opts.addr.is_some() {
            opts.concurrency.last().copied().into_iter().collect()
        } else {
            opts.concurrency.clone()
        };
        for &concurrency in &ladder {
            let replay_opts = ReplayOptions {
                concurrency,
                scale: opts.scale,
            };
            let outcome = replay_leg(scenario, opts, replay_opts)?;
            reads = outcome.reads;
            writes = outcome.writes;
            let divergence = diff_modulo_epoch(&scenario.trace, expected, &outcome.replies);
            if let Some(d) = &divergence {
                writeln!(out, "  c={concurrency}: DIVERGED\n{d}").map_err(|e| e.to_string())?;
            }
            let matched = divergence.is_none();
            writeln!(
                out,
                "  c={concurrency} x{}: {} req{}",
                opts.scale,
                outcome.requests,
                if matched { "" } else { " [MISMATCH]" },
            )
            .map_err(|e| e.to_string())?;
            legs.push(LegReport {
                concurrency,
                matched,
            });
        }
        let recovery = if opts.no_recovery || opts.addr.is_some() {
            None
        } else {
            let r = recovery_leg(scenario, opts.budget)?;
            writeln!(
                out,
                "  recovery: {} record(s) replayed, {}/{} tail read(s) match{}",
                r.replayed,
                if r.matched { r.checked } else { 0 },
                r.checked,
                if r.matched { "" } else { " [MISMATCH]" },
            )
            .map_err(|e| e.to_string())?;
            Some(r)
        };
        reports.push(ScenarioReport {
            name: scenario.name.clone(),
            reads,
            writes,
            legs,
            recovery,
        });
    }
    Ok(reports)
}

/// Did every leg and every recovery check of every scenario match?
pub fn all_matched(reports: &[ScenarioReport]) -> bool {
    reports.iter().all(|s| {
        s.legs.iter().all(|l| l.matched) && s.recovery.as_ref().map_or(true, |r| r.matched)
    })
}

/// Re-record the selected scenarios: replay each trace once, in
/// process, at concurrency 1, and rewrite `expected.ndjson`.
pub fn record(
    out: &mut dyn Write,
    corpus: &Path,
    filter: Option<&str>,
    budget: Budget,
) -> Result<(), String> {
    let scenarios = select(corpus, filter)?;
    if scenarios.is_empty() {
        return Err("no scenarios selected".into());
    }
    for scenario in &scenarios {
        let session = session_for(scenario, budget)?;
        let connector = InProcessConnector::new(session);
        let outcome = replay(scenario, &connector, ReplayOptions::default())?;
        let path = scenario.expected_path();
        let mut content = outcome.replies.join("\n");
        content.push('\n');
        std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(
            out,
            "recorded {}: {} replies -> {}",
            scenario.name,
            outcome.replies.len(),
            path.display()
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::load_scenario;

    fn write(path: &Path, content: &str) {
        std::fs::write(path, content).unwrap();
    }

    /// A tiny corpus on disk: one stratified scenario.
    fn seed_corpus(tag: &str) -> PathBuf {
        let root = scratch_dir(&format!("runner-corpus-{tag}"));
        let dir = root.join("tiny_tc");
        std::fs::create_dir_all(&dir).unwrap();
        write(
            &dir.join("meta.json"),
            r#"{"title": "tiny transitive closure", "description": "d",
                "tags": ["fast"], "edb": "edb.dl",
                "views": [{"name": "paths", "semantics": "stratified"}]}"#,
        );
        write(
            &dir.join("program.dl"),
            "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n",
        );
        write(&dir.join("edb.dl"), "e(1, 2). e(2, 3).\n");
        write(
            &dir.join("trace.ndjson"),
            concat!(
                r#"{"id": 1, "op": "query", "view": "paths", "pred": "tc"}"#,
                "\n",
                r#"{"id": 2, "op": "assert", "fact": "e(3, 4)"}"#,
                "\n",
                r#"{"id": 3, "op": "query", "view": "paths", "pred": "tc"}"#,
                "\n",
                r#"{"id": 4, "op": "db"}"#,
                "\n",
            ),
        );
        root
    }

    #[test]
    fn record_then_run_matches_in_process_and_live() {
        let root = seed_corpus("roundtrip");
        let mut sink = Vec::new();
        record(&mut sink, &root, None, Budget::LARGE).unwrap();
        let s = load_scenario(&root.join("tiny_tc")).unwrap();
        assert_eq!(s.expected.as_ref().unwrap().len(), 4);

        let opts = RunOptions {
            corpus: root.clone(),
            concurrency: vec![1, 4],
            ..RunOptions::default()
        };
        let reports = run(&mut sink, &opts).unwrap();
        assert!(all_matched(&reports), "{reports:?}");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].reads, 3);
        assert_eq!(reports[0].writes, 1);
        assert_eq!(reports[0].legs.len(), 2);
        let rec = reports[0].recovery.as_ref().unwrap();
        assert!(rec.matched);
        assert_eq!(rec.checked, 2, "trailing read block is the last two reads");
        assert!(rec.replayed > 0, "the trace's write must hit the WAL");

        // The live TCP path replays the same corpus identically.
        let live = RunOptions {
            live: true,
            no_recovery: true,
            ..opts
        };
        let reports = run(&mut sink, &live).unwrap();
        assert!(all_matched(&reports), "{reports:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn run_reports_divergence_without_erroring() {
        let root = seed_corpus("diverge");
        let mut sink = Vec::new();
        record(&mut sink, &root, None, Budget::LARGE).unwrap();
        // Corrupt the recording: the replay must notice (modulo epochs,
        // so epoch edits would NOT count) and flag, not abort.
        let path = root.join("tiny_tc").join("expected.ndjson");
        let recorded = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, recorded.replace("tc(1, 2)", "tc(9, 9)")).unwrap();
        let opts = RunOptions {
            corpus: root.clone(),
            concurrency: vec![1],
            no_recovery: true,
            ..RunOptions::default()
        };
        let reports = run(&mut sink, &opts).unwrap();
        assert!(!all_matched(&reports));
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("DIVERGED"), "{text}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn filter_selects_and_list_prints() {
        let root = seed_corpus("filtering");
        let mut sink = Vec::new();
        assert_eq!(select(&root, None).unwrap().len(), 1);
        let named = select(&root, Some("tiny_tc")).unwrap();
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].name, "tiny_tc");
        // Names match exactly, and an unknown one is an error in every
        // subcommand, not an empty selection.
        let err = select(&root, Some("tiny")).unwrap_err();
        assert!(err.contains("no scenario named `tiny`"), "{err}");
        assert!(list(&mut sink, &root, Some("nosuch")).is_err());
        assert!(record(&mut sink, &root, Some("nosuch"), Budget::LARGE).is_err());
        let opts = RunOptions {
            corpus: root.clone(),
            filter: Some("nosuch".into()),
            ..RunOptions::default()
        };
        assert!(run(&mut sink, &opts).unwrap_err().contains("nosuch"));
        list(&mut sink, &root, Some("tiny_tc")).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("tiny_tc"), "{text}");
        assert!(text.contains("1 scenario(s)"), "{text}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recovery_compares_stats_without_its_work_counters() {
        let stats = |epoch: u64, deltas: u64, dirty: bool| {
            format!(
                r#"{{"epoch":{epoch},"id":7,"ok":true,"views":[{{"cumulative":{{"deltas":{deltas}}},"deltas_applied":{deltas},"dirty":{dirty},"kind":"datalog","last":null,"name":"acl","rebuilds":{deltas},"registration":{{"deltas":{deltas}}},"semantics":"valid","strata_skipped":{deltas},"strategy":"incremental-alternating"}}]}}"#
            )
        };
        let live = recovery_comparable(&stats(11, 5, false));
        assert_eq!(live, recovery_comparable(&stats(1, 0, false)));
        assert_ne!(live, recovery_comparable(&stats(11, 5, true)));
        assert_ne!(
            live,
            recovery_comparable(&stats(11, 5, false).replace("acl", "acl_ref"))
        );
        // Any other reply is compared modulo its epoch only.
        let views = r#"{"epoch":3,"id":2,"ok":true,"views":[{"changed":4,"name":"acl"}]}"#;
        assert_eq!(recovery_comparable(views), strip_epoch(views));
    }
}
