//! The batch job list run in-process: the oracle for the CLI passes of
//! `cold_batch`, and the place its per-layer numbers come from.
//!
//! Each job is redone through the same public functions the `algrec`
//! sub-command calls, one span per layer, and its text output must equal
//! the CLI's byte for byte. On top of that the outputs are compared with
//! each other where the paper says they agree: valid = well-founded on
//! WIN/MOVE, the `algebra=` WIN equation = the deductive WIN program
//! (Thm 6.2), and the Prop 6.1 translation of TC = TC.

use crate::live::JobRun;
use crate::stats::timed_us as timed;
use crate::workload::{Job, JobKind, Plan};
use algrec_datalog::interp::args_tuple;
use algrec_datalog::{evaluate, load_facts};
use algrec_serve::parse_semantics;
use algrec_serve::session::format_fact;
use algrec_value::{Budget, Database, Value};
use std::collections::{BTreeMap, BTreeSet};

/// What the in-process batch pass found.
#[derive(Default)]
pub struct BatchCheck {
    /// Comparisons made.
    pub checked: usize,
    /// Comparisons that failed.
    pub failed: usize,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Per-layer metrics by name.
    pub layers: BTreeMap<String, f64>,
}

impl BatchCheck {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    fn add(&mut self, name: &str, us: f64) {
        *self.layers.entry(name.to_string()).or_insert(0.0) += us;
    }
}

/// A job's answer as sets of members, for the cross-checks.
#[derive(PartialEq)]
struct Answer {
    certain: BTreeSet<Value>,
    unknown: BTreeSet<Value>,
}

/// Redo one job in-process. Returns its stdout text, its answer sets
/// (none for `translate`) and the microseconds spent in library calls.
fn redo(
    job: &Job,
    files: &BTreeMap<&str, String>,
    check: &mut BatchCheck,
) -> Result<(String, Option<Answer>, f64), String> {
    let source = files
        .get(job.program)
        .ok_or_else(|| format!("no input file {}", job.program))?;
    let facts = files
        .get(job.facts)
        .ok_or_else(|| format!("no input file {}", job.facts))?;
    let mut spent = 0.0;
    let mut lap = |check: &mut BatchCheck, name: &str, us: f64| {
        check.add(name, us);
        spent += us;
    };
    let mut db = Database::new();
    let (loaded, us) = timed(|| load_facts(&mut db, facts));
    loaded.map_err(|e| format!("{}: {e}", job.facts))?;
    lap(check, "datalog.load_facts_us", us);
    let fail = |e: &dyn std::fmt::Display| format!("job {}: {e}", job.name);
    let (text, answer) = match &job.kind {
        JobKind::Eval { semantics, pred } => {
            let (program, us) = timed(|| algrec_datalog::parser::parse_program(source));
            let program = program.map_err(|e| fail(&e))?;
            lap(check, "datalog.parse_program_us", us);
            let semantics = parse_semantics(semantics)?;
            let (out, us) = timed(|| evaluate(&program, &db, semantics, Budget::LARGE));
            let out = out.map_err(|e| fail(&e))?;
            lap(check, &format!("datalog.evaluate_us.{}", job.name), us);
            check
                .layers
                .insert(format!("datalog.rounds.{}", job.name), out.rounds as f64);
            let ((text, answer), us) = timed(|| {
                let mut text = String::new();
                let mut answer = Answer {
                    certain: BTreeSet::new(),
                    unknown: BTreeSet::new(),
                };
                for args in out.model.certain.facts(pred) {
                    text.push_str(&format!("{}.\n", format_fact(pred, args)));
                    answer.certain.insert(args_tuple(args));
                }
                for (p, args) in out.model.unknown_facts() {
                    if p == *pred {
                        text.push_str(&format!("% unknown: {}\n", format_fact(pred, &args)));
                        answer.unknown.insert(args_tuple(&args));
                    }
                }
                (text, answer)
            });
            lap(check, "datalog.render_us", us);
            let facts = (answer.certain.len() + answer.unknown.len()) as f64;
            check
                .layers
                .insert(format!("datalog.model_facts.{}", job.name), facts);
            (text, Some(answer))
        }
        JobKind::Alg => {
            let (program, us) = timed(|| algrec_core::parser::parse_program(source));
            let program = program.map_err(|e| fail(&e))?;
            lap(check, "core.parse_us", us);
            let (out, us) = timed(|| algrec_core::eval_valid(&program, &db, Budget::LARGE));
            let out = out.map_err(|e| fail(&e))?;
            // The translated program's evaluation is the round trip's cost.
            let name = if job.program.ends_with("tc.alg") {
                "translate.roundtrip_eval_us"
            } else {
                "core.eval_valid_us"
            };
            lap(check, name, us);
            let answer = Answer {
                certain: out.query.lower().clone(),
                unknown: out.query.unknown_members(),
            };
            (format!("{}\n", out.query), Some(answer))
        }
        JobKind::Translate { pred, .. } => {
            let (program, us) = timed(|| algrec_datalog::parser::parse_program(source));
            let program = program.map_err(|e| fail(&e))?;
            lap(check, "datalog.parse_program_us", us);
            let arities = algrec_translate::edb_arities(&db);
            let (alg, us) =
                timed(|| algrec_translate::datalog_to_algebra(&program, pred, &arities));
            let alg = alg.map_err(|e| fail(&e))?;
            lap(check, "translate.to_algebra_us", us);
            (format!("{alg}\n"), None)
        }
    };
    Ok((text, answer, spent))
}

/// Check every CLI pass against the in-process run of the job list.
pub fn run(plan: &Plan, passes: &[Vec<JobRun>]) -> Result<BatchCheck, String> {
    let mut check = BatchCheck::default();
    if plan.jobs.is_empty() {
        return Ok(check);
    }
    let mut files: BTreeMap<&str, String> = plan
        .files
        .iter()
        .map(|(name, text)| (*name, text.clone()))
        .collect();
    let mut answers: BTreeMap<&str, Answer> = BTreeMap::new();
    let mut texts: BTreeMap<&str, String> = BTreeMap::new();
    let mut overhead_ms = Vec::new();
    for (k, job) in plan.jobs.iter().enumerate() {
        let (text, answer, spent_us) = redo(job, &files, &mut check)?;
        let mut walls = Vec::new();
        for (p, pass) in passes.iter().enumerate() {
            check.expect(pass[k].stdout == text, || {
                format!(
                    "job {} pass {p}: CLI output differs from the in-process run",
                    job.name
                )
            });
            walls.push(pass[k].wall_s);
        }
        if let Some(wall_s) = crate::stats::median(&walls) {
            overhead_ms.push(wall_s * 1e3 - spent_us / 1e3);
        }
        if let JobKind::Translate { out, .. } = &job.kind {
            files.insert(out, text.clone());
        }
        if let Some(answer) = answer {
            answers.insert(job.name, answer);
        }
        texts.insert(job.name, text);
    }
    // Where the paper says two outputs agree.
    check.expect(texts.get("win_valid") == texts.get("win_wf"), || {
        "valid and well-founded disagree on WIN/MOVE".to_string()
    });
    for (algebra, deduction) in [("alg_win", "win_small"), ("alg_tc", "tc_small")] {
        let same =
            matches!((answers.get(algebra), answers.get(deduction)), (Some(a), Some(d)) if a == d);
        check.expect(same, || format!("{algebra} and {deduction} disagree"));
    }

    // `eval_exact` is only on the path of non-recursive programs: time
    // one over the small game (positions that are moved to but never
    // moved from).
    let mut db = Database::new();
    let small = files
        .get("moves_small.dl")
        .ok_or("no input file moves_small.dl")?;
    load_facts(&mut db, small).map_err(|e| e.to_string())?;
    let sinks = algrec_core::parser::parse_program("query map(move, x.1) - map(move, x.0);")
        .map_err(|e| e.to_string())?;
    let (exact, us) = timed(|| algrec_core::eval_exact(&sinks, &db, Budget::LARGE));
    exact.map_err(|e| e.to_string())?;
    check.layers.insert("core.eval_exact_us".to_string(), us);
    let overhead = crate::stats::median(&overhead_ms).unwrap_or(0.0);
    check
        .layers
        .insert("algrec.cli_overhead_ms".to_string(), overhead);
    Ok(check)
}
