//! Metric tables, result files and `--compare`.
//!
//! The two tables below are the single list of metric names: a run
//! prints exactly these, `BENCHMARK.json` declares exactly these (a test
//! keeps the two in step), and `--compare` walks them.

use crate::stats;
use algrec_serve::{json, Json};
use std::collections::BTreeMap;

/// A metric a run reports.
pub struct Metric {
    /// Name, as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: 0.0,
    }
}

/// End-to-end metrics: what a user of the system sees, from the
/// untraced pass. Timing bounds are the widest the contract allows: on
/// the reference box the speed of pure CPU work drifts by 10–30 % over
/// minutes, so a narrower bound would only flag the neighbours' load.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("write_p50_ms", "ms", 0.25),
    e2e("scan_read_p50_ms", "ms", 0.25),
    e2e("disk_bytes_per_user_byte", "ratio", 0.05),
    e2e("peak_rss_mb", "MiB", 0.20),
];

/// Per-layer metrics, from the traced pass. A layer is a crate; `_us`
/// values are per-call medians unless the table in the README says
/// total; counts are exact with one client. A workload that does not
/// exercise a layer reports 0 for it. The first four are live-pass
/// timings that cannot hold an end-to-end bound on the reference box
/// (two tails, a round trip that is mostly thread wake-ups, and a
/// sub-second process start).
pub const PER_LAYER: &[Metric] = &[
    layer("recover_s", "s"),
    layer("write_p99_ms", "ms"),
    layer("point_read_p50_us", "us"),
    layer("scan_read_p95_ms", "ms"),
    layer("serve.handle_line_write_us", "us"),
    layer("serve.handle_line_point_us", "us"),
    layer("serve.handle_line_scan_us", "us"),
    layer("serve.handle_line_load_us", "us"),
    layer("serve.socket_write_us", "us"),
    layer("serve.socket_point_us", "us"),
    layer("serve.socket_scan_us", "us"),
    layer("serve.json_parse_us", "us"),
    layer("serve.apply_delta_us", "us"),
    layer("serve.maintain_stratified_us", "us"),
    layer("serve.read_view_us", "us"),
    layer("serve.readview_query_us", "us"),
    layer("serve.reply_encode_us", "us"),
    layer("serve.register_us", "us"),
    layer("serve.maintain_derivations", "count"),
    layer("serve.maintain_iterations", "count"),
    layer("serve.view_facts", "count"),
    layer("serve.noop_writes", "count"),
    layer("serve.reply_bytes_point_p50", "bytes"),
    layer("serve.reply_bytes_scan_p50", "bytes"),
    layer("incr.maintain_us", "us"),
    layer("incr.new_us", "us"),
    layer("incr.derivations", "count"),
    layer("incr.fallbacks", "count"),
    layer("incr.unknown_facts", "count"),
    layer("store.record_us", "us"),
    layer("store.snapshot_us", "us"),
    layer("store.snapshots", "count"),
    layer("store.wal_encode_us", "us"),
    layer("store.wal_write_us", "us"),
    layer("store.wal_fsync_us", "us"),
    layer("store.wal_fsyncs", "count"),
    layer("store.wal_bytes", "bytes"),
    layer("store.recover_us", "us"),
    layer("store.recover_replayed", "count"),
    layer("store.snapshot_decode_us", "us"),
    layer("column.snapshot_encode_us", "us"),
    layer("column.validate_us", "us"),
    layer("column.snapshot_bytes", "bytes"),
    layer("column.row_snapshot_bytes", "bytes"),
    layer("datalog.parse_program_us", "us"),
    layer("datalog.parse_fact_us", "us"),
    layer("datalog.load_facts_us", "us"),
    layer("datalog.evaluate_us.view", "us"),
    layer("datalog.evaluate_us.tc_compl", "us"),
    layer("datalog.evaluate_us.win_valid", "us"),
    layer("datalog.evaluate_us.win_wf", "us"),
    layer("datalog.rounds.view", "count"),
    layer("datalog.rounds.tc_compl", "count"),
    layer("datalog.rounds.win_valid", "count"),
    layer("datalog.rounds.win_wf", "count"),
    layer("datalog.model_facts.view", "count"),
    layer("datalog.model_facts.tc_compl", "count"),
    layer("datalog.model_facts.win_valid", "count"),
    layer("datalog.model_facts.win_wf", "count"),
    layer("datalog.render_us", "us"),
    layer("plan.explain_us", "us"),
    layer("value.intern_us", "us"),
    layer("value.resolve_us", "us"),
    layer("value.delta_build_us", "us"),
    layer("value.interned_values", "count"),
    layer("core.parse_us", "us"),
    layer("core.eval_valid_us", "us"),
    layer("core.eval_exact_us", "us"),
    layer("translate.to_algebra_us", "us"),
    layer("translate.roundtrip_eval_us", "us"),
    layer("algrec.cli_overhead_ms", "ms"),
    layer("trace.coverage", "ratio"),
    layer("trace.overhead_share", "ratio"),
];

/// `{"name": {"value": v, "unit": u}, …}` for every metric of `table`,
/// taking values from `values` (0 where a workload produced none).
pub fn metrics_json(table: &[Metric], values: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|m| {
                let value = values.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Float(value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// A number out of a parsed result file.
fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(n) => Some(*n as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// The samples of `metric` on `workload` in a `result.json` document.
fn samples(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Json::Arr(values)) = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
    else {
        return Vec::new();
    };
    values.iter().filter_map(number).collect()
}

/// Verdict of one metric × workload row of a comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's or B's own spread is wider than the bound: no verdict.
    Unresolved,
}

/// Compare the samples of one metric on one workload.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Option<(f64, f64, Verdict)> {
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > metric.bound);
    let worse_by = if metric.better == "lower" {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let verdict = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Some((ma, mb, verdict))
}

/// `--compare A.json B.json`: one row per metric × workload. Returns
/// whether any row is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for workload in crate::workload::WORKLOADS {
        for metric in END_TO_END {
            let Some((ma, mb, verdict)) = verdict(
                metric,
                &samples(&a, workload, metric.name),
                &samples(&b, workload, metric.name),
            ) else {
                continue;
            };
            any_worse |= verdict == Verdict::Worse;
            let label = match verdict {
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{workload:<16} {:<26} {ma:>14.4} {mb:>14.4} {:>8.3}  {label}",
                metric.name,
                mb / ma
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let m = e2e("latency", "ms", 0.10);
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&m, &steady, &[10.5, 10.6, 10.4, 10.5]).unwrap().2,
            Verdict::Same
        );
        assert_eq!(
            verdict(&m, &steady, &[12.0, 12.1, 11.9, 12.0]).unwrap().2,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m, &steady, &[5.0, 5.0, 5.1, 4.9]).unwrap().2,
            Verdict::Same
        );
        // A spread wider than the bound settles nothing.
        assert_eq!(
            verdict(&m, &steady, &[8.0, 12.0, 16.0, 10.0]).unwrap().2,
            Verdict::Unresolved
        );
        // One sample a side has no spread: the bound alone decides.
        assert_eq!(verdict(&m, &[10.0], &[11.5]).unwrap().2, Verdict::Worse);
        assert!(verdict(&m, &[], &[1.0]).is_none());
        let up = Metric {
            name: "rate",
            unit: "1/s",
            better: "higher",
            bound: 0.10,
        };
        assert_eq!(verdict(&up, &[100.0], &[80.0]).unwrap().2, Verdict::Worse);
    }

    /// `BENCHMARK.json` at the repository root declares exactly what a
    /// run emits: same workloads, same metric names, units and bounds.
    #[test]
    fn names_emitted_equal_names_declared() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let declared: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(declared, crate::workload::WORKLOADS);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = list(key);
            assert_eq!(declared.len(), table.len(), "{key}");
            for (item, metric) in declared.iter().zip(table) {
                assert_eq!(text(item, "name"), metric.name);
                assert_eq!(text(item, "unit"), metric.unit, "{}", metric.name);
                assert_eq!(text(item, "better"), metric.better, "{}", metric.name);
                let bound = item.get("bound").and_then(number);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(metric.bound),
                    "{}",
                    metric.name
                );
            }
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(list("paths"), vec![Json::str("benchmark")]);
        assert_eq!(
            list("command"),
            vec![Json::str("bash"), Json::str("benchmark/run.sh")]
        );
        let seconds = doc.get("run_seconds").and_then(Json::as_int).unwrap();
        assert!((1..=60).contains(&seconds));
    }
}
