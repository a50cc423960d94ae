//! Golden test for the shape of the machine-readable report that
//! `tables --json` writes (`BENCH_N.json`). Pins the *schema* — key
//! names, nesting, and value kinds, including the `stats` telemetry
//! object — against a deterministic table, never actual timings. If a
//! field is renamed, added or dropped, this test fails with the full
//! expected/actual documents so downstream consumers of the report hear
//! about it here rather than in a dashboard.

use algrec_bench::table::{report_json, Table};
use algrec_value::{EvalStats, IncrStats, PhaseStats, StoreStats};

/// A fully deterministic table: no wall-clock anywhere (phase wall time
/// is set by hand, in whole milliseconds, so the `{:.3}` formatting is
/// exact).
fn golden_table() -> Table {
    let mut t = Table::new("E0", "golden schema", &["n", "agree"]);
    t.row(vec!["8".into(), "yes".into()]);
    t.metric("t_run_n8_s", 0.25);
    let stats = EvalStats {
        phases: vec![
            (
                "semi-naive".into(),
                PhaseStats {
                    iterations: 3,
                    deltas: vec![4, 2, 0],
                    wall_nanos: 2_000_000,
                },
            ),
            (
                "certain".into(),
                PhaseStats {
                    iterations: 1,
                    deltas: vec![0],
                    wall_nanos: 1_000_000,
                },
            ),
        ],
        iterations: 4,
        facts_inserted: 6,
        facts_materialized: 6,
        deltas: vec![4, 2, 0, 0],
        index_builds: 1,
        index_probes: 5,
        index_hits: 4,
        interned_values: 10,
        interned_symbols: 2,
        store: StoreStats {
            wal_records: 3,
            wal_bytes: 96,
            wal_fsyncs: 3,
            snapshots: 1,
            snapshot_bytes: 256,
            recovery_replayed: 2,
            snapshot_maps: 1,
            mapped_bytes: 512,
        },
        incr: IncrStats {
            levels_replayed: 5,
            levels_skipped: 2,
            fallbacks: 1,
            support_incs: 9,
            support_decs: 4,
        },
    };
    t.stat("run_n8", stats);
    t
}

#[test]
fn table_json_matches_golden() {
    let expected = concat!(
        "{\"id\":\"E0\",\"title\":\"golden schema\",",
        "\"headers\":[\"n\",\"agree\"],",
        "\"rows\":[[\"8\",\"yes\"]],",
        "\"metrics\":{\"t_run_n8_s\":0.25},",
        "\"stats\":{\"run_n8\":{",
        "\"iterations\":4,\"facts_inserted\":6,\"facts_materialized\":6,",
        "\"deltas\":[4,2,0,0],",
        "\"index\":{\"builds\":1,\"probes\":5,\"hits\":4},",
        "\"interned\":{\"values\":10,\"symbols\":2},",
        "\"incr\":{\"levels_replayed\":5,\"levels_skipped\":2,\"fallbacks\":1,",
        "\"support_incs\":9,\"support_decs\":4},",
        "\"store\":{\"wal_records\":3,\"wal_bytes\":96,\"wal_fsyncs\":3,",
        "\"snapshots\":1,\"snapshot_bytes\":256,\"recovery_replayed\":2,",
        "\"snapshot_maps\":1,\"mapped_bytes\":512},",
        "\"phases\":[",
        "{\"name\":\"semi-naive\",\"iterations\":3,\"wall_ms\":2.000,\"deltas\":[4,2,0]},",
        "{\"name\":\"certain\",\"iterations\":1,\"wall_ms\":1.000,\"deltas\":[0]}",
        "]}}}"
    );
    assert_eq!(golden_table().to_json(), expected);
}

#[test]
fn report_json_wraps_experiments() {
    let t = golden_table();
    let report = report_json(&[&t]);
    assert_eq!(report, format!("{{\"experiments\":[{}]}}", t.to_json()));
}

#[test]
fn e10_report_has_the_pinned_shape() {
    // E10 carries the concurrency acceptance numbers; downstream
    // consumers key on these metric names, so pin them (a quick run —
    // the values are timings, only the shape is asserted).
    let t = algrec_bench::experiments::e10(true, false);
    assert_eq!(t.id, "E10");
    assert_eq!(
        t.headers,
        vec!["part", "workload", "threads", "time", "throughput", "agree"]
    );
    let has = |name: &str| t.metrics.iter().any(|(n, _)| n == name);
    for k in [1, 2, 4, 8] {
        assert!(has(&format!("t_fix_tc_t{k}_s")));
        assert!(has(&format!("t_fix_win_t{k}_s")));
        assert!(has(&format!("qps_snapshot_t{k}")));
    }
    assert!(has("qps_live_t1"));
    assert!(has("speedup_snapshot_t4_vs_live"));
}

#[test]
fn e11_report_has_the_pinned_shape() {
    // E11 carries the plan-compiler acceptance numbers; the ≥5× claim is
    // asserted inside the experiment at the full-sweep sizes, so here a
    // small run pins only the metric names and table shape.
    let t = algrec_bench::experiments::e11(&[10], 8, false);
    assert_eq!(t.id, "E11");
    assert_eq!(
        t.headers,
        vec![
            "workload",
            "n",
            "t_interpreted",
            "t_compiled",
            "speedup",
            "agree"
        ]
    );
    let has = |name: &str| t.metrics.iter().any(|(n, _)| n == name);
    assert!(has("t_interpreted_tc_n10_s"));
    assert!(has("t_compiled_tc_n10_s"));
    assert!(has("speedup_tc_n10"));
    assert!(has("t_interpreted_win_acyclic_n8_s"));
    assert!(has("t_compiled_win_acyclic_n8_s"));
    assert!(has("t_interpreted_win_cyclic_n8_s"));
    assert!(has("t_compiled_win_cyclic_n8_s"));
    assert!(t.rows.iter().all(|r| r[5] == "yes"));
}

#[test]
fn empty_stats_serializes_as_empty_object() {
    // Runs without --stats must still produce the key (consumers can rely
    // on its presence) with an empty object.
    let t = Table::new("E0", "no stats", &["a"]);
    assert!(t.to_json().contains("\"stats\":{}"));
}
