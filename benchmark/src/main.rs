//! The algrec benchmark: one workload per process.
//!
//! ```text
//! algrec-benchmark --workload W --seed N --seconds S --trace 0|1 [--bin PATH] [--out DIR]
//! algrec-benchmark --all [--seed N] [--seconds S] [--repeats K] [--bin PATH] [--out DIR]
//! algrec-benchmark --compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` declares (through `run.sh`,
//! which builds first): it runs the untraced live-TCP pass, then the
//! in-process pass that checks every reply, and prints one JSON object
//! as the last line of stdout. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones. See `README.md`.

mod batch;
mod live;
mod replay;
mod report;
mod rusage;
mod stats;
mod trace;
mod workload;

use algrec_serve::{json, Json};
use report::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Class, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    repeats: usize,
    compare: Option<(String, String)>,
    bin: PathBuf,
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        all: false,
        repeats: 1,
        compare: None,
        bin: Path::new(&target).join("release").join("algrec"),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeats" => args.repeats = number(value()?)?.max(1) as usize,
            "--all" => args.all = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--bin" => args.bin = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Every `ALGREC_*` variable in the environment. A result must never
/// silently describe a baseline path, so a set `ALGREC_*_BASELINE` or
/// `ALGREC_THREADS` refuses the run (CI's default leg exports them
/// empty, which every toggle reads as unset).
fn algrec_env() -> Result<BTreeMap<String, String>, String> {
    let seen: BTreeMap<String, String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ALGREC_"))
        .collect();
    for (key, value) in &seen {
        if !value.is_empty() && (key.ends_with("_BASELINE") || key == "ALGREC_THREADS") {
            return Err(format!(
                "{key}={value} is set: the benchmark measures the default path only; unset it"
            ));
        }
    }
    Ok(seen)
}

/// The environment envelope stored with every result.
fn envelope(args: &Args, plan: Option<&workload::Plan>) -> Result<Json, String> {
    let seen = algrec_env()?;
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut env = vec![
        ("commit", Json::str(var("BENCH_COMMIT"))),
        ("rustc", Json::str(var("BENCH_RUSTC"))),
        // Taken by run.sh before it pins this process to one CPU.
        ("nproc", Json::str(var("BENCH_NPROC"))),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("threads", Json::str(live::THREADS)),
        ("sync", Json::str(live::SYNC)),
        ("connections", Json::Int(1)),
        (
            "child_cpu",
            Json::str(std::env::var(live::CHILD_CPU_VAR).unwrap_or_default()),
        ),
        (
            "algrec_env",
            Json::Obj(seen.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
    ];
    if let Some(plan) = plan {
        env.push(("snapshot_every", Json::Int(plan.snapshot_every as i64)));
        env.push(("wal_tail", Json::Int(plan.wal_tail as i64)));
        env.push((
            "stream_hash",
            Json::str(format!("{:016x}", plan.stream_hash())),
        ));
        env.push((
            "ops",
            Json::obj([
                ("load", Json::Int(plan.count(Class::Load) as i64)),
                ("write", Json::Int(plan.count(Class::Write) as i64)),
                ("point", Json::Int(plan.count(Class::Point) as i64)),
                ("scan", Json::Int(plan.count(Class::Scan) as i64)),
                (
                    "batch_jobs",
                    Json::Int((plan.jobs.len() * plan.passes) as i64),
                ),
            ]),
        ));
    }
    Ok(Json::obj(env))
}

/// One workload, both passes. Prints the result object as the last line.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    if !WORKLOADS.contains(&name) {
        return Err(format!(
            "unknown workload `{name}` (expected one of {WORKLOADS:?})"
        ));
    }
    algrec_env()?;
    if !args.bin.is_file() {
        return Err(format!(
            "{}: no such binary (build the repository first)",
            args.bin.display()
        ));
    }
    let bin = args.bin.canonicalize().map_err(|e| e.to_string())?;
    let work = args.out.join(name);
    live::fresh_dir(&work)?;
    let make_plan = || workload::generate(name, args.seed, args.seconds).expect("name was checked");

    let (plan, live) = live::run(&bin, &work, &make_plan)?;
    // The serving pool of the in-process pass matches the children's.
    algrec_sched::set_threads(live::THREADS.parse().expect("THREADS is a number"));
    let replay = replay::run(&plan, &live, args.trace, &work)?;
    let batch = batch::run(&plan, &live.jobs)?;

    // Correctness: every reply, the final state, and what survived the kill.
    let mut failed = replay.failed + batch.failed + usize::from(!replay.cold_ok);
    let mut attempted = replay.checked + batch.checked + 1;
    let mut first_failure = replay.first_failure.clone().or(batch.first_failure.clone());
    if !replay.cold_ok {
        first_failure
            .get_or_insert_with(|| "a view differs from a cold evaluation of the final EDB".into());
    }
    for (k, (before, after)) in live
        .verify_before
        .iter()
        .zip(&live.verify_after)
        .enumerate()
    {
        attempted += 1;
        if replay::strip_epoch(before) != replay::strip_epoch(after) {
            failed += 1;
            first_failure.get_or_insert_with(|| {
                format!("verification line {k} changed across SIGKILL + reopen")
            });
        }
    }

    // End-to-end metrics, all from the untraced pass.
    let mut e2e: BTreeMap<String, f64> = BTreeMap::new();
    let ms = |class, q| {
        stats::percentile(&live::class_latencies(&plan, &live, class), q).map(|s| s * 1e3)
    };
    let mut put = |name: &str, v: Option<f64>| {
        if let Some(v) = v {
            e2e.insert(name.to_string(), v);
        }
    };
    put("setup_s", stats::median(&live.setup_s));
    put("run_s", Some(live.run_s));
    put("write_p50_ms", ms(Class::Write, 0.50));
    put("scan_read_p50_ms", ms(Class::Scan, 0.50));
    put(
        "disk_bytes_per_user_byte",
        Some(live.disk_bytes as f64 / plan.live_edb_bytes.max(1) as f64),
    );
    put("peak_rss_mb", Some(live.peak_rss_mb));

    // Per-layer metrics: the traced pass, plus the socket's share — the
    // untraced median of a class minus its `handle_line` median.
    let mut layers = replay.layers.clone();
    layers.extend(batch.layers.clone());
    if args.trace {
        let demoted = [
            ("recover_s", stats::median(&live.recover_s)),
            ("write_p99_ms", ms(Class::Write, 0.99)),
            ("point_read_p50_us", ms(Class::Point, 0.50).map(|v| v * 1e3)),
            ("scan_read_p95_ms", ms(Class::Scan, 0.95)),
        ];
        layers.extend(
            demoted
                .into_iter()
                .filter_map(|(k, v)| Some((k.to_string(), v?))),
        );
        for (class, label) in [
            (Class::Write, "write"),
            (Class::Point, "point"),
            (Class::Scan, "scan"),
        ] {
            let inside = layers
                .get(&format!("serve.handle_line_{label}_us"))
                .copied()
                .unwrap_or(0.0);
            if let Some(outside) = ms(class, 0.50) {
                layers.insert(
                    format!("serve.socket_{label}_us"),
                    (outside * 1e3 - inside).max(0.0),
                );
            }
        }
        let path = args.out.join(format!("{name}.trace.json"));
        std::fs::write(&path, trace::to_json(&replay.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let (table, values) = if args.trace {
        (PER_LAYER, &layers)
    } else {
        (END_TO_END, &e2e)
    };
    for metric in table {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        println!(
            "{name:<15} {:<32} {value:>16.4} {}",
            metric.name, metric.unit
        );
    }
    let failed_share = failed as f64 / attempted as f64;
    println!(
        "{name:<15} {:<32} {failed_share:>16.4} ratio",
        "failed_share"
    );
    println!(
        "{name:<15} ops/s {:.1} over {} requests ({} loads, {} writes, {} point, {} scan reads)",
        plan.ops.len() as f64 / live.run_s,
        plan.ops.len(),
        plan.count(Class::Load),
        plan.count(Class::Write),
        plan.count(Class::Point),
        plan.count(Class::Scan),
    );
    println!(
        "{name:<15} setup_s repetitions {:.4?}, recover_s repetitions {:.4?}",
        live.setup_s, live.recover_s
    );
    for class in [Class::Point, Class::Scan] {
        let bytes: Vec<usize> = plan
            .ops
            .iter()
            .zip(&live.replies)
            .filter(|(op, _)| op.class == class)
            .map(|(_, r)| r.len())
            .collect();
        if let (Some(min), Some(max)) = (bytes.iter().min(), bytes.iter().max()) {
            println!("{name:<15} {} reply bytes {min}..{max}", class.label());
        }
    }
    if let Some(failure) = &first_failure {
        println!("{name:<15} FAILED {failed} of {attempted}: {failure}");
    }

    let metrics = report::metrics_json(table, values);
    let file = Json::obj([
        ("env", envelope(args, Some(&plan))?),
        ("workload", Json::str(name)),
        ("trace", Json::Bool(args.trace)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("failed_share", Json::Float(failed_share)),
        ("metrics", metrics.clone()),
    ]);
    let path = args
        .out
        .join(format!("{name}.run{}.json", u8::from(args.trace)));
    std::fs::write(&path, file.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    // The data directories are only needed while the run lasts.
    std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(())
}

/// `--all`: every workload in a process of its own (the interners are
/// process-global), untraced `repeats` times, then traced once; the
/// collected numbers go to `out/result.json`.
fn run_all(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = BTreeMap::new();
    for name in WORKLOADS {
        let mut end_to_end: BTreeMap<String, Vec<Json>> = BTreeMap::new();
        let mut per_layer = Json::Null;
        let (mut attempted, mut failed) = (0, 0);
        for pass in 0..=args.repeats {
            let traced = pass == args.repeats;
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .arg("--bin")
                .arg(&args.bin)
                .arg("--out")
                .arg(&args.out)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "workload {name} (trace {}) exited with {status}",
                    u8::from(traced)
                ));
            }
            let path = args
                .out
                .join(format!("{name}.run{}.json", u8::from(traced)));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            attempted += doc.get("attempted").and_then(Json::as_int).unwrap_or(0);
            failed += doc.get("failed").and_then(Json::as_int).unwrap_or(0);
            let value_of = |m: &Json| m.get("value").cloned().unwrap_or(Json::Null);
            match doc.get("metrics") {
                Some(Json::Obj(metrics)) if traced => {
                    per_layer = Json::Obj(
                        metrics
                            .iter()
                            .map(|(k, m)| (k.clone(), value_of(m)))
                            .collect(),
                    );
                }
                Some(Json::Obj(metrics)) => {
                    for (k, m) in metrics {
                        end_to_end.entry(k.clone()).or_default().push(value_of(m));
                    }
                }
                _ => return Err(format!("{}: no metrics", path.display())),
            }
        }
        workloads.insert(
            name.to_string(),
            Json::obj([
                (
                    "end_to_end",
                    Json::Obj(
                        end_to_end
                            .into_iter()
                            .map(|(k, v)| (k, Json::Arr(v)))
                            .collect(),
                    ),
                ),
                ("per_layer", per_layer),
                ("attempted", Json::Int(attempted)),
                ("failed", Json::Int(failed)),
                (
                    "failed_share",
                    Json::Float(failed as f64 / attempted.max(1) as f64),
                ),
            ]),
        );
    }
    let doc = Json::obj([
        ("env", envelope(args, None)?),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = args.out.join("result.json");
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return report::compare(a, b).map(|any_worse| !any_worse);
        }
        if args.all {
            return run_all(&args).map(|()| true);
        }
        match &args.workload {
            Some(name) => run_one(&args, name).map(|()| true),
            None => Err("expected --workload NAME, --all, or --compare A.json B.json".to_string()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("algrec-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
