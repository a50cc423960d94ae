//! The untraced pass: the release `algrec` binary as a child process,
//! driven over live TCP in a closed loop on one connection.
//!
//! One connection because line-protocol callers wait for each reply, and
//! because the reference box has two cores: one for the server, one for
//! this generator. No tracing anywhere on this path — every end-to-end
//! metric comes from here.

use crate::workload::{Class, Job, JobKind, Plan};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// `--threads` of every child: the reference box has two cores.
pub const THREADS: &str = "2";
/// `--sync` of every server: an acknowledged write is on disk.
pub const SYNC: &str = "always";

/// The environment variable naming the CPU every child is pinned to
/// (`run.sh` sets it, and pins this process to another CPU, when
/// `taskset` exists and the box has two CPUs). One core for the server,
/// one for the generator: unpinned, the kernel sometimes runs both on
/// one CPU and sometimes not, and a 40 µs round trip then swings
/// several-fold from run to run with the wake-up path it takes.
pub const CHILD_CPU_VAR: &str = "BENCH_CHILD_CPU";

/// `algrec`, pinned if [`CHILD_CPU_VAR`] says so. `taskset` execs the
/// program, so the child's pid is the program's.
fn algrec(bin: &Path) -> Command {
    match std::env::var(CHILD_CPU_VAR) {
        Ok(cpu) if !cpu.is_empty() => {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", &cpu]).arg(bin);
            cmd
        }
        _ => Command::new(bin),
    }
}

/// A running `algrec serve` child and the one connection to it. Dropping
/// it kills the child and waits for it, so no error path leaks a process.
pub struct Server {
    child: Child,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Server {
    /// Spawn `algrec serve --data-dir dir` and connect to the address it
    /// announces. Returns once the connection is up.
    pub fn spawn(bin: &Path, dir: &Path, snapshot_every: usize) -> Result<Server, String> {
        let mut child = algrec(bin)
            .args(["serve", "--data-dir"])
            .arg(dir)
            .args(["--sync", SYNC, "--threads", THREADS, "--snapshot-every"])
            .arg(snapshot_every.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("% listening on ")
            .map(str::to_string);
        let connect = || -> Result<TcpStream, String> {
            read.map_err(|e| format!("reading the server banner: {e}"))?;
            let addr = addr.ok_or_else(|| format!("unexpected server banner {banner:?}"))?;
            let stream =
                TcpStream::connect(&addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
            // The client sends each request in one segment at once; the
            // server's side of the socket is left as the program sets it.
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(stream)
        };
        match connect() {
            Ok(stream) => {
                let reader = BufReader::with_capacity(
                    1 << 16,
                    stream.try_clone().map_err(|e| e.to_string())?,
                );
                Ok(Server {
                    child,
                    writer: stream,
                    reader,
                })
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Send one request line and wait for its reply line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .map_err(|e| format!("sending a request: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("reading a reply: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// The child's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// SIGKILL the server — no `shutdown` op, no flush on the way out.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Copy the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Remove and re-create `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// One CLI job's result.
pub struct JobRun {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Captured stdout.
    pub stdout: String,
}

/// What the untraced pass measured and collected.
pub struct LiveRun {
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase, seconds.
    pub run_s: f64,
    /// Per-request latency, seconds, index-aligned with `plan.ops`.
    pub latency_s: Vec<f64>,
    /// Replies to the set-up lines of the measured server.
    pub setup_replies: Vec<String>,
    /// Replies to the timed stream.
    pub replies: Vec<String>,
    /// Replies to the verification block before the kill.
    pub verify_before: Vec<String>,
    /// Replies to the verification block after recovery.
    pub verify_after: Vec<String>,
    /// Spawn on the killed directory → first `ping` reply, seconds, per
    /// repetition.
    pub recover_s: Vec<f64>,
    /// Data-directory bytes at the kill.
    pub disk_bytes: u64,
    /// Largest child's peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Every pass over the batch job list, in order.
    pub jobs: Vec<Vec<JobRun>>,
    /// The killed data directory (left on disk for the traced pass).
    pub data_dir: PathBuf,
}

/// Set-up repetitions per run; the median is reported.
pub const SETUPS: usize = 11;
/// Kill-and-reopen repetitions per run; the median is reported.
pub const RECOVERIES: usize = 3;

/// Run one batch job through the CLI.
fn run_job(bin: &Path, dir: &Path, job: &Job) -> Result<JobRun, String> {
    let mut cmd = algrec(bin);
    cmd.current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    match &job.kind {
        JobKind::Eval { semantics, pred } => cmd.args([
            "eval",
            job.program,
            job.facts,
            "--semantics",
            semantics,
            "--pred",
            pred,
        ]),
        JobKind::Alg => cmd.args(["alg", job.program, job.facts]),
        JobKind::Translate { pred, .. } => {
            cmd.args(["translate", job.program, "--pred", pred, job.facts])
        }
    };
    cmd.args(["--threads", THREADS]);
    let started = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("running job {}: {e}", job.name))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("job {} exited with {}", job.name, out.status));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| format!("job {}: {e}", job.name))?;
    if let JobKind::Translate { out, .. } = &job.kind {
        std::fs::write(dir.join(out), &stdout).map_err(|e| e.to_string())?;
    }
    Ok(JobRun { wall_s, stdout })
}

/// The untraced pass of one workload. `make_plan` is called once per
/// set-up repetition — generating the inputs is part of set-up.
pub fn run(
    bin: &Path,
    work: &Path,
    make_plan: &dyn Fn() -> Plan,
) -> Result<(Plan, LiveRun), String> {
    let job_dir = work.join("jobs");
    let mut setup_s = Vec::new();
    let mut measured = None;
    for rep in 0..SETUPS {
        let data_dir = work.join(format!("data{rep}"));
        fresh_dir(&data_dir)?;
        let started = Instant::now();
        let plan = make_plan();
        if !plan.files.is_empty() {
            fresh_dir(&job_dir)?;
            for (name, text) in &plan.files {
                std::fs::write(job_dir.join(name), text).map_err(|e| e.to_string())?;
            }
        }
        let mut server = Server::spawn(bin, &data_dir, plan.snapshot_every)?;
        let mut replies = Vec::new();
        for line in plan.setup_lines() {
            replies.push(server.call(&line)?);
        }
        setup_s.push(started.elapsed().as_secs_f64());
        // Measure on the last repetition's server; the others are done.
        if rep + 1 == SETUPS {
            measured = Some((plan, server, replies, data_dir));
        } else {
            server.kill();
        }
    }
    let (plan, mut server, setup_replies, data_dir) = measured.expect("SETUPS is at least 1");

    // The timed phase: the batch passes (if any), then the op stream.
    let mut job_rss_mb: f64 = 0.0;
    let started = Instant::now();
    let mut jobs = Vec::new();
    for _ in 0..plan.passes {
        let mut pass = Vec::new();
        for job in &plan.jobs {
            pass.push(run_job(bin, &job_dir, job)?);
        }
        jobs.push(pass);
    }
    if plan.passes > 0 {
        job_rss_mb = crate::rusage::children_peak_rss_mb();
    }
    let mut latency_s = Vec::with_capacity(plan.ops.len());
    let mut replies = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        let sent = Instant::now();
        let reply = server.call(&op.line)?;
        latency_s.push(sent.elapsed().as_secs_f64());
        replies.push(reply);
    }
    let run_s = started.elapsed().as_secs_f64();

    let mut verify_before = Vec::new();
    for line in &plan.verify {
        verify_before.push(server.call(line)?);
    }
    let peak_rss_mb = server.peak_rss_mb()?.max(job_rss_mb);
    let disk_bytes = dir_bytes(&data_dir)?;
    server.kill();

    // Recovery: reopen the killed directory and wait for the first
    // reply. A recovered server that only reads leaves the directory as
    // it found it, so every repetition replays the same log tail.
    let mut recover_s = Vec::new();
    let mut verify_after = Vec::new();
    for _ in 0..RECOVERIES {
        let started = Instant::now();
        let mut server = Server::spawn(bin, &data_dir, plan.snapshot_every)?;
        server.call(r#"{"id":"recovered","op":"ping"}"#)?;
        recover_s.push(started.elapsed().as_secs_f64());
        verify_after.clear();
        for line in &plan.verify {
            verify_after.push(server.call(line)?);
        }
        server.kill();
    }

    let live = LiveRun {
        setup_s,
        run_s,
        latency_s,
        setup_replies,
        replies,
        verify_before,
        verify_after,
        recover_s,
        disk_bytes,
        peak_rss_mb,
        jobs,
        data_dir,
    };
    Ok((plan, live))
}

/// Latencies (seconds) of one class.
pub fn class_latencies(plan: &Plan, live: &LiveRun, class: Class) -> Vec<f64> {
    plan.ops
        .iter()
        .zip(&live.latency_s)
        .filter(|(op, _)| op.class == class)
        .map(|(_, s)| *s)
        .collect()
}
