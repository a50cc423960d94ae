//! The four seeded workload generators.
//!
//! A generator turns `(seed, seconds)` into a [`Plan`]: the EDB text and
//! views installed at set-up, the fixed op stream of the timed phase, and
//! the verification block read back before the kill and after recovery.
//! The program under test only ever sees these generated request lines —
//! never a workload name or the seed.
//!
//! Op counts are a pure function of `seconds` (ops per second calibrated
//! on the 2-core reference box so that the timed phase lasts about
//! `seconds`), so both sides of a comparison do identical work and
//! `run_s` is a throughput measure. Sizes are seed-invariant on purpose:
//! names are fixed-width, every write is effective except a fixed share
//! of no-op re-asserts, and the effective write count is trimmed so that
//! exactly [`Plan::wal_tail`] records sit in the log past the last
//! snapshot — which pins `recover_s` and `disk_bytes_per_user_byte` to
//! the code, not to the seed.

use algrec_serve::Json;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Workload names, in reporting order.
pub const WORKLOADS: [&str; 4] = ["reach_mixed", "acl_churn", "ingest_recover", "cold_batch"];

/// Latency class of one request of the timed stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// A multi-fact `load` batch.
    Load,
    /// A single-fact `assert` or `retract`.
    Write,
    /// A read whose reply fits one `BufWriter` flush (< 8 KiB).
    Point,
    /// A read of a whole predicate or view.
    Scan,
}

impl Class {
    /// Lower-case label used in span and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Class::Load => "load",
            Class::Write => "write",
            Class::Point => "point",
            Class::Scan => "scan",
        }
    }
}

/// One request of the timed stream.
pub struct Op {
    /// Latency class.
    pub class: Class,
    /// The NDJSON request line (no trailing newline).
    pub line: String,
}

/// How a view is registered.
pub enum ViewKind {
    /// A datalog view under the named semantics.
    Datalog(&'static str),
    /// A core-algebra view (always the valid semantics).
    Algebra,
}

/// A view installed at set-up.
pub struct View {
    /// View name on the wire.
    pub name: &'static str,
    /// Datalog or algebra.
    pub kind: ViewKind,
    /// Program source.
    pub program: String,
}

/// What a CLI job of the batch workload runs.
pub enum JobKind {
    /// `algrec eval <program> <facts> --semantics S --pred P`.
    Eval {
        /// Semantics name.
        semantics: &'static str,
        /// Predicate printed.
        pred: &'static str,
    },
    /// `algrec alg <program> <facts>`.
    Alg,
    /// `algrec translate <program> --pred P <facts>`; stdout is the
    /// algebra program, saved under `out` for the next job to evaluate.
    Translate {
        /// Predicate translated.
        pred: &'static str,
        /// File the translated program is saved to.
        out: &'static str,
    },
}

/// One job of the batch list.
pub struct Job {
    /// Job label (also the `<job>` suffix of `datalog.*.<job>` metrics).
    pub name: &'static str,
    /// Program file, relative to the job directory.
    pub program: &'static str,
    /// Facts file, relative to the job directory.
    pub facts: &'static str,
    /// Sub-command and its flags.
    pub kind: JobKind,
}

/// Everything one run sends to the program.
pub struct Plan {
    /// EDB loaded at set-up, as `.dl` text.
    pub edb: String,
    /// Views registered at set-up.
    pub views: Vec<View>,
    /// `--snapshot-every` of the server.
    pub snapshot_every: usize,
    /// Log records past the last snapshot when the stream ends.
    pub wal_tail: usize,
    /// The timed stream.
    pub ops: Vec<Op>,
    /// Read requests re-issued before the kill and after recovery.
    pub verify: Vec<String>,
    /// Bytes of the live EDB as `.dl` text when the stream ends.
    pub live_edb_bytes: usize,
    /// Input files of the batch jobs (`cold_batch` only).
    pub files: Vec<(&'static str, String)>,
    /// The batch job list (`cold_batch` only), run `passes` times.
    pub jobs: Vec<Job>,
    /// Passes over the job list.
    pub passes: usize,
}

impl Plan {
    /// The set-up request lines: one `load`, then one `register` per
    /// view. Ids count from 0; the timed stream continues the numbering.
    pub fn setup_lines(&self) -> Vec<String> {
        let mut lines = vec![request(0, "load", &[("facts", &self.edb)])];
        for view in &self.views {
            let id = lines.len();
            lines.push(match view.kind {
                ViewKind::Datalog(semantics) => request(
                    id,
                    "register",
                    &[
                        ("view", view.name),
                        ("program", &view.program),
                        ("semantics", semantics),
                    ],
                ),
                ViewKind::Algebra => request(
                    id,
                    "register",
                    &[
                        ("view", view.name),
                        ("program", &view.program),
                        ("kind", "algebra"),
                    ],
                ),
            });
        }
        lines
    }

    /// FNV-1a over everything the program receives, for the determinism
    /// tests and the result envelope.
    pub fn stream_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for line in self.setup_lines() {
            h.line(&line);
        }
        for op in &self.ops {
            h.line(&op.line);
        }
        for line in &self.verify {
            h.line(line);
        }
        for (name, text) in &self.files {
            h.line(name);
            h.line(text);
        }
        h.0
    }

    /// Ops of one class in the timed stream.
    pub fn count(&self, class: Class) -> usize {
        self.ops.iter().filter(|op| op.class == class).count()
    }
}

/// FNV-1a, 64-bit.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb one line (terminated, so line boundaries count).
    pub fn line(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Build a request line. Keys serialize sorted, like every reply.
pub fn request(id: usize, op: &str, fields: &[(&'static str, &str)]) -> String {
    let mut pairs = vec![("id", Json::Int(id as i64)), ("op", Json::str(op))];
    pairs.extend(fields.iter().map(|(k, v)| (*k, Json::str(*v))));
    Json::obj(pairs).to_string()
}

/// Generate the plan of `workload`, or `None` for an unknown name.
pub fn generate(workload: &str, seed: u64, seconds: u64) -> Option<Plan> {
    // Every workload draws from its own stream of the seed, so adding a
    // draw to one generator never shifts another's inputs.
    let salt = WORKLOADS.iter().position(|w| *w == workload)? as u64;
    let rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt));
    let seconds = seconds.max(1) as usize;
    Some(match salt {
        0 => reach_mixed(rng, seconds),
        1 => acl_churn(rng, seconds),
        2 => ingest_recover(rng, seconds),
        _ => cold_batch(rng, seconds),
    })
}

/// Facts (strings without the period) as `.dl` text, one per line.
fn dl_text(facts: &BTreeSet<String>) -> String {
    facts.iter().map(|f| format!("{f}.\n")).collect()
}

/// Stream builder: numbers requests after the set-up lines and tracks
/// the live EDB (fact strings without the period).
struct Stream {
    rng: StdRng,
    edb: BTreeSet<String>,
    next_id: usize,
    ops: Vec<Op>,
}

impl Stream {
    fn new(rng: StdRng, views: usize) -> Stream {
        Stream {
            rng,
            edb: BTreeSet::new(),
            next_id: 1 + views,
            ops: Vec::new(),
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    fn push(&mut self, class: Class, op: &str, fields: &[(&'static str, &str)]) {
        self.ops.push(Op {
            class,
            line: request(self.next_id, op, fields),
        });
        self.next_id += 1;
    }

    fn assert(&mut self, fact: String) {
        self.push(Class::Write, "assert", &[("fact", &fact)]);
        self.edb.insert(fact);
    }

    fn retract(&mut self, fact: &str) {
        self.push(Class::Write, "retract", &[("fact", fact)]);
        self.edb.remove(fact);
    }

    fn query(&mut self, class: Class, view: &str, pred: Option<&str>) {
        match pred {
            Some(p) => self.push(class, "query", &[("view", view), ("pred", p)]),
            None => self.push(class, "query", &[("view", view)]),
        }
    }

    /// A uniformly chosen live fact starting with `prefix`.
    fn live_fact(&mut self, prefix: &str) -> Option<String> {
        let n = self.edb.iter().filter(|f| f.starts_with(prefix)).count();
        if n == 0 {
            return None;
        }
        let k = self.pick(n);
        self.edb
            .iter()
            .filter(|f| f.starts_with(prefix))
            .nth(k)
            .cloned()
    }

    fn finish(self, edb: String, views: Vec<View>, snapshot_every: usize, wal_tail: usize) -> Plan {
        // The verification block: every view whole, then the EDB summary
        // and the catalog.
        let mut verify = Vec::new();
        for view in &views {
            verify.push(request(
                self.next_id + verify.len(),
                "query",
                &[("view", view.name)],
            ));
        }
        verify.push(request(self.next_id + verify.len(), "db", &[]));
        verify.push(request(self.next_id + verify.len(), "views", &[]));
        Plan {
            edb,
            views,
            snapshot_every,
            wal_tail,
            live_edb_bytes: dl_text(&self.edb).len(),
            ops: self.ops,
            verify,
            files: Vec::new(),
            jobs: Vec::new(),
            passes: 0,
        }
    }
}

/// A shuffled multiset: `counts[k]` copies of `k`.
fn shuffled(rng: &mut StdRng, counts: &[usize]) -> Vec<usize> {
    let mut kinds: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, n)| std::iter::repeat(k).take(*n))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.random_range(0..i + 1));
    }
    kinds
}

/// The largest effective-write count not above `wanted` that leaves
/// exactly `tail` records past the last snapshot, given the records the
/// set-up logs (one `load`, one `register` per view).
fn trim_to_tail(wanted: usize, setup_records: usize, every: usize, tail: usize) -> usize {
    let total = setup_records + wanted;
    let over = (total + every - tail % every) % every;
    wanted.saturating_sub(over)
}

// ---------------------------------------------------------------------
// reach_mixed
// ---------------------------------------------------------------------

const REACH_PROGRAM: &str = "reach(X, Y) :- follows(X, Y).\n\
reach(X, Z) :- reach(X, Y), follows(Y, Z).\n\
mutual(X, Y) :- reach(X, Y), reach(Y, X).\n\
influences(X, Y) :- reach(X, Y), celebrity(X).\n";

/// Stratified recursive view under single-fact churn with interleaved
/// point and scan reads: the `social_reachability` program over disjoint
/// communities, every write inside one community.
fn reach_mixed(rng: StdRng, seconds: usize) -> Plan {
    // Many small communities rather than few large ones: the view's
    // size and the cost of a retraction then vary little with the seed.
    const COMMUNITIES: usize = 40;
    const NODES: usize = 8;
    const EDGES: usize = 14; // per community
    const SNAPSHOT_EVERY: usize = 100;
    const WAL_TAIL: usize = 80;
    // Per second of run: 23 % writes, 68 % point reads, 9 % scans.
    let writes = 62 * seconds;
    let points = 188 * seconds;
    let scans = 25 * seconds;

    let mut s = Stream::new(rng, 1);
    let follows = |c: usize, x: usize, y: usize| {
        format!(
            "follows(member{:04}, member{:04})",
            c * NODES + x,
            c * NODES + y
        )
    };
    // Live edges per community, beside the fact strings in `s.edb`.
    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); COMMUNITIES];
    for (c, live) in edges.iter_mut().enumerate() {
        while live.len() < EDGES {
            let (x, y) = (s.pick(NODES), s.pick(NODES));
            if x != y && s.edb.insert(follows(c, x, y)) {
                live.push((x, y));
            }
        }
        // A celebrity in every other community keeps the point read
        // (`influences`) well under the 8 KiB reply buffer.
        if c % 2 == 0 {
            let star = s.pick(NODES);
            s.edb
                .insert(format!("celebrity(member{:04})", c * NODES + star));
        }
    }
    let edb = dl_text(&s.edb);

    // One write in sixteen re-asserts a live edge: acknowledged, not
    // logged, still publishes a fresh read snapshot.
    let noops = writes / 16;
    let effective = trim_to_tail(writes - noops, 2, SNAPSHOT_EVERY, WAL_TAIL);
    // Effective writes alternate assert, retract: any window of the log
    // (the tail recovery replays, above all) holds the same mix.
    let mut turn = 0;
    for kind in shuffled(&mut s.rng, &[effective, noops, points, scans]) {
        let kind = if kind == 0 {
            turn += 1;
            turn % 2
        } else {
            kind + 1
        };
        match kind {
            0 => loop {
                let (c, x, y) = (s.pick(COMMUNITIES), s.pick(NODES), s.pick(NODES));
                if x != y && !edges[c].contains(&(x, y)) {
                    edges[c].push((x, y));
                    s.assert(follows(c, x, y));
                    break;
                }
            },
            1 | 2 => {
                // Balanced churn keeps every community near its initial
                // edge count; skip the rare one that has run dry.
                let c = loop {
                    let c = s.pick(COMMUNITIES);
                    if !edges[c].is_empty() {
                        break c;
                    }
                };
                let k = s.pick(edges[c].len());
                let (x, y) = edges[c][k];
                if kind == 1 {
                    edges[c].swap_remove(k);
                    s.retract(&follows(c, x, y));
                } else {
                    s.push(Class::Write, "assert", &[("fact", &follows(c, x, y))]);
                }
            }
            3 => s.query(Class::Point, "social", Some("influences")),
            _ => s.query(Class::Scan, "social", None),
        }
    }
    let views = vec![View {
        name: "social",
        kind: ViewKind::Datalog("stratified"),
        program: REACH_PROGRAM.to_string(),
    }];
    s.finish(edb, views, SNAPSHOT_EVERY, WAL_TAIL)
}

// ---------------------------------------------------------------------
// acl_churn
// ---------------------------------------------------------------------

const ACL_PROGRAM: &str = "allow(U, R) :- grant(U, R), not deny(U, R).\n\
allow(U, R) :- delegate(U, V), allow(V, R), not deny(U, R).\n\
deny(U, R) :- revoked(U, R).\n\
deny(U, R) :- flagged(U), resource(R), not allow(U, R).\n";

/// Non-stratifiable `acl_authz` under the valid semantics: delegation
/// trees with one delegation cycle each, churned by flipping `flagged`,
/// `revoked` and `grant` facts so that `unknown` answers come and go.
fn acl_churn(rng: StdRng, seconds: usize) -> Plan {
    // Many small trees rather than few large ones, for the reason given
    // in reach_mixed.
    const TREES: usize = 60;
    const USERS: usize = 6; // per tree
    const RESOURCES: usize = 6;
    const SNAPSHOT_EVERY: usize = 100;
    const WAL_TAIL: usize = 80;
    // Per second of run: 34 % writes, 59 % point reads, 7 % scans (each
    // scan reply sits in the 8–64 KiB class and costs a delayed-ACK
    // round, about 43 ms, so the scans alone take 40 % of the run).
    let writes = 50 * seconds;
    let points = 86 * seconds;
    let scans = 10 * seconds;

    let mut s = Stream::new(rng, 1);
    let user = |t: usize, i: usize| format!("u{t:02}x{i:02}");
    for r in 0..RESOURCES {
        s.edb.insert(format!("resource(res{r})"));
    }
    for t in 0..TREES {
        for i in 1..USERS {
            let parent = s.pick(i);
            s.edb
                .insert(format!("delegate({}, {})", user(t, i), user(t, parent)));
        }
        // The cycle: the root also delegates from one of its delegates.
        let back = 1 + s.pick(USERS - 1);
        s.edb
            .insert(format!("delegate({}, {})", user(t, 0), user(t, back)));
        for _ in 0..2 {
            let r = s.pick(RESOURCES);
            s.edb.insert(format!("grant({}, res{r})", user(t, 0)));
        }
        let (i, r) = (s.pick(USERS), s.pick(RESOURCES));
        s.edb.insert(format!("grant({}, res{r})", user(t, i)));
        if t % 2 == 0 {
            let (i, r) = (s.pick(USERS), s.pick(RESOURCES));
            s.edb.insert(format!("revoked({}, res{r})", user(t, i)));
        }
        if t % 2 == 0 {
            let i = s.pick(USERS);
            s.edb.insert(format!("flagged({})", user(t, i)));
        }
    }
    let edb = dl_text(&s.edb);

    let effective = trim_to_tail(writes, 2, SNAPSHOT_EVERY, WAL_TAIL);
    let mut turn = 0;
    for kind in shuffled(&mut s.rng, &[effective, points, scans]) {
        match kind {
            0 => {
                // Flips go round the three relations, asserting an absent
                // fact and retracting a live one in turn, so each relation
                // keeps its size and any window of the log the same mix.
                let prefix = ["flagged(", "revoked(", "grant("][turn % 3];
                let live = if turn % 2 == 1 {
                    s.live_fact(prefix)
                } else {
                    None
                };
                turn += 1;
                match live {
                    Some(fact) => s.retract(&fact),
                    None => loop {
                        let who = user(s.pick(TREES), s.pick(USERS));
                        let fact = if prefix == "flagged(" {
                            format!("flagged({who})")
                        } else {
                            format!("{prefix}{who}, res{})", s.pick(RESOURCES))
                        };
                        if !s.edb.contains(&fact) {
                            s.assert(fact);
                            break;
                        }
                    },
                }
            }
            1 => s.query(Class::Point, "authz", Some("deny")),
            _ => s.query(Class::Scan, "authz", Some("allow")),
        }
    }
    let views = vec![View {
        name: "authz",
        kind: ViewKind::Datalog("valid"),
        program: ACL_PROGRAM.to_string(),
    }];
    s.finish(edb, views, SNAPSHOT_EVERY, WAL_TAIL)
}

// ---------------------------------------------------------------------
// ingest_recover
// ---------------------------------------------------------------------

const INGEST_PROGRAM: &str = "live(S) :- event(S, T).\n\
closed(S) :- event(S, T), eos(T).\n\
open(S) :- live(S), not closed(S).\n\
busy(S, T) :- event(S, T), tick(T).\n";

/// Insert-mostly batched ingest into a non-recursive stratified view,
/// with frequent snapshots, then a read-back block.
fn ingest_recover(rng: StdRng, seconds: usize) -> Plan {
    const SESSIONS: usize = 2500;
    const TIMES: usize = 2000;
    const BATCH: usize = 100;
    const SINGLES: usize = 10; // per round; every third is retracted at once
                               // A round logs one load, SINGLES asserts and SINGLES / 3 retracts.
    const PER_ROUND: usize = 1 + SINGLES + SINGLES / 3;
    // A snapshot every two rounds; with an odd round count the log then
    // ends one whole round (and the set-up's two records) past the last
    // snapshot, whatever the seed.
    const SNAPSHOT_EVERY: usize = 2 * PER_ROUND;
    const WAL_TAIL: usize = PER_ROUND + 2;
    let rounds = (7 * seconds) | 1;
    let points = 100 * seconds;
    let scans = 16 * seconds;

    let mut s = Stream::new(rng, 1);
    for t in 0..8 {
        s.edb.insert(format!("tick(t{:04})", t * (TIMES / 8)));
    }
    s.edb.insert("eos(t0000)".to_string());
    s.edb.insert("event(s0000, t0000)".to_string());
    let edb = dl_text(&s.edb);

    for _ in 0..rounds {
        let mut batch = BTreeSet::new();
        while batch.len() < BATCH {
            let fact = format!("event(s{:04}, t{:04})", s.pick(SESSIONS), s.pick(TIMES));
            if !s.edb.contains(&fact) {
                batch.insert(fact);
            }
        }
        let text: String = batch.iter().map(|f| format!("{f}. ")).collect();
        s.push(Class::Load, "load", &[("facts", text.trim_end())]);
        s.edb.extend(batch);
        for k in 0..SINGLES {
            let fact = loop {
                // Few `eos` times keep `closed` a point-sized answer.
                let pred = if s.pick(16) == 0 { "eos" } else { "tick" };
                let fact = format!("{pred}(t{:04})", s.pick(TIMES));
                if !s.edb.contains(&fact) {
                    break fact;
                }
            };
            s.assert(fact.clone());
            if k % 3 == 2 {
                s.retract(&fact);
            }
        }
    }
    // The read-back block: no reads interleave with the ingest.
    for kind in shuffled(&mut s.rng, &[points, scans]) {
        if kind == 0 {
            s.query(Class::Point, "sessions", Some("closed"));
        } else {
            s.query(Class::Scan, "sessions", None);
        }
    }
    let views = vec![View {
        name: "sessions",
        kind: ViewKind::Datalog("stratified"),
        program: INGEST_PROGRAM.to_string(),
    }];
    s.finish(edb, views, SNAPSHOT_EVERY, WAL_TAIL)
}

// ---------------------------------------------------------------------
// cold_batch
// ---------------------------------------------------------------------

const TC_COMPLEMENT: &str = "tc(X, Y) :- e(X, Y).\n\
tc(X, Z) :- tc(X, Y), e(Y, Z).\n\
un(X, Y) :- n(X), n(Y), not tc(X, Y).\n";
const TC_ONLY: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n";
const WIN_DL: &str = "win(X) :- move(X, Y), not win(Y).\n";
const WIN_ALG: &str = "def win = map(move - (map(move, x.0) * win), x.0);\nquery win;\n";

/// A random digraph as `pred(a, b).` lines; `cyclic` in 1000 of the
/// edges may point backwards, the rest go from a lower to a higher node.
fn digraph(
    rng: &mut StdRng,
    pred: &str,
    node: &str,
    nodes: usize,
    edges: usize,
    cyclic: usize,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    while out.len() < edges {
        let (a, b) = (rng.random_range(0..nodes), rng.random_range(0..nodes));
        if a < b || (a != b && rng.random_range(0..1000) < cyclic) {
            out.insert(format!("{pred}({node}{a:05}, {node}{b:05})"));
        }
    }
    out
}

/// The evaluators cold: a CLI job list (no server), then the same WIN
/// equation served as an algebra view beside a two-hop view under the
/// inflationary semantics. Both are re-evaluated from scratch on every
/// write — the one served path with `core::eval` and the cold datalog
/// evaluator on it, and no incremental maintainer.
fn cold_batch(mut rng: StdRng, seconds: usize) -> Plan {
    const SNAPSHOT_EVERY: usize = 100;
    const WAL_TAIL: usize = 40;
    // The served game is small because the algebra side of WIN is
    // quadratic, and layered and acyclic — a move goes one or two layers
    // down — so that the alternating fixpoint takes the same number of
    // rounds whatever the seed (the games of the CLI jobs keep their
    // cycles). Its two-hop view answers in the 8–64 KiB class
    // like acl_churn's scan: microsecond replies swing several-fold with
    // where the host schedules the two processes, the 43 ms delayed-ACK
    // round does not.
    const LAYERS: usize = 10;
    const WIDTH: usize = 6;
    const MOVES: usize = 260;
    let passes = (seconds / 5).max(1);
    let writes = 25 * seconds;
    let points = 100 * seconds;
    let scans = 6 * seconds;

    // Average degree 3 puts both TC inputs well past the giant-component
    // threshold, so the closure's size hardly moves with the seed.
    let mut graph_text = dl_text(&digraph(&mut rng, "e", "n", 300, 900, 1000));
    for n in 0..300 {
        graph_text.push_str(&format!("n(n{n:05}).\n"));
    }
    let files = vec![
        ("tc_compl.dl", TC_COMPLEMENT.to_string()),
        ("graph.dl", graph_text),
        ("win.dl", WIN_DL.to_string()),
        (
            "moves.dl",
            dl_text(&digraph(&mut rng, "move", "p", 20_000, 30_000, 2)),
        ),
        ("win.alg", WIN_ALG.to_string()),
        (
            "moves_small.dl",
            dl_text(&digraph(&mut rng, "move", "p", 500, 750, 10)),
        ),
        ("tc.dl", TC_ONLY.to_string()),
        (
            "graph_small.dl",
            dl_text(&digraph(&mut rng, "e", "n", 100, 300, 1000)),
        ),
    ];
    let eval = |name, program, facts, semantics, pred| Job {
        name,
        program,
        facts,
        kind: JobKind::Eval { semantics, pred },
    };
    let jobs = vec![
        eval("tc_compl", "tc_compl.dl", "graph.dl", "stratified", "un"),
        eval("win_valid", "win.dl", "moves.dl", "valid", "win"),
        eval("win_wf", "win.dl", "moves.dl", "well-founded", "win"),
        Job {
            name: "alg_win",
            program: "win.alg",
            facts: "moves_small.dl",
            kind: JobKind::Alg,
        },
        eval("win_small", "win.dl", "moves_small.dl", "valid", "win"),
        Job {
            name: "translate_tc",
            program: "tc.dl",
            facts: "graph_small.dl",
            kind: JobKind::Translate {
                pred: "tc",
                out: "tc.alg",
            },
        },
        Job {
            name: "alg_tc",
            program: "tc.alg",
            facts: "graph_small.dl",
            kind: JobKind::Alg,
        },
        eval("tc_small", "tc.dl", "graph_small.dl", "valid", "tc"),
    ];

    let mut s = Stream::new(rng, 2);
    let down = |s: &mut Stream| {
        let layer = s.pick(LAYERS - 1);
        let below = (layer + 1 + s.pick(2)).min(LAYERS - 1);
        format!(
            "move(p{:05}, p{:05})",
            layer * WIDTH + s.pick(WIDTH),
            below * WIDTH + s.pick(WIDTH)
        )
    };
    while s.edb.len() < MOVES {
        let fact = down(&mut s);
        s.edb.insert(fact);
    }
    let edb = dl_text(&s.edb);
    let effective = trim_to_tail(writes, 3, SNAPSHOT_EVERY, WAL_TAIL);
    let mut turn = 0;
    for kind in shuffled(&mut s.rng, &[effective, points, scans]) {
        match kind {
            // Writes alternate between retracting a live move and
            // asserting a fresh downward one.
            0 => {
                turn += 1;
                if turn % 2 == 0 {
                    let fact = s
                        .live_fact("move(")
                        .expect("balanced churn keeps moves live");
                    s.retract(&fact);
                } else {
                    loop {
                        let fact = down(&mut s);
                        if !s.edb.contains(&fact) {
                            s.assert(fact);
                            break;
                        }
                    }
                }
            }
            1 => s.query(Class::Point, "game", None),
            _ => s.query(Class::Scan, "hops", None),
        }
    }
    let views = vec![
        View {
            name: "game",
            kind: ViewKind::Algebra,
            program: WIN_ALG.to_string(),
        },
        View {
            name: "hops",
            kind: ViewKind::Datalog("inflationary"),
            program: "hop2(X, Z) :- move(X, Y), move(Y, Z).\n".to_string(),
        },
    ];
    let mut plan = s.finish(edb, views, SNAPSHOT_EVERY, WAL_TAIL);
    plan.files = files;
    plan.jobs = jobs;
    plan.passes = passes;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_seconds` of `BENCHMARK.json`: the size the hashes pin.
    const SECONDS: u64 = 10;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for (workload, pinned) in WORKLOADS.iter().zip(PINNED) {
            let a = generate(workload, 1, SECONDS).unwrap();
            let b = generate(workload, 1, SECONDS).unwrap();
            assert_eq!(a.stream_hash(), b.stream_hash(), "{workload}: seed 1 twice");
            assert_eq!(
                format!("{:016x}", a.stream_hash()),
                pinned,
                "{workload}: pinned stream changed"
            );
            let other = generate(workload, 2, SECONDS).unwrap();
            assert_ne!(a.stream_hash(), other.stream_hash(), "{workload}: seed 2");
        }
        assert!(generate("fleet_rw", 1, SECONDS).is_none());
    }

    /// Stream hashes at seed 1: a change here means every recorded
    /// baseline describes different inputs — re-measure, do not just
    /// re-pin.
    const PINNED: [&str; 4] = [
        "173e99d4f5779a1c",
        "85ed1a65e4b2bf05",
        "85f4b600b2411051",
        "e2eada5602f6965a",
    ];

    #[test]
    fn the_program_never_sees_a_workload_name_or_the_seed() {
        for workload in WORKLOADS {
            let plan = generate(workload, 7, SECONDS).unwrap();
            let mut sent: Vec<&str> = plan.ops.iter().map(|op| op.line.as_str()).collect();
            let setup = plan.setup_lines();
            sent.extend(setup.iter().map(String::as_str));
            sent.extend(plan.verify.iter().map(String::as_str));
            sent.extend(
                plan.files
                    .iter()
                    .flat_map(|(name, text)| [*name, text.as_str()]),
            );
            for text in sent {
                for banned in WORKLOADS.iter().copied().chain(["seed", "bench"]) {
                    assert!(
                        !text.contains(banned),
                        "{workload}: `{banned}` in {:.80}",
                        text
                    );
                }
            }
        }
    }

    #[test]
    fn op_counts_depend_on_seconds_only() {
        for workload in WORKLOADS {
            let a = generate(workload, 1, SECONDS).unwrap();
            let b = generate(workload, 99, SECONDS).unwrap();
            for class in [Class::Load, Class::Write, Class::Point, Class::Scan] {
                assert_eq!(a.count(class), b.count(class), "{workload}: {class:?}");
            }
            assert_eq!(a.verify.len(), b.verify.len());
            let half = generate(workload, 1, SECONDS / 2).unwrap();
            assert!(
                half.ops.len() < a.ops.len(),
                "{workload}: fewer seconds, fewer ops"
            );
        }
    }

    /// Log records a plan produces: the set-up's load and registers,
    /// every load batch, and every write that changes the EDB.
    fn records(plan: &Plan) -> usize {
        let mut live: BTreeSet<String> = plan
            .edb
            .lines()
            .map(|l| l.trim_end_matches('.').to_string())
            .collect();
        let mut records = 1 + plan.views.len() + plan.count(Class::Load);
        for op in plan.ops.iter().filter(|op| op.class == Class::Write) {
            let req = algrec_serve::json::parse(&op.line).unwrap();
            let fact = req.get("fact").and_then(Json::as_str).unwrap().to_string();
            let changed = match req.get("op").and_then(Json::as_str) {
                Some("assert") => live.insert(fact),
                _ => live.remove(&fact),
            };
            records += usize::from(changed);
        }
        records
    }

    #[test]
    fn the_log_tail_past_the_last_snapshot_is_pinned() {
        for workload in WORKLOADS {
            for seed in [3, 4] {
                let plan = generate(workload, seed, SECONDS).unwrap();
                assert_eq!(
                    records(&plan) % plan.snapshot_every,
                    plan.wal_tail,
                    "{workload}"
                );
            }
        }
        assert_eq!(trim_to_tail(100, 2, 32, 6), 100);
        assert_eq!(trim_to_tail(101, 2, 32, 6), 100);
        assert_eq!(trim_to_tail(99, 2, 32, 6), 68);
    }

    #[test]
    fn only_reach_mixed_sends_no_op_writes() {
        for workload in WORKLOADS {
            let plan = generate(workload, 5, SECONDS).unwrap();
            let effective = records(&plan) - 1 - plan.views.len() - plan.count(Class::Load);
            let noops = plan.count(Class::Write) - effective;
            if workload == "reach_mixed" {
                assert_eq!(noops, 62 * SECONDS as usize / 16);
            } else {
                assert_eq!(noops, 0, "{workload}");
            }
        }
    }
}
