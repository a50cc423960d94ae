//! Evaluation telemetry: [`EvalStats`], [`TraceEvent`], and trace sinks.
//!
//! The paper's theorems are about *stages*: the valid computation of
//! Section 2.2 iterates (possibly transfinitely) to a fixpoint, and the
//! step-indexed simulation of Prop 5.2 relates the stage at which a fact
//! appears in an inflationary computation to the stage index of its staged
//! deductive simulation. Stage counts and per-stage set sizes are therefore
//! first-class reproduction artifacts, not incidental performance data.
//! This module makes them observable without perturbing the engines:
//!
//! * [`TraceEvent`] — the vocabulary of things an engine can report:
//!   phase boundaries, fixpoint iterations, delta-round sizes, index
//!   builds/probes, budget consumption, final result size.
//! * [`TraceSink`] — consumer interface. [`NullSink`] ignores everything,
//!   [`CollectSink`] aggregates into an [`EvalStats`], [`LogSink`] streams
//!   human-readable lines (and also aggregates).
//! * [`Trace`] — a cheaply cloneable handle stored inside
//!   [`crate::budget::Meter`]. The default is [`Trace::Null`]; every
//!   recording method first branches on that discriminant, so an untraced
//!   evaluation pays one predictable branch per event site and nothing
//!   else (no allocation, no locking, no clock reads).
//!
//! Terminology used by [`EvalStats`]:
//!
//! * **phase** — a named region of an evaluation (e.g. the `"possible"`
//!   and `"certain"` passes of the alternating fixpoint; the paper's valid
//!   computation alternates exactly these two approximations).
//! * **iteration** — one sweep of a fixpoint loop, i.e. one *stage* of the
//!   Section 2.2 valid computation or of an inflationary computation.
//! * **delta** — the number of genuinely new facts a semi-naive round
//!   produced; the sequence of deltas is the observable shape of fixpoint
//!   convergence (it must end in 0).

use std::fmt;
use std::sync::{Arc, Mutex};

/// A single telemetry event emitted by an evaluation engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A named evaluation phase began.
    PhaseStart(&'static str),
    /// The named phase ended after the given wall-clock nanoseconds.
    PhaseEnd(&'static str, u64),
    /// One fixpoint iteration (one stage), attributed to the innermost
    /// open phase.
    Iteration,
    /// `n` facts were counted against the budget meter.
    FactsInserted(usize),
    /// One delta round completed, deriving this many genuinely new facts.
    Delta(usize),
    /// A column index was built over this many distinct keys.
    IndexBuild(usize),
    /// An index probe; `true` when the probed key had at least one match.
    IndexProbe(bool),
    /// Final result size (facts / set members) of an evaluation entry
    /// point. Engines emit this once, on success.
    Materialized(usize),
    /// Snapshot of the global interner sizes: `(values, symbols)`.
    Interner(usize, usize),
    /// One record was appended to the durable write-ahead log; the
    /// payload is the on-disk size of the framed record in bytes.
    WalAppend(usize),
    /// The write-ahead log was fsynced once.
    WalSync,
    /// One snapshot of the serving session was written durably; the
    /// payload is the snapshot file size in bytes.
    SnapshotWrite(usize),
    /// Crash recovery replayed this many write-ahead-log records through
    /// the live session. Emitted once per recovery.
    RecoveryReplay(usize),
    /// A columnar snapshot's run sections were validated (CRC walk, no
    /// row decode) for mapping into a session; the payload is the number
    /// of bytes covered by the walk.
    SnapshotMap(usize),
    /// A shared lock was found poisoned (a holder panicked). The payload
    /// names the lock. Emitted by the serving layer's explicit poison
    /// recovery; the request that observed it gets a structured
    /// `internal_error` reply instead of a silently half-mutated view.
    LockPoisoned(&'static str),
    /// One alternation level (one pass of the alternating fixpoint) was
    /// replayed incrementally from a delta; the payload is the level's
    /// index in the pass sequence.
    LevelReplayed(usize),
    /// One alternation level was skipped entirely — its support was
    /// untouched by the delta, so its certain/possible pair is provably
    /// unchanged. The payload is the level index.
    LevelSkipped(usize),
    /// Support-count adjustments made while maintaining one pass:
    /// `(increments, decrements)` across its counting levels, batched
    /// per pass so tracing stays off the per-derivation hot path.
    SupportAdjust(usize, usize),
    /// One level's incremental maintenance fell back to changed-level
    /// recomputation (its negative dependencies were invalidated or the
    /// delta exceeded the replay threshold). The payload is the level
    /// index.
    LevelFallback(usize),
}

/// Consumer of [`TraceEvent`]s.
///
/// Implementations must tolerate events arriving in any order the engines
/// produce them; in particular a [`crate::BudgetError`] aborts an
/// evaluation with phases still open, and the stats collected up to that
/// point must remain readable (the budget-exhaustion tests assert on
/// consumption *at the point of failure*).
pub trait TraceSink {
    /// Receive one event.
    fn event(&mut self, ev: &TraceEvent);
}

/// A sink that discards every event. The default; engines traced with it
/// do no telemetry work beyond one branch per event site.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _ev: &TraceEvent) {}
}

/// Aggregated counters for one named evaluation phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Fixpoint iterations (stages) performed inside this phase.
    pub iterations: usize,
    /// Delta-round sizes recorded inside this phase, in order.
    pub deltas: Vec<usize>,
    /// Total wall-clock nanoseconds spent inside this phase.
    pub wall_nanos: u64,
}

/// Aggregated durable-store counters (write-ahead log, snapshots,
/// recovery) — populated by `algrec-store` when a session runs with
/// `--data-dir`, all zero otherwise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended to the write-ahead log.
    pub wal_records: usize,
    /// Bytes appended to the write-ahead log (framed records, excluding
    /// the file header).
    pub wal_bytes: usize,
    /// fsyncs issued against the write-ahead log.
    pub wal_fsyncs: usize,
    /// Snapshots written.
    pub snapshots: usize,
    /// Bytes written across all snapshots.
    pub snapshot_bytes: usize,
    /// Write-ahead-log records replayed by crash recovery.
    pub recovery_replayed: usize,
    /// Columnar snapshots validated by the decode-free CRC walk.
    pub snapshot_maps: usize,
    /// Bytes covered by those validation walks.
    pub mapped_bytes: usize,
}

/// Aggregated incremental-maintenance counters — populated by
/// `algrec-incr` when a three-valued view is maintained by supported
/// derivations instead of changed-level recomputation, all zero
/// otherwise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Alternation levels replayed incrementally from a delta.
    pub levels_replayed: usize,
    /// Alternation levels skipped because their support was untouched.
    pub levels_skipped: usize,
    /// Levels that fell back to changed-level recomputation.
    pub fallbacks: usize,
    /// Support-count increments across counting levels.
    pub support_incs: usize,
    /// Support-count decrements across counting levels.
    pub support_decs: usize,
}

/// Aggregated telemetry for one evaluation.
///
/// Produced by [`CollectSink`] and summarized by the CLI's `--trace`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Per-phase counters, in order of first appearance. Repeated phases
    /// (the alternating fixpoint opens `"possible"` once per outer round)
    /// aggregate into one entry.
    pub phases: Vec<(String, PhaseStats)>,
    /// Total fixpoint iterations across all phases — the budget meter's
    /// iteration high-water mark.
    pub iterations: usize,
    /// Total facts counted against the budget meter (cumulative work,
    /// including facts later deduplicated) — the fact high-water mark.
    pub facts_inserted: usize,
    /// Size of the final materialized result. Engine-independent: every
    /// engine computing the same model reports the same number here.
    pub facts_materialized: usize,
    /// All delta-round sizes, in order, across phases.
    pub deltas: Vec<usize>,
    /// Column indexes built.
    pub index_builds: usize,
    /// Index probes issued.
    pub index_probes: usize,
    /// Index probes that found at least one candidate.
    pub index_hits: usize,
    /// Global value-interner size at the last snapshot.
    pub interned_values: usize,
    /// Global symbol-interner size at the last snapshot.
    pub interned_symbols: usize,
    /// Durable-store activity (WAL appends/fsyncs, snapshots, recovery).
    pub store: StoreStats,
    /// Incremental three-valued maintenance activity (level replays,
    /// skips, fallbacks, support adjustments).
    pub incr: IncrStats,
}

impl EvalStats {
    /// Fold another evaluation's statistics into this one — the
    /// reduction step for per-worker stats coming back from a parallel
    /// fixpoint round. Counters add, delta sequences concatenate, phases
    /// merge by name (iterations/deltas/wall add), and the interner
    /// snapshots keep the larger value (they are global high-water
    /// marks, not per-evaluation work).
    pub fn merge(&mut self, other: &EvalStats) {
        for (name, p) in &other.phases {
            match self.phases.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    mine.iterations += p.iterations;
                    mine.deltas.extend_from_slice(&p.deltas);
                    mine.wall_nanos += p.wall_nanos;
                }
                None => self.phases.push((name.clone(), p.clone())),
            }
        }
        self.iterations += other.iterations;
        self.facts_inserted = self.facts_inserted.saturating_add(other.facts_inserted);
        self.facts_materialized += other.facts_materialized;
        self.deltas.extend_from_slice(&other.deltas);
        self.index_builds += other.index_builds;
        self.index_probes += other.index_probes;
        self.index_hits += other.index_hits;
        self.interned_values = self.interned_values.max(other.interned_values);
        self.interned_symbols = self.interned_symbols.max(other.interned_symbols);
        self.store.wal_records += other.store.wal_records;
        self.store.wal_bytes += other.store.wal_bytes;
        self.store.wal_fsyncs += other.store.wal_fsyncs;
        self.store.snapshots += other.store.snapshots;
        self.store.snapshot_bytes += other.store.snapshot_bytes;
        self.store.recovery_replayed += other.store.recovery_replayed;
        self.store.snapshot_maps += other.store.snapshot_maps;
        self.store.mapped_bytes += other.store.mapped_bytes;
        self.incr.levels_replayed += other.incr.levels_replayed;
        self.incr.levels_skipped += other.incr.levels_skipped;
        self.incr.fallbacks += other.incr.fallbacks;
        self.incr.support_incs += other.incr.support_incs;
        self.incr.support_decs += other.incr.support_decs;
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "iterations: {} | facts inserted: {} | materialized: {}",
            self.iterations, self.facts_inserted, self.facts_materialized
        )?;
        writeln!(
            f,
            "index: {} build(s), {} probe(s), {} hit(s) | interner: {} value(s), {} symbol(s)",
            self.index_builds,
            self.index_probes,
            self.index_hits,
            self.interned_values,
            self.interned_symbols
        )?;
        if self.store != StoreStats::default() {
            writeln!(
                f,
                "store: {} WAL record(s) / {} byte(s) / {} fsync(s) | \
                 {} snapshot(s) ({} bytes) | {} record(s) replayed on recovery",
                self.store.wal_records,
                self.store.wal_bytes,
                self.store.wal_fsyncs,
                self.store.snapshots,
                self.store.snapshot_bytes,
                self.store.recovery_replayed
            )?;
            if self.store.snapshot_maps > 0 {
                writeln!(
                    f,
                    "column: {} snapshot map(s) ({} bytes validated)",
                    self.store.snapshot_maps, self.store.mapped_bytes
                )?;
            }
        }
        if self.incr != IncrStats::default() {
            writeln!(
                f,
                "incr: {} level(s) replayed, {} skipped, {} fallback(s) | \
                 support: {} inc(s), {} dec(s)",
                self.incr.levels_replayed,
                self.incr.levels_skipped,
                self.incr.fallbacks,
                self.incr.support_incs,
                self.incr.support_decs
            )?;
        }
        for (name, p) in &self.phases {
            write!(
                f,
                "phase {name}: {} iteration(s), {:.3} ms",
                p.iterations,
                p.wall_nanos as f64 / 1e6
            )?;
            if !p.deltas.is_empty() {
                write!(
                    f,
                    ", deltas {}",
                    p.deltas
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A sink that aggregates events into an [`EvalStats`].
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    stats: EvalStats,
    open: Vec<usize>,
}

impl CollectSink {
    /// The statistics aggregated so far.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Distinct phase indexes currently open. Phases nest (the alternating
    /// fixpoint runs `"semi-naive"` inside `"possible"`), and iteration /
    /// delta events attribute to every enclosing phase, so a phase's
    /// counters include those of phases nested inside it.
    fn open_unique(&self) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(self.open.len());
        for &i in &self.open {
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }

    /// Consume the sink, yielding the aggregated statistics.
    pub fn into_stats(self) -> EvalStats {
        self.stats
    }
}

impl TraceSink for CollectSink {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::PhaseStart(name) => {
                let idx = match self.stats.phases.iter().position(|(n, _)| n == name) {
                    Some(i) => i,
                    None => {
                        self.stats
                            .phases
                            .push((name.to_string(), PhaseStats::default()));
                        self.stats.phases.len() - 1
                    }
                };
                self.open.push(idx);
            }
            TraceEvent::PhaseEnd(_, nanos) => {
                if let Some(i) = self.open.pop() {
                    self.stats.phases[i].1.wall_nanos += nanos;
                }
            }
            TraceEvent::Iteration => {
                self.stats.iterations += 1;
                for i in self.open_unique() {
                    self.stats.phases[i].1.iterations += 1;
                }
            }
            TraceEvent::FactsInserted(n) => {
                self.stats.facts_inserted = self.stats.facts_inserted.saturating_add(n);
            }
            TraceEvent::Delta(size) => {
                self.stats.deltas.push(size);
                for i in self.open_unique() {
                    self.stats.phases[i].1.deltas.push(size);
                }
            }
            TraceEvent::IndexBuild(_keys) => self.stats.index_builds += 1,
            TraceEvent::IndexProbe(hit) => {
                self.stats.index_probes += 1;
                if hit {
                    self.stats.index_hits += 1;
                }
            }
            TraceEvent::Materialized(n) => self.stats.facts_materialized = n,
            TraceEvent::Interner(values, symbols) => {
                self.stats.interned_values = values;
                self.stats.interned_symbols = symbols;
            }
            TraceEvent::WalAppend(bytes) => {
                self.stats.store.wal_records += 1;
                self.stats.store.wal_bytes += bytes;
            }
            TraceEvent::WalSync => self.stats.store.wal_fsyncs += 1,
            TraceEvent::SnapshotWrite(bytes) => {
                self.stats.store.snapshots += 1;
                self.stats.store.snapshot_bytes += bytes;
            }
            TraceEvent::RecoveryReplay(n) => self.stats.store.recovery_replayed += n,
            TraceEvent::SnapshotMap(bytes) => {
                self.stats.store.snapshot_maps += 1;
                self.stats.store.mapped_bytes += bytes;
            }
            // Lock poisonings are operational incidents, not evaluation
            // statistics: the JSON/stats shape is pinned by the bench
            // golden, so they surface through sinks (LogSink) only.
            TraceEvent::LockPoisoned(_) => {}
            TraceEvent::LevelReplayed(_level) => self.stats.incr.levels_replayed += 1,
            TraceEvent::LevelSkipped(_level) => self.stats.incr.levels_skipped += 1,
            TraceEvent::SupportAdjust(incs, decs) => {
                self.stats.incr.support_incs += incs;
                self.stats.incr.support_decs += decs;
            }
            TraceEvent::LevelFallback(_level) => self.stats.incr.fallbacks += 1,
        }
    }
}

/// A sink that streams human-readable trace lines to a writer (stderr by
/// default) while also aggregating an [`EvalStats`] for a final summary.
pub struct LogSink {
    inner: CollectSink,
    out: Box<dyn std::io::Write + Send>,
    depth: usize,
}

impl LogSink {
    /// A log sink writing to standard error.
    pub fn stderr() -> Self {
        LogSink::to_writer(Box::new(std::io::stderr()))
    }

    /// A log sink writing to an arbitrary writer.
    pub fn to_writer(out: Box<dyn std::io::Write + Send>) -> Self {
        LogSink {
            inner: CollectSink::default(),
            out,
            depth: 0,
        }
    }

    /// The statistics aggregated so far.
    pub fn stats(&self) -> &EvalStats {
        self.inner.stats()
    }
}

impl fmt::Debug for LogSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogSink")
            .field("inner", &self.inner)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

impl TraceSink for LogSink {
    fn event(&mut self, ev: &TraceEvent) {
        let pad = "  ".repeat(self.depth);
        match *ev {
            TraceEvent::PhaseStart(name) => {
                let _ = writeln!(self.out, "% trace: {pad}{name} {{");
                self.depth += 1;
            }
            TraceEvent::PhaseEnd(name, nanos) => {
                self.depth = self.depth.saturating_sub(1);
                let pad = "  ".repeat(self.depth);
                let _ = writeln!(
                    self.out,
                    "% trace: {pad}}} {name}: {:.3} ms",
                    nanos as f64 / 1e6
                );
            }
            TraceEvent::Delta(size) => {
                let _ = writeln!(self.out, "% trace: {pad}delta {size}");
            }
            TraceEvent::Materialized(n) => {
                let _ = writeln!(self.out, "% trace: {pad}materialized {n} fact(s)");
            }
            TraceEvent::WalAppend(bytes) => {
                let _ = writeln!(self.out, "% trace: {pad}wal append ({bytes} bytes)");
            }
            TraceEvent::SnapshotWrite(bytes) => {
                let _ = writeln!(self.out, "% trace: {pad}snapshot written ({bytes} bytes)");
            }
            TraceEvent::RecoveryReplay(n) => {
                let _ = writeln!(self.out, "% trace: {pad}recovery replayed {n} record(s)");
            }
            TraceEvent::SnapshotMap(bytes) => {
                let _ = writeln!(
                    self.out,
                    "% trace: {pad}snapshot mapped ({bytes} bytes validated)"
                );
            }
            TraceEvent::LockPoisoned(what) => {
                let _ = writeln!(self.out, "% trace: {pad}lock poisoned: {what}");
            }
            TraceEvent::LevelFallback(level) => {
                let _ = writeln!(
                    self.out,
                    "% trace: {pad}level {level} fell back to recomputation"
                );
            }
            // Iterations, fact counts, index traffic, fsyncs and interner
            // snapshots are high-frequency; they go to the summary only.
            _ => {}
        }
        self.inner.event(ev);
    }
}

/// A cheaply cloneable trace handle carried by [`crate::budget::Meter`].
///
/// [`Trace::Null`] (the default) makes every recording method a single
/// branch. [`Trace::Collect`] shares a [`CollectSink`] with the caller via
/// `Arc<Mutex<…>>`, so statistics remain readable even when the traced
/// evaluation aborts with a [`crate::BudgetError`] mid-phase.
#[derive(Clone, Default)]
pub enum Trace {
    /// No tracing (default): events are discarded at the call site.
    #[default]
    Null,
    /// Aggregate into a shared [`CollectSink`].
    Collect(Arc<Mutex<CollectSink>>),
    /// Forward to an arbitrary shared [`TraceSink`].
    Sink(Arc<Mutex<dyn TraceSink + Send>>),
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trace::Null => write!(f, "Trace::Null"),
            Trace::Collect(_) => write!(f, "Trace::Collect(..)"),
            Trace::Sink(_) => write!(f, "Trace::Sink(..)"),
        }
    }
}

impl Trace {
    /// A collecting trace. Read the result with [`Trace::stats`].
    pub fn collect() -> Trace {
        Trace::Collect(Arc::new(Mutex::new(CollectSink::default())))
    }

    /// A trace forwarding to an arbitrary sink.
    pub fn sink(sink: impl TraceSink + Send + 'static) -> Trace {
        Trace::Sink(Arc::new(Mutex::new(sink)))
    }

    /// Is this the null trace?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Trace::Null)
    }

    /// Emit one event. A no-op on [`Trace::Null`].
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        match self {
            Trace::Null => {}
            Trace::Collect(sink) => sink.lock().unwrap_or_else(|e| e.into_inner()).event(&ev),
            Trace::Sink(sink) => sink.lock().unwrap_or_else(|e| e.into_inner()).event(&ev),
        }
    }

    /// Snapshot the aggregated statistics of a [`Trace::Collect`] handle
    /// (or of a [`Trace::Sink`] wrapping a [`LogSink`] is not supported —
    /// returns `None` for non-collecting traces).
    pub fn stats(&self) -> Option<EvalStats> {
        match self {
            Trace::Collect(sink) => Some(
                sink.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .stats()
                    .clone(),
            ),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_aggregates_phases_and_deltas() {
        let mut sink = CollectSink::default();
        sink.event(&TraceEvent::PhaseStart("possible"));
        sink.event(&TraceEvent::Iteration);
        sink.event(&TraceEvent::Delta(3));
        sink.event(&TraceEvent::Delta(0));
        sink.event(&TraceEvent::PhaseEnd("possible", 1_500_000));
        sink.event(&TraceEvent::PhaseStart("possible"));
        sink.event(&TraceEvent::Iteration);
        sink.event(&TraceEvent::PhaseEnd("possible", 500_000));
        sink.event(&TraceEvent::FactsInserted(7));
        sink.event(&TraceEvent::IndexBuild(4));
        sink.event(&TraceEvent::IndexProbe(true));
        sink.event(&TraceEvent::IndexProbe(false));
        sink.event(&TraceEvent::Materialized(5));
        sink.event(&TraceEvent::Interner(10, 3));
        let s = sink.into_stats();
        assert_eq!(s.phases.len(), 1, "repeated phases aggregate");
        assert_eq!(s.phases[0].0, "possible");
        assert_eq!(s.phases[0].1.iterations, 2);
        assert_eq!(s.phases[0].1.deltas, vec![3, 0]);
        assert_eq!(s.phases[0].1.wall_nanos, 2_000_000);
        assert_eq!(s.iterations, 2);
        assert_eq!(s.facts_inserted, 7);
        assert_eq!(s.facts_materialized, 5);
        assert_eq!(s.deltas, vec![3, 0]);
        assert_eq!(s.index_builds, 1);
        assert_eq!(s.index_probes, 2);
        assert_eq!(s.index_hits, 1);
        assert_eq!(s.interned_values, 10);
        assert_eq!(s.interned_symbols, 3);
    }

    #[test]
    fn store_events_aggregate_and_summarize() {
        let mut sink = CollectSink::default();
        sink.event(&TraceEvent::WalAppend(40));
        sink.event(&TraceEvent::WalAppend(24));
        sink.event(&TraceEvent::WalSync);
        sink.event(&TraceEvent::SnapshotWrite(128));
        sink.event(&TraceEvent::RecoveryReplay(3));
        sink.event(&TraceEvent::SnapshotMap(256));
        let s = sink.into_stats();
        assert_eq!(s.store.wal_records, 2);
        assert_eq!(s.store.wal_bytes, 64);
        assert_eq!(s.store.wal_fsyncs, 1);
        assert_eq!(s.store.snapshots, 1);
        assert_eq!(s.store.snapshot_bytes, 128);
        assert_eq!(s.store.recovery_replayed, 3);
        assert_eq!(s.store.snapshot_maps, 1);
        assert_eq!(s.store.mapped_bytes, 256);
        let text = s.to_string();
        assert!(text.contains("2 WAL record(s)"), "{text}");
        assert!(text.contains("1 snapshot map(s)"), "{text}");
        // Sessions that never touch the store keep the summary clean.
        assert!(!EvalStats::default().to_string().contains("WAL"));
    }

    #[test]
    fn null_trace_is_default_and_silent() {
        let t = Trace::default();
        assert!(t.is_null());
        t.emit(TraceEvent::Iteration);
        assert_eq!(t.stats(), None);
    }

    #[test]
    fn collect_trace_survives_clone() {
        let t = Trace::collect();
        let t2 = t.clone();
        t2.emit(TraceEvent::Iteration);
        t.emit(TraceEvent::Materialized(9));
        let s = t.stats().expect("collecting");
        assert_eq!(s.iterations, 1);
        assert_eq!(s.facts_materialized, 9);
    }

    #[test]
    fn incr_events_aggregate_and_summarize() {
        let mut sink = CollectSink::default();
        sink.event(&TraceEvent::LevelReplayed(0));
        sink.event(&TraceEvent::LevelReplayed(1));
        sink.event(&TraceEvent::LevelSkipped(2));
        sink.event(&TraceEvent::SupportAdjust(5, 3));
        sink.event(&TraceEvent::SupportAdjust(1, 0));
        sink.event(&TraceEvent::LevelFallback(1));
        let s = sink.into_stats();
        assert_eq!(s.incr.levels_replayed, 2);
        assert_eq!(s.incr.levels_skipped, 1);
        assert_eq!(s.incr.fallbacks, 1);
        assert_eq!(s.incr.support_incs, 6);
        assert_eq!(s.incr.support_decs, 3);
        let text = s.to_string();
        assert!(text.contains("2 level(s) replayed"), "{text}");
        assert!(text.contains("1 fallback(s)"), "{text}");
        // Evaluations that never touch the incremental path keep the
        // summary clean.
        assert!(!EvalStats::default().to_string().contains("replayed"));
        let mut merged = EvalStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.incr.levels_replayed, 4);
        assert_eq!(merged.incr.support_decs, 6);
    }

    #[test]
    fn log_sink_streams_and_aggregates() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared::default();
        let mut sink = LogSink::to_writer(Box::new(buf.clone()));
        sink.event(&TraceEvent::PhaseStart("naive"));
        sink.event(&TraceEvent::Delta(4));
        sink.event(&TraceEvent::PhaseEnd("naive", 2_000_000));
        sink.event(&TraceEvent::Materialized(4));
        assert_eq!(sink.stats().facts_materialized, 4);
        assert_eq!(sink.stats().deltas, vec![4]);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("% trace: naive {"), "got: {text}");
        assert!(text.contains("delta 4"));
        assert!(text.contains("materialized 4 fact(s)"));
    }

    #[test]
    fn merge_reduces_worker_stats() {
        let mut a = CollectSink::default();
        a.event(&TraceEvent::PhaseStart("semi-naive"));
        a.event(&TraceEvent::Iteration);
        a.event(&TraceEvent::Delta(3));
        a.event(&TraceEvent::PhaseEnd("semi-naive", 1_000_000));
        a.event(&TraceEvent::FactsInserted(3));
        a.event(&TraceEvent::IndexBuild(2));
        a.event(&TraceEvent::IndexProbe(true));
        a.event(&TraceEvent::Interner(5, 2));
        let mut b = CollectSink::default();
        b.event(&TraceEvent::PhaseStart("semi-naive"));
        b.event(&TraceEvent::Iteration);
        b.event(&TraceEvent::Delta(1));
        b.event(&TraceEvent::PhaseEnd("semi-naive", 500_000));
        b.event(&TraceEvent::PhaseStart("merge"));
        b.event(&TraceEvent::PhaseEnd("merge", 250_000));
        b.event(&TraceEvent::FactsInserted(2));
        b.event(&TraceEvent::IndexProbe(false));
        b.event(&TraceEvent::Interner(4, 9));
        let mut s = a.into_stats();
        s.merge(b.stats());
        assert_eq!(s.iterations, 2);
        assert_eq!(s.facts_inserted, 5);
        assert_eq!(s.deltas, vec![3, 1]);
        assert_eq!(s.index_builds, 1);
        assert_eq!(s.index_probes, 2);
        assert_eq!(s.index_hits, 1);
        // Interner sizes are global high-water marks: max, per component.
        assert_eq!((s.interned_values, s.interned_symbols), (5, 9));
        assert_eq!(s.phases.len(), 2);
        let semi = &s.phases[0];
        assert_eq!(semi.0, "semi-naive");
        assert_eq!(semi.1.iterations, 2);
        assert_eq!(semi.1.deltas, vec![3, 1]);
        assert_eq!(semi.1.wall_nanos, 1_500_000);
        assert_eq!(s.phases[1].0, "merge");
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut sink = CollectSink::default();
        sink.event(&TraceEvent::Iteration);
        sink.event(&TraceEvent::Delta(2));
        sink.event(&TraceEvent::WalAppend(16));
        let mut s = sink.into_stats();
        let before = s.clone();
        s.merge(&EvalStats::default());
        assert_eq!(s, before);
        let mut zero = EvalStats::default();
        zero.merge(&before);
        assert_eq!(zero, before);
    }

    #[test]
    fn lock_poisoned_logs_but_stays_out_of_stats() {
        let mut sink = CollectSink::default();
        sink.event(&TraceEvent::LockPoisoned("session writer"));
        assert_eq!(sink.into_stats(), EvalStats::default());

        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared::default();
        let mut log = LogSink::to_writer(Box::new(buf.clone()));
        log.event(&TraceEvent::LockPoisoned("session writer"));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("lock poisoned: session writer"), "{text}");
    }

    #[test]
    fn display_summary_mentions_core_counters() {
        let mut sink = CollectSink::default();
        sink.event(&TraceEvent::PhaseStart("semi-naive"));
        sink.event(&TraceEvent::Iteration);
        sink.event(&TraceEvent::Delta(6));
        sink.event(&TraceEvent::PhaseEnd("semi-naive", 3_000_000));
        let text = sink.stats().to_string();
        assert!(text.contains("iterations: 1"));
        assert!(text.contains("phase semi-naive: 1 iteration(s)"));
        assert!(text.contains("deltas 6"));
    }
}
