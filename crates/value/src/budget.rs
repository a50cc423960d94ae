//! Evaluation budgets.
//!
//! The paper's framework deliberately admits *infinite* initial models:
//! "we allow functions on the domains, such as addition on numbers, hence
//! the fixed point operator may generate infinite sets" (Section 3.1), and
//! the valid computation may iterate "possibly transfinitely" (Section
//! 2.2). A reproduction on real hardware must bound these. The
//! justification for bounding is the paper's own domain-independence
//! argument (Section 4): a d.i. query only inspects a finite window of the
//! initial model, so evaluating inside a sufficiently large window gives
//! the exact answer. [`Budget`] materializes such a window; exhausting it
//! yields a [`BudgetError`] — a loud failure, never a silently truncated
//! answer.

use crate::stats::{Trace, TraceEvent};
use std::fmt;
use std::time::Instant;

/// Resource limits for fixpoint evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Budget {
    /// Maximum number of fixpoint iterations (outer and inner combined
    /// per evaluation phase).
    pub max_iterations: usize,
    /// Maximum number of distinct facts / set members materialized by one
    /// evaluation.
    pub max_facts: usize,
    /// Maximum structural size ([`crate::Value::size`]) of any single
    /// constructed value — bounds term growth from interpreted functions
    /// (successor, tuple construction).
    pub max_value_size: usize,
}

impl Budget {
    /// A budget comfortable for unit tests and the paper's examples.
    pub const SMALL: Budget = Budget {
        max_iterations: 10_000,
        max_facts: 100_000,
        max_value_size: 256,
    };

    /// A budget for benchmark-scale workloads.
    pub const LARGE: Budget = Budget {
        max_iterations: 1_000_000,
        max_facts: 50_000_000,
        max_value_size: 4096,
    };

    /// Construct an explicit budget.
    pub fn new(max_iterations: usize, max_facts: usize, max_value_size: usize) -> Self {
        Budget {
            max_iterations,
            max_facts,
            max_value_size,
        }
    }

    /// Start metering against this budget.
    pub fn meter(&self) -> Meter {
        self.meter_traced(Trace::Null)
    }

    /// Start metering against this budget, emitting telemetry events to
    /// the given [`Trace`]. With [`Trace::Null`] this is exactly
    /// [`Budget::meter`].
    pub fn meter_traced(&self, trace: Trace) -> Meter {
        Meter {
            budget: *self,
            iterations: 0,
            facts: 0,
            deltas: 0,
            materialized: 0,
            fallbacks: 0,
            trace,
            open_phases: Vec::new(),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::SMALL
    }
}

/// A running consumption counter against a [`Budget`].
///
/// The meter is the one object threaded by `&mut` through every fixpoint
/// loop in the workspace, so it doubles as the telemetry carrier: a
/// [`Trace`] handle (default [`Trace::Null`]) receives phase boundaries,
/// iteration ticks, delta sizes and index traffic. Every recording method
/// branches on the null discriminant first, so untraced evaluation pays
/// one branch per event site and nothing else.
///
/// Five plain counters are kept whether or not a trace is attached —
/// iterations, facts, delta rounds, the last materialized size and level
/// fallbacks — and each equals what a collecting trace of the same run
/// reports. They are what the serving layer's per-request stats are
/// built from, so a served evaluation needs no trace.
#[derive(Clone, Debug)]
pub struct Meter {
    budget: Budget,
    iterations: usize,
    facts: usize,
    deltas: usize,
    materialized: usize,
    fallbacks: usize,
    trace: Trace,
    open_phases: Vec<(&'static str, Instant)>,
}

impl Meter {
    /// Record one fixpoint iteration.
    #[inline]
    pub fn tick_iteration(&mut self) -> Result<(), BudgetError> {
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::Iteration);
        }
        self.iterations += 1;
        if self.iterations > self.budget.max_iterations {
            Err(BudgetError::Iterations(self.budget.max_iterations))
        } else {
            Ok(())
        }
    }

    /// Record `n` newly materialized facts.
    #[inline]
    pub fn add_facts(&mut self, n: usize) -> Result<(), BudgetError> {
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::FactsInserted(n));
        }
        self.facts = self.facts.saturating_add(n);
        if self.facts > self.budget.max_facts {
            Err(BudgetError::Facts(self.budget.max_facts))
        } else {
            Ok(())
        }
    }

    /// Check a constructed value's size against the budget.
    pub fn check_value_size(&self, size: usize) -> Result<(), BudgetError> {
        if size > self.budget.max_value_size {
            Err(BudgetError::ValueSize(self.budget.max_value_size))
        } else {
            Ok(())
        }
    }

    /// Enter a named evaluation phase (e.g. the alternating fixpoint's
    /// `"possible"` pass). Phases nest; close with [`Meter::phase_end`].
    #[inline]
    pub fn phase_start(&mut self, name: &'static str) {
        if !self.trace.is_null() {
            self.open_phases.push((name, Instant::now()));
            self.trace.emit(TraceEvent::PhaseStart(name));
        }
    }

    /// Leave the innermost open phase, reporting its wall time. A no-op
    /// when untraced or when no phase is open.
    #[inline]
    pub fn phase_end(&mut self) {
        if !self.trace.is_null() {
            if let Some((name, start)) = self.open_phases.pop() {
                let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.trace.emit(TraceEvent::PhaseEnd(name, nanos));
            }
        }
    }

    /// Record the size of one completed semi-naive delta round.
    #[inline]
    pub fn record_delta(&mut self, size: usize) {
        self.deltas += 1;
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::Delta(size));
        }
    }

    /// Record construction of a column index over `keys` distinct keys.
    #[inline]
    pub fn record_index_build(&mut self, keys: usize) {
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::IndexBuild(keys));
        }
    }

    /// Record one index probe; `hit` when the key had candidates.
    #[inline]
    pub fn record_index_probe(&mut self, hit: bool) {
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::IndexProbe(hit));
        }
    }

    /// Record one alternation level replayed incrementally from a delta.
    #[inline]
    pub fn record_level_replayed(&mut self, level: usize) {
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::LevelReplayed(level));
        }
    }

    /// Record one alternation level skipped (support untouched).
    #[inline]
    pub fn record_level_skipped(&mut self, level: usize) {
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::LevelSkipped(level));
        }
    }

    /// Record one pass's support-count adjustments, batched as
    /// `(increments, decrements)`. A no-op when both are zero.
    #[inline]
    pub fn record_support_adjust(&mut self, incs: usize, decs: usize) {
        if !self.trace.is_null() && incs + decs > 0 {
            self.trace.emit(TraceEvent::SupportAdjust(incs, decs));
        }
    }

    /// Record one level falling back to changed-level recomputation.
    #[inline]
    pub fn record_level_fallback(&mut self, level: usize) {
        self.fallbacks += 1;
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::LevelFallback(level));
        }
    }

    /// Record the final result size of an evaluation entry point, along
    /// with a snapshot of the global interner sizes.
    pub fn record_materialized(&mut self, n: usize) {
        self.materialized = n;
        if !self.trace.is_null() {
            self.trace.emit(TraceEvent::Materialized(n));
            self.trace.emit(TraceEvent::Interner(
                crate::intern::interned_value_count(),
                crate::intern::interned_symbol_count(),
            ));
        }
    }

    /// Re-emit a parallel worker's index telemetry into this meter's
    /// trace — the reduction step that folds per-worker [`EvalStats`](crate::stats::EvalStats)
    /// (collected on isolated worker traces) back into the single trace
    /// spine. Only index traffic is replayed: iterations, facts and
    /// deltas are counted *centrally* by the merging round so they stay
    /// bit-identical to the sequential engine, and worker wall-clock
    /// phases are dropped (they overlap, so summing them would not be a
    /// wall time). A no-op on untraced meters.
    pub fn absorb_worker(&mut self, stats: &crate::stats::EvalStats) {
        if self.trace.is_null() {
            return;
        }
        for _ in 0..stats.index_builds {
            self.trace.emit(TraceEvent::IndexBuild(0));
        }
        for _ in 0..stats.index_hits {
            self.trace.emit(TraceEvent::IndexProbe(true));
        }
        for _ in 0..stats.index_probes.saturating_sub(stats.index_hits) {
            self.trace.emit(TraceEvent::IndexProbe(false));
        }
    }

    /// Is this meter carrying a live (non-null) trace?
    #[inline]
    pub fn is_traced(&self) -> bool {
        !self.trace.is_null()
    }

    /// Iterations consumed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Facts recorded so far.
    pub fn facts(&self) -> usize {
        self.facts
    }

    /// Semi-naive delta rounds recorded so far.
    pub fn deltas(&self) -> usize {
        self.deltas
    }

    /// The size last passed to [`Meter::record_materialized`] (0 before
    /// the first call).
    pub fn materialized(&self) -> usize {
        self.materialized
    }

    /// Alternation levels that fell back to recomputation so far.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// The configured budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}

/// Budget exhaustion: the evaluation would need a larger finite window of
/// the (possibly infinite) initial model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetError {
    /// Iteration budget exceeded.
    Iterations(usize),
    /// Fact budget exceeded.
    Facts(usize),
    /// A constructed value exceeded the size budget.
    ValueSize(usize),
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Iterations(n) => {
                write!(f, "iteration budget exhausted ({n} iterations)")
            }
            BudgetError::Facts(n) => write!(f, "fact budget exhausted ({n} facts)"),
            BudgetError::ValueSize(n) => {
                write!(f, "constructed value exceeds size budget ({n})")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_budget_trips() {
        let mut m = Budget::new(2, 10, 10).meter();
        assert!(m.tick_iteration().is_ok());
        assert!(m.tick_iteration().is_ok());
        assert_eq!(m.tick_iteration(), Err(BudgetError::Iterations(2)));
        assert_eq!(m.iterations(), 3);
    }

    #[test]
    fn fact_budget_trips() {
        let mut m = Budget::new(10, 3, 10).meter();
        assert!(m.add_facts(3).is_ok());
        assert_eq!(m.add_facts(1), Err(BudgetError::Facts(3)));
        assert_eq!(m.facts(), 4);
    }

    #[test]
    fn value_size_budget() {
        let m = Budget::new(10, 10, 5).meter();
        assert!(m.check_value_size(5).is_ok());
        assert_eq!(m.check_value_size(6), Err(BudgetError::ValueSize(5)));
    }

    #[test]
    fn default_is_small() {
        assert_eq!(Budget::default(), Budget::SMALL);
        assert_eq!(Budget::SMALL.meter().budget(), &Budget::SMALL);
    }

    #[test]
    fn traced_meter_reports_consumption_and_phases() {
        let trace = Trace::collect();
        let mut m = Budget::new(100, 100, 10).meter_traced(trace.clone());
        assert!(m.is_traced());
        m.phase_start("lfp");
        m.tick_iteration().unwrap();
        m.add_facts(4).unwrap();
        m.record_delta(4);
        m.record_index_build(2);
        m.record_index_probe(true);
        m.record_index_probe(false);
        m.phase_end();
        m.record_materialized(4);
        let s = trace.stats().expect("collecting trace");
        assert_eq!(s.iterations, 1);
        assert_eq!(s.facts_inserted, 4);
        assert_eq!(s.facts_materialized, 4);
        assert_eq!(s.deltas, vec![4]);
        assert_eq!(s.index_builds, 1);
        assert_eq!(s.index_probes, 2);
        assert_eq!(s.index_hits, 1);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].0, "lfp");
        assert_eq!(s.phases[0].1.iterations, 1);
    }

    #[test]
    fn traced_meter_keeps_stats_readable_after_budget_error() {
        let trace = Trace::collect();
        let mut m = Budget::new(1, 1, 10).meter_traced(trace.clone());
        m.phase_start("diverge");
        assert!(m.tick_iteration().is_ok());
        assert_eq!(m.tick_iteration(), Err(BudgetError::Iterations(1)));
        // The evaluation aborts here with the phase still open; the
        // collected stats must still show the consumption at failure.
        let s = trace.stats().unwrap();
        assert_eq!(s.iterations, 2);
        assert_eq!(s.phases[0].0, "diverge");
        assert_eq!(s.phases[0].1.iterations, 2);
    }

    #[test]
    fn untraced_meter_recording_is_a_no_op() {
        let mut m = Budget::SMALL.meter();
        assert!(!m.is_traced());
        m.phase_start("x");
        m.record_delta(3);
        m.record_index_probe(true);
        m.phase_end();
        m.record_materialized(1);
        assert!(m.open_phases.is_empty());
    }

    #[test]
    fn counters_match_a_collecting_trace_without_one() {
        let record = |m: &mut Meter| {
            m.tick_iteration().unwrap();
            m.add_facts(5).unwrap();
            m.record_delta(5);
            m.record_delta(0);
            m.record_level_fallback(3);
            m.record_materialized(9);
            m.record_materialized(7);
        };
        let mut plain = Budget::SMALL.meter();
        record(&mut plain);
        let trace = Trace::collect();
        let mut traced = Budget::SMALL.meter_traced(trace.clone());
        record(&mut traced);
        let s = trace.stats().unwrap();
        for m in [&plain, &traced] {
            assert_eq!(m.iterations(), s.iterations);
            assert_eq!(m.facts(), s.facts_inserted);
            assert_eq!(m.deltas(), s.deltas.len());
            assert_eq!(m.materialized(), s.facts_materialized);
            assert_eq!(m.fallbacks(), s.incr.fallbacks);
        }
    }

    #[test]
    fn absorb_worker_replays_index_traffic_only() {
        let trace = Trace::collect();
        let mut m = Budget::SMALL.meter_traced(trace.clone());
        let worker = crate::stats::EvalStats {
            iterations: 5,
            facts_inserted: 40,
            deltas: vec![7],
            index_builds: 2,
            index_probes: 10,
            index_hits: 6,
            ..Default::default()
        };
        m.absorb_worker(&worker);
        let s = trace.stats().unwrap();
        assert_eq!(s.index_builds, 2);
        assert_eq!(s.index_probes, 10);
        assert_eq!(s.index_hits, 6);
        // Central counters stay untouched — the merging round owns them.
        assert_eq!(s.iterations, 0);
        assert_eq!(s.facts_inserted, 0);
        assert_eq!(s.deltas, Vec::<usize>::new());
        // Untraced absorption is free.
        Budget::SMALL.meter().absorb_worker(&worker);
    }

    #[test]
    fn errors_display() {
        assert!(BudgetError::Iterations(5).to_string().contains("5"));
        assert!(BudgetError::Facts(7).to_string().contains("7"));
        assert!(BudgetError::ValueSize(9).to_string().contains("9"));
    }
}
