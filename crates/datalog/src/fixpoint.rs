//! Least-fixpoint computation with a *fixed* negation oracle.
//!
//! This is the operator the paper calls "a derivation starting from a set
//! of true facts, where only facts from a fixed set are allowed to be used
//! negatively" (Section 2.2). Formally it is the Γ operator of the
//! alternating-fixpoint characterization: given an oracle deciding every
//! negative literal once and for all, the program becomes monotone and has
//! a least fixpoint.
//!
//! Two implementations are provided — textbook [`naive`] iteration and
//! [`semi_naive`] differential iteration — because experiment **E8**
//! measures the gap between them; every other module uses `semi_naive`.
//!
//! **Parallel rounds.** Rule instantiations within one round are
//! independent (every firing reads the previous `total`/`delta` and
//! writes only a candidate buffer; the round *barrier* publishes), so a
//! big-enough round fans out across the `algrec-sched` worker pool: the
//! delta is hash-partitioned across workers, each worker fires every
//! eligible (rule, position) against its partition into per-rule local
//! buffers, and the buffers are merged centrally in rule-major,
//! worker-minor order. The central merge — not the workers — counts new
//! facts against the budget meter, which keeps outputs *and* the
//! deterministic statistics (iterations, facts inserted, per-round
//! deltas) bit-identical to the sequential engine for every thread
//! count. Workers run under an unbounded fact budget but the caller's
//! real value-size limit, so a `ValueSize` budget error (which carries
//! only the limit) is the same error value no matter which worker hits
//! it. See DESIGN.md §14 for the full correctness argument.

use crate::engine::{apply_rule, Compiled, FactSource};
use crate::error::EvalError;
use crate::interp::Interp;
use algrec_value::budget::Meter;
use algrec_value::{Budget, EvalStats, Trace, Value};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Minimum round size (delta facts for differential rounds, base facts
/// for the full round) before firing fans out to the worker pool —
/// below this, thread orchestration costs more than the round. Shared
/// with the compiled executor so both paths fan out at the same point.
pub(crate) const PAR_MIN_FACTS: usize = 256;

/// Statistics of one fixpoint run (used by the experiment harness).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct FixpointStats {
    /// Number of rounds until the fixpoint was reached.
    pub rounds: usize,
    /// Number of rule applications performed.
    pub rule_applications: usize,
    /// Facts derived (beyond the initial interpretation).
    pub derived: usize,
}

/// How negative body literals are decided during a fixpoint run.
///
/// The closure-based entry points ([`naive`], [`semi_naive`],
/// [`semi_naive_from`]) wrap their argument in [`NegOracle::Fn`]; the
/// structured variants let callers say *what* the oracle is, which the
/// compiled executor exploits: a [`NegOracle::Complement`] lowers to an
/// interned id-space set (no per-consult value resolution), and callers
/// can pass a borrowed frozen interpretation instead of cloning one into
/// a closure.
pub enum NegOracle<'a> {
    /// Negation never holds (positive programs).
    False,
    /// `not p(x̄)` holds iff `p(x̄)` is absent from the frozen
    /// interpretation (stratified strata, well-founded alternation).
    Complement(&'a Interp),
    /// An arbitrary decision procedure.
    Fn(&'a (dyn Fn(&str, &[Value]) -> bool + Sync)),
}

impl NegOracle<'_> {
    /// Decide `not pred(args)`.
    pub fn test(&self, pred: &str, args: &[Value]) -> bool {
        match self {
            NegOracle::False => false,
            NegOracle::Complement(frozen) => !frozen.holds(pred, args),
            NegOracle::Fn(f) => f(pred, args),
        }
    }
}

/// Hash-partition an interpretation's facts into `n` disjoint parts.
/// Which part a fact lands in never affects the result — every worker
/// joins its part against the same shared `total`, and the parts are
/// merged back deterministically — so the hash only balances load.
fn partition_facts(facts: &Interp, n: usize) -> Vec<Interp> {
    let mut parts = vec![Interp::new(); n];
    for (p, args) in facts.iter() {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        p.hash(&mut h);
        args.hash(&mut h);
        parts[(h.finish() % n as u64) as usize].insert(p, args.clone());
    }
    parts
}

/// A fact's owning shard by its *first column* — the cluster's EDB
/// partitioning function, which routes facts to the shard logs on disk.
/// All facts about one entity co-locate regardless of predicate
/// (zero-arity facts hash their predicate name).
pub fn shard_of_fact(pred: &str, args: &[Value], n: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match args.first() {
        Some(first) => first.hash(&mut h),
        None => pred.hash(&mut h),
    }
    (h.finish() % n as u64) as usize
}

/// One parallel worker's result: per-rule candidate buffers, plus the
/// worker's collected telemetry when the round is traced.
type WorkerOut = Result<(Vec<Interp>, Option<EvalStats>), EvalError>;

/// The meter a parallel worker runs under: unbounded iteration/fact
/// budgets (the central merge charges the real meter, keeping the
/// charge sequence bit-identical to the sequential engine) but the
/// caller's true value-size limit, so oversized constructed values fail
/// in the worker with the same deterministic error value —
/// `ValueSize` carries only the limit — regardless of which worker or
/// thread count hits them.
fn worker_budget(meter: &Meter) -> Budget {
    Budget::new(usize::MAX, usize::MAX, meter.budget().max_value_size)
}

/// Merge per-worker, per-rule candidate buffers into `derived` in
/// rule-major, worker-minor order, charging `meter` once per fact new
/// to `derived` — exactly the accounting the sequential loop performs
/// as `apply_rule` inserts — and folding worker index telemetry into
/// the trace spine first (in worker order).
fn merge_worker_buffers(
    results: Vec<WorkerOut>,
    rules: usize,
    meter: &mut Meter,
    derived: &mut Interp,
) -> Result<(), EvalError> {
    let mut buffers = Vec::with_capacity(results.len());
    for res in results {
        let (bufs, stats) = res?;
        if let Some(stats) = &stats {
            meter.absorb_worker(stats);
        }
        buffers.push(bufs);
    }
    for rule in 0..rules {
        for bufs in &buffers {
            for (p, args) in bufs[rule].iter() {
                if derived.insert(p, args.to_vec()) {
                    meter.add_facts(1)?;
                }
            }
        }
    }
    Ok(())
}

/// Fire the given `(rule index, positive-body position)` pairs
/// differentially against `delta`, accumulating candidates into
/// `derived`. Sequential for small rounds; fans the delta out across
/// the worker pool otherwise (see the module docs for the determinism
/// argument).
#[allow(clippy::too_many_arguments)]
fn fire_differential(
    compiled: &Compiled,
    total: &Interp,
    delta: &Interp,
    firings: &[(usize, usize)],
    neg: &(dyn Fn(&str, &[Value]) -> bool + Sync),
    meter: &mut Meter,
    derived: &mut Interp,
) -> Result<(), EvalError> {
    let threads = algrec_sched::threads();
    if threads <= 1 || delta.total() < PAR_MIN_FACTS || firings.is_empty() {
        for &(rule, pos) in firings {
            apply_rule(
                &compiled.rules[rule],
                &compiled.plans[rule],
                &FactSource {
                    full: total,
                    delta: Some((pos, delta)),
                },
                neg,
                meter,
                derived,
            )?;
        }
        return Ok(());
    }
    let parts = partition_facts(delta, threads);
    let budget = worker_budget(meter);
    let traced = meter.is_traced();
    let results = algrec_sched::Pool::new(threads).run(parts.len(), |w| -> WorkerOut {
        let trace = if traced {
            Trace::collect()
        } else {
            Trace::Null
        };
        let mut wm = budget.meter_traced(trace.clone());
        let mut bufs = vec![Interp::new(); compiled.rules.len()];
        for &(rule, pos) in firings {
            // A position whose predicate has no facts in this part can
            // derive nothing from it.
            if let crate::ast::Literal::Pos(atom) = &compiled.rules[rule].body[pos] {
                if parts[w].count(&atom.pred) == 0 {
                    continue;
                }
            }
            apply_rule(
                &compiled.rules[rule],
                &compiled.plans[rule],
                &FactSource {
                    full: total,
                    delta: Some((pos, &parts[w])),
                },
                neg,
                &mut wm,
                &mut bufs[rule],
            )?;
        }
        Ok((bufs, trace.stats()))
    });
    merge_worker_buffers(results, compiled.rules.len(), meter, derived)
}

/// Fire every rule once against the full `total` (a semi-naive round 0),
/// accumulating candidates into `derived`. Parallel by *rule index* —
/// the full round has no delta to partition — when the base is big
/// enough to pay for the fan-out.
fn fire_full_round(
    compiled: &Compiled,
    total: &Interp,
    neg: &(dyn Fn(&str, &[Value]) -> bool + Sync),
    meter: &mut Meter,
    derived: &mut Interp,
) -> Result<(), EvalError> {
    let threads = algrec_sched::threads();
    if threads <= 1 || compiled.rules.len() <= 1 || total.total() < PAR_MIN_FACTS {
        for (rule, plan) in compiled.rules.iter().zip(&compiled.plans) {
            apply_rule(rule, plan, &FactSource::full(total), neg, meter, derived)?;
        }
        return Ok(());
    }
    let budget = worker_budget(meter);
    let traced = meter.is_traced();
    let results = algrec_sched::Pool::new(threads).run(compiled.rules.len(), |r| -> WorkerOut {
        let trace = if traced {
            Trace::collect()
        } else {
            Trace::Null
        };
        let mut wm = budget.meter_traced(trace.clone());
        // One buffer per rule keeps the merge shape shared with the
        // differential path; job `r` only fills slot `r`.
        let mut bufs = vec![Interp::new(); compiled.rules.len()];
        apply_rule(
            &compiled.rules[r],
            &compiled.plans[r],
            &FactSource::full(total),
            neg,
            &mut wm,
            &mut bufs[r],
        )?;
        Ok((bufs, trace.stats()))
    });
    merge_worker_buffers(results, compiled.rules.len(), meter, derived)
}

/// Naive evaluation: apply every rule against the full current
/// interpretation until nothing new is derived.
pub fn naive(
    compiled: &Compiled,
    base: &Interp,
    neg: &(dyn Fn(&str, &[Value]) -> bool + Sync),
    meter: &mut Meter,
) -> Result<(Interp, FixpointStats), EvalError> {
    naive_oracle(compiled, base, &NegOracle::Fn(neg), meter)
}

/// [`naive`] with a structured negation oracle. Eligible programs run on
/// the compiled id-space executor (see `compiled`); everything
/// else — and every traced run — takes the interpreted path below.
pub fn naive_oracle(
    compiled: &Compiled,
    base: &Interp,
    neg: &NegOracle<'_>,
    meter: &mut Meter,
) -> Result<(Interp, FixpointStats), EvalError> {
    if let Some(res) = crate::compiled::try_naive(compiled, base, neg, meter) {
        return res;
    }
    let negf = |p: &str, a: &[Value]| neg.test(p, a);
    let neg = &negf;
    let mut total = base.clone();
    let mut stats = FixpointStats::default();
    meter.phase_start("naive");
    loop {
        meter.tick_iteration()?;
        stats.rounds += 1;
        let mut derived = Interp::new();
        for (rule, plan) in compiled.rules.iter().zip(&compiled.plans) {
            stats.rule_applications += 1;
            apply_rule(
                rule,
                plan,
                &FactSource::full(&total),
                neg,
                meter,
                &mut derived,
            )?;
        }
        let added = total.absorb(&derived);
        meter.record_delta(added);
        if added == 0 {
            break;
        }
        stats.derived += added;
    }
    meter.phase_end();
    Ok((total, stats))
}

/// Semi-naive evaluation: after the first round, a recursive rule is only
/// re-fired with at least one of its positive IDB literals constrained to
/// the facts new in the previous round.
pub fn semi_naive(
    compiled: &Compiled,
    base: &Interp,
    neg: &(dyn Fn(&str, &[Value]) -> bool + Sync),
    meter: &mut Meter,
) -> Result<(Interp, FixpointStats), EvalError> {
    semi_naive_oracle(compiled, base, &NegOracle::Fn(neg), meter)
}

/// [`semi_naive`] with a structured negation oracle; eligible programs
/// run compiled (see `compiled`).
pub fn semi_naive_oracle(
    compiled: &Compiled,
    base: &Interp,
    neg: &NegOracle<'_>,
    meter: &mut Meter,
) -> Result<(Interp, FixpointStats), EvalError> {
    if let Some(res) = crate::compiled::try_semi_naive(compiled, base, neg, meter) {
        return res;
    }
    let negf = |p: &str, a: &[Value]| neg.test(p, a);
    let neg = &negf;
    let mut stats = FixpointStats::default();
    let idb: BTreeSet<&str> = compiled
        .rules
        .iter()
        .map(|r| r.head.pred.as_str())
        .collect();

    // Round 0: fire every rule once against the base.
    let mut total = base.clone();
    let mut delta = Interp::new();
    meter.phase_start("semi-naive");
    meter.tick_iteration()?;
    stats.rounds += 1;
    stats.rule_applications += compiled.rules.len();
    fire_full_round(compiled, &total, neg, meter, &mut delta)?;
    // Keep only genuinely new facts in delta.
    let mut new_delta = Interp::new();
    for (p, args) in delta.iter() {
        if !total.holds(p, args) {
            new_delta.insert(p, args.clone());
        }
    }
    let mut delta = new_delta;
    stats.derived += total.absorb(&delta);
    meter.record_delta(delta.total());

    // Subsequent rounds: differential firing.
    while delta.total() > 0 {
        meter.tick_iteration()?;
        stats.rounds += 1;
        let mut derived = Interp::new();
        // Fire each rule once per positive body literal over an IDB
        // predicate, constrained to the previous round's delta
        // (non-recursive rules fired completely in round 0).
        let mut firings: Vec<(usize, usize)> = Vec::new();
        for (r, rule) in compiled.rules.iter().enumerate() {
            for (pos, lit) in rule.body.iter().enumerate() {
                if let crate::ast::Literal::Pos(a) = lit {
                    if idb.contains(a.pred.as_str()) {
                        firings.push((r, pos));
                    }
                }
            }
        }
        stats.rule_applications += firings.len();
        fire_differential(compiled, &total, &delta, &firings, neg, meter, &mut derived)?;
        let mut next_delta = Interp::new();
        for (p, args) in derived.iter() {
            if !total.holds(p, args) {
                next_delta.insert(p, args.clone());
            }
        }
        stats.derived += total.absorb(&next_delta);
        delta = next_delta;
        meter.record_delta(delta.total());
    }
    meter.phase_end();
    Ok((total, stats))
}

/// Semi-naive continuation: resume a completed fixpoint after new facts
/// arrive, without re-firing round 0.
///
/// `total` must be a fixpoint of the rules *before* the new facts, with
/// `seed` (the newly arrived facts, EDB or IDB) already absorbed into it.
/// Rules are fired only with one body literal at a time constrained to the
/// current delta — the first round's delta is `seed` — so the work done is
/// proportional to the consequences of the change, not to the size of the
/// materialized model. This is the stratum-scoped re-evaluation entry
/// point the serving layer's incremental maintenance builds on.
///
/// Returns the new fixpoint, the set of facts added beyond `total`, and
/// the round statistics.
pub fn semi_naive_from(
    compiled: &Compiled,
    total: &Interp,
    seed: &Interp,
    neg: &(dyn Fn(&str, &[Value]) -> bool + Sync),
    meter: &mut Meter,
) -> Result<(Interp, Interp, FixpointStats), EvalError> {
    semi_naive_from_oracle(compiled, total, seed, &NegOracle::Fn(neg), meter)
}

/// [`semi_naive_from`] with a structured negation oracle. Always
/// interpreted, traced or not: the compiled executor would first intern
/// all of `total`, so a write would cost the size of the view rather
/// than the size of its consequences.
pub fn semi_naive_from_oracle(
    compiled: &Compiled,
    total: &Interp,
    seed: &Interp,
    neg: &NegOracle<'_>,
    meter: &mut Meter,
) -> Result<(Interp, Interp, FixpointStats), EvalError> {
    let negf = |p: &str, a: &[Value]| neg.test(p, a);
    let neg = &negf;
    let mut stats = FixpointStats::default();
    let mut total = total.clone();
    let mut delta = seed.clone();
    let mut added_all = Interp::new();
    meter.phase_start("semi-naive-from");
    while delta.total() > 0 {
        meter.tick_iteration()?;
        stats.rounds += 1;
        let mut derived = Interp::new();
        // Fire once per positive body literal whose predicate has
        // facts in the current delta. Unlike the from-scratch
        // engine, the delta may contain EDB facts (asserted by the
        // caller), so eligibility is decided by delta content, not
        // by IDB membership — computed here, over the *full* delta, so
        // the rule-application count is partition-independent.
        let mut firings: Vec<(usize, usize)> = Vec::new();
        for (r, rule) in compiled.rules.iter().enumerate() {
            for (pos, lit) in rule.body.iter().enumerate() {
                if let crate::ast::Literal::Pos(atom) = lit {
                    if delta.count(&atom.pred) > 0 {
                        firings.push((r, pos));
                    }
                }
            }
        }
        stats.rule_applications += firings.len();
        fire_differential(compiled, &total, &delta, &firings, neg, meter, &mut derived)?;
        let mut next_delta = Interp::new();
        for (p, args) in derived.iter() {
            if !total.holds(p, args) {
                next_delta.insert(p, args.clone());
            }
        }
        stats.derived += total.absorb(&next_delta);
        added_all.absorb(&next_delta);
        delta = next_delta;
        meter.record_delta(delta.total());
    }
    meter.phase_end();
    Ok((total, added_all, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Expr, Literal, Program, Rule};
    use algrec_value::Budget;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn tc_program() -> Compiled {
        Compiled::compile(&Program::from_rules([
            Rule::new(
                Atom::new("tc", [v("X"), v("Y")]),
                [Literal::Pos(Atom::new("edge", [v("X"), v("Y")]))],
            ),
            Rule::new(
                Atom::new("tc", [v("X"), v("Z")]),
                [
                    Literal::Pos(Atom::new("tc", [v("X"), v("Y")])),
                    Literal::Pos(Atom::new("edge", [v("Y"), v("Z")])),
                ],
            ),
        ]))
        .unwrap()
    }

    fn chain_edges(n: i64) -> Interp {
        let mut base = Interp::new();
        for k in 0..n {
            base.insert("edge", vec![i(k), i(k + 1)]);
        }
        base
    }

    #[test]
    fn naive_transitive_closure() {
        let compiled = tc_program();
        let mut meter = Budget::SMALL.meter();
        let (out, stats) = naive(&compiled, &chain_edges(5), &|_, _| false, &mut meter).unwrap();
        // chain of 6 nodes: 5+4+3+2+1 = 15 pairs
        assert_eq!(out.count("tc"), 15);
        assert!(out.holds("tc", &[i(0), i(5)]));
        assert!(stats.rounds >= 5);
    }

    #[test]
    fn semi_naive_agrees_with_naive() {
        let compiled = tc_program();
        let base = chain_edges(8);
        let mut m1 = Budget::SMALL.meter();
        let mut m2 = Budget::SMALL.meter();
        let (a, _) = naive(&compiled, &base, &|_, _| false, &mut m1).unwrap();
        let (b, sb) = semi_naive(&compiled, &base, &|_, _| false, &mut m2).unwrap();
        assert_eq!(a, b);
        assert!(sb.derived > 0);
    }

    #[test]
    fn semi_naive_does_less_work() {
        let compiled = tc_program();
        let base = chain_edges(20);
        let mut m1 = Budget::LARGE.meter();
        let mut m2 = Budget::LARGE.meter();
        let (a, _) = naive(&compiled, &base, &|_, _| false, &mut m1).unwrap();
        let (b, _) = semi_naive(&compiled, &base, &|_, _| false, &mut m2).unwrap();
        assert_eq!(a, b);
        // The meter's fact count only counts new facts, but naive re-derives:
        // compare iterations of the meters is equal; instead compare that
        // semi-naive visited strictly fewer (rule, fact) pairs indirectly via
        // wall-clock-free proxy: both computed the same result. The work gap
        // is measured by experiment E8; here we just pin the equality.
        assert_eq!(a.count("tc"), 20 * 21 / 2);
        let _ = b;
    }

    #[test]
    fn semi_naive_from_matches_full_reevaluation() {
        let compiled = tc_program();
        let base = chain_edges(10);
        let mut m = Budget::SMALL.meter();
        let (fixpoint, _) = semi_naive(&compiled, &base, &|_, _| false, &mut m).unwrap();

        // Arrive: one new edge extending the chain.
        let mut total = fixpoint.clone();
        let mut seed = Interp::new();
        seed.insert("edge", vec![i(10), i(11)]);
        total.absorb(&seed);
        let mut m2 = Budget::SMALL.meter();
        let (incr, added, s_incr) =
            semi_naive_from(&compiled, &total, &seed, &|_, _| false, &mut m2).unwrap();

        // Equals the from-scratch fixpoint over the extended EDB.
        let mut base2 = chain_edges(10);
        base2.insert("edge", vec![i(10), i(11)]);
        let mut m3 = Budget::SMALL.meter();
        let (cold, s_cold) = semi_naive(&compiled, &base2, &|_, _| false, &mut m3).unwrap();
        assert_eq!(incr, cold);
        // Added = the 11 new tc pairs ending at node 11.
        assert_eq!(added.count("tc"), 11);
        // And it did strictly less derivation work than the cold run.
        assert!(s_incr.derived < s_cold.derived);
        assert!(m2.facts() < m3.facts());
    }

    #[test]
    fn semi_naive_from_empty_seed_is_noop() {
        let compiled = tc_program();
        let base = chain_edges(4);
        let mut m = Budget::SMALL.meter();
        let (fixpoint, _) = semi_naive(&compiled, &base, &|_, _| false, &mut m).unwrap();
        let mut m2 = Budget::SMALL.meter();
        let (same, added, stats) =
            semi_naive_from(&compiled, &fixpoint, &Interp::new(), &|_, _| false, &mut m2).unwrap();
        assert_eq!(same, fixpoint);
        assert_eq!(added.total(), 0);
        assert_eq!(stats.rounds, 0);
    }

    /// A 3-out-regular graph on 40 nodes: its transitive closure has
    /// 1600 pairs and per-round deltas well above `PAR_MIN_FACTS`, so
    /// the differential rounds actually fan out once threads > 1.
    fn dense_edges() -> Interp {
        let mut base = Interp::new();
        for a in 0..40 {
            for b in [(a * 7 + 3) % 40, (a * 11 + 1) % 40, (a + 1) % 40] {
                base.insert("edge", vec![i(a), i(b)]);
            }
        }
        base
    }

    #[test]
    fn parallel_rounds_are_bit_identical_to_sequential() {
        let compiled = tc_program();
        let base = dense_edges();
        let run = |threads: usize| {
            algrec_sched::set_threads(threads);
            let trace = algrec_value::Trace::collect();
            let mut meter = Budget::LARGE.meter_traced(trace.clone());
            let out = semi_naive(&compiled, &base, &|_, _| false, &mut meter);
            let (interp, stats) = out.unwrap();
            (interp, stats, meter.facts(), trace.stats().unwrap())
        };
        let (seq, seq_stats, seq_facts, seq_ev) = run(1);
        assert_eq!(seq.count("tc"), 1600);
        for threads in [2, 4, 8] {
            let (par, par_stats, par_facts, par_ev) = run(threads);
            assert_eq!(par, seq, "output differs at {threads} threads");
            assert_eq!(par_stats, seq_stats, "fixpoint stats at {threads}");
            assert_eq!(par_facts, seq_facts, "meter facts at {threads}");
            // The deterministic slice of the telemetry must match too;
            // index traffic legitimately varies with partitioning.
            assert_eq!(par_ev.iterations, seq_ev.iterations);
            assert_eq!(par_ev.facts_inserted, seq_ev.facts_inserted);
            assert_eq!(par_ev.deltas, seq_ev.deltas);
        }
        algrec_sched::set_threads(1);
    }

    #[test]
    fn parallel_semi_naive_from_matches_sequential() {
        let compiled = tc_program();
        let base = dense_edges();
        let mut m = Budget::LARGE.meter();
        algrec_sched::set_threads(1);
        let (fixpoint, _) = semi_naive(&compiled, &base, &|_, _| false, &mut m).unwrap();
        let mut seed = Interp::new();
        seed.insert("edge", vec![i(40), i(0)]);
        let mut total = fixpoint.clone();
        total.absorb(&seed);
        let run = |threads: usize| {
            algrec_sched::set_threads(threads);
            let mut meter = Budget::LARGE.meter();
            let out = semi_naive_from(&compiled, &total, &seed, &|_, _| false, &mut meter);
            let (interp, added, stats) = out.unwrap();
            (interp, added, stats, meter.facts())
        };
        let seq = run(1);
        for threads in [2, 4, 8] {
            let par = run(threads);
            assert_eq!(par, seq, "continuation differs at {threads} threads");
        }
        algrec_sched::set_threads(1);
    }

    #[test]
    fn negation_oracle_is_respected() {
        // q(X) :- node(X), not bad(X).
        let compiled = Compiled::compile(&Program::from_rules([Rule::new(
            Atom::new("q", [v("X")]),
            [
                Literal::Pos(Atom::new("node", [v("X")])),
                Literal::Neg(Atom::new("bad", [v("X")])),
            ],
        )]))
        .unwrap();
        let mut base = Interp::new();
        base.insert("node", vec![i(1)]);
        base.insert("node", vec![i(2)]);
        let mut meter = Budget::SMALL.meter();
        let (out, _) = semi_naive(
            &compiled,
            &base,
            &|p, args| p == "bad" && args[0] != i(2),
            &mut meter,
        )
        .unwrap();
        assert!(out.holds("q", &[i(1)]));
        assert!(!out.holds("q", &[i(2)]));
    }

    #[test]
    fn budget_stops_runaway_generation() {
        // nat(succ(X)) :- nat(X).  — generates an infinite set; the budget
        // must stop it (paper, Section 3.1: fixed points may be infinite).
        use crate::ast::Func;
        let compiled = Compiled::compile(&Program::from_rules([
            Rule::fact(Atom::new("nat", [Expr::int(0)])),
            Rule::new(
                Atom::new("nat", [Expr::App(Func::Succ, vec![v("X")])]),
                [Literal::Pos(Atom::new("nat", [v("X")]))],
            ),
        ]))
        .unwrap();
        let mut meter = Budget::new(50, 1_000_000, 64).meter();
        let err = semi_naive(&compiled, &Interp::new(), &|_, _| false, &mut meter);
        assert!(matches!(err, Err(EvalError::Budget(_))));
    }

    #[test]
    fn bounded_generation_succeeds() {
        // nat(Y) :- nat(X), X < 10, Y = succ(X).
        use crate::ast::CmpOp;
        use crate::ast::Func;
        let compiled = Compiled::compile(&Program::from_rules([
            Rule::fact(Atom::new("nat", [Expr::int(0)])),
            Rule::new(
                Atom::new("nat", [v("Y")]),
                [
                    Literal::Pos(Atom::new("nat", [v("X")])),
                    Literal::Cmp(CmpOp::Lt, v("X"), Expr::int(10)),
                    Literal::Cmp(CmpOp::Eq, v("Y"), Expr::App(Func::Succ, vec![v("X")])),
                ],
            ),
        ]))
        .unwrap();
        let mut meter = Budget::SMALL.meter();
        let (out, _) = semi_naive(&compiled, &Interp::new(), &|_, _| false, &mut meter).unwrap();
        assert_eq!(out.count("nat"), 11);
    }
}
