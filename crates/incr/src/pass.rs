//! One maintained level — the only implementation of per-level counting
//! and DRed in the workspace.
//!
//! A *level* is a set of rules evaluated to an inner least fixpoint with
//! its negation oracle held still: one pass of the alternating fixpoint
//! (the oracle is the previous pass's interpretation, frozen for the
//! length of the pass) or one stratum of a stratified program (the
//! oracle is the level's own total — negated predicates live strictly
//! below, so they are final before the stratum runs). Either way the
//! level is effectively a positive program over its positive body
//! predicates, with the oracle entering only through negative literals:
//!
//! * a **counting** level (no head predicate appears positively in any
//!   body) stores support counts per derivation and replays exactly the
//!   derivations killed and born by a delta;
//! * a **DRed** level (positive recursion through the level's own heads)
//!   over-deletes against the old state, re-derives survivors, and runs
//!   the semi-naive continuation for insertions.
//!
//! A level has *two* delta channels: changes to positive body
//! predicates, and oracle changes, which reach the negative literals via
//! pre-planned *flipped* rules. An oracle insertion kills derivations
//! (its `not q` just failed); an oracle deletion births them.
//!
//! **What a replay touches.** Everything a replay enumerates is a firing
//! with a delta, and a firing with a delta starts from the delta when
//! that visits fewer rows than the rule's static plan
//! ([`RulePlans::for_source`]; the sizes are read at the firing, nothing
//! is configured). DRed's re-derivation phase is such a firing too: each
//! rule has a pre-planned *guarded* variant `h(t̄) :- h(t̄), body` whose
//! first literal reads the over-deleted heads still missing, so the
//! phase binds the head first and probes only what joins to it — it no
//! longer enumerates the rule over the whole total to find the handful
//! of heads that still have support. What stays proportional to a
//! relation is a literal reached with only a non-first column bound
//! (`tc(X, Y)` with `Y` known): only first columns can be probed, so it
//! is scanned.
//!
//! [`PassProgram::cold_into`] and [`PassProgram::replay`] are that
//! kernel; they emit only the telemetry every driver shares. Two drivers
//! sit on top: `algrec_serve::maintain::StratifiedView` walks strata
//! bottom-up over one shared total, and [`PassProgram::maintain`] is the
//! alternating driver's per-level skip / fallback / replay dispatcher
//! (used by [`crate::IncrementalModel`]), which also owns the
//! `Level*` / `SupportAdjust` trace events.

use algrec_datalog::ast::{Literal, Program, Rule};
use algrec_datalog::engine::{
    apply_rule, enumerate_bindings, eval_expr, Bindings, Compiled, FactSource, RulePlans,
};
use algrec_datalog::error::EvalError;
use algrec_datalog::fixpoint::{semi_naive_from_oracle, semi_naive_oracle, NegOracle};
use algrec_datalog::interp::{Fact, Interp};
use algrec_value::budget::Meter;
use algrec_value::{SupportCounts, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Minimum oracle-churn (facts touching negated predicates) before a
/// pass abandons replay and recomputes the level cold. Below this the
/// replay is always attempted; above it the churn must also exceed the
/// pass's own head-fact count.
const FALLBACK_MIN: usize = 16;

/// How a pass absorbed one delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassAction {
    /// Neither the pass's positive body predicates nor its negated
    /// (oracle) predicates were touched; only base edits were applied.
    Skipped,
    /// The delta was replayed through the pass's support structures
    /// (counting or DRed).
    Replayed,
    /// Oracle churn exceeded the deterministic threshold; the level was
    /// recomputed from scratch against the new oracle.
    Fallback,
}

/// The total-level change one pass maintenance produced: base edits plus
/// net head changes. This is exactly the *oracle delta* of the next
/// pass, since each pass's result is the next pass's negation oracle.
#[derive(Clone, Debug)]
pub struct PassDelta {
    /// Facts that entered the pass's total interpretation.
    pub ins: Interp,
    /// Facts that left the pass's total interpretation.
    pub del: Interp,
    /// How the pass absorbed the delta.
    pub action: PassAction,
}

/// Maintained state of one alternation level: the pass's total
/// interpretation (base facts plus derived heads — the inner-lfp result)
/// and, for counting passes, the per-fact derivation counts.
#[derive(Clone, Debug)]
pub struct PassState {
    pub(crate) total: Interp,
    pub(crate) support: Option<SupportCounts<Fact>>,
}

impl PassState {
    /// The pass's total interpretation (base facts included) — the
    /// inner least fixpoint this level produced.
    pub fn total(&self) -> &Interp {
        &self.total
    }
}

/// A level's negation oracle across one delta: `not p(x̄)` holds iff
/// `p(x̄)` is absent from it.
#[derive(Clone, Copy)]
pub enum Oracle<'a> {
    /// An alternation level: the previous pass's interpretation before
    /// and after the delta, frozen for the length of the pass.
    Frozen {
        /// The oracle the stored state was derived under.
        old: &'a Interp,
        /// The oracle the replayed state must be derived under.
        new: &'a Interp,
    },
    /// A stratum: the level's own old and new total.
    Own,
}

impl<'a> Oracle<'a> {
    fn before(self, own: &'a Interp) -> &'a Interp {
        match self {
            Oracle::Frozen { old, .. } => old,
            Oracle::Own => own,
        }
    }

    fn after(self, own: &'a Interp) -> &'a Interp {
        match self {
            Oracle::Frozen { new, .. } => new,
            Oracle::Own => own,
        }
    }
}

/// One delta as [`PassProgram::replay`] consumes it, already routed by
/// the driver: the replay propagates every fact it is handed.
pub struct LevelDelta<'a> {
    /// Inserted facts feeding positive body literals (already applied to
    /// the level's total).
    pub ins: &'a Interp,
    /// Removed facts feeding positive body literals (already applied).
    pub del: &'a Interp,
    /// Facts that entered the oracle, restricted to negated predicates.
    pub oc_ins: &'a Interp,
    /// Facts that left the oracle, restricted to negated predicates.
    pub oc_del: &'a Interp,
}

/// What one [`PassProgram::replay`] did to a level's heads.
#[derive(Default)]
pub struct HeadDelta {
    /// Head facts that entered the level.
    pub ins: Interp,
    /// Head facts that left the level.
    pub del: Interp,
    /// Support-count increments applied (0 for a DRed level).
    pub support_incs: usize,
    /// Support-count decrements applied (0 for a DRed level).
    pub support_decs: usize,
}

/// A program condensed for per-level maintenance: compiled rules, the
/// predicate sets that route delta channels, and the flipped variants of
/// every negative literal. One `PassProgram` is shared by all alternation
/// levels — the alternating fixpoint runs the same rules each pass, only
/// the oracle differs — while a stratified view holds one per stratum.
pub struct PassProgram {
    compiled: Compiled,
    head_preds: BTreeSet<String>,
    /// Predicates appearing *positively* in some body (negated ones
    /// consult the oracle, not the level total).
    body_preds: BTreeSet<String>,
    neg_preds: BTreeSet<String>,
    /// Any head fed back into a positive body position — the level then
    /// needs DRed instead of single-pass counting.
    recursive: bool,
    /// `(rule index, body index, flipped rule, its plans)` for every
    /// negative body literal.
    flipped: Vec<(usize, usize, Rule, RulePlans)>,
    /// Per rule, the *guarded* variant DRed re-derives with:
    /// `h(t̄) :- h(t̄), body`, the extra literal at [`GUARD`] read from
    /// the over-deleted heads still missing. Fired with the guard as the
    /// delta literal, the head's variables are bound before the body is
    /// probed, so re-derivation costs what the missing heads touch. A
    /// head the planner cannot match first (a function application)
    /// leaves the guard where the planner puts it — a filter after the
    /// body, and still the same firing.
    guarded: Vec<(Rule, RulePlans)>,
}

/// Body index of the guard literal in a guarded rule.
const GUARD: usize = 0;

#[cfg(test)]
thread_local! {
    /// Bindings DRed's re-derivation phase enumerated on this thread.
    static REDERIVE_BINDINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Evaluate the head of `rule` under complete body bindings.
fn head_fact(rule: &Rule, b: &Bindings) -> Result<Fact, EvalError> {
    let args: Vec<Value> = rule
        .head
        .args
        .iter()
        .map(|e| eval_expr(e, b))
        .collect::<Result<_, _>>()?;
    Ok((rule.head.pred.clone(), args))
}

impl PassProgram {
    /// Condense `program` for per-level maintenance.
    pub fn new(program: &Program) -> Result<Self, EvalError> {
        let compiled = Compiled::compile(program)?;
        let mut head_preds = BTreeSet::new();
        let mut body_preds = BTreeSet::new();
        let mut neg_preds = BTreeSet::new();
        for rule in &program.rules {
            head_preds.insert(rule.head.pred.clone());
            for p in rule.positive_preds() {
                body_preds.insert(p.to_string());
            }
            for p in rule.negative_preds() {
                neg_preds.insert(p.to_string());
            }
        }
        let recursive = head_preds.iter().any(|h| body_preds.contains(h));
        let mut flipped = Vec::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            for (bi, lit) in rule.body.iter().enumerate() {
                if let Literal::Neg(atom) = lit {
                    let mut fr = rule.clone();
                    fr.body[bi] = Literal::Pos(atom.clone());
                    let plans = RulePlans::new(&fr)?;
                    flipped.push((ri, bi, fr, plans));
                }
            }
        }
        let guarded = if recursive {
            program
                .rules
                .iter()
                .map(|rule| {
                    let mut gr = rule.clone();
                    gr.body.insert(GUARD, Literal::Pos(rule.head.clone()));
                    let plans = RulePlans::new(&gr)?;
                    Ok((gr, plans))
                })
                .collect::<Result<_, EvalError>>()?
        } else {
            Vec::new()
        };
        Ok(PassProgram {
            compiled,
            head_preds,
            body_preds,
            neg_preds,
            recursive,
            flipped,
            guarded,
        })
    }

    /// The compiled rules (shared with cold evaluation entry points).
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// The level's derived (head) predicates.
    pub fn head_preds(&self) -> &BTreeSet<String> {
        &self.head_preds
    }

    /// Predicates appearing positively in some rule body.
    pub fn body_preds(&self) -> &BTreeSet<String> {
        &self.body_preds
    }

    /// Predicates appearing negated in some rule body.
    pub fn neg_preds(&self) -> &BTreeSet<String> {
        &self.neg_preds
    }

    /// Whether the level is positively recursive (maintained by DRed)
    /// rather than derivation-counting.
    pub fn recursive(&self) -> bool {
        self.recursive
    }

    /// Evaluate one level from scratch, in place: `total` holds the
    /// level's base on entry and its inner least fixpoint on return.
    /// `oracle` is the frozen negation interpretation, or `None` when
    /// the level's own total decides negation (a stratum). Returns the
    /// derivation counts of a counting level.
    pub fn cold_into(
        &self,
        total: &mut Interp,
        oracle: Option<&Interp>,
        meter: &mut Meter,
    ) -> Result<Option<SupportCounts<Fact>>, EvalError> {
        if self.recursive {
            let base: &Interp = total;
            let neg = NegOracle::Complement(oracle.unwrap_or(base));
            let (next, _) = semi_naive_oracle(&self.compiled, base, &neg, meter)?;
            *total = next;
            return Ok(None);
        }
        // Non-recursive: no positive literal mentions a head, so a single
        // enumeration derives everything — and counts every derivation.
        let mut support = SupportCounts::new();
        {
            let base: &Interp = total;
            let oracle = oracle.unwrap_or(base);
            let neg = |p: &str, a: &[Value]| !oracle.holds(p, a);
            meter.phase_start("counting-init");
            meter.tick_iteration()?;
            for (rule, plan) in self.compiled.rules.iter().zip(&self.compiled.plans) {
                enumerate_bindings(
                    plan,
                    &FactSource::full(base),
                    &neg,
                    meter,
                    &mut |b, meter| {
                        meter.add_facts(1)?;
                        support.inc(head_fact(rule, b)?);
                        Ok(())
                    },
                )?;
            }
            meter.phase_end();
        }
        for ((p, args), _) in support.iter() {
            total.insert(p, args.clone());
        }
        Ok(Some(support))
    }

    /// Evaluate one alternation pass from scratch: the inner least
    /// fixpoint over `base` with `oracle` frozen as the negation
    /// interpretation.
    pub fn cold(
        &self,
        base: &Interp,
        oracle: &Interp,
        meter: &mut Meter,
    ) -> Result<PassState, EvalError> {
        let mut total = base.clone();
        let support = self.cold_into(&mut total, Some(oracle), meter)?;
        Ok(PassState { total, support })
    }

    /// Maintain one pass under a delta. `edb_ins` / `edb_del` are the
    /// base-fact edits (not yet applied to `state`), `oc_ins` / `oc_del`
    /// the oracle's total-level changes (the previous pass's
    /// [`PassDelta`]), `old_oracle` / `new_oracle` the oracle before and
    /// after, and `base_new` the post-delta base (used only by the
    /// fallback recomputation). `level` tags telemetry events. The delta
    /// must not touch the pass's head predicates.
    #[allow(clippy::too_many_arguments)]
    pub fn maintain(
        &self,
        state: &mut PassState,
        level: usize,
        edb_ins: &Interp,
        edb_del: &Interp,
        oc_ins: &Interp,
        oc_del: &Interp,
        old_oracle: &Interp,
        new_oracle: &Interp,
        base_new: &Interp,
        meter: &mut Meter,
    ) -> Result<PassDelta, EvalError> {
        let touched_pos = self
            .body_preds
            .iter()
            .any(|p| edb_ins.count(p) > 0 || edb_del.count(p) > 0);
        let touched_neg = self
            .neg_preds
            .iter()
            .any(|p| oc_ins.count(p) > 0 || oc_del.count(p) > 0);
        if !touched_pos && !touched_neg {
            // The inner lfp is a function of (base restricted to positive
            // bodies, oracle restricted to negated preds) — neither
            // changed, so the heads are unchanged and only the base facts
            // flow through the total.
            for (p, args) in edb_del.iter() {
                state.total.remove(p, args);
            }
            for (p, args) in edb_ins.iter() {
                state.total.insert(p, args.clone());
            }
            meter.record_level_skipped(level);
            return Ok(PassDelta {
                ins: edb_ins.clone(),
                del: edb_del.clone(),
                action: PassAction::Skipped,
            });
        }

        let koc_ins = oc_ins.restrict(&self.neg_preds);
        let koc_del = oc_del.restrict(&self.neg_preds);
        let old_heads: usize = self.head_preds.iter().map(|p| state.total.count(p)).sum();
        if koc_ins.total() + koc_del.total() > FALLBACK_MIN.max(old_heads) {
            // The oracle moved more than the level's own content: replay
            // would enumerate more dead/born derivations than a cold pass
            // derives. Recompute the level against the new oracle.
            meter.record_level_fallback(level);
            let fresh = self.cold(base_new, new_oracle, meter)?;
            let (mut ins, mut del) = (Interp::new(), Interp::new());
            for (p, gone, args) in state.total.diff(&fresh.total) {
                if gone { &mut del } else { &mut ins }.insert(p, args.clone());
            }
            *state = fresh;
            return Ok(PassDelta {
                ins,
                del,
                action: PassAction::Fallback,
            });
        }

        meter.record_level_replayed(level);
        let old_total = state.total.clone();
        for (p, args) in edb_del.iter() {
            state.total.remove(p, args);
        }
        for (p, args) in edb_ins.iter() {
            state.total.insert(p, args.clone());
        }
        let heads = self.replay(
            &mut state.total,
            state.support.as_mut(),
            &old_total,
            LevelDelta {
                ins: &edb_ins.restrict(&self.body_preds),
                del: &edb_del.restrict(&self.body_preds),
                oc_ins: &koc_ins,
                oc_del: &koc_del,
            },
            Oracle::Frozen {
                old: old_oracle,
                new: new_oracle,
            },
            meter,
        )?;
        meter.record_support_adjust(heads.support_incs, heads.support_decs);
        if self.recursive {
            meter.record_delta(heads.ins.total() + heads.del.total());
        }
        let mut ins = edb_ins.clone();
        ins.absorb(&heads.ins);
        let mut del = edb_del.clone();
        del.absorb(&heads.del);
        Ok(PassDelta {
            ins,
            del,
            action: PassAction::Replayed,
        })
    }

    /// Replay one routed delta through a level's support structures.
    ///
    /// On entry `total` holds the *new* state of everything the level
    /// reads positively and the *old* state of its heads; on return the
    /// heads are new too. `old_total` is the level's total before the
    /// delta, and `support` the derivation counts of a counting level
    /// (`None` exactly when the level is recursive). The delta must not
    /// touch the level's head predicates. On error `total` and `support`
    /// are left inconsistent and the level must be rebuilt.
    pub fn replay(
        &self,
        total: &mut Interp,
        support: Option<&mut SupportCounts<Fact>>,
        old_total: &Interp,
        delta: LevelDelta<'_>,
        oracle: Oracle<'_>,
        meter: &mut Meter,
    ) -> Result<HeadDelta, EvalError> {
        if self.recursive {
            self.replay_dred(total, old_total, delta, oracle, meter)
        } else {
            let support = support.expect("counting level");
            self.replay_counting(total, support, old_total, delta, oracle, meter)
        }
    }

    /// Enumerate, once each, the derivations over `full` (negation
    /// decided by `oracle`) that read a `pos` fact at a positive literal
    /// or a `flip` fact at a negated one, reporting each one's head. The
    /// dedup set makes the per-position passes count a derivation once.
    fn derivations_through(
        &self,
        full: &Interp,
        oracle: &Interp,
        pos: &Interp,
        flip: &Interp,
        meter: &mut Meter,
        tally: &mut dyn FnMut(Fact),
    ) -> Result<(), EvalError> {
        let neg = |p: &str, a: &[Value]| !oracle.holds(p, a);
        let mut seen: BTreeSet<(usize, Bindings)> = BTreeSet::new();
        let mut through = |ri: usize,
                           rule: &Rule,
                           plan: &RulePlans,
                           at: usize,
                           delta: &Interp,
                           meter: &mut Meter| {
            let source = FactSource {
                full,
                delta: Some((at, delta)),
            };
            enumerate_bindings(plan, &source, &neg, meter, &mut |b, meter| {
                if seen.insert((ri, b.clone())) {
                    meter.add_facts(1)?;
                    tally(head_fact(rule, b)?);
                }
                Ok(())
            })
        };
        let rules = self.compiled.rules.iter().zip(&self.compiled.plans);
        for (ri, (rule, plan)) in rules.enumerate() {
            for (at, lit) in rule.body.iter().enumerate() {
                let Literal::Pos(atom) = lit else { continue };
                if pos.count(&atom.pred) > 0 {
                    through(ri, rule, plan, at, pos, meter)?;
                }
            }
        }
        for (ri, at, frule, fplan) in &self.flipped {
            let Literal::Pos(atom) = &frule.body[*at] else {
                unreachable!("flipped literal is positive")
            };
            if flip.count(&atom.pred) > 0 {
                through(*ri, frule, fplan, *at, flip, meter)?;
            }
        }
        Ok(())
    }

    /// Counting replay of a non-recursive level: enumerate exactly the
    /// derivations that died (removed positive facts; oracle insertions
    /// through flipped rules, against the *old* state) and were born
    /// (inserted positive facts; oracle deletions, against the *new*
    /// state), then apply the support transitions.
    fn replay_counting(
        &self,
        total: &mut Interp,
        support: &mut SupportCounts<Fact>,
        old_total: &Interp,
        delta: LevelDelta<'_>,
        oracle: Oracle<'_>,
        meter: &mut Meter,
    ) -> Result<HeadDelta, EvalError> {
        meter.phase_start("counting");
        meter.tick_iteration()?;
        // Net derivation events per head fact: (died, born).
        let mut events: BTreeMap<Fact, (usize, usize)> = BTreeMap::new();
        self.derivations_through(
            old_total,
            oracle.before(old_total),
            delta.del,
            delta.oc_ins,
            meter,
            &mut |head| events.entry(head).or_default().0 += 1,
        )?;
        let tot: &Interp = total;
        self.derivations_through(
            tot,
            oracle.after(tot),
            delta.ins,
            delta.oc_del,
            meter,
            &mut |head| events.entry(head).or_default().1 += 1,
        )?;

        let mut heads = HeadDelta::default();
        for (fact, (dead, born)) in events {
            heads.support_decs += dead;
            heads.support_incs += born;
            let before = support.count(&fact) > 0;
            for _ in 0..dead {
                support.dec(&fact);
            }
            for _ in 0..born {
                support.inc(fact.clone());
            }
            let after = support.count(&fact) > 0;
            if before && !after {
                total.remove(&fact.0, &fact.1);
                heads.del.insert(&fact.0, fact.1);
            } else if !before && after {
                total.insert(&fact.0, fact.1.clone());
                heads.ins.insert(&fact.0, fact.1);
            }
        }
        meter.record_delta(heads.ins.total() + heads.del.total());
        meter.phase_end();
        Ok(heads)
    }

    /// DRed replay of a positively recursive level: over-delete the
    /// consequences of removed facts and oracle insertions against the
    /// old state, re-derive survivors against the new one, then run the
    /// semi-naive continuation for inserted facts and oracle-deletion
    /// births.
    fn replay_dred(
        &self,
        total: &mut Interp,
        old_total: &Interp,
        delta: LevelDelta<'_>,
        oracle: Oracle<'_>,
        meter: &mut Meter,
    ) -> Result<HeadDelta, EvalError> {
        meter.phase_start("dred");
        let rules = || self.compiled.rules.iter().zip(&self.compiled.plans);

        let mut over = Interp::new();
        if delta.del.total() > 0 || delta.oc_ins.total() > 0 {
            // Phase 1: over-delete against the old state. The worklist
            // starts from the deleted inputs plus the heads of
            // derivations killed by oracle insertions.
            let old_oracle = oracle.before(old_total);
            let old_neg = |p: &str, a: &[Value]| !old_oracle.holds(p, a);
            let mut work = delta.del.clone();
            for (_, pos, frule, fplan) in &self.flipped {
                let Literal::Pos(atom) = &frule.body[*pos] else {
                    unreachable!("flipped literal is positive")
                };
                if delta.oc_ins.count(&atom.pred) == 0 {
                    continue;
                }
                let mut killed = Interp::new();
                apply_rule(
                    frule,
                    fplan,
                    &FactSource {
                        full: old_total,
                        delta: Some((*pos, delta.oc_ins)),
                    },
                    &old_neg,
                    meter,
                    &mut killed,
                )?;
                for (p, args) in killed.iter() {
                    if old_total.holds(p, args) && over.insert(p, args.clone()) {
                        work.insert(p, args.clone());
                    }
                }
            }
            while work.total() > 0 {
                meter.tick_iteration()?;
                let mut cand = Interp::new();
                for (rule, plan) in rules() {
                    for (pos, lit) in rule.body.iter().enumerate() {
                        let Literal::Pos(atom) = lit else { continue };
                        if work.count(&atom.pred) == 0 {
                            continue;
                        }
                        apply_rule(
                            rule,
                            plan,
                            &FactSource {
                                full: old_total,
                                delta: Some((pos, &work)),
                            },
                            &old_neg,
                            meter,
                            &mut cand,
                        )?;
                    }
                }
                let mut next = Interp::new();
                for (p, args) in cand.iter() {
                    if old_total.holds(p, args) && !over.holds(p, args) {
                        next.insert(p, args.clone());
                    }
                }
                over.absorb(&next);
                work = next;
                meter.record_delta(work.total());
            }
            for (p, args) in over.iter() {
                total.remove(p, args);
            }

            // Phase 2: re-derive the over-deleted facts that still have
            // support in the reduced state under the *new* oracle, by the
            // guarded rules: each round fires every rule from the heads
            // still missing, so both the work and the metered cost are
            // the re-derivation's size, not the model's. The phase ends
            // on the round that brings nothing back, also when nothing
            // is missing any more: `iterations` is a reported count.
            let mut missing = over.clone();
            while over.total() > 0 {
                meter.tick_iteration()?;
                let mut back = Interp::new();
                {
                    let tot: &Interp = total;
                    let new_oracle = oracle.after(tot);
                    let neg = |p: &str, a: &[Value]| !new_oracle.holds(p, a);
                    for (rule, plans) in &self.guarded {
                        if missing.count(&rule.head.pred) == 0 {
                            continue;
                        }
                        let source = FactSource {
                            full: tot,
                            delta: Some((GUARD, &missing)),
                        };
                        enumerate_bindings(plans, &source, &neg, meter, &mut |b, meter| {
                            #[cfg(test)]
                            REDERIVE_BINDINGS.with(|n| n.set(n.get() + 1));
                            let (p, args) = head_fact(rule, b)?;
                            if back.insert(&p, args) {
                                meter.add_facts(1)?;
                            }
                            Ok(())
                        })?;
                    }
                }
                if back.total() == 0 {
                    break;
                }
                total.absorb(&back);
                for (p, args) in back.iter() {
                    missing.remove(p, args);
                }
            }
        }

        // Phase 3: propagate insertions — the inserted inputs plus the
        // heads born from oracle deletions — with the semi-naive
        // continuation under the new oracle.
        let mut seed = delta.ins.clone();
        {
            let tot: &Interp = total;
            let new_oracle = oracle.after(tot);
            let neg = |p: &str, a: &[Value]| !new_oracle.holds(p, a);
            let mut born = Interp::new();
            for (_, pos, frule, fplan) in &self.flipped {
                let Literal::Pos(atom) = &frule.body[*pos] else {
                    unreachable!("flipped literal is positive")
                };
                if delta.oc_del.count(&atom.pred) == 0 {
                    continue;
                }
                apply_rule(
                    frule,
                    fplan,
                    &FactSource {
                        full: tot,
                        delta: Some((*pos, delta.oc_del)),
                    },
                    &neg,
                    meter,
                    &mut born,
                )?;
            }
            for (p, args) in born.iter() {
                if !tot.holds(p, args) {
                    seed.insert(p, args.clone());
                }
            }
        }
        let mut added = Interp::new();
        if seed.total() > 0 {
            for (p, args) in seed.iter() {
                total.insert(p, args.clone());
            }
            let tot: &Interp = total;
            let neg = NegOracle::Complement(oracle.after(tot));
            let (next, grown, _) = semi_naive_from_oracle(&self.compiled, tot, &seed, &neg, meter)?;
            *total = next;
            added = grown;
        }
        meter.phase_end();

        // Net head changes. Only an over-deleted fact can have left, and
        // only a seeded or continuation-derived head can have entered;
        // either may also have merely come back, so both are checked
        // against the other state.
        let mut heads = HeadDelta::default();
        for (p, args) in seed.iter().chain(added.iter()) {
            if self.head_preds.contains(p) && !old_total.holds(p, args) {
                heads.ins.insert(p, args.clone());
            }
        }
        for (p, args) in over.iter() {
            if !total.holds(p, args) {
                heads.del.insert(p, args.clone());
            }
        }
        Ok(heads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_datalog::parser::parse_program;
    use algrec_value::Budget;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    const WIN: &str = "win(X) :- move(X, Y), not win(Y).";

    #[test]
    fn win_pass_is_counting_and_tc_pass_is_dred() {
        let win = PassProgram::new(&parse_program(WIN).unwrap()).unwrap();
        assert!(!win.recursive(), "win never appears positively");
        let tc = PassProgram::new(
            &parse_program("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).").unwrap(),
        )
        .unwrap();
        assert!(tc.recursive());
    }

    #[test]
    fn cold_counting_matches_semi_naive_and_counts_derivations() {
        let pass = PassProgram::new(&parse_program(WIN).unwrap()).unwrap();
        let mut base = Interp::new();
        base.insert("move", vec![i(1), i(2)]);
        base.insert("move", vec![i(1), i(3)]);
        base.insert("move", vec![i(2), i(3)]);
        // Oracle = empty certain set: every negation succeeds.
        let oracle = base.clone();
        let mut meter = Budget::SMALL.meter();
        let state = pass.cold(&base, &oracle, &mut meter).unwrap();
        let (expect, _) = semi_naive_oracle(
            pass.compiled(),
            &base,
            &NegOracle::Complement(&oracle),
            &mut meter,
        )
        .unwrap();
        assert_eq!(state.total(), &expect);
        // win(1) has two derivations (via 2 and via 3).
        let support = state.support.as_ref().unwrap();
        assert_eq!(support.count(&("win".into(), vec![i(1)])), 2);
        assert_eq!(support.count(&("win".into(), vec![i(2)])), 1);
    }

    /// `k` disjoint five-node communities, each a ring with chords, so
    /// every closure fact inside a community has several derivations.
    fn communities(k: i64) -> algrec_value::Database {
        let mut pairs = Vec::new();
        for c in 0..k {
            for n in 0..5 {
                pairs.push((i(10 * c + n), i(10 * c + (n + 1) % 5)));
                pairs.push((i(10 * c + n), i(10 * c + (n + 2) % 5)));
            }
        }
        algrec_value::Database::new().with("e", algrec_value::Relation::from_pairs(pairs))
    }

    /// One effective single-edge delta through a traced maintenance call;
    /// returns `(re-derivation bindings, index builds)` of that call.
    fn write_edge(
        model: &mut crate::IncrementalModel,
        db: &mut algrec_value::Database,
        insert: bool,
        edge: (i64, i64),
    ) -> (usize, usize) {
        let mut delta = algrec_value::DatabaseDelta::new();
        let member = Value::pair(i(edge.0), i(edge.1));
        if insert {
            delta.insert("e", member);
        } else {
            delta.remove("e", member);
        }
        let effective = delta.apply(db);
        assert_eq!(effective.len(), 1);
        let trace = algrec_value::Trace::collect();
        let mut meter = Budget::LARGE.meter_traced(trace.clone());
        REDERIVE_BINDINGS.with(|n| n.set(0));
        model.maintain(&effective, &mut meter).unwrap();
        let bindings = REDERIVE_BINDINGS.with(std::cell::Cell::get);
        (bindings, trace.stats().unwrap().index_builds)
    }

    #[test]
    fn a_retraction_rederives_what_it_touched_not_what_the_view_holds() {
        let program =
            parse_program("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).").unwrap();
        let run = |k: i64| {
            let mut db = communities(k);
            let mut meter = Budget::LARGE.meter();
            let mut model = crate::IncrementalModel::new(&program, &db, &mut meter).unwrap();
            assert_eq!(model.model().certain.count("tc"), 25 * k as usize);
            // A first write, then the measured ones: the same retraction
            // and its re-assertion inside community 0.
            write_edge(&mut model, &mut db, false, (3, 4));
            let retract = write_edge(&mut model, &mut db, false, (0, 1));
            let cold = algrec_datalog::evaluate(
                &program,
                &db,
                algrec_datalog::Semantics::Valid,
                Budget::LARGE,
            )
            .unwrap();
            assert_eq!(model.model(), &cold.model);
            let assert = write_edge(&mut model, &mut db, true, (0, 1));
            (retract, assert)
        };
        let ((small, small_builds), (_, small_assert_builds)) = run(8);
        let ((large, large_builds), (_, large_assert_builds)) = run(32);
        // The over-deleted heads all lie in community 0, and re-deriving
        // them binds only what joins to them.
        assert!(small > 0, "the retraction over-deletes and re-derives");
        assert_eq!(small, large, "re-derivation grew with the view");
        // Past the first write nothing probes often enough to build an
        // index, whatever the view's size.
        assert_eq!(
            [
                small_builds,
                small_assert_builds,
                large_builds,
                large_assert_builds
            ],
            [0; 4]
        );
    }

    #[test]
    fn guarded_rederivation_handles_every_head_shape() {
        // Recursive heads with a repeated variable, a constant, a tuple
        // pattern, a function application (the guard cannot bind `D`: it
        // runs as a filter after the body) and no arguments at all.
        let program = parse_program(
            "same(X, X) :- n(X).\n\
             same(Y, Y) :- same(X, X), e(X, Y).\n\
             mark(X, 0) :- n(X).\n\
             mark(Y, 0) :- mark(X, 0), e(X, Y).\n\
             pair([X, Y]) :- e(X, Y).\n\
             pair([X, Z]) :- pair([X, Y]), e(Y, Z).\n\
             hop(X, 0) :- n(X).\n\
             hop(Y, succ(D)) :- hop(X, D), e(X, Y), D < 3.\n\
             live() :- n(X).\n\
             live() :- live(), e(X, X).",
        )
        .unwrap();
        let pass = PassProgram::new(&program).unwrap();
        assert!(pass.recursive());
        // The function-application head's guard runs last, every other
        // guard first.
        let guard_step = |rule: usize| {
            let (_, plans) = &pass.guarded[rule];
            plans.fixed().order.iter().position(|&at| at == GUARD)
        };
        assert_eq!(guard_step(7), Some(3), "hop(Y, succ(D))");
        for rule in [1, 3, 5, 9] {
            assert_eq!(guard_step(rule), Some(0), "rule {rule}");
        }

        let mut db = algrec_value::Database::new()
            .with(
                "e",
                algrec_value::Relation::from_pairs([
                    (i(0), i(1)),
                    (i(1), i(2)),
                    (i(2), i(0)),
                    (i(2), i(3)),
                    (i(3), i(3)),
                ]),
            )
            .with("n", algrec_value::Relation::from_values([i(0), i(3)]));
        let mut meter = Budget::LARGE.meter();
        let mut model = crate::IncrementalModel::new(&program, &db, &mut meter).unwrap();
        for (insert, name, member) in [
            (false, "e", Value::pair(i(2), i(0))),
            (false, "n", i(3)),
            (true, "e", Value::pair(i(2), i(0))),
            (false, "n", i(0)),
            (true, "n", i(2)),
            (false, "e", Value::pair(i(3), i(3))),
        ] {
            let mut delta = algrec_value::DatabaseDelta::new();
            if insert {
                delta.insert(name, member);
            } else {
                delta.remove(name, member);
            }
            let effective = delta.apply(&mut db);
            model.maintain(&effective, &mut meter).unwrap();
            let cold = algrec_datalog::evaluate(
                &program,
                &db,
                algrec_datalog::Semantics::Valid,
                Budget::LARGE,
            )
            .unwrap();
            assert_eq!(model.model(), &cold.model, "after {name} {insert}");
        }
    }

    #[test]
    fn skip_applies_base_edits_only() {
        let pass = PassProgram::new(&parse_program(WIN).unwrap()).unwrap();
        let mut base = Interp::new();
        base.insert("move", vec![i(1), i(2)]);
        let mut meter = Budget::SMALL.meter();
        let mut state = pass.cold(&base, &base, &mut meter).unwrap();
        // A delta on an unrelated predicate skips the pass.
        let mut ins = Interp::new();
        ins.insert("other", vec![i(9)]);
        let mut new_base = base.clone();
        new_base.insert("other", vec![i(9)]);
        let d = pass
            .maintain(
                &mut state,
                0,
                &ins,
                &Interp::new(),
                &ins,
                &Interp::new(),
                &base,
                &new_base,
                &new_base,
                &mut meter,
            )
            .unwrap();
        assert_eq!(d.action, PassAction::Skipped);
        assert!(state.total().holds("other", &[i(9)]));
        assert!(state.total().holds("win", &[i(1)]));
        assert_eq!(d.ins.total(), 1);
        assert_eq!(d.del.total(), 0);
    }
}
