//! Incremental maintenance of materialized deduction views.
//!
//! A registered view is kept consistent with the session database under
//! `+fact` / `-fact` deltas by one of three maintainers, chosen at
//! registration time (see `DESIGN.md` §10 for the full decision table).
//! A maintainer only updates its model and reports the strata, passes
//! or levels a delta could not reach; the session publishes the answer
//! and counts what moved in it (`session::Engine`, one case per
//! maintainer beside the algebra recompute).
//! The first two are drivers over the *same* per-level kernel,
//! [`algrec_incr::PassProgram`] — the only counting / DRed
//! implementation in the workspace:
//!
//! * [`StratifiedView`] — for stratified programs (under any semantics
//!   that coincides with the stratified one on that class: stratified,
//!   well-founded, valid, valid-extended, naive/semi-naive on
//!   negation-free programs, and inflationary on semipositive programs,
//!   which negate only database predicates). A stratum is a kernel level
//!   whose negation oracle is the level's own total ([`Oracle::Own`]): negated
//!   predicates live strictly below, so they are final before the
//!   stratum runs. Strata are replayed bottom-up over one shared total;
//!   a stratum untouched by the accumulated delta is skipped outright.
//!   Within a stratum the kernel picks the strategy per shape:
//!   - **counting** for non-recursive strata: every derived fact carries
//!     its number of distinct derivations ([`SupportCounts`]); a delta
//!     enumerates exactly the derivations that died and were born, and a
//!     fact leaves/enters the view on the last-support / first-support
//!     transition;
//!   - **DRed** (delete–rederive) for recursive strata: over-delete the
//!     consequences of the deletions against the *old* state, re-derive
//!     survivors against the reduced state — from the over-deleted heads
//!     back into the rule bodies, not by re-enumerating the rules — then
//!     propagate insertions with the delta-driven semi-naive
//!     continuation.
//!
//! * [`AlternatingView`] — the default for non-stratified programs
//!   under the well-founded / valid / valid-extended semantics. It wraps
//!   [`algrec_incr::IncrementalModel`], which drives the kernel over
//!   every alternation pass with the previous pass's result as the
//!   frozen oracle: a pass untouched by the delta is skipped, and a pass
//!   whose negation-oracle churn is too large falls back to cold
//!   recomputation of that level only (strata never fall back). For
//!   the valid-extended semantics the refinement by stable completions
//!   ([`refine_wfs`]) is re-run over the maintained well-founded model.
//!
//! * [`RecomputeView`] — for everything else: the inflationary
//!   semantics on a program that negates a derived predicate (Example
//!   4's `q(X) :- r(X), not q(X)`), whose stages do not split, and the
//!   three-valued semantics when pinned to `recompute` (the differential
//!   reference; nothing else selects it). The program is cut into
//!   condensation levels of its predicate dependency graph; a delta recomputes only the levels
//!   reachable from the changed predicates, reusing the cached
//!   two-valued results of unaffected lower levels as extra database
//!   facts. If an affected level comes out three-valued, the remaining
//!   levels are evaluated jointly (the split is only sound below a
//!   two-valued boundary).
//!
//! Negation is handled on both delta directions by *flipped rules*: for
//! every negative body literal `not q(t̄)` the kernel pre-plans a
//! variant of the rule with that literal made positive, so the
//! derivations killed by insertions into `q` (and born from deletions
//! from `q`) can be enumerated delta-first like any other join.
//!
//! A stratified write costs what its delta touches: the driver below
//! does nothing per view fact (the `old_total` it hands the kernel is a
//! clone of persistent fact sets — one reference bump per predicate, and
//! for each predicate the write then mutates, one copy of its spine of
//! leaf pointers and of each leaf a mutation lands in; routing a delta
//! to a stratum shares whole predicate handles), and the kernel's
//! firings start from the delta and build no index for it (see
//! `algrec_incr::pass`).

use algrec_datalog::ast::{Program, Rule};
use algrec_datalog::engine::Compiled;
use algrec_datalog::error::EvalError;
use algrec_datalog::inflationary::inflationary;
use algrec_datalog::interp::{Fact, Interp, ThreeValued};
use algrec_datalog::stable::{refine_wfs, valid_extended};
use algrec_datalog::stratify::{strata_programs, DepGraph};
use algrec_datalog::wellfounded::alternating_fixpoint;
use algrec_datalog::Semantics;
use algrec_incr::{delta_interps, IncrementalModel, LevelDelta, Oracle, PassProgram};
use algrec_value::budget::Meter;
use algrec_value::{Database, DatabaseDelta, SupportCounts};
use std::collections::{BTreeMap, BTreeSet};

/// What the stratum driver keeps per stratum beside the shared total.
struct StratumState {
    kernel: PassProgram,
    /// Every predicate a rule body mentions, positively or negated: the
    /// changes routed into the stratum (and the test for skipping it).
    routed: BTreeSet<String>,
    /// Derivation counts per head fact; `Some` exactly for counting
    /// (non-recursive) strata.
    support: Option<SupportCounts<Fact>>,
}

/// An incrementally maintained materialized view of a stratified program.
pub(crate) struct StratifiedView {
    strata: Vec<StratumState>,
    /// The materialized model: database facts plus every stratum's heads
    /// (exactly the `certain` interpretation a cold stratified evaluation
    /// produces).
    total: Interp,
    idb: BTreeSet<String>,
}

impl StratifiedView {
    /// Materialize the view from scratch (also the registration-time cold
    /// baseline: the meter records the full evaluation cost).
    pub(crate) fn new(
        program: &Program,
        db: &Database,
        meter: &mut Meter,
    ) -> Result<Self, EvalError> {
        let mut total = Interp::from_database(db);
        let mut strata = Vec::new();
        for sp in strata_programs(program)? {
            let kernel = PassProgram::new(&sp)?;
            let support = kernel.cold_into(&mut total, None, meter)?;
            let routed = kernel.body_preds() | kernel.neg_preds();
            strata.push(StratumState {
                kernel,
                routed,
                support,
            });
        }
        let idb = strata
            .iter()
            .flat_map(|s| s.kernel.head_preds().clone())
            .collect();
        meter.record_materialized(total.total());
        Ok(StratifiedView { strata, total, idb })
    }

    /// The materialized model (database facts included).
    pub(crate) fn total(&self) -> &Interp {
        &self.total
    }

    /// The view's derived (IDB) predicates.
    pub(crate) fn idb_preds(&self) -> &BTreeSet<String> {
        &self.idb
    }

    /// Apply one *effective* database delta (already applied to the
    /// session database) and return how many strata it could not reach.
    /// The delta must not touch the view's IDB predicates — the session
    /// routes such changes to a full rebuild. On error the view is left
    /// inconsistent and must be rebuilt.
    pub(crate) fn maintain(
        &mut self,
        delta: &DatabaseDelta,
        meter: &mut Meter,
    ) -> Result<usize, EvalError> {
        let (mut ins, mut del) = delta_interps(delta);
        let old_total = self.total.clone();
        for (p, args) in del.iter() {
            self.total.remove(p, args);
        }
        for (p, args) in ins.iter() {
            self.total.insert(p, args.clone());
        }
        let mut skipped = 0;
        for st in &mut self.strata {
            let st_ins = ins.restrict(&st.routed);
            let st_del = del.restrict(&st.routed);
            if st_ins.total() + st_del.total() == 0 {
                skipped += 1;
                continue;
            }
            let heads = st.kernel.replay(
                &mut self.total,
                st.support.as_mut(),
                &old_total,
                LevelDelta {
                    ins: &st_ins,
                    del: &st_del,
                    oc_ins: &ins.restrict(st.kernel.neg_preds()),
                    oc_del: &del.restrict(st.kernel.neg_preds()),
                },
                Oracle::Own,
                meter,
            )?;
            ins.absorb(&heads.ins);
            del.absorb(&heads.del);
        }
        meter.record_materialized(self.total.total());
        Ok(skipped)
    }
}

/// One condensation level of a [`RecomputeView`].
struct Level {
    program: Program,
    heads: BTreeSet<String>,
    mentioned: BTreeSet<String>,
    /// Cached two-valued contribution (restricted to `heads`); `None`
    /// when never computed alone or last computed jointly / three-valued.
    cached: Option<Interp>,
}

/// A view maintained by changed-level recomputation: the inflationary
/// semantics on a program that is not semipositive, and the three-valued
/// semantics when pinned `recompute`.
pub(crate) struct RecomputeView {
    semantics: Semantics,
    levels: Vec<Level>,
    deps: BTreeSet<String>,
    idb: BTreeSet<String>,
    model: ThreeValued,
}

fn block_of(
    sem: Semantics,
    program: &Program,
    base: &Interp,
    meter: &mut Meter,
) -> Result<ThreeValued, EvalError> {
    let compiled = Compiled::compile(program)?;
    match sem {
        Semantics::WellFounded | Semantics::Valid => {
            alternating_fixpoint(&compiled, base, meter).map(|(tv, _)| tv)
        }
        Semantics::Inflationary => {
            inflationary(&compiled, base, meter).map(|(i, _)| ThreeValued::exact(i))
        }
        Semantics::ValidExtended(cap) => {
            valid_extended(&compiled, base, cap, meter).map(|o| o.refined)
        }
        Semantics::Naive | Semantics::SemiNaive | Semantics::Stratified => Err(EvalError::Unsafe(
            "internal: this semantics is maintained by the stratified view".into(),
        )),
    }
}

/// Condensation levels of the dependency graph: rules grouped by the
/// depth of their head's strongly connected component. Small programs,
/// quadratic reachability.
fn scc_levels(program: &Program) -> Vec<Program> {
    let g = DepGraph::of(program);
    let heads: BTreeSet<&str> = program.rules.iter().map(|r| r.head.pred.as_str()).collect();
    // reach[p] = predicates reachable from p over dependencies.
    let mut reach: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for p in &g.preds {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = vec![p.as_str()];
        while let Some(q) = stack.pop() {
            for r in g.successors(q) {
                if seen.insert(r.as_str()) {
                    stack.push(r.as_str());
                }
            }
        }
        reach.insert(p.as_str(), seen);
    }
    fn level_of<'a>(
        p: &'a str,
        heads: &BTreeSet<&'a str>,
        reach: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        memo: &mut BTreeMap<&'a str, usize>,
    ) -> usize {
        if let Some(&l) = memo.get(p) {
            return l;
        }
        // Strictly-below dependencies: reachable head predicates outside
        // p's own SCC (q cannot reach back to p).
        let below = reach[p]
            .iter()
            .filter(|q| heads.contains(*q) && **q != p && !reach[**q].contains(p))
            .map(|q| level_of(q, heads, reach, memo) + 1)
            .max()
            .unwrap_or(0);
        memo.insert(p, below);
        below
    }
    let mut memo: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_level: BTreeMap<usize, Vec<Rule>> = BTreeMap::new();
    for rule in &program.rules {
        let l = level_of(rule.head.pred.as_str(), &heads, &reach, &mut memo);
        by_level.entry(l).or_default().push(rule.clone());
    }
    by_level.into_values().map(Program::from_rules).collect()
}

impl RecomputeView {
    /// Materialize the view from scratch under the given semantics.
    pub(crate) fn new(
        program: &Program,
        semantics: Semantics,
        db: &Database,
        meter: &mut Meter,
    ) -> Result<Self, EvalError> {
        // The inflationary fixpoint is stage-synchronized across the
        // whole program — splitting it would change the answer. The
        // valid-extended refinement branches over the global residue.
        let split = matches!(semantics, Semantics::WellFounded | Semantics::Valid);
        let parts = if split {
            scc_levels(program)
        } else {
            vec![program.clone()]
        };
        let levels = parts
            .into_iter()
            .map(|p| {
                let mut heads = BTreeSet::new();
                let mut mentioned = BTreeSet::new();
                for rule in &p.rules {
                    heads.insert(rule.head.pred.clone());
                    mentioned.insert(rule.head.pred.clone());
                    for q in rule
                        .positive_preds()
                        .into_iter()
                        .chain(rule.negative_preds())
                    {
                        mentioned.insert(q.to_string());
                    }
                }
                Level {
                    program: p,
                    heads,
                    mentioned,
                    cached: None,
                }
            })
            .collect();
        let deps = DepGraph::of(program).preds;
        let idb = program.rules.iter().map(|r| r.head.pred.clone()).collect();
        let mut view = RecomputeView {
            semantics,
            levels,
            deps,
            idb,
            model: ThreeValued::default(),
        };
        let all: BTreeSet<String> = view.deps.clone();
        view.evaluate_levels(db, &all, meter)?;
        Ok(view)
    }

    /// The current model.
    pub(crate) fn model(&self) -> &ThreeValued {
        &self.model
    }

    /// The view's derived (IDB) predicates.
    pub(crate) fn idb_preds(&self) -> &BTreeSet<String> {
        &self.idb
    }

    /// Recompute the levels affected by a delta, reusing cached
    /// two-valued results of untouched lower levels; returns how many
    /// levels it reused.
    pub(crate) fn maintain(
        &mut self,
        db: &Database,
        delta: &DatabaseDelta,
        meter: &mut Meter,
    ) -> Result<usize, EvalError> {
        let changed: BTreeSet<String> = delta.names().map(str::to_string).collect();
        if changed.iter().all(|p| !self.deps.contains(p)) {
            return Ok(self.levels.len());
        }
        self.evaluate_levels(db, &changed, meter)
    }

    fn evaluate_levels(
        &mut self,
        db: &Database,
        initially_changed: &BTreeSet<String>,
        meter: &mut Meter,
    ) -> Result<usize, EvalError> {
        let mut base = Interp::from_database(db);
        let mut changed = initially_changed.clone();
        let mut skipped = 0usize;
        let n = self.levels.len();
        for k in 0..n {
            let affected = self.levels[k].cached.is_none()
                || self.levels[k].mentioned.iter().any(|p| changed.contains(p));
            if !affected {
                let cached = self.levels[k].cached.as_ref().expect("checked");
                base.absorb(cached);
                skipped += 1;
                continue;
            }
            let tv = block_of(self.semantics, &self.levels[k].program, &base, meter)?;
            let cert = tv.certain.restrict(&self.levels[k].heads);
            let poss = tv.possible.restrict(&self.levels[k].heads);
            if cert == poss {
                if self.levels[k].cached.as_ref() != Some(&cert) {
                    changed.extend(self.levels[k].heads.iter().cloned());
                }
                base.absorb(&cert);
                self.levels[k].cached = Some(cert);
            } else {
                // A three-valued boundary: the split is only sound below
                // a two-valued level, so finish the rest jointly.
                let mut rules = Vec::new();
                for level in &mut self.levels[k..] {
                    rules.extend(level.program.rules.iter().cloned());
                    level.cached = None;
                }
                let joint = Program::from_rules(rules);
                self.model = block_of(self.semantics, &joint, &base, meter)?;
                meter.record_materialized(self.model.certain.total());
                return Ok(skipped);
            }
        }
        self.model = ThreeValued::exact(base);
        meter.record_materialized(self.model.certain.total());
        Ok(skipped)
    }
}

/// A view maintained by the supported-derivation incremental substrate
/// ([`algrec_incr::IncrementalModel`]): the alternating fixpoint is
/// updated in place, pass by pass, instead of recomputed per changed
/// level. For the valid-extended semantics the stable-completion
/// refinement is re-run over the maintained well-founded model; the
/// served model is the refined one.
pub(crate) struct AlternatingView {
    model: IncrementalModel,
    /// `Some(cap)` exactly for the valid-extended semantics.
    cap: Option<usize>,
    /// What queries see: the refinement when `cap` is set, otherwise the
    /// alternating-fixpoint model itself.
    served: ThreeValued,
}

impl AlternatingView {
    /// Materialize the view from scratch under the given semantics.
    pub(crate) fn new(
        program: &Program,
        semantics: Semantics,
        db: &Database,
        meter: &mut Meter,
    ) -> Result<Self, EvalError> {
        let cap = match semantics {
            Semantics::ValidExtended(cap) => Some(cap),
            Semantics::WellFounded | Semantics::Valid => None,
            _ => {
                return Err(EvalError::Unsafe(
                    "internal: this semantics is maintained by another view".into(),
                ))
            }
        };
        let model = IncrementalModel::new(program, db, meter)?;
        let served = Self::refine(&model, cap, meter)?;
        Ok(AlternatingView { model, cap, served })
    }

    fn refine(
        model: &IncrementalModel,
        cap: Option<usize>,
        meter: &mut Meter,
    ) -> Result<ThreeValued, EvalError> {
        match cap {
            None => Ok(model.model().clone()),
            Some(cap) => refine_wfs(
                model.compiled(),
                model.base(),
                model.model().clone(),
                cap,
                meter,
            )
            .map(|o| o.refined),
        }
    }

    /// The current (served) model.
    pub(crate) fn model(&self) -> &ThreeValued {
        &self.served
    }

    /// The view's derived (IDB) predicates.
    pub(crate) fn idb_preds(&self) -> &BTreeSet<String> {
        self.model.idb_preds()
    }

    /// Replay an *effective* delta (already applied to the session
    /// database, disjoint from the view's IDB predicates) through the
    /// stored alternation passes; returns how many passes it skipped.
    pub(crate) fn maintain(
        &mut self,
        delta: &DatabaseDelta,
        meter: &mut Meter,
    ) -> Result<usize, EvalError> {
        let skipped = self.model.maintain(delta, meter)?;
        self.served = Self::refine(&self.model, self.cap, meter)?;
        Ok(skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_datalog::parser::parse_program;
    use algrec_datalog::{evaluate, Semantics};
    use algrec_value::{Budget, Relation, Trace, Truth, Value};

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    fn edges(pairs: &[(i64, i64)]) -> Database {
        Database::new().with(
            "e",
            Relation::from_pairs(pairs.iter().map(|(a, b)| (i(*a), i(*b)))),
        )
    }

    const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";

    const UNREACH: &str = "tc(X, Y) :- e(X, Y).\n\
                           tc(X, Z) :- tc(X, Y), e(Y, Z).\n\
                           un(X, Y) :- n(X), n(Y), not tc(X, Y).";

    fn assert_matches_cold(view: &StratifiedView, program: &Program, db: &Database) {
        let cold = evaluate(program, db, Semantics::Stratified, Budget::SMALL).unwrap();
        assert_eq!(
            view.total(),
            &cold.model.certain,
            "incremental view diverged from cold evaluation"
        );
    }

    #[test]
    fn dred_insert_and_delete_tracks_cold_tc() {
        let program = parse_program(TC).unwrap();
        let mut db = edges(&[(1, 2), (2, 3), (3, 4)]);
        let mut meter = Budget::SMALL.meter();
        let mut view = StratifiedView::new(&program, &db, &mut meter).unwrap();
        assert_matches_cold(&view, &program, &db);

        // Insert an edge closing a new path.
        let mut d = DatabaseDelta::new();
        d.insert("e", Value::pair(i(4), i(5)));
        let eff = d.apply(&mut db);
        let before = view.total().count("tc");
        view.maintain(&eff, &mut meter).unwrap();
        assert_eq!(view.total().count("tc"), before + 4, "tc gains paths to 5");
        assert_matches_cold(&view, &program, &db);

        // Delete a middle edge: long paths die, short ones survive.
        let mut d = DatabaseDelta::new();
        d.remove("e", Value::pair(i(2), i(3)));
        let eff = d.apply(&mut db);
        view.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&view, &program, &db);
        assert!(!view.total().holds("tc", &[i(1), i(4)]));
        assert!(view.total().holds("tc", &[i(1), i(2)]));

        // Mixed delta: remove and insert in one batch.
        let mut d = DatabaseDelta::new();
        d.remove("e", Value::pair(i(1), i(2)));
        d.insert("e", Value::pair(i(2), i(3)));
        let eff = d.apply(&mut db);
        view.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&view, &program, &db);
    }

    #[test]
    fn counting_stratum_handles_negation_flips() {
        let program = parse_program(UNREACH).unwrap();
        let mut db = edges(&[(1, 2)]).with("n", Relation::from_values([i(1), i(2), i(3)]));
        let mut meter = Budget::SMALL.meter();
        let mut view = StratifiedView::new(&program, &db, &mut meter).unwrap();
        assert_matches_cold(&view, &program, &db);
        assert!(view.total().holds("un", &[i(1), i(3)]));

        // Inserting e(2,3) creates tc(1,3)/tc(2,3), killing un facts via
        // the flipped-rule path.
        let mut d = DatabaseDelta::new();
        d.insert("e", Value::pair(i(2), i(3)));
        let eff = d.apply(&mut db);
        let skipped = view.maintain(&eff, &mut meter).unwrap();
        assert_eq!(skipped, 0);
        assert_matches_cold(&view, &program, &db);
        assert!(!view.total().holds("un", &[i(1), i(3)]));

        // Deleting it brings them back (negation births).
        let mut d = DatabaseDelta::new();
        d.remove("e", Value::pair(i(2), i(3)));
        let eff = d.apply(&mut db);
        view.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&view, &program, &db);
        assert!(view.total().holds("un", &[i(1), i(3)]));

        // A delta on `n` alone skips the tc stratum.
        let mut d = DatabaseDelta::new();
        d.insert("n", i(4));
        let eff = d.apply(&mut db);
        let skipped = view.maintain(&eff, &mut meter).unwrap();
        assert_eq!(skipped, 1, "tc stratum untouched by n-delta");
        assert_matches_cold(&view, &program, &db);
    }

    #[test]
    fn incremental_is_cheaper_than_cold_on_chain() {
        // A 60-node chain: cold evaluation derives ~1800 tc facts; one
        // appended edge must cost far less.
        let pairs: Vec<(i64, i64)> = (1..60).map(|k| (k, k + 1)).collect();
        let program = parse_program(TC).unwrap();
        let mut db = edges(&pairs);
        let cold_trace = Trace::collect();
        let mut meter = Budget::SMALL.meter_traced(cold_trace.clone());
        let mut view = StratifiedView::new(&program, &db, &mut meter).unwrap();
        let cold = cold_trace.stats().unwrap();

        let incr_trace = Trace::collect();
        let mut meter = Budget::SMALL.meter_traced(incr_trace.clone());
        let mut d = DatabaseDelta::new();
        d.insert("e", Value::pair(i(60), i(61)));
        let eff = d.apply(&mut db);
        view.maintain(&eff, &mut meter).unwrap();
        let incr = incr_trace.stats().unwrap();
        assert_matches_cold(&view, &program, &db);
        assert!(
            incr.facts_inserted < cold.facts_inserted,
            "incremental {} should beat cold {}",
            incr.facts_inserted,
            cold.facts_inserted
        );
        // The appended edge reaches every node: 61 new tc facts, and the
        // derivation work is within a small factor of that.
        assert!(incr.facts_inserted <= 4 * 61, "got {}", incr.facts_inserted);
    }

    #[test]
    fn recompute_view_skips_unaffected_levels() {
        // Non-stratified bottom (win/move may cycle) with a stratified
        // rule on top; acyclic moves keep everything two-valued.
        let src = "win(X) :- move(X, Y), not win(Y).\n\
                   happy(X) :- player(X), not win(X).";
        let program = parse_program(src).unwrap();
        let mut db = Database::new()
            .with("move", Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]))
            .with("player", Relation::from_values([i(1), i(2)]));
        let mut meter = Budget::SMALL.meter();
        let mut view = RecomputeView::new(&program, Semantics::Valid, &db, &mut meter).unwrap();
        assert_eq!(view.levels.len(), 2, "win below happy");
        let cold = evaluate(&program, &db, Semantics::Valid, Budget::SMALL).unwrap();
        assert_eq!(view.model(), &cold.model);
        assert_eq!(view.model().truth("happy", &[i(1)]), Truth::True);
        assert_eq!(view.model().truth("happy", &[i(2)]), Truth::False);

        // Changing `player` must not recompute the win level.
        let mut d = DatabaseDelta::new();
        d.insert("player", i(3));
        let eff = d.apply(&mut db);
        let skipped = view.maintain(&db, &eff, &mut meter).unwrap();
        assert_eq!(skipped, 1, "win level reused from cache");
        let cold = evaluate(&program, &db, Semantics::Valid, Budget::SMALL).unwrap();
        assert_eq!(view.model(), &cold.model);
        assert_eq!(view.model().truth("happy", &[i(3)]), Truth::True);

        // A delta on nothing the view mentions skips everything.
        let mut d = DatabaseDelta::new();
        d.insert("unrelated", i(9));
        let eff = d.apply(&mut db);
        let before = view.model().clone();
        let skipped = view.maintain(&db, &eff, &mut meter).unwrap();
        assert_eq!(skipped, 2);
        assert_eq!(view.model(), &before);
    }

    #[test]
    fn recompute_view_goes_joint_on_three_valued_boundary() {
        let src = "win(X) :- move(X, Y), not win(Y).\n\
                   happy(X) :- player(X), not win(X).";
        let program = parse_program(src).unwrap();
        let mut db = Database::new()
            .with("move", Relation::from_pairs([(i(7), i(7))]))
            .with("player", Relation::from_values([i(7)]));
        let mut meter = Budget::SMALL.meter();
        let mut view = RecomputeView::new(&program, Semantics::Valid, &db, &mut meter).unwrap();
        let cold = evaluate(&program, &db, Semantics::Valid, Budget::SMALL).unwrap();
        assert_eq!(view.model(), &cold.model);
        assert_eq!(view.model().truth("win", &[i(7)]), Truth::Unknown);
        assert_eq!(view.model().truth("happy", &[i(7)]), Truth::Unknown);

        // Break the cycle: everything resolves again.
        let mut d = DatabaseDelta::new();
        d.remove("move", Value::pair(i(7), i(7)));
        d.insert("move", Value::pair(i(7), i(8)));
        let eff = d.apply(&mut db);
        view.maintain(&db, &eff, &mut meter).unwrap();
        let cold = evaluate(&program, &db, Semantics::Valid, Budget::SMALL).unwrap();
        assert_eq!(view.model(), &cold.model);
        assert_eq!(view.model().truth("win", &[i(7)]), Truth::True);
        assert_eq!(view.model().truth("happy", &[i(7)]), Truth::False);
    }

    #[test]
    fn scc_levels_orders_dependencies() {
        let program = parse_program(
            "a(X) :- e(X).\n\
             b(X) :- a(X), c(X).\n\
             c(X) :- b(X).\n\
             d(X) :- c(X), not a(X).",
        )
        .unwrap();
        let parts = scc_levels(&program);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].rules[0].head.pred, "a");
        // b and c are mutually recursive — same level.
        let mid: BTreeSet<&str> = parts[1]
            .rules
            .iter()
            .map(|r| r.head.pred.as_str())
            .collect();
        assert_eq!(mid, BTreeSet::from(["b", "c"]));
        assert_eq!(parts[2].rules[0].head.pred, "d");
    }
}
