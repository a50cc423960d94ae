//! The maintained alternating fixpoint: stored rounds, delta replay,
//! convergence tracking.
//!
//! [`IncrementalModel`] keeps every alternation round's `(possible,
//! certain)` [`PassState`] pair — the same sequence
//! `algrec_datalog::wellfounded::alternating_passes` records — and
//! replays a base delta level by level. Each pass's [`PassDelta`](crate::pass::PassDelta) is the
//! next pass's oracle delta (a pass result *is* the next pass's negation
//! oracle), and the round-0 possible pass is seeded with the base delta
//! itself because `certain₀` is the database. After every round the
//! convergence test of the cold loop is re-checked, so the stored
//! sequence stays exactly what a from-scratch alternating fixpoint would
//! produce: maintenance truncates rounds that became redundant and
//! extends with cold passes when convergence moved later.

use crate::pass::{PassAction, PassProgram, PassState};
use algrec_datalog::ast::Program;
use algrec_datalog::engine::Compiled;
use algrec_datalog::error::EvalError;
use algrec_datalog::interp::{tuple_args, Interp, ThreeValued};
use algrec_datalog::stratify::DepGraph;
use algrec_value::budget::Meter;
use algrec_value::{Database, DatabaseDelta};
use std::collections::BTreeSet;

/// What one incremental maintenance call did to the model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainOutcome {
    /// Facts that changed across the certain and possible sets: the
    /// symmetric difference of each, summed, over the whole model. Base
    /// (EDB) facts count too, and a two-valued change counts once in each
    /// set.
    pub changed: usize,
    /// Alternation levels (passes) skipped because the delta could not
    /// reach them.
    pub skipped: usize,
}

/// One stored alternation round.
struct Round {
    possible: PassState,
    certain: PassState,
}

/// A three-valued model maintained as the supported-derivation state of
/// every alternation level.
pub struct IncrementalModel {
    pass: PassProgram,
    base: Interp,
    rounds: Vec<Round>,
    model: ThreeValued,
    deps: BTreeSet<String>,
}

/// Split a database delta into inserted / removed fact interpretations.
pub fn delta_interps(delta: &DatabaseDelta) -> (Interp, Interp) {
    let mut ins = Interp::new();
    let mut del = Interp::new();
    for (name, rd) in delta.iter() {
        for v in rd.added() {
            ins.insert(name, tuple_args(v));
        }
        for v in rd.removed() {
            del.insert(name, tuple_args(v));
        }
    }
    (ins, del)
}

impl IncrementalModel {
    /// Materialize the model from scratch, storing every alternation
    /// round's pass states (the registration-time cold baseline; the
    /// meter records the full evaluation cost).
    pub fn new(program: &Program, db: &Database, meter: &mut Meter) -> Result<Self, EvalError> {
        let pass = PassProgram::new(program)?;
        let base = Interp::from_database(db);
        let mut rounds: Vec<Round> = Vec::new();
        let mut certain = base.clone();
        meter.phase_start("alternation");
        loop {
            meter.tick_iteration()?;
            meter.phase_start("possible");
            let possible = pass.cold(&base, &certain, meter);
            meter.phase_end();
            let possible = possible?;
            meter.phase_start("certain");
            let next = pass.cold(&base, possible.total(), meter);
            meter.phase_end();
            let next = next?;
            let converged = next.total() == &certain;
            certain = next.total().clone();
            rounds.push(Round {
                possible,
                certain: next,
            });
            if converged {
                break;
            }
        }
        meter.phase_end();
        let last = rounds.last().expect("at least one round");
        let model = ThreeValued {
            certain: last.certain.total().clone(),
            possible: last.possible.total().clone(),
        };
        let deps = DepGraph::of(program).preds;
        meter.record_materialized(model.certain.total());
        Ok(IncrementalModel {
            pass,
            base,
            rounds,
            model,
            deps,
        })
    }

    /// The current three-valued model.
    pub fn model(&self) -> &ThreeValued {
        &self.model
    }

    /// The model's derived (IDB) predicates.
    pub fn idb_preds(&self) -> &BTreeSet<String> {
        self.pass.head_preds()
    }

    /// Every predicate the model depends on.
    pub fn deps(&self) -> &BTreeSet<String> {
        &self.deps
    }

    /// The compiled program (for downstream refinement passes).
    pub fn compiled(&self) -> &Compiled {
        self.pass.compiled()
    }

    /// The current base (extensional) interpretation.
    pub fn base(&self) -> &Interp {
        &self.base
    }

    /// Number of stored alternation rounds.
    pub fn rounds_len(&self) -> usize {
        self.rounds.len()
    }

    /// Apply one *effective* database delta (already applied to the
    /// session database). The delta must not touch the model's IDB
    /// predicates — the serving layer routes such changes to a full
    /// rebuild. On error the model is left inconsistent and must be
    /// rebuilt.
    pub fn maintain(
        &mut self,
        delta: &DatabaseDelta,
        meter: &mut Meter,
    ) -> Result<MaintainOutcome, EvalError> {
        let (edb_ins, edb_del) = delta_interps(delta);
        if edb_ins.total() == 0 && edb_del.total() == 0 {
            return Ok(MaintainOutcome::default());
        }
        debug_assert!(
            self.pass
                .head_preds()
                .iter()
                .all(|p| edb_ins.count(p) == 0 && edb_del.count(p) == 0),
            "delta must not touch IDB predicates"
        );
        let before = self.model.clone();
        let old_base = self.base.clone();
        for (p, args) in edb_del.iter() {
            self.base.remove(p, args);
        }
        for (p, args) in edb_ins.iter() {
            self.base.insert(p, args.clone());
        }

        let mut skipped = 0usize;
        // Oracle threading: the possible pass of round k reads the
        // previous round's certain (round -1: the base), the certain
        // pass reads its own round's possible.
        let mut prev_old = old_base;
        let mut prev_new = self.base.clone();
        let mut oc_ins = edb_ins.clone();
        let mut oc_del = edb_del.clone();
        let mut converged_at: Option<usize> = None;
        for (k, round) in self.rounds.iter_mut().enumerate() {
            meter.tick_iteration()?;
            let old_possible = round.possible.total().clone();
            let pd = self.pass.maintain(
                &mut round.possible,
                2 * k,
                &edb_ins,
                &edb_del,
                &oc_ins,
                &oc_del,
                &prev_old,
                &prev_new,
                &self.base,
                meter,
            )?;
            if pd.action == PassAction::Skipped {
                skipped += 1;
            }
            let old_certain = round.certain.total().clone();
            let new_possible = round.possible.total().clone();
            let cd = self.pass.maintain(
                &mut round.certain,
                2 * k + 1,
                &edb_ins,
                &edb_del,
                &pd.ins,
                &pd.del,
                &old_possible,
                &new_possible,
                &self.base,
                meter,
            )?;
            if cd.action == PassAction::Skipped {
                skipped += 1;
            }
            let converged = round.certain.total() == &prev_new;
            prev_old = old_certain;
            prev_new = round.certain.total().clone();
            oc_ins = cd.ins;
            oc_del = cd.del;
            if converged {
                converged_at = Some(k);
                break;
            }
        }
        match converged_at {
            Some(k) => self.rounds.truncate(k + 1),
            None => {
                // Convergence moved past the stored rounds: continue the
                // alternation with cold passes until the certain set
                // stabilizes again.
                loop {
                    meter.tick_iteration()?;
                    let possible = self.pass.cold(&self.base, &prev_new, meter)?;
                    let certain = self.pass.cold(&self.base, possible.total(), meter)?;
                    let converged = certain.total() == &prev_new;
                    prev_new = certain.total().clone();
                    self.rounds.push(Round { possible, certain });
                    if converged {
                        break;
                    }
                }
            }
        }
        let last = self.rounds.last().expect("at least one round");
        self.model = ThreeValued {
            certain: last.certain.total().clone(),
            possible: last.possible.total().clone(),
        };
        meter.record_materialized(self.model.certain.total());
        let changed = before.certain.diff(&self.model.certain).count()
            + before.possible.diff(&self.model.possible).count();
        Ok(MaintainOutcome { changed, skipped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_datalog::parser::parse_program;
    use algrec_datalog::wellfounded::{alternating_fixpoint, alternating_passes};
    use algrec_value::{Budget, Relation, Trace, Truth, Value};

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    const WIN: &str = "win(X) :- move(X, Y), not win(Y).";
    const Q_GADGET: &str = "q(X) :- r(X), not q(X).";

    fn cold_model(program: &Program, db: &Database) -> ThreeValued {
        let compiled = Compiled::compile(program).unwrap();
        let base = Interp::from_database(db);
        let mut meter = Budget::SMALL.meter();
        alternating_fixpoint(&compiled, &base, &mut meter)
            .unwrap()
            .0
    }

    fn assert_matches_cold(model: &IncrementalModel, program: &Program, db: &Database) {
        assert_eq!(
            model.model(),
            &cold_model(program, db),
            "incremental model diverged from cold alternating fixpoint"
        );
    }

    #[test]
    fn delta_interps_split_signed_changes() {
        let mut d = DatabaseDelta::new();
        d.insert("e", Value::pair(i(1), i(2)));
        d.remove("n", i(3));
        let (ins, del) = delta_interps(&d);
        assert!(ins.holds("e", &[i(1), i(2)]));
        assert!(del.holds("n", &[i(3)]));
        assert_eq!(ins.total(), 1);
        assert_eq!(del.total(), 1);
    }

    #[test]
    fn cold_build_matches_alternating_passes() {
        let program = parse_program(WIN).unwrap();
        let db = Database::new().with(
            "move",
            Relation::from_pairs([(i(7), i(7)), (i(1), i(2)), (i(2), i(3))]),
        );
        let mut meter = Budget::SMALL.meter();
        let model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        let compiled = Compiled::compile(&program).unwrap();
        let base = Interp::from_database(&db);
        let mut m2 = Budget::SMALL.meter();
        let (rounds, tv, _) = alternating_passes(&compiled, &base, &mut m2).unwrap();
        assert_eq!(model.model(), &tv);
        assert_eq!(model.rounds_len(), rounds.len());
        for (stored, cold) in model.rounds.iter().zip(&rounds) {
            assert_eq!(stored.possible.total(), &cold.possible);
            assert_eq!(stored.certain.total(), &cold.certain);
        }
    }

    #[test]
    fn win_cycle_gains_and_loses_escape() {
        // Section 3.2's divergence gadget: a self-loop makes win(7)
        // undefined; an escape edge to a dead node resolves it to true;
        // removing the escape brings the undefinedness back.
        let program = parse_program(WIN).unwrap();
        let mut db = Database::new().with("move", Relation::from_pairs([(i(7), i(7))]));
        let mut meter = Budget::SMALL.meter();
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().truth("win", &[i(7)]), Truth::Unknown);

        let mut d = DatabaseDelta::new();
        d.insert("move", Value::pair(i(7), i(8)));
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().truth("win", &[i(7)]), Truth::True);

        let mut d = DatabaseDelta::new();
        d.remove("move", Value::pair(i(7), i(8)));
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().truth("win", &[i(7)]), Truth::Unknown);
    }

    #[test]
    fn q_gadget_tracks_r_churn() {
        // Example 4: q(a) is undefined whenever r(a) holds, false (gone)
        // when it does not.
        let program = parse_program(Q_GADGET).unwrap();
        let mut db = Database::new().with("r", Relation::from_values([i(1)]));
        let mut meter = Budget::SMALL.meter();
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().truth("q", &[i(1)]), Truth::Unknown);

        let mut d = DatabaseDelta::new();
        d.insert("r", i(2));
        d.remove("r", i(1));
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().truth("q", &[i(1)]), Truth::False);
        assert_eq!(model.model().truth("q", &[i(2)]), Truth::Unknown);
    }

    #[test]
    fn unrelated_delta_skips_every_level() {
        let program = parse_program(WIN).unwrap();
        let mut db = Database::new().with("move", Relation::from_pairs([(i(1), i(2))]));
        let mut meter = Budget::SMALL.meter();
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        let levels = 2 * model.rounds_len();
        let mut d = DatabaseDelta::new();
        d.insert("unrelated", i(9));
        let eff = d.apply(&mut db);
        let out = model.maintain(&eff, &mut meter).unwrap();
        assert_eq!(out.skipped, levels, "every pass skipped");
        // The skipped passes still thread the base facts through, so the
        // model stays exactly the cold one (unlike a stale cache).
        assert_matches_cold(&model, &program, &db);
    }

    #[test]
    fn empty_database_edge_and_first_facts() {
        let program = parse_program(WIN).unwrap();
        let mut db = Database::new();
        let mut meter = Budget::SMALL.meter();
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().certain.total(), 0);

        let mut d = DatabaseDelta::new();
        d.insert("move", Value::pair(i(1), i(2)));
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().truth("win", &[i(1)]), Truth::True);
    }

    #[test]
    fn large_oracle_churn_falls_back_to_cold_level() {
        // Inserting a 20-edge chain into an empty game floods the
        // certain pass's oracle (20 new possible wins > max(16, 0 old
        // heads)), forcing that level to recompute cold.
        let program = parse_program(WIN).unwrap();
        let mut db = Database::new();
        let mut meter = Budget::SMALL.meter();
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();

        let trace = Trace::collect();
        let mut meter = Budget::SMALL.meter_traced(trace.clone());
        let mut d = DatabaseDelta::new();
        for k in 1..=20 {
            d.insert("move", Value::pair(i(k), i(k + 1)));
        }
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        let stats = trace.stats().unwrap();
        assert!(
            stats.incr.fallbacks >= 1,
            "expected a fallback, got {:?}",
            stats.incr
        );
        assert!(stats.incr.levels_replayed >= 1);
    }

    #[test]
    fn dred_pass_with_stratified_negation_on_top() {
        // tc is a DRed pass; un consults tc negatively through the
        // oracle channel. Random-ish churn must track the cold model.
        let program = parse_program(
            "tc(X, Y) :- e(X, Y).\n\
             tc(X, Z) :- tc(X, Y), e(Y, Z).\n\
             un(X, Y) :- n(X), n(Y), not tc(X, Y).",
        )
        .unwrap();
        let mut db = Database::new()
            .with("e", Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]))
            .with("n", Relation::from_values([i(1), i(2), i(3)]));
        let mut meter = Budget::SMALL.meter();
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.model().truth("un", &[i(3), i(1)]), Truth::True);
        assert_eq!(model.model().truth("un", &[i(1), i(3)]), Truth::False);

        let steps: Vec<DatabaseDelta> = {
            let mut v = Vec::new();
            let mut d = DatabaseDelta::new();
            d.insert("e", Value::pair(i(3), i(1)));
            v.push(d);
            let mut d = DatabaseDelta::new();
            d.remove("e", Value::pair(i(2), i(3)));
            d.insert("n", i(4));
            v.push(d);
            let mut d = DatabaseDelta::new();
            d.remove("e", Value::pair(i(1), i(2)));
            d.remove("n", i(2));
            v.push(d);
            v
        };
        for d in steps {
            let eff = d.apply(&mut db);
            model.maintain(&eff, &mut meter).unwrap();
            assert_matches_cold(&model, &program, &db);
        }
    }

    #[test]
    fn convergence_extends_and_truncates_round_storage() {
        let program = parse_program(WIN).unwrap();
        // Acyclic chain: converges fast.
        let mut db = Database::new().with("move", Relation::from_pairs([(i(1), i(2))]));
        let mut meter = Budget::SMALL.meter();
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        let short = model.rounds_len();

        // A long even cycle with an escape forces more alternation
        // rounds; the stored sequence must grow to match the cold run.
        let mut d = DatabaseDelta::new();
        for k in 2..=6 {
            d.insert("move", Value::pair(i(k), i(k + 1)));
        }
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        let compiled = Compiled::compile(&program).unwrap();
        let mut m2 = Budget::SMALL.meter();
        let (rounds, _, _) =
            alternating_passes(&compiled, &Interp::from_database(&db), &mut m2).unwrap();
        assert_eq!(model.rounds_len(), rounds.len());
        assert!(model.rounds_len() > short, "chain needs more rounds");

        // Shrinking the game back truncates the stored rounds again.
        let mut d = DatabaseDelta::new();
        for k in 2..=6 {
            d.remove("move", Value::pair(i(k), i(k + 1)));
        }
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        assert_matches_cold(&model, &program, &db);
        assert_eq!(model.rounds_len(), short);
    }

    #[test]
    fn maintenance_is_cheaper_than_cold_on_chain() {
        // A long chain game: one edge prepended at the head adds a
        // single win fact (the rest of the chain is untouched), so the
        // replay must cost far less than the cold alternating fixpoint.
        let program = parse_program(WIN).unwrap();
        let pairs: Vec<(Value, Value)> = (1..60).map(|k| (i(k), i(k + 1))).collect();
        let mut db = Database::new().with("move", Relation::from_pairs(pairs));
        let cold_trace = Trace::collect();
        let mut meter = Budget::SMALL.meter_traced(cold_trace.clone());
        let mut model = IncrementalModel::new(&program, &db, &mut meter).unwrap();
        let cold = cold_trace.stats().unwrap();

        let incr_trace = Trace::collect();
        let mut meter = Budget::SMALL.meter_traced(incr_trace.clone());
        let mut d = DatabaseDelta::new();
        d.insert("move", Value::pair(i(0), i(1)));
        let eff = d.apply(&mut db);
        model.maintain(&eff, &mut meter).unwrap();
        let incr = incr_trace.stats().unwrap();
        assert_matches_cold(&model, &program, &db);
        assert!(
            incr.facts_inserted < cold.facts_inserted / 4,
            "incremental {} should beat cold {} by 4x+",
            incr.facts_inserted,
            cold.facts_inserted
        );
    }
}
