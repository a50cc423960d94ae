//! The alternating fixpoint: well-founded model / the paper's valid
//! computation.
//!
//! Section 2.2 describes the valid model computation operationally:
//!
//! > "At each step of the computation, we look at all the possible
//! > derivations starting from the current set T of true facts, where only
//! > facts not in T are allowed to be used negatively. The facts that are
//! > not derivable in any such computation are assumed to be certainly
//! > false, and are therefore added to F. The false facts in F and the true
//! > facts in T are then used to derive new true facts […] In this
//! > derivation, we use negatively only facts from F."
//!
//! This is precisely Van Gelder's alternating fixpoint: an *overestimate*
//! pass (negation succeeds unless the fact is certainly true) determines
//! the possible facts, everything outside is certainly false; an
//! *underestimate* pass (negation succeeds only on certainly-false facts)
//! grows the true set. [`alternating_fixpoint`] implements it; the
//! well-founded and valid entry points in `semantics` both dispatch here
//! (on normal programs the operational description and the well-founded
//! model coincide — the paper's own examples are all of this kind), and
//! the *extended* valid semantics refines the result in `stable`.

use crate::engine::Compiled;
use crate::error::EvalError;
use crate::fixpoint::{semi_naive_oracle, NegOracle};
use crate::interp::{Interp, ThreeValued};
use algrec_value::budget::Meter;

/// Statistics of an alternating-fixpoint run.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct AlternatingStats {
    /// Outer alternation rounds until the true set stabilized.
    pub outer_rounds: usize,
    /// Inner fixpoint rounds, summed.
    pub inner_rounds: usize,
    /// Facts in the final certain set.
    pub certain_facts: usize,
    /// Facts in the final possible set.
    pub possible_facts: usize,
}

/// One alternation round's pair of inner-lfp results: the overestimate
/// (`possible`) and the underestimate computed from it (`certain`).
/// These are the *alternation levels* incremental maintenance replays
/// one at a time (see `algrec-incr`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlternationRound {
    /// The overestimate pass result (base facts included).
    pub possible: Interp,
    /// The underestimate pass result (base facts included).
    pub certain: Interp,
}

/// Compute the alternating fixpoint of a compiled program over a base
/// (extensional) interpretation. Returns the three-valued result: facts
/// in `certain` are true, facts in `possible \ certain` are undefined,
/// everything else is false. Eligible programs run every pass in one
/// id-space machine (`compiled`); a traced meter or a rule the compiler
/// cannot take keeps the interpreted per-pass reference.
pub fn alternating_fixpoint(
    compiled: &Compiled,
    base: &Interp,
    meter: &mut Meter,
) -> Result<(ThreeValued, AlternatingStats), EvalError> {
    if let Some(res) = crate::compiled::try_alternating(compiled, base, meter, None) {
        return res;
    }
    alternating_loop(compiled, base, meter, &mut |_, _| {})
}

/// [`alternating_fixpoint`] recording every round's `(possible, certain)`
/// pair — the per-level entry point incremental maintenance seeds its
/// supported-derivation state from. The recorded sequence ends with the
/// converged round (whose `certain` equals the previous round's), so
/// `rounds.last()` is exactly the returned model.
pub fn alternating_passes(
    compiled: &Compiled,
    base: &Interp,
    meter: &mut Meter,
) -> Result<(Vec<AlternationRound>, ThreeValued, AlternatingStats), EvalError> {
    let mut rounds = Vec::new();
    let mut record = |possible: &Interp, certain: &Interp| {
        rounds.push(AlternationRound {
            possible: possible.clone(),
            certain: certain.clone(),
        });
    };
    let (tv, stats) =
        match crate::compiled::try_alternating(compiled, base, meter, Some(&mut record)) {
            Some(res) => res?,
            None => alternating_loop(compiled, base, meter, &mut record)?,
        };
    Ok((rounds, tv, stats))
}

/// The interpreted alternation loop: the reference the compiled
/// `try_alternating` reproduces, run on traced meters and on programs
/// the compiler cannot take. `on_round(possible, certain)` observes
/// every completed round, including the final one that detects
/// convergence; the observer must not mutate evaluation state (it only
/// gets shared references), so both entry points stay bit-identical.
fn alternating_loop(
    compiled: &Compiled,
    base: &Interp,
    meter: &mut Meter,
    on_round: &mut dyn FnMut(&Interp, &Interp),
) -> Result<(ThreeValued, AlternatingStats), EvalError> {
    let mut stats = AlternatingStats::default();
    // T₀: just the database.
    let mut certain = base.clone();
    let mut possible;
    meter.phase_start("alternation");
    loop {
        stats.outer_rounds += 1;
        meter.tick_iteration()?;

        // Overestimate: every possible derivation from the current T,
        // "only facts not in T are allowed to be used negatively".
        // `certain` is only read during the run, so borrow it as the
        // complement oracle instead of cloning a frozen copy.
        meter.phase_start("possible");
        let poss = semi_naive_oracle(compiled, base, &NegOracle::Complement(&certain), meter);
        meter.phase_end();
        let (poss, s1) = poss?;
        stats.inner_rounds += s1.rounds;
        possible = poss;

        // Underestimate: facts outside `possible` are certainly false
        // ("added to F"); derive new true facts using only F negatively.
        meter.phase_start("certain");
        let next = semi_naive_oracle(compiled, base, &NegOracle::Complement(&possible), meter);
        meter.phase_end();
        let (next_certain, s2) = next?;
        stats.inner_rounds += s2.rounds;

        on_round(&possible, &next_certain);
        if next_certain == certain {
            break;
        }
        certain = next_certain;
    }
    meter.phase_end();
    stats.certain_facts = certain.total();
    stats.possible_facts = possible.total();
    debug_assert!(certain.is_subset(&possible));
    Ok((ThreeValued { certain, possible }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Expr, Literal, Program, Rule};
    use algrec_value::{Budget, Truth, Value};

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn win_program() -> Program {
        // win(X) :- move(X,Y), not win(Y).   (Example 3 / [24])
        Program::from_rules([Rule::new(
            Atom::new("win", [v("X")]),
            [
                Literal::Pos(Atom::new("move", [v("X"), v("Y")])),
                Literal::Neg(Atom::new("win", [v("Y")])),
            ],
        )])
    }

    fn run(p: &Program, base: Interp) -> ThreeValued {
        let compiled = Compiled::compile(p).unwrap();
        let mut meter = Budget::SMALL.meter();
        alternating_fixpoint(&compiled, &base, &mut meter)
            .unwrap()
            .0
    }

    #[test]
    fn acyclic_win_is_two_valued() {
        // 1 → 2 → 3 (3 has no moves: losing; 2 winning; 1 losing... wait:
        // 2 can move to 3 which has no moves, so win(2). 1 moves only to 2
        // which is winning, so win(1) is false.)
        let mut base = Interp::new();
        base.insert("move", vec![i(1), i(2)]);
        base.insert("move", vec![i(2), i(3)]);
        let tv = run(&win_program(), base);
        assert_eq!(tv.truth("win", &[i(2)]), Truth::True);
        assert_eq!(tv.truth("win", &[i(1)]), Truth::False);
        assert_eq!(tv.truth("win", &[i(3)]), Truth::False);
        assert!(tv.is_exact());
    }

    #[test]
    fn cyclic_win_is_undefined() {
        // Self-loop [a, a]: "the membership status of a in WIN will be
        // undefined" (Section 3.2).
        let mut base = Interp::new();
        base.insert("move", vec![i(7), i(7)]);
        let tv = run(&win_program(), base);
        assert_eq!(tv.truth("win", &[i(7)]), Truth::Unknown);
        assert!(!tv.is_exact());
        assert_eq!(tv.unknown_count(), 1);
    }

    #[test]
    fn two_cycle_with_escape() {
        // 1 ⇄ 2, 2 → 3. win(2) true (move to dead 3); win(1) false (its
        // only move is to winning 2); everything defined despite cycle.
        let mut base = Interp::new();
        base.insert("move", vec![i(1), i(2)]);
        base.insert("move", vec![i(2), i(1)]);
        base.insert("move", vec![i(2), i(3)]);
        let tv = run(&win_program(), base);
        assert_eq!(tv.truth("win", &[i(2)]), Truth::True);
        assert_eq!(tv.truth("win", &[i(1)]), Truth::False);
        assert!(tv.is_exact());
    }

    #[test]
    fn pure_two_cycle_undefined() {
        // 1 ⇄ 2 with no escape: both undefined (draw).
        let mut base = Interp::new();
        base.insert("move", vec![i(1), i(2)]);
        base.insert("move", vec![i(2), i(1)]);
        let tv = run(&win_program(), base);
        assert_eq!(tv.truth("win", &[i(1)]), Truth::Unknown);
        assert_eq!(tv.truth("win", &[i(2)]), Truth::Unknown);
    }

    #[test]
    fn example4_q_undefined_under_valid() {
        // r(a). q(X) :- r(X), not q(X).  — the paper, Example 4 (cont'd):
        // "neither Q(a) nor ¬Q(a) hold in the valid model".
        let p = Program::from_rules([
            Rule::fact(Atom::new("r", [Expr::lit("a")])),
            Rule::new(
                Atom::new("q", [v("X")]),
                [
                    Literal::Pos(Atom::new("r", [v("X")])),
                    Literal::Neg(Atom::new("q", [v("X")])),
                ],
            ),
        ]);
        let tv = run(&p, Interp::new());
        assert_eq!(tv.truth("q", &[Value::str("a")]), Truth::Unknown);
        assert_eq!(tv.truth("r", &[Value::str("a")]), Truth::True);
    }

    #[test]
    fn stratified_program_is_exact_and_matches_stratified_eval() {
        use crate::stratify::stratified;
        let p = Program::from_rules([
            Rule::new(
                Atom::new("tc", [v("X"), v("Y")]),
                [Literal::Pos(Atom::new("e", [v("X"), v("Y")]))],
            ),
            Rule::new(
                Atom::new("tc", [v("X"), v("Z")]),
                [
                    Literal::Pos(Atom::new("tc", [v("X"), v("Y")])),
                    Literal::Pos(Atom::new("e", [v("Y"), v("Z")])),
                ],
            ),
            Rule::new(
                Atom::new("iso", [v("X")]),
                [
                    Literal::Pos(Atom::new("node", [v("X")])),
                    Literal::Neg(Atom::new("tc", [v("X"), v("X")])),
                ],
            ),
        ]);
        let mut base = Interp::new();
        base.insert("e", vec![i(1), i(2)]);
        base.insert("e", vec![i(2), i(1)]);
        base.insert("e", vec![i(3), i(3)]);
        base.insert("node", vec![i(1)]);
        base.insert("node", vec![i(2)]);
        base.insert("node", vec![i(3)]);
        base.insert("node", vec![i(4)]);
        let tv = run(&p, base.clone());
        assert!(tv.is_exact());
        let mut meter = Budget::SMALL.meter();
        let (strat, _) = stratified(&p, &base, &mut meter).unwrap();
        assert_eq!(tv.certain, strat);
        assert_eq!(tv.truth("iso", &[i(4)]), Truth::True);
        assert_eq!(tv.truth("iso", &[i(1)]), Truth::False);
    }

    #[test]
    fn alternating_passes_records_rounds_ending_in_the_model() {
        let mut base = Interp::new();
        base.insert("move", vec![i(7), i(7)]);
        base.insert("move", vec![i(1), i(2)]);
        let compiled = Compiled::compile(&win_program()).unwrap();
        let mut meter = Budget::SMALL.meter();
        let (rounds, tv, stats) = alternating_passes(&compiled, &base, &mut meter).unwrap();
        assert_eq!(rounds.len(), stats.outer_rounds);
        let last = rounds.last().unwrap();
        assert_eq!(last.certain, tv.certain);
        assert_eq!(last.possible, tv.possible);
        // The recorded pairs alternate monotonically: each certain is a
        // subset of its possible, and the convergence round repeats the
        // previous certain.
        for r in &rounds {
            assert!(r.certain.is_subset(&r.possible));
        }
        // Bit-identical to the unrecorded entry point.
        let mut m2 = Budget::SMALL.meter();
        let (tv2, stats2) = alternating_fixpoint(&compiled, &base, &mut m2).unwrap();
        assert_eq!(tv, tv2);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn positive_program_one_outer_round_result() {
        let p = Program::from_rules([Rule::new(
            Atom::new("q", [v("X")]),
            [Literal::Pos(Atom::new("e", [v("X")]))],
        )]);
        let compiled = Compiled::compile(&p).unwrap();
        let mut base = Interp::new();
        base.insert("e", vec![i(1)]);
        let mut meter = Budget::SMALL.meter();
        let (tv, stats) = alternating_fixpoint(&compiled, &base, &mut meter).unwrap();
        assert!(tv.is_exact());
        assert!(stats.outer_rounds <= 2);
        assert_eq!(stats.certain_facts, tv.certain.total());
    }
}
