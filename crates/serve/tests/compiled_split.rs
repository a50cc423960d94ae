//! Which executor serving runs: a registration is a cold evaluation and
//! runs compiled, building id-space machines; a single-fact write is a
//! maintenance step and stays on the interpreted continuation, building
//! none. `algrec_datalog::machine_builds` counts the machines this
//! thread built.

use algrec_datalog::{machine_builds, Semantics};
use algrec_serve::session::Session;
use algrec_serve::ViewStatus;
use algrec_value::Budget;

/// Recursive and stratified: one DRed stratum.
const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";

/// Not stratifiable (`ok` and `bad` negate each other), with a
/// positively recursive `reach`, so every alternation pass is a DRed
/// level whose cold evaluation is a semi-naive fixpoint.
const VALID: &str = "reach(X, Y) :- e(X, Y).\n\
                     reach(X, Z) :- reach(X, Y), e(Y, Z).\n\
                     ok(X) :- n(X), not bad(X).\n\
                     bad(X) :- n(X), not ok(X).";

fn builds_during<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = machine_builds();
    let out = run();
    (out, machine_builds() - before)
}

#[test]
fn registrations_build_machines_and_writes_build_none() {
    let mut session = Session::new(Budget::LARGE);
    let chain: String = (0..12).map(|k| format!("e({k}, {}). ", k + 1)).collect();
    session.load(&format!("{chain} n(1). n(2).")).unwrap();

    for (name, program, semantics) in [
        ("paths", TC, Semantics::Stratified),
        ("valid", VALID, Semantics::Valid),
    ] {
        let (reg, builds) =
            builds_during(|| session.register_datalog(name, program, semantics).unwrap());
        assert!(builds >= 1, "{name} ({}) built no machine", reg.strategy);
    }
    let strategies: Vec<_> = session.view_names().into_iter().map(|v| v.3).collect();
    assert_eq!(
        strategies,
        ["stratified-incremental", "incremental-alternating"]
    );

    // 50 single-fact writes: grow the chain's tail and cut it back,
    // plus shortcuts whose closure is already there.
    let (_, builds) = builds_during(|| {
        for k in 0..25 {
            let fact = match k % 3 {
                0 => format!("e(12, {})", 13 + k),
                1 => format!("e({}, {})", k % 12, 12),
                _ => format!("e({}, 0)", 13 + k),
            };
            for out in [
                session.assert_fact(&fact).unwrap(),
                session.retract_fact(&fact).unwrap(),
            ] {
                assert_eq!(out.applied, 1, "{fact}");
                for view in &out.views {
                    assert_eq!(view.status, ViewStatus::Maintained, "{fact}: {view:?}");
                }
            }
        }
    });
    assert_eq!(builds, 0, "a write ran the compiled executor");
}
