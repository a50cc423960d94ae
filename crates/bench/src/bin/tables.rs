//! Print the experiment ledger (E1–E8). Each experiment asserts the
//! paper's claimed equivalences, so a clean run is itself a
//! reproduction check.
//!
//! Usage:
//!   cargo run -p algrec-bench --bin tables --release            # full sweep
//!   cargo run -p algrec-bench --bin tables --release -- --quick # small sweep
//!
//! Failure is loud: a panicking experiment is reported by name, the
//! surviving tables still print, and the process exits non-zero.

use algrec_bench::experiments as e;
use algrec_bench::table::Table;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");

    let (small, medium): (Vec<i64>, Vec<i64>) = if quick {
        (vec![8, 16], vec![8, 12])
    } else {
        (vec![16, 32, 64, 128], vec![8, 16, 24, 32])
    };

    println!("algrec experiment ledger — every table verifies a claim of");
    println!("Beeri & Milo, \"On the Power of Algebras with Recursion\", SIGMOD 1993");
    println!();

    let mut failures: Vec<&'static str> = Vec::new();
    // Run every experiment even after a failure (the survivors still
    // print), but a single panic fails the run.
    let mut run =
        |id: &'static str, f: &mut dyn FnMut() -> Table| match catch_unwind(AssertUnwindSafe(f)) {
            Ok(t) => println!("{t}"),
            Err(_) => {
                eprintln!("experiment {id} PANICKED (see message above)");
                failures.push(id);
            }
        };

    run("E1", &mut || e::e1(&small));
    // E2's naive translation re-materializes the product sub-predicate at
    // every inflationary stage (a measured cost of the verbatim Prop 5.1
    // construction), so its sweep stays smaller.
    let e2_sizes: Vec<i64> = if quick { vec![8, 16] } else { vec![16, 32, 48] };
    run("E2", &mut || e::e2(&e2_sizes));
    run("E3", &mut || e::e3(&medium));
    run("E4", &mut || e::e4(&medium));
    run("E5", &mut || e::e5());
    run("E6", &mut || {
        e::e6(if quick { 12 } else { 24 }, &[0.0, 0.1, 0.3, 0.5, 1.0])
    });
    run("E7", &mut || e::e7());
    run("E8", &mut || e::e8(&small));

    if !failures.is_empty() {
        eprintln!(
            "{} experiment(s) failed: {}",
            failures.len(),
            failures.join(", ")
        );
        return ExitCode::FAILURE;
    }
    println!("all experiment assertions held.");
    ExitCode::SUCCESS
}
