//! End-to-end tests of the `algrec` CLI binary.

use std::process::Command;

fn algrec(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_algrec"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_tmp(name: &str, contents: &str) -> String {
    let dir = std::env::temp_dir().join("algrec-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn eval_win_move() {
    let program = write_tmp("win.dl", "win(X) :- move(X, Y), not win(Y).");
    let facts = write_tmp("moves.dl", "move(1, 2).\nmove(2, 3).\nmove(4, 4).");
    let out = algrec(&["eval", &program, &facts, "--pred", "win"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("win(2)."));
    assert!(!stdout.contains("win(1)."));
    assert!(stdout.contains("% unknown: win(4)"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no initial valid model"));
}

#[test]
fn eval_semantics_flag() {
    let program = write_tmp("q.dl", "r(a).\nq(X) :- r(X), not q(X).");
    let out = algrec(&[
        "eval",
        &program,
        "--semantics",
        "inflationary",
        "--pred",
        "q",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("q(a)."));
    let out2 = algrec(&["eval", &program, "--semantics", "valid", "--pred", "q"]);
    assert!(String::from_utf8_lossy(&out2.stdout).contains("% unknown: q(a)"));
}

#[test]
fn eval_trace_streams_telemetry() {
    let program = write_tmp("win_tr.dl", "win(X) :- move(X, Y), not win(Y).");
    let facts = write_tmp("moves_tr.dl", "move(1, 2).\nmove(2, 3).");
    let out = algrec(&["eval", &program, &facts, "--trace", "--pred", "win"]);
    assert!(out.status.success());
    // Result unchanged by tracing…
    assert!(String::from_utf8_lossy(&out.stdout).contains("win(2)."));
    // …and the telemetry stream shows the alternating fixpoint at work.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("% trace: alternation {"));
    assert!(stderr.contains("possible {"));
    assert!(stderr.contains("certain {"));
    assert!(stderr.contains("delta "));
    assert!(stderr.contains("materialized "));
}

#[test]
fn alg_trace_streams_telemetry() {
    let program = write_tmp("undef_tr.alg", "def s = {'a'} - s; query s;");
    let out = algrec(&["alg", &program, "--trace"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("% trace: alternation {"));
    assert!(stderr.contains("materialized "));
}

#[test]
fn alg_command() {
    let program = write_tmp(
        "even.alg",
        "def se = {0} union map(select(se, x < 6), add(x, 2)); query se;",
    );
    let out = algrec(&["alg", &program]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "{0, 2, 4, 6}");
}

/// `alg` prints what `algrec_core::eval_valid` answers, whether the
/// program runs as its translation (WIN, with a drawn position) or stays
/// on the algebra evaluator (a recursive constant under two nested
/// differences).
#[test]
fn alg_output_equals_the_library_in_and_out_of_class() {
    let facts = "move(1, 2).\nmove(2, 3).\nmove(4, 4).\na(1).\na(2).\nb(2).\nb(3).\n";
    let facts_path = write_tmp("lib_facts.dl", facts);
    let mut db = algrec::value::Database::new();
    algrec::datalog::load_facts(&mut db, facts).unwrap();
    for (name, src, in_class) in [
        (
            "lib_win.alg",
            "def win = map(move - (map(move, x.0) * win), x.0); query win;",
            true,
        ),
        ("lib_nested.alg", "def s = a - (b - s); query s;", false),
    ] {
        let program = algrec::core::parser::parse_program(src).unwrap();
        assert_eq!(
            algrec::serve::algebra::plan(&program, &db).is_some(),
            in_class
        );
        let library =
            algrec::core::eval_valid(&program, &db, algrec::value::Budget::LARGE).unwrap();
        let out = algrec(&["alg", &write_tmp(name, src), &facts_path]);
        assert!(out.status.success());
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!("{}\n", library.query)
        );
    }
}

#[test]
fn alg_three_valued_marks_unknowns() {
    let program = write_tmp("undef.alg", "def s = {'a'} - s; query s;");
    let out = algrec(&["alg", &program]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("a?"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("three-valued"));
}

#[test]
fn spec_command() {
    let spec = write_tmp(
        "ex2.obj",
        "sorts s;\nop a : -> s; op b : -> s; op c : -> s;\n\
         ceq a = c if a != b;\nceq a = b if a != c;",
    );
    let out = algrec(&["spec", &spec, "--depth", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid models: 3"));
    assert!(stdout.contains("no initial valid model"));
}

#[test]
fn spec_nesting_past_the_bound_fails_cleanly() {
    let deep = "s(".repeat(20_000) + "z" + &")".repeat(20_000);
    let spec = write_tmp(
        "deep.obj",
        &format!("sorts nat;\nop z : -> nat ;\nop s : nat -> nat ;\neq {deep} = z ;"),
    );
    let out = algrec(&["spec", &spec]);
    // An error exit, not the abort (a signal, no code) of a stack
    // overflow.
    assert!(
        out.status.code().is_some_and(|code| code != 0),
        "{:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than 256"), "{stderr}");
}

#[test]
fn translate_command() {
    let program = write_tmp("win2.dl", "win(X) :- move(X, Y), not win(Y).");
    let facts = write_tmp("moves2.dl", "move(1, 2).");
    let out = algrec(&["translate", &program, "--pred", "win", &facts]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("def p$win ="));
    assert!(stdout.contains("query p$win;"));
}

#[test]
fn stable_command() {
    let program = write_tmp(
        "choice.dl",
        "p(X) :- d(X), not q(X).\nq(X) :- d(X), not p(X).",
    );
    let facts = write_tmp("d.dl", "d(1).");
    let out = algrec(&["stable", &program, &facts]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("% 2 stable model(s)"));
}

#[test]
fn eval_parameterized_valid_extended() {
    // The branching cap is part of the semantics name now: both the bare
    // form and `valid-extended:N` must parse.
    let program = write_tmp("vx.dl", "p(X) :- d(X), not q(X).\nq(X) :- d(X), not p(X).");
    let facts = write_tmp("vx_facts.dl", "d(1).");
    for semantics in ["valid-extended", "valid-extended:4"] {
        let out = algrec(&[
            "eval",
            &program,
            &facts,
            "--semantics",
            semantics,
            "--pred",
            "p",
        ]);
        assert!(out.status.success(), "{semantics}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("% unknown: p(1)"));
    }
}

#[test]
fn bad_semantics_names_list_the_valid_forms() {
    let program = write_tmp("sem.dl", "p(1).");
    for bad in ["valid-extended:x", "valid-extended:", "zen"] {
        let out = algrec(&["eval", &program, "--semantics", bad]);
        assert!(!out.status.success(), "`{bad}` should be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("valid-extended:32") || stderr.contains("valid-extended:<N>"),
            "error for `{bad}` should name the accepted forms: {stderr}"
        );
    }
}

#[test]
fn scenario_list_fails_on_an_unknown_name() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let out = algrec(&["scenario", "list", "--corpus", corpus, "-f", "nosuch"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no scenario named `nosuch`"), "{stderr}");
}

#[test]
fn serve_rejects_unbindable_address() {
    let out = algrec(&["serve", "--addr", "definitely-not-an-address"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("definitely-not-an-address"));
}

#[test]
fn error_paths() {
    assert!(!algrec(&[]).status.success());
    assert!(!algrec(&["frobnicate"]).status.success());
    assert!(!algrec(&["eval"]).status.success());
    assert!(!algrec(&["eval", "/nonexistent/x.dl"]).status.success());
    assert!(!algrec(&["translate", "x.dl"]).status.success()); // missing --pred
    let program = write_tmp("bad.dl", "win(X) :-");
    assert!(!algrec(&["eval", &program]).status.success());
    let withrule = write_tmp("rule-as-facts.dl", "p(X) :- q(X).");
    let prog = write_tmp("ok.dl", "a(1).");
    assert!(!algrec(&["eval", &prog, &withrule]).status.success());
    assert!(!algrec(&["eval", &prog, "--semantics", "zen"])
        .status
        .success());
}
