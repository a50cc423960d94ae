//! End-to-end golden test of `algrec serve`: spawn the real binary, drive
//! a scripted NDJSON session over TCP, and diff the reply transcript
//! against a committed golden file byte for byte. The same session piped
//! through `algrec repl` must print the same file. A second test checks
//! the serving-layer answers against cold `algrec eval` runs on the same
//! final database — the incremental session must be observationally
//! indistinguishable from from-scratch evaluation.
//!
//! Regenerate the golden transcript after an intentional protocol change
//! with `UPDATE_GOLDEN=1 cargo test --test serve_golden`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const SESSION: &str = include_str!("data/serve_session.ndjson");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/serve_session.golden"
);

/// Programs registered by the script (kept in sync with the .ndjson).
const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";
const WIN: &str = "win(X) :- e(X, Y), not win(Y).";
/// The `e` relation after the script's load + assert/retract deltas
/// (its last writes go to `move`, which the two programs do not read).
const FINAL_FACTS: &str = "e(1, 2).\ne(3, 4).\ne(4, 5).\ne(5, 5).";

/// Spawn `algrec serve` on an ephemeral port and return the bound
/// address parsed from its `% listening on …` banner.
fn spawn_server() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_algrec"))
        .arg("serve")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("server starts");
    let stdout = child.stdout.take().unwrap();
    let banner = BufReader::new(stdout)
        .lines()
        .next()
        .expect("server prints a banner")
        .unwrap();
    let addr = banner
        .strip_prefix("% listening on ")
        .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
        .to_string();
    (child, addr)
}

/// Send every request line of the scripted session, collecting one reply
/// line per request. The script ends in `shutdown`, so the server exits.
fn run_session(addr: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut incoming = BufReader::new(stream).lines();
    let mut replies = Vec::new();
    for line in SESSION.lines().filter(|l| !l.trim().is_empty()) {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        replies.push(incoming.next().expect("one reply per request").unwrap());
    }
    replies
}

#[test]
fn scripted_session_matches_golden_transcript() {
    let (mut child, addr) = spawn_server();
    let replies = run_session(&addr);
    child.wait().unwrap();
    let transcript = replies.join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &transcript).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden transcript exists");
    assert_eq!(
        transcript, golden,
        "server replies diverged from tests/data/serve_session.golden \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

#[test]
fn repl_pipe_prints_the_golden_transcript() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_algrec"))
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("repl starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(SESSION.as_bytes())
        .unwrap();
    let mut transcript = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut transcript)
        .unwrap();
    assert!(child.wait().unwrap().success());
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden transcript exists");
    assert_eq!(
        transcript, golden,
        "`algrec repl` replies diverged from tests/data/serve_session.golden"
    );
}

/// Run `algrec eval` cold on the final database and split its stdout into
/// certain fact lines and `% unknown:` facts.
fn cold_eval(program: &str, semantics: &str, pred: &str) -> (Vec<String>, Vec<String>) {
    let dir = std::env::temp_dir().join("algrec-serve-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let ppath = dir.join(format!("{pred}.dl"));
    let fpath = dir.join("facts.dl");
    std::fs::write(&ppath, program).unwrap();
    std::fs::write(&fpath, FINAL_FACTS).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_algrec"))
        .args([
            "eval",
            ppath.to_str().unwrap(),
            fpath.to_str().unwrap(),
            "--semantics",
            semantics,
            "--pred",
            pred,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut certain = Vec::new();
    let mut unknown = Vec::new();
    for line in stdout.lines() {
        if let Some(f) = line.strip_prefix("% unknown: ") {
            unknown.push(f.to_string());
        } else if !line.is_empty() {
            certain.push(line.to_string());
        }
    }
    (certain, unknown)
}

/// Extract the `certain`/`unknown` arrays from a query reply line.
fn reply_answer(reply: &str) -> (Vec<String>, Vec<String>) {
    let parsed = algrec::serve::json::parse(reply).unwrap();
    let strings = |key: &str| -> Vec<String> {
        let Some(algrec::serve::Json::Arr(items)) = parsed.get(key) else {
            panic!("no `{key}` array in {reply}");
        };
        items
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    (strings("certain"), strings("unknown"))
}

#[test]
fn served_answers_match_cold_eval() {
    let (mut child, addr) = spawn_server();
    let replies = run_session(&addr);
    child.wait().unwrap();
    // Reply index k answers request id k+1; ids 10 and 11 are the final
    // queries against the maintained views.
    let (tc_certain, tc_unknown) = reply_answer(&replies[9]);
    assert_eq!(cold_eval(TC, "stratified", "tc"), (tc_certain, tc_unknown));
    let (win_certain, win_unknown) = reply_answer(&replies[10]);
    assert_eq!(cold_eval(WIN, "valid", "win"), (win_certain, win_unknown));
    // The cyclic `e(5, 5)` move really does make the game three-valued,
    // so the equality above compared a non-trivial unknown set.
    let (_, win_unknown) = reply_answer(&replies[10]);
    assert!(!win_unknown.is_empty(), "expected unknown win facts");
}
