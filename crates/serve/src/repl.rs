//! The interactive session front end (`algrec repl`).
//!
//! Generic over its input/output streams so the same loop drives a
//! terminal, a piped script, and the unit tests. Commands:
//!
//! ```text
//! load <path>                         load a facts file into the database
//! view <name> [--semantics S] : <rules>   register a datalog view
//! viewfile <name> <path> [--semantics S]  …from a program file
//! algview <name> : <program>          register a core-algebra view
//! algviewfile <name> <path>
//! +fact(args)                         assert a fact
//! -fact(args)                         retract a fact
//! query <view> [pred]                 print a view (certain + unknown)
//! explain <view>                      print a view's query plan
//! stats [view]                        maintenance statistics
//! views | db | drop <view> | help | quit
//! ```
//!
//! Lines starting with `#` (or `%`) are comments. Every answer a view
//! prints is identical to what a cold `algrec eval --pred` run prints on
//! the same database.

use crate::protocol::parse_semantics;
use crate::session::{DeltaOutcome, QueryAnswer, ServeError, Session, ViewStats};
use algrec_datalog::Semantics;
use std::io::{BufRead, Write};

fn render_delta(out: &DeltaOutcome) -> String {
    let mut s = format!("applied {}/{} change(s)", out.applied, out.requested);
    for v in &out.views {
        s.push_str(&format!(
            "\n  {}: {}, changed {}, skipped {} ({} derivations)",
            v.view,
            v.status.as_str(),
            v.changed,
            v.skipped,
            v.stats.facts_inserted
        ));
        if let Some(e) = &v.error {
            s.push_str(&format!(" — {e}"));
        }
    }
    s
}

fn render_query(answer: &QueryAnswer) -> String {
    match answer {
        QueryAnswer::Datalog { certain, unknown } => {
            let mut lines = certain.clone();
            lines.extend(unknown.iter().map(|f| format!("% unknown: {f}")));
            lines.join("\n")
        }
        QueryAnswer::Algebra {
            query,
            well_defined,
            constants,
        } => {
            let mut lines = vec![query.clone()];
            for (name, value) in constants {
                lines.push(format!("% {name} = {value}"));
            }
            if !well_defined {
                lines.push("% result is three-valued (members marked `?` are undefined)".into());
            }
            lines.join("\n")
        }
    }
}

fn render_stats(stats: &[ViewStats]) -> String {
    let mut lines = Vec::new();
    for v in stats {
        lines.push(format!(
            "{}: {}, {}, {}",
            v.name, v.kind, v.semantics, v.strategy
        ));
        lines.push(format!(
            "  registration: iterations={} derivations={} materialized={} delta-rounds={}",
            v.registration.iterations,
            v.registration.facts_inserted,
            v.registration.facts_materialized,
            v.registration.deltas
        ));
        lines.push(format!(
            "  maintenance:  deltas={} strata-skipped={} rebuilds={} dirty={}",
            v.deltas_applied, v.strata_skipped, v.rebuilds, v.dirty
        ));
        if let Some(last) = &v.last {
            lines.push(format!(
                "  last:         iterations={} derivations={} materialized={} delta-rounds={}",
                last.iterations, last.facts_inserted, last.facts_materialized, last.deltas
            ));
        }
    }
    if lines.is_empty() {
        lines.push("no views registered".into());
    }
    lines.join("\n")
}

const HELP: &str = "commands:
  load <path>                              load a facts file
  view <name> [--semantics S] : <rules>    register a datalog view
  viewfile <name> <path> [--semantics S]   register from a program file
  algview <name> : <program>               register an algebra view
  algviewfile <name> <path>
  +fact(args) / -fact(args)                assert / retract a fact
  query <view> [pred]                      print a view
  explain <view>                           print a view's query plan
  stats [view]                             maintenance statistics
  views / db / drop <view> / help / quit";

/// Parse `name [--semantics S]` tokens for view registration.
fn view_head(tokens: &[&str]) -> Result<(String, Semantics), ServeError> {
    let mut name = None;
    let mut semantics = Semantics::Valid;
    let mut it = tokens.iter();
    while let Some(tok) = it.next() {
        if *tok == "--semantics" {
            let v = it
                .next()
                .ok_or_else(|| ServeError::BadRequest("--semantics needs a value".into()))?;
            semantics = parse_semantics(v).map_err(ServeError::BadRequest)?;
        } else if name.is_none() {
            name = Some(tok.to_string());
        } else {
            return Err(ServeError::BadRequest(format!("unexpected token `{tok}`")));
        }
    }
    let name = name.ok_or_else(|| ServeError::BadRequest("missing view name".into()))?;
    Ok((name, semantics))
}

fn read_file(path: &str) -> Result<String, ServeError> {
    std::fs::read_to_string(path).map_err(|e| ServeError::BadRequest(format!("{path}: {e}")))
}

/// Execute one REPL command. `Ok(None)` means quit.
fn step(session: &mut Session, line: &str) -> Result<Option<String>, ServeError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
        return Ok(Some(String::new()));
    }
    if let Some(fact) = line.strip_prefix('+') {
        return Ok(Some(render_delta(&session.assert_fact(fact)?)));
    }
    if let Some(fact) = line.strip_prefix('-') {
        return Ok(Some(render_delta(&session.retract_fact(fact)?)));
    }
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "quit" | "exit" => Ok(None),
        "help" => Ok(Some(HELP.to_string())),
        "load" => {
            if rest.is_empty() {
                return Err(ServeError::BadRequest("usage: load <path>".into()));
            }
            Ok(Some(render_delta(&session.load(&read_file(rest)?)?)))
        }
        "view" | "algview" => {
            let (head, body) = rest.split_once(" : ").ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "usage: {cmd} <name>{} : <program>",
                    if cmd == "view" {
                        " [--semantics S]"
                    } else {
                        ""
                    }
                ))
            })?;
            let tokens: Vec<&str> = head.split_whitespace().collect();
            let (name, semantics) = view_head(&tokens)?;
            let out = if cmd == "view" {
                session.register_datalog(&name, body, semantics)?
            } else {
                session.register_algebra(&name, body)?
            };
            Ok(Some(format!(
                "registered {name} ({}; {} derivations)",
                out.strategy, out.stats.facts_inserted
            )))
        }
        "viewfile" | "algviewfile" => {
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            let (path_tokens, head_tokens): (Vec<&str>, Vec<&str>) = {
                // Second positional token is the path.
                let mut head = Vec::new();
                let mut path = Vec::new();
                let mut positionals = 0;
                let mut it = tokens.iter().peekable();
                while let Some(tok) = it.next() {
                    if *tok == "--semantics" {
                        head.push(*tok);
                        if let Some(v) = it.next() {
                            head.push(*v);
                        }
                    } else {
                        positionals += 1;
                        if positionals == 2 {
                            path.push(*tok);
                        } else {
                            head.push(*tok);
                        }
                    }
                }
                (path, head)
            };
            let [path] = path_tokens.as_slice() else {
                return Err(ServeError::BadRequest(format!(
                    "usage: {cmd} <name> <path>{}",
                    if cmd == "viewfile" {
                        " [--semantics S]"
                    } else {
                        ""
                    }
                )));
            };
            let (name, semantics) = view_head(&head_tokens)?;
            let src = read_file(path)?;
            let out = if cmd == "viewfile" {
                session.register_datalog(&name, &src, semantics)?
            } else {
                session.register_algebra(&name, &src)?
            };
            Ok(Some(format!(
                "registered {name} ({}; {} derivations)",
                out.strategy, out.stats.facts_inserted
            )))
        }
        "query" => {
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            match tokens.as_slice() {
                [view] => Ok(Some(render_query(&session.query(view, None)?))),
                [view, pred] => Ok(Some(render_query(&session.query(view, Some(pred))?))),
                _ => Err(ServeError::BadRequest("usage: query <view> [pred]".into())),
            }
        }
        "explain" => {
            if rest.is_empty() || rest.contains(char::is_whitespace) {
                return Err(ServeError::BadRequest("usage: explain <view>".into()));
            }
            Ok(Some(session.explain(rest)?))
        }
        "stats" => {
            let name = (!rest.is_empty()).then_some(rest);
            Ok(Some(render_stats(&session.stats(name)?)))
        }
        "views" => {
            let views = session.view_names();
            if views.is_empty() {
                return Ok(Some("no views registered".into()));
            }
            Ok(Some(
                views
                    .into_iter()
                    .map(|(name, kind, semantics, strategy)| {
                        format!("{name}: {kind}, {semantics}, {strategy}")
                    })
                    .collect::<Vec<_>>()
                    .join("\n"),
            ))
        }
        "db" => {
            let rels = session.db_summary();
            if rels.is_empty() {
                return Ok(Some("database is empty".into()));
            }
            Ok(Some(
                rels.into_iter()
                    .map(|(name, members)| format!("{name}: {members} member(s)"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            ))
        }
        "drop" => {
            session.unregister(rest)?;
            Ok(Some(format!("dropped {rest}")))
        }
        other => Err(ServeError::BadRequest(format!(
            "unknown command `{other}` (try `help`)"
        ))),
    }
}

/// Drive the REPL until end of input or `quit`. With `prompt`, an
/// `algrec> ` prompt is written before each read (interactive use).
pub fn run_repl(
    session: &mut Session,
    input: impl BufRead,
    mut out: impl Write,
    prompt: bool,
) -> std::io::Result<()> {
    if prompt {
        write!(out, "algrec> ")?;
        out.flush()?;
    }
    for line in input.lines() {
        let line = line?;
        match step(session, &line) {
            Ok(Some(reply)) => {
                if !reply.is_empty() {
                    writeln!(out, "{reply}")?;
                }
            }
            Ok(None) => break,
            Err(e) => writeln!(out, "error: {e}")?,
        }
        if prompt {
            write!(out, "algrec> ")?;
            out.flush()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_value::Budget;
    use std::io::Cursor;

    fn run(script: &str) -> String {
        let mut session = Session::new(Budget::LARGE);
        let mut out = Vec::new();
        run_repl(&mut session, Cursor::new(script), &mut out, false).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn scripted_session_maintains_views() {
        let out = run(concat!(
            "# transitive closure over a growing graph\n",
            "+e(1, 2)\n",
            "+e(2, 3)\n",
            "view paths : tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).\n",
            "+e(3, 4)\n",
            "query paths tc\n",
            "-e(2, 3)\n",
            "query paths tc\n",
            "views\n",
            "quit\n",
            "query paths tc\n", // never reached
        ));
        assert!(out.contains("registered paths (stratified-incremental"));
        assert!(out.contains("tc(1, 4)."), "{out}");
        let after = out.split("views\n").next().unwrap_or(&out);
        let _ = after;
        // After the retraction the long paths are gone.
        let tail = out.rsplit("applied 1/1").next().unwrap();
        assert!(!tail.contains("tc(1, 4)."), "{out}");
        assert!(tail.contains("tc(3, 4)."), "{out}");
        assert!(out.contains("paths: datalog, valid, stratified-incremental"));
        // `quit` stops the loop: exactly two query outputs.
        assert_eq!(out.matches("tc(3, 4).").count(), 2, "{out}");
    }

    #[test]
    fn reports_errors_and_continues() {
        let out = run(concat!(
            "bogus command\n",
            "+not a fact\n",
            "view x : p(X) :- e(X), not q(X). q(X) :- e(X), not p(X).\n",
            "stats\n",
        ));
        assert!(out.contains("error: unknown command `bogus`"), "{out}");
        assert!(out.contains("error:"), "{out}");
        // The non-stratified view still registers, on the alternating
        // maintainer.
        assert!(
            out.contains("registered x (incremental-alternating"),
            "{out}"
        );
        assert!(
            out.contains("x: datalog, valid, incremental-alternating"),
            "{out}"
        );
    }

    #[test]
    fn semantics_flag_reaches_registration() {
        let out = run(concat!(
            "+e(1, 1)\n",
            "view v --semantics valid-extended:4 : p(X) :- e(X, X).\n",
            "stats v\n",
        ));
        assert!(out.contains("v: datalog, valid-extended:4"), "{out}");
    }
}
