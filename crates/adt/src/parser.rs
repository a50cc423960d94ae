//! A concrete syntax for algebraic specifications, in the OBJ tradition
//! the paper's notation descends from.
//!
//! ```text
//! spec      := item*
//! item      := "sorts" ident+ ";"
//!            | "op" ident ":" [sort ("," sort)*] "->" sort ";"
//!            | "var" ident ":" sort ";"
//!            | "eq" term "=" term ";"
//!            | "ceq" term "=" term "if" cond ("/\" cond)* ";"
//! cond      := term "=" term | term "!=" term
//! term      := ident | ident "(" term ("," term)* ")"
//! comment   := "%" … end of line
//! ```
//!
//! Identifiers resolve against the declared variables first, then the
//! operations. Disequations in conditions (`!=`) are the paper's negation
//! (Section 2.2).
//!
//! ```
//! use algrec_adt::parser::parse_spec;
//! let spec = parse_spec(
//!     "sorts s;
//!      op a : -> s;  op b : -> s;  op c : -> s;
//!      ceq a = c if a != b;    % Example 2 of the paper
//!      ceq a = b if a != c;",
//! ).unwrap();
//! assert!(spec.uses_negation());
//! ```

use crate::equation::{Condition, ConditionalEquation, Specification};
use crate::signature::{OpDecl, Signature};
use crate::term::Term;
use std::collections::BTreeMap;
use std::fmt;

/// A parse failure, with byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecParseError {
    /// Byte offset in the source.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for SpecParseError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Semi,
    Colon,
    Arrow,
    Eq,
    Neq,
    AndAnd, // the /\ conjunction
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, SpecParseError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < b.len() {
        let start = pos;
        match b[pos] {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'%' => {
                while pos < b.len() && b[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                out.push((start, Tok::LParen));
                pos += 1;
            }
            b')' => {
                out.push((start, Tok::RParen));
                pos += 1;
            }
            b',' => {
                out.push((start, Tok::Comma));
                pos += 1;
            }
            b';' => {
                out.push((start, Tok::Semi));
                pos += 1;
            }
            b':' => {
                out.push((start, Tok::Colon));
                pos += 1;
            }
            b'=' => {
                out.push((start, Tok::Eq));
                pos += 1;
            }
            b'!' => {
                if b.get(pos + 1) == Some(&b'=') {
                    out.push((start, Tok::Neq));
                    pos += 2;
                } else {
                    return Err(SpecParseError {
                        offset: pos,
                        message: "expected `!=`".into(),
                    });
                }
            }
            b'-' => {
                if b.get(pos + 1) == Some(&b'>') {
                    out.push((start, Tok::Arrow));
                    pos += 2;
                } else {
                    return Err(SpecParseError {
                        offset: pos,
                        message: "expected `->`".into(),
                    });
                }
            }
            b'/' => {
                if b.get(pos + 1) == Some(&b'\\') {
                    out.push((start, Tok::AndAnd));
                    pos += 2;
                } else {
                    return Err(SpecParseError {
                        offset: pos,
                        message: "expected `/\\`".into(),
                    });
                }
            }
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let s = pos;
                while pos < b.len() && (b[pos].is_ascii_alphanumeric() || b[pos] == b'_') {
                    pos += 1;
                }
                out.push((start, Tok::Ident(src[s..pos].to_string())));
            }
            other => {
                return Err(SpecParseError {
                    offset: pos,
                    message: format!("unexpected character `{}`", other as char),
                })
            }
        }
    }
    Ok(out)
}

/// How deeply terms may nest. The parser recurses once per nesting
/// level, so without a bound one short line of `s(`s overflows the stack
/// of the thread that parses it.
const MAX_DEPTH: usize = 256;

struct Parser {
    toks: Vec<(usize, Tok)>,
    idx: usize,
    /// Argument lists open around the current token.
    depth: usize,
    sig: Signature,
    vars: BTreeMap<String, String>, // name -> sort
    eqs: Vec<ConditionalEquation>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.idx).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.idx).map(|(_, t)| t.clone());
        self.idx += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> SpecParseError {
        SpecParseError {
            offset: self.toks.get(self.idx).map_or(usize::MAX, |(o, _)| *o),
            message: message.into(),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, SpecParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), SpecParseError> {
        if self.peek() == Some(tok) {
            self.idx += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn parse_term(&mut self) -> Result<Term, SpecParseError> {
        let name = self.ident("a term")?;
        if self.peek() == Some(&Tok::LParen) {
            if self.depth == MAX_DEPTH {
                return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
            }
            self.idx += 1;
            self.depth += 1;
            let mut args = Vec::new();
            loop {
                args.push(self.parse_term()?);
                match self.bump() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    _ => return Err(self.err("expected `,` or `)` in term")),
                }
            }
            self.depth -= 1;
            Ok(Term::Op(name, args))
        } else if let Some(sort) = self.vars.get(&name) {
            Ok(Term::Var(name.clone(), sort.clone()))
        } else {
            Ok(Term::cons(name))
        }
    }

    fn parse_condition(&mut self) -> Result<Condition, SpecParseError> {
        let l = self.parse_term()?;
        match self.bump() {
            Some(Tok::Eq) => Ok(Condition::Eq(l, self.parse_term()?)),
            Some(Tok::Neq) => Ok(Condition::Neq(l, self.parse_term()?)),
            _ => Err(self.err("expected `=` or `!=` in condition")),
        }
    }

    fn parse_item(&mut self) -> Result<(), SpecParseError> {
        let kw = self.ident("`sorts`, `op`, `var`, `eq` or `ceq`")?;
        match kw.as_str() {
            "sorts" => {
                loop {
                    let s = self.ident("a sort name")?;
                    self.sig.add_sort(s);
                    match self.peek() {
                        Some(Tok::Semi) => {
                            self.idx += 1;
                            break;
                        }
                        Some(Tok::Ident(_)) => continue,
                        _ => return Err(self.err("expected a sort name or `;`")),
                    }
                }
                Ok(())
            }
            "op" => {
                let name = self.ident("an operation name")?;
                self.expect(&Tok::Colon, "`:`")?;
                let mut args = Vec::new();
                while let Some(Tok::Ident(_)) = self.peek() {
                    args.push(self.ident("an argument sort")?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.idx += 1;
                    }
                }
                self.expect(&Tok::Arrow, "`->`")?;
                let result = self.ident("a result sort")?;
                self.expect(&Tok::Semi, "`;`")?;
                if let Err(e) = self.sig.add_op(OpDecl::new(name, args, result)) {
                    return Err(self.err(e.to_string()));
                }
                Ok(())
            }
            "var" => {
                let name = self.ident("a variable name")?;
                self.expect(&Tok::Colon, "`:`")?;
                let sort = self.ident("a sort")?;
                self.expect(&Tok::Semi, "`;`")?;
                self.vars.insert(name, sort);
                Ok(())
            }
            "eq" | "ceq" => {
                let lhs = self.parse_term()?;
                self.expect(&Tok::Eq, "`=`")?;
                let rhs = self.parse_term()?;
                let mut conditions = Vec::new();
                if kw == "ceq" {
                    match self.bump() {
                        Some(Tok::Ident(w)) if w == "if" => {}
                        _ => return Err(self.err("expected `if` after a `ceq` conclusion")),
                    }
                    loop {
                        conditions.push(self.parse_condition()?);
                        if self.peek() == Some(&Tok::AndAnd) {
                            self.idx += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::Semi, "`;`")?;
                self.eqs
                    .push(ConditionalEquation::when(conditions, lhs, rhs));
                Ok(())
            }
            other => Err(self.err(format!("unknown item `{other}`"))),
        }
    }
}

/// Parse a specification.
pub fn parse_spec(src: &str) -> Result<Specification, SpecParseError> {
    let mut p = Parser {
        toks: lex(src)?,
        idx: 0,
        depth: 0,
        sig: Signature::new(),
        vars: BTreeMap::new(),
        eqs: Vec::new(),
    };
    while p.peek().is_some() {
        p.parse_item()?;
    }
    let offset = p.toks.last().map_or(0, |(o, _)| *o);
    Specification::new(p.sig, p.eqs).map_err(|e| SpecParseError {
        offset,
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valid_interp::ValidInterpretation;
    use algrec_value::{Budget, Truth};

    #[test]
    fn parses_example2_and_matches_builtin() {
        let spec = parse_spec(
            "sorts s;
             op a : -> s;  op b : -> s;  op c : -> s;
             ceq a = c if a != b;
             ceq a = b if a != c;",
        )
        .unwrap();
        assert_eq!(spec, crate::specs::example2_spec());
    }

    #[test]
    fn parses_nat_style_spec() {
        let spec = parse_spec(
            "sorts bool nat;
             op tt : -> bool;
             op ff : -> bool;
             op zero : -> nat;
             op succ : nat -> nat;
             op iszero : nat -> bool;
             var n : nat;
             eq iszero(zero) = tt;
             ceq iszero(n) = ff if iszero(n) != tt;",
        )
        .unwrap();
        assert_eq!(spec.signature.sorts().len(), 2);
        assert!(spec.uses_negation());
        let vi = ValidInterpretation::compute(&spec, 3, Budget::SMALL).unwrap();
        assert!(vi.is_total());
        assert_eq!(
            vi.eq_truth(
                &Term::op("iszero", [Term::op("succ", [Term::cons("zero")])]),
                &Term::cons("ff")
            ),
            Truth::True
        );
    }

    #[test]
    fn multi_argument_ops_and_conjunctions() {
        let spec = parse_spec(
            "sorts s;
             op a : -> s;  op b : -> s;  op c : -> s;
             op f : s, s -> s;
             var x : s;  var y : s;
             ceq f(x, y) = a if x != b /\\ y != c;",
        )
        .unwrap();
        let eq = &spec.equations[0];
        assert_eq!(eq.conditions.len(), 2);
        assert_eq!(eq.lhs.to_string(), "f(x, y)");
    }

    #[test]
    fn variables_resolve_by_declaration() {
        let spec = parse_spec(
            "sorts s;
             op k : -> s;
             var x : s;
             eq x = k;",
        )
        .unwrap();
        assert_eq!(spec.equations[0].lhs, Term::var("x", "s"),);
        // undeclared names become constants — and then fail sorting
        let bad = parse_spec(
            "sorts s;
             op k : -> s;
             eq y = k;",
        );
        assert!(bad.is_err()); // `y` is an unknown operation
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse_spec("sorts ;").is_err());
        assert!(parse_spec("op f -> s;").is_err());
        assert!(parse_spec("eq a = ;").is_err());
        assert!(parse_spec("ceq a = b;").is_err()); // missing if
        assert!(parse_spec("frob x;").is_err());
        assert!(parse_spec("eq a ! b;").is_err());
        assert!(parse_spec("op f : s / t -> s;").is_err());
        let e = parse_spec("sorts s; op a : -> s; eq a = a").unwrap_err();
        assert!(e.to_string().contains("expected `;`"));
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_an_overflow() {
        let nested = |n: usize| {
            format!(
                "sorts nat; op z : -> nat; op s : nat -> nat; eq {}z{} = z;",
                "s(".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(parse_spec(&nested(MAX_DEPTH)).is_ok());
        let e = parse_spec(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.to_string().contains("nesting deeper than 256"), "{e}");
        let e = parse_spec(&nested(20_000)).unwrap_err();
        assert!(e.to_string().contains("nesting deeper than 256"), "{e}");
    }

    #[test]
    fn comments_ignored() {
        let spec =
            parse_spec("% a comment\nsorts s; % trailing\nop a : -> s;\neq a = a; % done").unwrap();
        assert_eq!(spec.equations.len(), 1);
    }
}
