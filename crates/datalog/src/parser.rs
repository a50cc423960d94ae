//! A concrete syntax for deductive programs.
//!
//! The grammar is conventional Datalog-with-negation, extended with the
//! interpreted functions the paper allows on the domains:
//!
//! ```text
//! program  := (rule)*
//! rule     := atom "."  |  atom ":-" literal ("," literal)* "."
//! literal  := "not" atom | atom | expr cmp expr
//! cmp      := "=" | "!=" | "<" | "<=" | ">" | ">="
//! atom     := lident "(" expr ("," expr)* ")"
//! expr     := UIdent                 -- variable (uppercase / '_' start)
//!           | integer | "true" | "false"
//!           | "'" chars "'"          -- quoted string constant
//!           | lident                 -- bare string constant
//!           | fname "(" expr* ")"    -- succ/add/sub/mul/projK/first/second
//!           | "[" expr ("," expr)* "]"   -- tuple
//! comment  := "%" … end of line
//! ```
//!
//! Example (the paper's WIN/MOVE game, Section 3.2):
//!
//! ```
//! use algrec_datalog::parser::parse_program;
//! let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
//! assert_eq!(p.rules.len(), 1);
//! ```

use crate::ast::{Atom, CmpOp, Expr, Func, Literal, Program, Rule};
use algrec_value::Value;
use std::fmt;

/// A parse failure, with position information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    LIdent(String),
    UIdent(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Dot,
    ColonDash,
    Cmp(CmpOp),
    Not,
    True,
    False,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'%' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn next(&mut self) -> Result<Option<(usize, Tok)>, ParseError> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(None);
        }
        let start = self.pos;
        let c = self.src[self.pos];
        let tok = match c {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'[' => {
                self.pos += 1;
                Tok::LBracket
            }
            b']' => {
                self.pos += 1;
                Tok::RBracket
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b'.' => {
                self.pos += 1;
                Tok::Dot
            }
            b':' => {
                if self.src.get(self.pos + 1) == Some(&b'-') {
                    self.pos += 2;
                    Tok::ColonDash
                } else {
                    return Err(self.err("expected `:-`"));
                }
            }
            b'=' => {
                self.pos += 1;
                Tok::Cmp(CmpOp::Eq)
            }
            b'!' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Cmp(CmpOp::Ne)
                } else {
                    return Err(self.err("expected `!=`"));
                }
            }
            b'<' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Cmp(CmpOp::Le)
                } else {
                    self.pos += 1;
                    Tok::Cmp(CmpOp::Lt)
                }
            }
            b'>' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Cmp(CmpOp::Ge)
                } else {
                    self.pos += 1;
                    Tok::Cmp(CmpOp::Gt)
                }
            }
            b'\'' => {
                self.pos += 1;
                let s = self.pos;
                while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                    self.pos += 1;
                }
                if self.pos >= self.src.len() {
                    return Err(self.err("unterminated string literal"));
                }
                let text = std::str::from_utf8(&self.src[s..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?
                    .to_string();
                self.pos += 1;
                Tok::Str(text)
            }
            b'-' | b'0'..=b'9' => {
                let s = self.pos;
                self.pos += 1;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[s..self.pos]).unwrap();
                let n: i64 = text
                    .parse()
                    .map_err(|_| self.err(format!("bad integer `{text}`")))?;
                Tok::Int(n)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let s = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric()
                        || self.src[self.pos] == b'_'
                        || self.src[self.pos] == b'$')
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[s..self.pos]).unwrap();
                match text {
                    "not" => Tok::Not,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    _ if c.is_ascii_uppercase() || c == b'_' => Tok::UIdent(text.to_string()),
                    _ => Tok::LIdent(text.to_string()),
                }
            }
            other => return Err(self.err(format!("unexpected character `{}`", other as char))),
        };
        Ok(Some((start, tok)))
    }
}

/// How deeply expressions may nest. The parser recurses once per level,
/// so without a bound one short line of `succ(`s overflows the stack of
/// the thread that parses it.
const MAX_DEPTH: usize = 256;

struct Parser {
    toks: Vec<(usize, Tok)>,
    idx: usize,
    /// Nested expressions open around the current token.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        while let Some(t) = lexer.next()? {
            toks.push(t);
        }
        Ok(Parser {
            toks,
            idx: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.idx).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.idx).map_or(usize::MAX, |(o, _)| *o)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.idx).map(|(_, t)| t.clone());
        self.idx += 1;
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.idx += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn func_by_name(name: &str) -> Option<Func> {
        match name {
            "succ" => Some(Func::Succ),
            "add" => Some(Func::Add),
            "sub" => Some(Func::Sub),
            "mul" => Some(Func::Mul),
            "concat" => Some(Func::Concat),
            "first" => Some(Func::Proj(0)),
            "second" => Some(Func::Proj(1)),
            _ => name
                .strip_prefix("proj")
                .and_then(|k| k.parse::<usize>().ok())
                .map(Func::Proj),
        }
    }

    /// One expression, a nesting level deeper; past [`MAX_DEPTH`] an
    /// error. The depth is restored on failure too, because
    /// `parse_literal` backtracks over a failed atom.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let e = self.expr();
        self.depth -= 1;
        e
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::UIdent(v)) => Ok(Expr::Var(v)),
            Some(Tok::Int(n)) => Ok(Expr::Lit(Value::Int(n))),
            Some(Tok::True) => Ok(Expr::Lit(Value::Bool(true))),
            Some(Tok::False) => Ok(Expr::Lit(Value::Bool(false))),
            Some(Tok::Str(s)) => Ok(Expr::Lit(Value::str(s))),
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if self.peek() == Some(&Tok::RBracket) {
                    self.idx += 1;
                    return Ok(Expr::Tuple(items));
                }
                loop {
                    items.push(self.parse_expr()?);
                    match self.bump() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBracket) => break,
                        _ => return Err(self.err("expected `,` or `]` in tuple")),
                    }
                }
                Ok(Expr::Tuple(items))
            }
            Some(Tok::LIdent(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    let func = Self::func_by_name(&name)
                        .ok_or_else(|| self.err(format!("unknown function `{name}`")))?;
                    self.idx += 1; // (
                    let mut args = Vec::new();
                    if self.peek() == Some(&Tok::RParen) {
                        self.idx += 1;
                    } else {
                        loop {
                            args.push(self.parse_expr()?);
                            match self.bump() {
                                Some(Tok::Comma) => continue,
                                Some(Tok::RParen) => break,
                                _ => return Err(self.err("expected `,` or `)` in call")),
                            }
                        }
                    }
                    if args.len() != func.arity() {
                        return Err(self.err(format!(
                            "function `{name}` expects {} arguments, got {}",
                            func.arity(),
                            args.len()
                        )));
                    }
                    Ok(Expr::App(func, args))
                } else {
                    // bare lowercase identifier: a string constant
                    Ok(Expr::Lit(Value::str(name)))
                }
            }
            _ => Err(self.err("expected an expression")),
        }
    }

    fn parse_atom(&mut self) -> Result<Atom, ParseError> {
        let name = match self.bump() {
            Some(Tok::LIdent(name)) => name,
            _ => return Err(self.err("expected a predicate name")),
        };
        self.expect(&Tok::LParen, "`(` after predicate name")?;
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.idx += 1;
            return Ok(Atom::new(name, args));
        }
        loop {
            args.push(self.parse_expr()?);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(self.err("expected `,` or `)` in atom")),
            }
        }
        Ok(Atom::new(name, args))
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        if self.peek() == Some(&Tok::Not) {
            self.idx += 1;
            return Ok(Literal::Neg(self.parse_atom()?));
        }
        // Could be an atom (lident followed by lparen and then a full
        // argument list ending before a cmp) or a comparison. Parse an
        // expression first; if the next token is a comparison operator it
        // was a comparison, otherwise re-parse as an atom.
        let save = self.idx;
        // Try atom when shape is lident(… ) not followed by cmp.
        if matches!(self.peek(), Some(Tok::LIdent(_))) {
            if let Ok(atom) = self.try_atom() {
                if !matches!(self.peek(), Some(Tok::Cmp(_))) {
                    return Ok(Literal::Pos(atom));
                }
                // It parsed as an atom but a comparison follows (e.g.
                // `first(X) = Y`): rewind and treat as expression.
                self.idx = save;
            } else {
                self.idx = save;
            }
        }
        let lhs = self.parse_expr()?;
        match self.bump() {
            Some(Tok::Cmp(op)) => {
                let rhs = self.parse_expr()?;
                Ok(Literal::Cmp(op, lhs, rhs))
            }
            _ => Err(self.err("expected a comparison operator")),
        }
    }

    fn try_atom(&mut self) -> Result<Atom, ParseError> {
        let save = self.idx;
        match self.parse_atom() {
            Ok(a) => Ok(a),
            Err(e) => {
                self.idx = save;
                Err(e)
            }
        }
    }

    fn parse_rule(&mut self) -> Result<Rule, ParseError> {
        let head = self.parse_atom()?;
        match self.bump() {
            Some(Tok::Dot) => Ok(Rule::new(head, [])),
            Some(Tok::ColonDash) => {
                let mut body = Vec::new();
                loop {
                    body.push(self.parse_literal()?);
                    match self.bump() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::Dot) => break,
                        _ => return Err(self.err("expected `,` or `.` after literal")),
                    }
                }
                Ok(Rule::new(head, body))
            }
            _ => Err(self.err("expected `.` or `:-` after rule head")),
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        while self.peek().is_some() {
            program.push(self.parse_rule()?);
        }
        Ok(program)
    }
}

/// Parse a whole program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    Parser::new(src)?.parse_program()
}

/// Parse a single rule.
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src)?;
    let rule = p.parse_rule()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after rule"));
    }
    Ok(rule)
}

/// Parse a single expression (useful for constructing query arguments).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.parse_expr()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_facts_and_rules() {
        let p = parse_program(
            "% transitive closure\n\
             edge(1, 2).\n\
             edge(2, 3).\n\
             tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 4);
        assert_eq!(p.rules[0].to_string(), "edge(1, 2).");
        assert_eq!(p.rules[3].to_string(), "tc(X, Z) :- tc(X, Y), edge(Y, Z).");
    }

    #[test]
    fn parses_negation_and_comparisons() {
        let p = parse_program(
            "win(X) :- move(X, Y), not win(Y).\n\
             small(X) :- n(X), X < 10, X != 5.\n",
        )
        .unwrap();
        assert!(p.has_negation());
        assert_eq!(p.rules[1].to_string(), "small(X) :- n(X), X < 10, X != 5.");
    }

    #[test]
    fn parses_functions_and_binders() {
        let r = parse_rule("next(Y) :- n(X), Y = succ(X).").unwrap();
        assert_eq!(r.to_string(), "next(Y) :- n(X), Y = succ(X).");
        let r2 = parse_rule("s(Y) :- p(X), Y = add(X, 2).").unwrap();
        assert!(r2.to_string().contains("add(X, 2)"));
        let r3 = parse_rule("f(Y) :- p(X), Y = first(X).").unwrap();
        assert!(r3.to_string().contains("proj0(X)"));
    }

    #[test]
    fn parses_tuples_and_strings() {
        let r = parse_rule("pair([X, Y]) :- e(X, Y), X != 'hello world'.").unwrap();
        assert_eq!(r.to_string(), "pair([X, Y]) :- e(X, Y), X != hello world.");
        let r2 = parse_rule("q(a) :- p(b).").unwrap();
        assert_eq!(r2.head.args[0], Expr::Lit(Value::str("a")));
    }

    #[test]
    fn parses_booleans_and_negative_ints() {
        let r = parse_rule("q(true) :- p(-3).").unwrap();
        assert_eq!(r.head.args[0], Expr::Lit(Value::Bool(true)));
        assert_eq!(r.body[0], Literal::Pos(Atom::new("p", [Expr::int(-3)])));
    }

    #[test]
    fn comparison_on_function_call_lhs() {
        // `first(X) = Y` must parse as a comparison, not an atom named first.
        let r = parse_rule("q(Y) :- p(X), first(X) = Y.").unwrap();
        assert!(matches!(&r.body[1], Literal::Cmp(CmpOp::Eq, _, _)));
    }

    #[test]
    fn empty_tuple_and_zero_arity() {
        let r = parse_rule("unit([]) :- p(X).").unwrap();
        assert_eq!(r.head.args[0], Expr::Tuple(vec![]));
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse_program("q(X) :- ").is_err());
        assert!(parse_program("q(X").is_err());
        assert!(parse_program("q(X) :- frobnicate(X) = 3.").is_err()); // unknown fn? no: atom then cmp → rewind → unknown function
        assert!(parse_program("1234abc").is_err());
        assert!(parse_program("q(X) :- X < .").is_err());
        let e = parse_program("q('unterminated").unwrap_err();
        assert!(e.to_string().contains("unterminated"));
    }

    #[test]
    fn round_trip_display_parse() {
        let src = "win(X) :- move(X, Y), not win(Y).";
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(&p1.to_string()).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn parse_expr_entry_point() {
        assert_eq!(
            parse_expr("succ(3)").unwrap(),
            Expr::App(Func::Succ, vec![Expr::int(3)])
        );
        assert!(parse_expr("succ(3) extra").is_err());
    }
}
