//! A concrete syntax for algebra programs.
//!
//! ```text
//! program := def* "query" expr ";"
//! def     := "def" name [ "(" name ("," name)* ")" ] "=" expr ";"
//! expr    := term ("union" term)*
//! term    := prod ("-" prod)*                 -- difference, left assoc
//! prod    := atom ("*" atom)*                 -- product, binds tighter
//! atom    := name [ "(" expr ("," expr)* ")" ]
//!          | "{" [value ("," value)*] "}"     -- set literal
//!          | "select" "(" expr "," fexpr ")"
//!          | "map" "(" expr "," fexpr ")"
//!          | "ifp" "(" name "," expr ")"
//!          | "(" expr ")"
//! fexpr   := fand ("or" fand)*
//! fand    := fnot ("and" fnot)*
//! fnot    := "not" fnot | fcmp
//! fcmp    := fatom [ ("="|"!="|"<"|"<="|">"|">=") fatom ]
//! fatom   := ("x" | literal | "[" fexpr,* "]" | fname "(" fexpr,* ")"
//!            | "(" fexpr ")") (".":INT)*      -- postfix projection
//! value   := INT | "'" chars "'" | "true" | "false"
//!          | "[" value,* "]" | "{" value,* "}" | bare-ident (string)
//! ```
//!
//! Example — the WIN equation of Section 3.2:
//!
//! ```
//! use algrec_core::parser::parse_program;
//! let p = parse_program(
//!     "def win = map(move - (map(move, x.0) * win), x.0); query win;"
//! ).unwrap();
//! assert_eq!(p.defs.len(), 1);
//! ```

use crate::expr::{AlgExpr, CmpOp, FuncExpr, FuncOp};
use crate::program::{AlgProgram, OpDef};
use crate::CoreError;
use algrec_value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A parse failure with byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset in the source.
    pub offset: usize,
    /// Description.
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
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Assign,
    Minus,
    Star,
    Dot,
    Cmp(CmpOp),
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < b.len() {
        let start = pos;
        match b[pos] {
            b' ' | b'\t' | b'\r' | b'\n' => {
                pos += 1;
                continue;
            }
            b'%' => {
                while pos < b.len() && b[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            b'(' => {
                out.push((start, Tok::LParen));
                pos += 1;
            }
            b')' => {
                out.push((start, Tok::RParen));
                pos += 1;
            }
            b'{' => {
                out.push((start, Tok::LBrace));
                pos += 1;
            }
            b'}' => {
                out.push((start, Tok::RBrace));
                pos += 1;
            }
            b'[' => {
                out.push((start, Tok::LBracket));
                pos += 1;
            }
            b']' => {
                out.push((start, Tok::RBracket));
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
            b'*' => {
                out.push((start, Tok::Star));
                pos += 1;
            }
            b'.' => {
                out.push((start, Tok::Dot));
                pos += 1;
            }
            b'=' => {
                out.push((start, Tok::Assign));
                pos += 1;
            }
            b'!' => {
                if b.get(pos + 1) == Some(&b'=') {
                    out.push((start, Tok::Cmp(CmpOp::Ne)));
                    pos += 2;
                } else {
                    return Err(ParseError {
                        offset: pos,
                        message: "expected `!=`".into(),
                    });
                }
            }
            b'<' => {
                if b.get(pos + 1) == Some(&b'=') {
                    out.push((start, Tok::Cmp(CmpOp::Le)));
                    pos += 2;
                } else {
                    out.push((start, Tok::Cmp(CmpOp::Lt)));
                    pos += 1;
                }
            }
            b'>' => {
                if b.get(pos + 1) == Some(&b'=') {
                    out.push((start, Tok::Cmp(CmpOp::Ge)));
                    pos += 2;
                } else {
                    out.push((start, Tok::Cmp(CmpOp::Gt)));
                    pos += 1;
                }
            }
            b'\'' => {
                pos += 1;
                let s = pos;
                while pos < b.len() && b[pos] != b'\'' {
                    pos += 1;
                }
                if pos >= b.len() {
                    return Err(ParseError {
                        offset: start,
                        message: "unterminated string literal".into(),
                    });
                }
                out.push((
                    start,
                    Tok::Str(String::from_utf8_lossy(&b[s..pos]).into_owned()),
                ));
                pos += 1;
            }
            b'-' => {
                // negative integer literal if directly followed by digits
                if b.get(pos + 1).is_some_and(u8::is_ascii_digit) {
                    let s = pos;
                    pos += 1;
                    while pos < b.len() && b[pos].is_ascii_digit() {
                        pos += 1;
                    }
                    let text = &src[s..pos];
                    out.push((
                        start,
                        Tok::Int(text.parse().map_err(|_| ParseError {
                            offset: s,
                            message: format!("bad integer `{text}`"),
                        })?),
                    ));
                } else {
                    out.push((start, Tok::Minus));
                    pos += 1;
                }
            }
            b'0'..=b'9' => {
                let s = pos;
                while pos < b.len() && b[pos].is_ascii_digit() {
                    pos += 1;
                }
                let text = &src[s..pos];
                out.push((
                    start,
                    Tok::Int(text.parse().map_err(|_| ParseError {
                        offset: s,
                        message: format!("bad integer `{text}`"),
                    })?),
                ));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let s = pos;
                while pos < b.len()
                    && (b[pos].is_ascii_alphanumeric() || b[pos] == b'_' || b[pos] == b'$')
                {
                    pos += 1;
                }
                out.push((start, Tok::Ident(src[s..pos].to_string())));
            }
            other => {
                return Err(ParseError {
                    offset: pos,
                    message: format!("unexpected character `{}`", other as char),
                })
            }
        }
    }
    Ok(out)
}

/// How deeply expressions and values may nest, and how tall an operator
/// chain may grow. The parser recurses once per nesting level and every
/// consumer of the tree once per chain link, so without a bound one short
/// line of `(`s or of `e union e union …` overflows the stack of the
/// thread that parses or evaluates it.
const MAX_DEPTH: usize = 256;

/// The height of an expression tree: how deep its consumers recurse.
fn alg_height(e: &AlgExpr) -> usize {
    1 + match e {
        AlgExpr::Name(_) | AlgExpr::Lit(_) => 0,
        AlgExpr::Union(a, b) | AlgExpr::Diff(a, b) | AlgExpr::Product(a, b) => {
            alg_height(a).max(alg_height(b))
        }
        AlgExpr::Select(a, f) | AlgExpr::Map(a, f) => alg_height(a).max(func_height(f)),
        AlgExpr::Ifp { body, .. } => alg_height(body),
        AlgExpr::Apply(_, args) => args.iter().map(alg_height).max().unwrap_or(0),
    }
}

/// [`alg_height`] for element expressions.
fn func_height(f: &FuncExpr) -> usize {
    1 + match f {
        FuncExpr::Elem | FuncExpr::Lit(_) => 0,
        FuncExpr::Tuple(items) | FuncExpr::App(_, items) => {
            items.iter().map(func_height).max().unwrap_or(0)
        }
        FuncExpr::Proj(a, _) | FuncExpr::Not(a) => func_height(a),
        FuncExpr::Cmp(_, a, b) | FuncExpr::And(a, b) | FuncExpr::Or(a, b) => {
            func_height(a).max(func_height(b))
        }
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    idx: usize,
    /// Nested expressions and values open around the current token.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            idx: 0,
            depth: 0,
        })
    }

    /// Run `f` one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T, ParseError>) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_DEPTH}"))
    }

    /// A left-associative chain `operand (op operand)*`, refusing to grow
    /// taller than [`MAX_DEPTH`].
    fn chain<T>(
        &mut self,
        op: &Tok,
        operand: fn(&mut Self) -> Result<T, ParseError>,
        height: fn(&T) -> usize,
        join: fn(T, T) -> T,
    ) -> Result<T, ParseError> {
        let mut lhs = operand(self)?;
        let mut h = None;
        while self.peek() == Some(op) {
            self.idx += 1;
            let rhs = operand(self)?;
            let taller = h.unwrap_or_else(|| height(&lhs)).max(height(&rhs)) + 1;
            if taller > MAX_DEPTH {
                return Err(self.too_deep());
            }
            h = Some(taller);
            lhs = join(lhs, rhs);
        }
        Ok(lhs)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.idx).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.idx).map(|(_, t)| t.clone());
        self.idx += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.toks.get(self.idx).map_or(usize::MAX, |(o, _)| *o),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.idx += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    // ---- values (set-literal members) ----

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        self.nested(Self::value)
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Value::Int(n)),
            Some(Tok::Str(s)) => Ok(Value::str(s)),
            Some(Tok::Ident(id)) if id == "true" => Ok(Value::Bool(true)),
            Some(Tok::Ident(id)) if id == "false" => Ok(Value::Bool(false)),
            Some(Tok::Ident(id)) => Ok(Value::str(id)),
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if self.peek() == Some(&Tok::RBracket) {
                    self.idx += 1;
                    return Ok(Value::Tuple(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.bump() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBracket) => break,
                        _ => return Err(self.err("expected `,` or `]` in tuple value")),
                    }
                }
                Ok(Value::Tuple(items))
            }
            Some(Tok::LBrace) => {
                let mut items = BTreeSet::new();
                if self.peek() == Some(&Tok::RBrace) {
                    self.idx += 1;
                    return Ok(Value::Set(items));
                }
                loop {
                    items.insert(self.parse_value()?);
                    match self.bump() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBrace) => break,
                        _ => return Err(self.err("expected `,` or `}` in set value")),
                    }
                }
                Ok(Value::Set(items))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    // ---- element-level expressions ----

    fn parse_fexpr(&mut self) -> Result<FuncExpr, ParseError> {
        self.nested(Self::parse_for)
    }

    fn parse_for(&mut self) -> Result<FuncExpr, ParseError> {
        self.chain(
            &Tok::Ident("or".into()),
            Self::parse_fand,
            func_height,
            |a, b| FuncExpr::Or(Box::new(a), Box::new(b)),
        )
    }

    fn parse_fand(&mut self) -> Result<FuncExpr, ParseError> {
        self.chain(
            &Tok::Ident("and".into()),
            Self::parse_fnot,
            func_height,
            |a, b| FuncExpr::And(Box::new(a), Box::new(b)),
        )
    }

    fn parse_fnot(&mut self) -> Result<FuncExpr, ParseError> {
        if self.peek() == Some(&Tok::Ident("not".into())) {
            self.idx += 1;
            return Ok(FuncExpr::Not(Box::new(self.nested(Self::parse_fnot)?)));
        }
        self.parse_fcmp()
    }

    fn parse_fcmp(&mut self) -> Result<FuncExpr, ParseError> {
        let lhs = self.parse_fatom()?;
        let op = match self.peek() {
            Some(Tok::Cmp(op)) => Some(*op),
            Some(Tok::Assign) => Some(CmpOp::Eq),
            _ => None,
        };
        if let Some(op) = op {
            self.idx += 1;
            let rhs = self.parse_fatom()?;
            return Ok(FuncExpr::Cmp(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn func_by_name(name: &str) -> Option<FuncOp> {
        match name {
            "succ" => Some(FuncOp::Succ),
            "add" => Some(FuncOp::Add),
            "sub" => Some(FuncOp::Sub),
            "mul" => Some(FuncOp::Mul),
            "concat" => Some(FuncOp::Concat),
            _ => None,
        }
    }

    fn parse_fatom(&mut self) -> Result<FuncExpr, ParseError> {
        let mut base = match self.bump() {
            Some(Tok::Ident(id)) if id == "x" => FuncExpr::Elem,
            Some(Tok::Ident(id)) if id == "true" => FuncExpr::Lit(Value::Bool(true)),
            Some(Tok::Ident(id)) if id == "false" => FuncExpr::Lit(Value::Bool(false)),
            Some(Tok::Ident(id)) => {
                if self.peek() == Some(&Tok::LParen) {
                    let op = Self::func_by_name(&id)
                        .ok_or_else(|| self.err(format!("unknown element function `{id}`")))?;
                    self.idx += 1;
                    let mut args = Vec::new();
                    loop {
                        args.push(self.parse_fexpr()?);
                        match self.bump() {
                            Some(Tok::Comma) => continue,
                            Some(Tok::RParen) => break,
                            _ => return Err(self.err("expected `,` or `)`")),
                        }
                    }
                    if args.len() != op.arity() {
                        return Err(self.err(format!(
                            "`{id}` expects {} arguments, got {}",
                            op.arity(),
                            args.len()
                        )));
                    }
                    FuncExpr::App(op, args)
                } else {
                    FuncExpr::Lit(Value::str(id))
                }
            }
            Some(Tok::Int(n)) => FuncExpr::Lit(Value::Int(n)),
            Some(Tok::Str(s)) => FuncExpr::Lit(Value::str(s)),
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if self.peek() == Some(&Tok::RBracket) {
                    self.idx += 1;
                    FuncExpr::Tuple(items)
                } else {
                    loop {
                        items.push(self.parse_fexpr()?);
                        match self.bump() {
                            Some(Tok::Comma) => continue,
                            Some(Tok::RBracket) => break,
                            _ => return Err(self.err("expected `,` or `]`")),
                        }
                    }
                    FuncExpr::Tuple(items)
                }
            }
            Some(Tok::LParen) => {
                let e = self.parse_fexpr()?;
                self.expect(&Tok::RParen, "`)`")?;
                e
            }
            _ => return Err(self.err("expected an element expression")),
        };
        // postfix projections `.k`
        let mut height = None;
        while self.peek() == Some(&Tok::Dot) {
            self.idx += 1;
            let h = height.unwrap_or_else(|| func_height(&base)) + 1;
            if h > MAX_DEPTH {
                return Err(self.too_deep());
            }
            height = Some(h);
            match self.bump() {
                Some(Tok::Int(k)) if k >= 0 => {
                    base = FuncExpr::Proj(Box::new(base), k as usize);
                }
                _ => return Err(self.err("expected a projection index after `.`")),
            }
        }
        Ok(base)
    }

    // ---- set-level expressions ----

    fn parse_expr(&mut self) -> Result<AlgExpr, ParseError> {
        self.nested(Self::parse_union)
    }

    fn parse_union(&mut self) -> Result<AlgExpr, ParseError> {
        let union = Tok::Ident("union".into());
        self.chain(&union, Self::parse_term, alg_height, AlgExpr::union)
    }

    fn parse_term(&mut self) -> Result<AlgExpr, ParseError> {
        self.chain(&Tok::Minus, Self::parse_prod, alg_height, AlgExpr::diff)
    }

    fn parse_prod(&mut self) -> Result<AlgExpr, ParseError> {
        self.chain(&Tok::Star, Self::parse_atom, alg_height, AlgExpr::product)
    }

    fn parse_atom(&mut self) -> Result<AlgExpr, ParseError> {
        match self.peek() {
            Some(Tok::Ident(id)) if id == "select" || id == "map" => {
                let kind = id.clone();
                self.idx += 1;
                self.expect(&Tok::LParen, "`(`")?;
                let e = self.parse_expr()?;
                self.expect(&Tok::Comma, "`,`")?;
                let f = self.parse_fexpr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(if kind == "select" {
                    AlgExpr::select(e, f)
                } else {
                    AlgExpr::map(e, f)
                })
            }
            Some(Tok::Ident(id)) if id == "ifp" => {
                self.idx += 1;
                self.expect(&Tok::LParen, "`(`")?;
                let var = self.ident("a fixpoint variable")?;
                self.expect(&Tok::Comma, "`,`")?;
                let body = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(AlgExpr::ifp(var, body))
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident("a name")?;
                if self.peek() == Some(&Tok::LParen) {
                    self.idx += 1;
                    let mut args = Vec::new();
                    if self.peek() == Some(&Tok::RParen) {
                        self.idx += 1;
                    } else {
                        loop {
                            args.push(self.parse_expr()?);
                            match self.bump() {
                                Some(Tok::Comma) => continue,
                                Some(Tok::RParen) => break,
                                _ => return Err(self.err("expected `,` or `)`")),
                            }
                        }
                    }
                    Ok(AlgExpr::Apply(name, args))
                } else {
                    Ok(AlgExpr::Name(name))
                }
            }
            Some(Tok::LBrace) => {
                self.idx += 1;
                let mut items = BTreeSet::new();
                if self.peek() == Some(&Tok::RBrace) {
                    self.idx += 1;
                    return Ok(AlgExpr::Lit(items));
                }
                loop {
                    items.insert(self.parse_value()?);
                    match self.bump() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBrace) => break,
                        _ => return Err(self.err("expected `,` or `}` in set literal")),
                    }
                }
                Ok(AlgExpr::Lit(items))
            }
            Some(Tok::LParen) => {
                self.idx += 1;
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            _ => Err(self.err("expected an algebra expression")),
        }
    }

    fn parse_program(&mut self) -> Result<AlgProgram, ParseError> {
        let mut defs = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Ident(id)) if id == "def" => {
                    self.idx += 1;
                    let name = self.ident("an operation name")?;
                    let mut params = Vec::new();
                    if self.peek() == Some(&Tok::LParen) {
                        self.idx += 1;
                        loop {
                            params.push(self.ident("a parameter name")?);
                            match self.bump() {
                                Some(Tok::Comma) => continue,
                                Some(Tok::RParen) => break,
                                _ => return Err(self.err("expected `,` or `)`")),
                            }
                        }
                    }
                    self.expect(&Tok::Assign, "`=`")?;
                    let body = self.parse_expr()?;
                    self.expect(&Tok::Semi, "`;` after definition")?;
                    defs.push(OpDef::new(name, params, body));
                }
                Some(Tok::Ident(id)) if id == "query" => {
                    self.idx += 1;
                    let query = self.parse_expr()?;
                    self.expect(&Tok::Semi, "`;` after query")?;
                    if self.peek().is_some() {
                        return Err(self.err("trailing input after query"));
                    }
                    return AlgProgram::new(defs, query).map_err(|e| ParseError {
                        offset: 0,
                        message: e.to_string(),
                    });
                }
                _ => return Err(self.err("expected `def` or `query`")),
            }
        }
    }
}

/// Parse an algebra program (definitions + query).
pub fn parse_program(src: &str) -> Result<AlgProgram, ParseError> {
    Parser::new(src)?.parse_program()
}

/// Parse a single algebra expression.
pub fn parse_expr(src: &str) -> Result<AlgExpr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.parse_expr()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Invalid(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valid_eval::eval_valid;
    use algrec_value::{Budget, Database, Relation, Truth};

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn parses_win_program() {
        let p = parse_program(
            "% the WIN/MOVE game of Section 3.2\n\
             def win = map(move - (map(move, x.0) * win), x.0);\n\
             query win;",
        )
        .unwrap();
        assert_eq!(p.defs.len(), 1);
        assert!(!p.is_nonrecursive());
        let db = Database::new().with("move", Relation::from_pairs([(i(1), i(2))]));
        let out = eval_valid(&p, &db, Budget::SMALL).unwrap();
        assert_eq!(out.member(&i(1)), Truth::True);
    }

    #[test]
    fn parses_even_set() {
        let p = parse_program(
            "def se = {0} union map(select(se, x < 10), add(x, 2));\n\
             query se;",
        )
        .unwrap();
        let out = eval_valid(&p, &Database::new(), Budget::SMALL).unwrap();
        assert_eq!(out.member(&i(6)), Truth::True);
        assert_eq!(out.member(&i(7)), Truth::False);
    }

    #[test]
    fn precedence_product_diff_union() {
        // a union b - c * d  ≡  a union (b - (c * d))
        let e = parse_expr("a union b - c * d").unwrap();
        assert_eq!(
            e,
            AlgExpr::union(
                AlgExpr::name("a"),
                AlgExpr::diff(
                    AlgExpr::name("b"),
                    AlgExpr::product(AlgExpr::name("c"), AlgExpr::name("d")),
                ),
            )
        );
    }

    #[test]
    fn parses_defs_with_params() {
        let p = parse_program(
            "def inter(a, b) = a - (a - b);\n\
             query inter(r, s);",
        )
        .unwrap();
        assert_eq!(p.defs[0].params, vec!["a", "b"]);
        assert!(p.is_nonrecursive());
    }

    #[test]
    fn parses_set_literals() {
        let e = parse_expr("{1, 'two', [3, 4], {5}} union {}").unwrap();
        match e {
            AlgExpr::Union(l, r) => {
                match *l {
                    AlgExpr::Lit(items) => {
                        assert_eq!(items.len(), 4);
                        assert!(items.contains(&Value::pair(i(3), i(4))));
                        assert!(items.contains(&Value::set([i(5)])));
                        assert!(items.contains(&Value::str("two")));
                    }
                    other => panic!("expected literal, got {other}"),
                }
                assert_eq!(*r, AlgExpr::Lit(Default::default()));
            }
            other => panic!("expected union, got {other}"),
        }
    }

    #[test]
    fn parses_fexprs() {
        let e = parse_expr("select(r, x.0 = x.1 and not (x.0 < 3) or succ(x.0) = 4)").unwrap();
        let AlgExpr::Select(_, test) = e else {
            panic!("expected select");
        };
        assert!(matches!(test, FuncExpr::Or(..)));
        // and the test actually evaluates
        assert!(test.test(&Value::pair(i(3), i(3))).unwrap());
        assert!(test.test(&Value::pair(i(3), i(9))).unwrap()); // succ(3)=4
        assert!(!test.test(&Value::pair(i(1), i(9))).unwrap());
    }

    #[test]
    fn nested_projection() {
        let e = parse_expr("map(r, x.0.1)").unwrap();
        let AlgExpr::Map(_, f) = e else { panic!() };
        assert_eq!(
            f.eval(&Value::pair(Value::pair(i(1), i(2)), i(3))).unwrap(),
            i(2)
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse_program("query ;").is_err());
        assert!(parse_program("def = x; query x;").is_err());
        assert!(parse_program("query a union ;").is_err());
        assert!(parse_program("query {1").is_err());
        assert!(parse_program("query select(r x = 1);").is_err());
        assert!(parse_program("query frob(r, x);").is_ok()); // Apply; fails later at inline
        assert!(parse_program("query a; extra").is_err());
        assert!(parse_expr("map(r, frob(x))").is_err()); // unknown element function
        assert!(parse_program("query 'oops").is_err());
        // double definition caught by validation
        assert!(parse_program("def a = {1}; def a = {2}; query a;").is_err());
    }

    #[test]
    fn round_trip_display() {
        let src = "def win = map((move - (map(move, x.0) * win)), x.0); query win;";
        let p = parse_program(src).unwrap();
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn ifp_syntax() {
        let e = parse_expr("ifp(acc, edge union acc)").unwrap();
        assert!(matches!(e, AlgExpr::Ifp { .. }));
        assert!(parse_expr("ifp(, edge)").is_err());
    }
}
