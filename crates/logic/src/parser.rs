//! Surface syntax.
//!
//! The paper writes constraints in mathematical notation and programs in
//! Prolog. We provide one textual syntax for all three kinds of items:
//!
//! ```text
//! % facts                       (ground atoms)
//! employee(jack).
//!
//! % rules                       (Prolog style, `not` or `~` for negation)
//! member(X, Y) :- leads(X, Y).
//!
//! % constraints                 (named or anonymous)
//! constraint c1: forall X: employee(X) ->
//!     (exists Y: department(Y) & member(X, Y)).
//! constraint: exists X: employee(X).
//! ```
//!
//! Identifiers starting with an uppercase letter or `_` are variables;
//! everything else (including integers) is a constant. Connective
//! precedence, loosest to tightest: `<->`, `->`, `|`/`or`, `&`/`and`,
//! `~`/`not`. Quantifiers (`forall X, Y: φ`, `exists X: φ`) extend as far
//! right as possible. `%` and `//` start line comments.

use crate::error::ParseError;
use crate::formula::Formula;
use crate::rule::Rule;
use crate::symbol::Sym;
use crate::term::{Atom, Fact, Literal, Term};
use std::fmt;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Colon,
    ColonDash,
    Arrow,
    DArrow,
    Amp,
    Pipe,
    Tilde,
    Eof,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn tokenize(mut self) -> Result<Vec<Spanned>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else {
                out.push(Spanned {
                    tok: Tok::Eof,
                    line,
                    col,
                });
                return Ok(out);
            };
            let tok = match b {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b'&' => {
                    self.bump();
                    Tok::Amp
                }
                b'|' => {
                    self.bump();
                    Tok::Pipe
                }
                b'~' => {
                    self.bump();
                    Tok::Tilde
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::ColonDash
                    } else {
                        Tok::Colon
                    }
                }
                b'-' => {
                    self.bump();
                    if self.peek() == Some(b'>') {
                        self.bump();
                        Tok::Arrow
                    } else {
                        return Err(self.error("expected `->`"));
                    }
                }
                b'<' => {
                    self.bump();
                    if self.peek() == Some(b'-') && self.peek2() == Some(b'>') {
                        self.bump();
                        self.bump();
                        Tok::DArrow
                    } else {
                        return Err(self.error("expected `<->`"));
                    }
                }
                b if b.is_ascii_alphanumeric() || b == b'_' => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(self.src[start..self.pos].to_owned())
                }
                other => {
                    return Err(self.error(format!("unexpected character `{}`", other as char)))
                }
            };
            out.push(Spanned { tok, line, col });
        }
    }
}

/// A source position (1-based line and column). The parser attaches one
/// to every top-level item of a program so later passes — most notably
/// the static analyzer in `uniform-analyze` — can point diagnostics at
/// the offending text instead of merely naming the item.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    pub line: usize,
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Deepest nesting of parentheses, negations, quantifiers and
/// right-nested arrows a formula may have. The parser recurses once per
/// level (and so does everything downstream that walks the tree), so
/// the bound is what keeps hostile text from exhausting the stack.
const MAX_NESTING: usize = 256;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Open [`Parser::nested`] calls.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: Lexer::new(src).tokenize()?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let s = &self.toks[self.pos];
        ParseError {
            line: s.line,
            col: s.col,
            message: message.into(),
        }
    }

    /// Position of the token about to be consumed.
    fn span(&self) -> Span {
        let s = &self.toks[self.pos];
        Span {
            line: s.line,
            col: s.col,
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == &tok {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    // ---- terms and atoms -------------------------------------------------

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let name = self.ident("predicate name")?;
        if name.starts_with(|c: char| c.is_ascii_uppercase()) || name.starts_with('_') {
            return Err(self.error(format!(
                "predicate name `{name}` must not start with an uppercase letter or `_`"
            )));
        }
        let mut args = Vec::new();
        if self.peek() == &Tok::LParen {
            self.bump();
            loop {
                let t = self.ident("term")?;
                args.push(Term::from_name(&t));
                match self.bump() {
                    Tok::Comma => continue,
                    Tok::RParen => break,
                    other => {
                        return Err(self.error(format!("expected `,` or `)`, found {other:?}")))
                    }
                }
            }
        }
        Ok(Atom::new(Sym::new(&name), args))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        let negated = match self.peek() {
            Tok::Tilde => {
                self.bump();
                true
            }
            Tok::Ident(s) if s == "not" => {
                self.bump();
                true
            }
            _ => false,
        };
        let atom = self.atom()?;
        Ok(Literal::new(!negated, atom))
    }

    // ---- formulas ---------------------------------------------------------

    fn formula(&mut self) -> Result<Formula, ParseError> {
        self.iff()
    }

    /// Run a sub-parser one nesting level down; every recursive descent
    /// goes through here, so [`MAX_NESTING`] bounds the stack.
    fn nested(
        &mut self,
        parse: fn(&mut Parser) -> Result<Formula, ParseError>,
    ) -> Result<Formula, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!(
                "formula nested more than {MAX_NESTING} levels deep"
            )));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn iff(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.implies()?;
        if self.peek() == &Tok::DArrow {
            self.bump();
            let rhs = self.nested(Parser::iff)?;
            Ok(Formula::iff(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.or()?;
        if self.peek() == &Tok::Arrow {
            self.bump();
            let rhs = self.nested(Parser::implies)?;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.and()?];
        loop {
            match self.peek() {
                Tok::Pipe => {
                    self.bump();
                }
                Tok::Ident(s) if s == "or" => {
                    self.bump();
                }
                _ => break,
            }
            parts.push(self.and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::Or(parts)
        })
    }

    fn and(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.unary()?];
        loop {
            match self.peek() {
                Tok::Amp => {
                    self.bump();
                }
                Tok::Ident(s) if s == "and" => {
                    self.bump();
                }
                _ => break,
            }
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::And(parts)
        })
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek().clone() {
            Tok::Tilde => {
                self.bump();
                Ok(Formula::not(self.nested(Parser::unary)?))
            }
            Tok::LParen => {
                self.bump();
                let f = self.nested(Parser::formula)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(f)
            }
            Tok::Ident(s) => match s.as_str() {
                "not" => {
                    self.bump();
                    Ok(Formula::not(self.nested(Parser::unary)?))
                }
                "true" => {
                    self.bump();
                    Ok(Formula::True)
                }
                "false" => {
                    self.bump();
                    Ok(Formula::False)
                }
                "forall" | "exists" => {
                    self.bump();
                    let vars = self.var_list()?;
                    self.expect(Tok::Colon, "`:` after quantifier variables")?;
                    let body = self.nested(Parser::formula)?;
                    Ok(if s == "forall" {
                        Formula::forall(vars, body)
                    } else {
                        Formula::exists(vars, body)
                    })
                }
                _ => Ok(Formula::Atom(self.atom()?)),
            },
            other => Err(self.error(format!("expected formula, found {other:?}"))),
        }
    }

    fn var_list(&mut self) -> Result<Vec<Sym>, ParseError> {
        let mut vars = Vec::new();
        loop {
            let name = self.ident("variable")?;
            if !(name.starts_with(|c: char| c.is_ascii_uppercase()) || name.starts_with('_')) {
                return Err(self.error(format!(
                    "quantified variable `{name}` must start with an uppercase letter or `_`"
                )));
            }
            vars.push(Sym::new(&name));
            match self.peek() {
                Tok::Comma => {
                    self.bump();
                }
                Tok::Ident(s)
                    if s.starts_with(|c: char| c.is_ascii_uppercase()) || s.starts_with('_') =>
                {
                    // space-separated variable list
                }
                _ => break,
            }
        }
        Ok(vars)
    }

    // ---- items ------------------------------------------------------------

    fn rule_tail(&mut self, head: Atom) -> Result<Rule, ParseError> {
        let mut body = vec![self.literal()?];
        while self.peek() == &Tok::Comma {
            self.bump();
            body.push(self.literal()?);
        }
        Rule::new(head, body).map_err(|e| self.error(e.to_string()))
    }
}

/// A parsed source program: facts, rules, and (optionally named, not yet
/// normalized) constraints. The three `*_spans` vectors run parallel to
/// their item vectors (`fact_spans[i]` is the source position of
/// `facts[i]`, and so on); they are empty for programmatically built
/// sources, so every consumer must treat a missing span as "unknown".
#[derive(Clone, Debug, Default)]
pub struct ProgramSource {
    pub facts: Vec<Fact>,
    pub rules: Vec<Rule>,
    pub constraints: Vec<(Option<String>, Formula)>,
    pub fact_spans: Vec<Span>,
    pub rule_spans: Vec<Span>,
    pub constraint_spans: Vec<Span>,
}

impl ProgramSource {
    /// Span of the `i`-th rule, when the source was parsed from text.
    pub fn rule_span(&self, i: usize) -> Option<Span> {
        self.rule_spans.get(i).copied()
    }

    /// Span of the `i`-th constraint, when the source was parsed from
    /// text.
    pub fn constraint_span(&self, i: usize) -> Option<Span> {
        self.constraint_spans.get(i).copied()
    }
}

/// Parse a formula from text.
pub fn parse_formula(src: &str) -> Result<Formula, ParseError> {
    let mut p = Parser::new(src)?;
    let f = p.formula()?;
    if p.peek() == &Tok::Dot {
        p.bump();
    }
    if !p.at_eof() {
        return Err(p.error("trailing input after formula"));
    }
    Ok(f)
}

/// Parse a single rule, e.g. `member(X,Y) :- leads(X,Y).`
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src)?;
    let head = p.atom()?;
    p.expect(Tok::ColonDash, "`:-`")?;
    let rule = p.rule_tail(head)?;
    if p.peek() == &Tok::Dot {
        p.bump();
    }
    if !p.at_eof() {
        return Err(p.error("trailing input after rule"));
    }
    Ok(rule)
}

/// Parse a ground fact, e.g. `employee(jack).`
pub fn parse_fact(src: &str) -> Result<Fact, ParseError> {
    let mut p = Parser::new(src)?;
    let atom = p.atom()?;
    if p.peek() == &Tok::Dot {
        p.bump();
    }
    if !p.at_eof() {
        return Err(p.error("trailing input after fact"));
    }
    atom.to_fact().ok_or_else(|| p.error("fact must be ground"))
}

/// Parse an update literal: `p(a,b)` (insertion) or `not p(a,b)`
/// (deletion).
pub fn parse_literal(src: &str) -> Result<Literal, ParseError> {
    let mut p = Parser::new(src)?;
    let lit = p.literal()?;
    if p.peek() == &Tok::Dot {
        p.bump();
    }
    if !p.at_eof() {
        return Err(p.error("trailing input after literal"));
    }
    Ok(lit)
}

/// Parse a conjunctive query: a comma-separated list of literals, e.g.
/// `member(X, Y), not leads(X, Y)`.
pub fn parse_query(src: &str) -> Result<Vec<Literal>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut out = vec![p.literal()?];
    while p.peek() == &Tok::Comma {
        p.bump();
        out.push(p.literal()?);
    }
    if p.peek() == &Tok::Dot {
        p.bump();
    }
    if !p.at_eof() {
        return Err(p.error("trailing input after query"));
    }
    Ok(out)
}

/// Parse a whole program (facts, rules, `constraint` items).
pub fn parse_program(src: &str) -> Result<ProgramSource, ParseError> {
    let mut p = Parser::new(src)?;
    let mut out = ProgramSource::default();
    while !p.at_eof() {
        let span = p.span();
        if p.peek_ident() == Some("constraint") {
            p.bump();
            let name = if let Some(id) = p.peek_ident() {
                let n = id.to_owned();
                p.bump();
                Some(n)
            } else {
                None
            };
            p.expect(Tok::Colon, "`:` after `constraint`")?;
            let f = p.formula()?;
            p.expect(Tok::Dot, "`.` after constraint")?;
            out.constraints.push((name, f));
            out.constraint_spans.push(span);
            continue;
        }
        let head = p.atom()?;
        match p.peek() {
            Tok::ColonDash => {
                p.bump();
                let rule = p.rule_tail(head)?;
                p.expect(Tok::Dot, "`.` after rule")?;
                out.rules.push(rule);
                out.rule_spans.push(span);
            }
            Tok::Dot => {
                p.bump();
                match head.to_fact() {
                    Some(f) => out.facts.push(f),
                    None => return Err(p.error(format!("fact `{head}` must be ground"))),
                }
                out.fact_spans.push(span);
            }
            other => {
                return Err(p.error(format!("expected `.` or `:-`, found {other:?}")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_facts_rules_literals() {
        assert_eq!(
            parse_fact("leads(ann, sales).").unwrap(),
            Fact::parse_like("leads", &["ann", "sales"])
        );
        let r = parse_rule("member(X,Y) :- leads(X,Y).").unwrap();
        assert_eq!(r.to_string(), "member(X,Y) :- leads(X,Y)");
        let l = parse_literal("not q(c1, c2)").unwrap();
        assert!(!l.positive);
        assert!(parse_fact("p(X).").is_err());
    }

    #[test]
    fn propositional_atoms() {
        let f = parse_formula("rain -> wet").unwrap();
        assert_eq!(format!("{f}"), "(rain -> wet)");
    }

    #[test]
    fn precedence_and_associativity() {
        let f = parse_formula("a & b | c -> d <-> e").unwrap();
        assert_eq!(format!("{f}"), "((((a & b) | c) -> d) <-> e)");
        // -> is right-associative
        let g = parse_formula("a -> b -> c").unwrap();
        assert_eq!(format!("{g}"), "(a -> (b -> c))");
    }

    #[test]
    fn quantifier_scope_extends_right() {
        let f = parse_formula("forall X: p(X) -> q(X)").unwrap();
        assert_eq!(format!("{f}"), "(forall X: (p(X) -> q(X)))");
    }

    #[test]
    fn quantifier_variable_lists() {
        let f = parse_formula("forall X, Y: p(X,Y) -> q(Y)").unwrap();
        assert!(matches!(f, Formula::Forall(ref vs, _) if vs.len() == 2));
        let g = parse_formula("forall X Y: p(X,Y) -> q(Y)").unwrap();
        assert!(matches!(g, Formula::Forall(ref vs, _) if vs.len() == 2));
    }

    #[test]
    fn keyword_connectives() {
        let f = parse_formula("p(a) and q(b) or not r(c)").unwrap();
        assert_eq!(format!("{f}"), "((p(a) & q(b)) | ~(r(c)))");
    }

    #[test]
    fn comments_are_skipped() {
        let prog = parse_program(
            "% a comment\n p(a). // another\n q(X) :- p(X). \n constraint c: exists X: p(X).",
        )
        .unwrap();
        assert_eq!(prog.facts.len(), 1);
        assert_eq!(prog.rules.len(), 1);
        assert_eq!(prog.constraints.len(), 1);
        assert_eq!(prog.constraints[0].0.as_deref(), Some("c"));
    }

    #[test]
    fn anonymous_constraints() {
        let prog = parse_program("constraint: exists X: p(X).").unwrap();
        assert_eq!(prog.constraints[0].0, None);
    }

    #[test]
    fn paper_section5_program_parses() {
        let prog = parse_program(
            "member(X,Y) :- leads(X,Y).\n\
             constraint c1: forall X: employee(X) -> (exists Y: department(Y) & member(X,Y)).\n\
             constraint c2: forall X: department(X) -> (exists Y: employee(Y) & leads(Y,X)).\n\
             constraint c3: forall X, Y: member(X,Y) -> (forall Z: leads(Z,Y) -> subordinate(X,Z)).\n\
             constraint c4: forall X: ~subordinate(X,X).\n\
             constraint c5: exists X: employee(X).",
        )
        .unwrap();
        assert_eq!(prog.rules.len(), 1);
        assert_eq!(prog.constraints.len(), 5);
    }

    #[test]
    fn queries_parse_as_literal_lists() {
        let q = parse_query("member(X, Y), not leads(X, Y)").unwrap();
        assert_eq!(q.len(), 2);
        assert!(q[0].positive);
        assert!(!q[1].positive);
        assert!(parse_query("p(a) q(b)").is_err());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_formula("p(a) &").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col > 1);
        let err2 = parse_program("p(a)\nq(b).").unwrap_err();
        assert_eq!(err2.line, 2);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["(", "~", "not ", "forall X: ", "p -> ", "p <-> "] {
            let err = parse_formula(&format!("{}p", open.repeat(100_000))).unwrap_err();
            assert!(err.message.contains("nested"), "{open:?}: {err}");
            assert_eq!(err.line, 1, "{open:?}");
            assert!(err.col > MAX_NESTING, "{open:?}: {err}");
        }
        // The bound itself still parses (and drops) on a test thread.
        let deepest = format!("{}p{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert_eq!(
            parse_formula(&deepest).unwrap(),
            parse_formula("p").unwrap()
        );
        assert!(parse_formula(&format!("({deepest})")).is_err());
    }

    #[test]
    fn rejects_uppercase_predicate() {
        assert!(parse_formula("P(a)").is_err());
    }

    #[test]
    fn unsafe_rule_rejected_at_parse() {
        assert!(parse_rule("r(X, Z) :- q(X).").is_err());
    }

    #[test]
    fn program_items_carry_spans() {
        let prog = parse_program("p(a).\n q(X) :- p(X).\n\n constraint c: exists X: q(X).\n r(b).")
            .unwrap();
        assert_eq!(prog.fact_spans.len(), prog.facts.len());
        assert_eq!(prog.rule_spans.len(), prog.rules.len());
        assert_eq!(prog.constraint_spans.len(), prog.constraints.len());
        assert_eq!(prog.fact_spans[0], Span { line: 1, col: 1 });
        assert_eq!(prog.rule_span(0), Some(Span { line: 2, col: 2 }));
        assert_eq!(prog.constraint_span(0), Some(Span { line: 4, col: 2 }));
        assert_eq!(prog.fact_spans[1], Span { line: 5, col: 2 });
        // Programmatic sources have no spans; accessors degrade to None.
        let empty = ProgramSource::default();
        assert_eq!(empty.rule_span(0), None);
    }

    #[test]
    fn integers_are_constants() {
        let f = parse_fact("age(jack, 42).").unwrap();
        assert_eq!(f.args[1].as_str(), "42");
    }
}
