//! Recursive-descent parser with precedence climbing.
//!
//! Grammar sketch (binders extend as far right as possible):
//!
//! ```text
//! program  ::= def*
//! def      ::= "def" ident ident* "=" expr
//! expr     ::= "\" ident+ "." expr
//!            | "let" binding (";" binding)* "in" expr
//!            | "if" expr "then" expr "else" expr
//!            | "when" ident "in" ident "then" expr "else" expr
//!            | or
//! binding  ::= ident ident* "=" expr
//! or       ::= and ("||" and)*
//! and      ::= cmp ("&&" cmp)*
//! cmp      ::= concat (("==" | "<" | "<=") concat)?
//! concat   ::= add (("@" | "@@") add)*
//! add      ::= mul (("+" | "-") mul)*
//! mul      ::= app ("*" app)*
//! app      ::= atom atom*
//! atom     ::= ident | int | string | "{}" | "{" fields "}" | "[" exprs "]"
//!            | "#" ident | "@{" fields "}" | "%" ident
//!            | "^{" ident "->" ident "}" | "(" expr ")"
//! ```
//!
//! Sugar performed during parsing:
//! * `{a = 1, b = 2}` becomes `@{b = 2} (@{a = 1} {})`;
//! * a multi-field update `@{a = 1, b = 2}` becomes
//!   `\r#k . @{b = 2} (@{a = 1} r#k)`, where `k` numbers the updates of
//!   one definition from 1 (no source identifier contains `#`, and a
//!   definition parses to the same AST wherever it sits in a file);
//! * `let f x y = e in …` becomes `let f = \x . \y . e in …` (same for
//!   `def`).

use crate::ast::{BinOp, Def, Expr, ExprKind, Program};
use crate::diag::Diag;
use crate::lexer::lex;
use crate::span::Span;
use crate::symbol::Symbol;
use crate::token::{Token, TokenKind};

/// Parses a whole program (a sequence of `def` items).
pub fn parse_program(source: &str) -> Result<Program, Diag> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let mut defs = Vec::new();
    while p.peek() != &TokenKind::Eof {
        defs.push(p.def()?);
    }
    Ok(Program { defs })
}

/// Parses a single expression (the whole input must be consumed).
pub fn parse_expr(source: &str) -> Result<Expr, Diag> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let (e, _) = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// The deepest expression the parser accepts, counted in AST nodes from
/// a definition's root to its deepest leaf; parenthesised and other
/// nested expressions the parser recurses into count against the same
/// bound. Inference, rendering and the cache recurse on the tree, so
/// the bound keeps every accepted program within the stack of any
/// thread that checks it, including 2 MiB pool workers (DESIGN.md,
/// "Expression depth"). The deepest generated Fig. 9 decoder nests 122.
pub const MAX_DEPTH: u32 = 256;

/// An expression with its AST depth.
type Parsed = (Expr, u32);

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// How many [`Parser::expr`] calls are open.
    nesting: u32,
    /// Multi-field updates desugared so far in the current definition
    /// (their binders are `r#1`, `r#2`, …).
    binders: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            nesting: 0,
            binders: 0,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diag> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(Diag::error(
                self.peek_span(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn ident(&mut self) -> Result<(Symbol, Span), Diag> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                let span = self.peek_span();
                self.bump();
                Ok((s, span))
            }
            other => Err(Diag::error(
                self.peek_span(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    /// A node of AST depth `depth`, or a located diagnostic at `at` if
    /// that is deeper than [`MAX_DEPTH`].
    fn node(&self, kind: ExprKind, span: Span, depth: u32, at: Span) -> Result<Parsed, Diag> {
        if depth > MAX_DEPTH {
            return Err(too_deep(at));
        }
        Ok((Expr::new(kind, span), depth))
    }

    fn def(&mut self) -> Result<Def, Diag> {
        let start = self.expect(TokenKind::Def)?.span;
        self.binders = 0;
        let (name, _) = self.ident()?;
        let mut params = Vec::new();
        while let TokenKind::Ident(p) = self.peek() {
            params.push(*p);
            self.bump();
        }
        self.expect(TokenKind::Eq)?;
        let (mut body, mut depth) = self.expr()?;
        let span = start.to(body.span);
        for &p in params.iter().rev() {
            let bspan = body.span;
            (body, depth) = self.node(ExprKind::Lam(p, Box::new(body)), bspan, depth + 1, span)?;
        }
        Ok(Def { name, span, body })
    }

    /// An expression. Every nested expression passes through here, so
    /// this is where the parser's own recursion is bounded.
    fn expr(&mut self) -> Result<Parsed, Diag> {
        if self.nesting >= MAX_DEPTH {
            return Err(too_deep(self.peek_span()));
        }
        self.nesting += 1;
        let e = match self.peek() {
            TokenKind::Lambda => self.lambda(),
            TokenKind::Let => self.let_expr(),
            TokenKind::If => self.if_expr(),
            TokenKind::When => self.when_expr(),
            _ => self.binary(1),
        };
        self.nesting -= 1;
        e
    }

    fn lambda(&mut self) -> Result<Parsed, Diag> {
        let start = self.bump().span; // `\`
        let mut params = vec![self.ident()?.0];
        while let TokenKind::Ident(_) = self.peek() {
            params.push(self.ident()?.0);
        }
        // Accept both `\x . e` and `\x -> e`.
        if !self.eat(&TokenKind::Dot) {
            self.expect(TokenKind::Arrow)?;
        }
        let (mut body, mut depth) = self.expr()?;
        let span = start.to(body.span);
        for &p in params.iter().rev() {
            (body, depth) = self.node(ExprKind::Lam(p, Box::new(body)), span, depth + 1, span)?;
        }
        Ok((body, depth))
    }

    fn let_expr(&mut self) -> Result<Parsed, Diag> {
        let start = self.bump().span; // `let`
        let mut bindings = vec![self.binding()?];
        while self.eat(&TokenKind::Semi) {
            bindings.push(self.binding()?);
        }
        self.expect(TokenKind::In)?;
        let (mut body, mut depth) = self.expr()?;
        let span = start.to(body.span);
        for (name, (bound, bound_depth)) in bindings.into_iter().rev() {
            let at = bound.span;
            (body, depth) = self.node(
                ExprKind::Let {
                    name,
                    bound: Box::new(bound),
                    body: Box::new(body),
                },
                span,
                depth.max(bound_depth) + 1,
                at,
            )?;
        }
        Ok((body, depth))
    }

    fn binding(&mut self) -> Result<(Symbol, Parsed), Diag> {
        let (name, _) = self.ident()?;
        let mut params = Vec::new();
        while let TokenKind::Ident(p) = self.peek() {
            params.push(*p);
            self.bump();
        }
        self.expect(TokenKind::Eq)?;
        let (mut bound, mut depth) = self.expr()?;
        for &p in params.iter().rev() {
            let span = bound.span;
            (bound, depth) = self.node(ExprKind::Lam(p, Box::new(bound)), span, depth + 1, span)?;
        }
        Ok((name, (bound, depth)))
    }

    fn if_expr(&mut self) -> Result<Parsed, Diag> {
        let start = self.bump().span; // `if`
        let (cond, dc) = self.expr()?;
        self.expect(TokenKind::Then)?;
        let (then_branch, dt) = self.expr()?;
        self.expect(TokenKind::Else)?;
        let (else_branch, de) = self.expr()?;
        let span = start.to(else_branch.span);
        self.node(
            ExprKind::If(Box::new(cond), Box::new(then_branch), Box::new(else_branch)),
            span,
            dc.max(dt).max(de) + 1,
            start,
        )
    }

    fn when_expr(&mut self) -> Result<Parsed, Diag> {
        let start = self.bump().span; // `when`
        let (field, _) = self.ident()?;
        self.expect(TokenKind::In)?;
        let (subject, _) = self.ident()?;
        self.expect(TokenKind::Then)?;
        let (then_branch, dt) = self.expr()?;
        self.expect(TokenKind::Else)?;
        let (else_branch, de) = self.expr()?;
        let span = start.to(else_branch.span);
        self.node(
            ExprKind::When {
                field,
                subject,
                then_branch: Box::new(then_branch),
                else_branch: Box::new(else_branch),
            },
            span,
            dt.max(de) + 1,
            start,
        )
    }

    /// Precedence climbing over binary operators. Levels:
    /// 1 `||`, 2 `&&`, 3 comparisons (non-associative), 4 `@`/`@@`,
    /// 5 `+`/`-`, 6 `*`; application binds tighter than all of them.
    fn binary(&mut self, level: u8) -> Result<Parsed, Diag> {
        if level > 6 {
            return self.application();
        }
        let (mut lhs, mut depth) = self.binary(level + 1)?;
        loop {
            let op = match (level, self.peek()) {
                (1, TokenKind::OrOr) => Some(BinaryTok::Op(BinOp::Or)),
                (2, TokenKind::AndAnd) => Some(BinaryTok::Op(BinOp::And)),
                (3, TokenKind::EqEq) => Some(BinaryTok::Op(BinOp::Eq)),
                (3, TokenKind::Lt) => Some(BinaryTok::Op(BinOp::Lt)),
                (3, TokenKind::Le) => Some(BinaryTok::Op(BinOp::Le)),
                (4, TokenKind::At) => Some(BinaryTok::Concat),
                (4, TokenKind::AtAt) => Some(BinaryTok::SymConcat),
                (5, TokenKind::Plus) => Some(BinaryTok::Op(BinOp::Add)),
                (5, TokenKind::Minus) => Some(BinaryTok::Op(BinOp::Sub)),
                (6, TokenKind::Star) => Some(BinaryTok::Op(BinOp::Mul)),
                _ => None,
            };
            let Some(op) = op else {
                return Ok((lhs, depth));
            };
            let at = self.bump().span;
            let (rhs, rhs_depth) = self.binary(level + 1)?;
            let span = lhs.span.to(rhs.span);
            (lhs, depth) = self.node(
                match op {
                    BinaryTok::Op(o) => ExprKind::BinOp(o, Box::new(lhs), Box::new(rhs)),
                    BinaryTok::Concat => ExprKind::Concat(Box::new(lhs), Box::new(rhs)),
                    BinaryTok::SymConcat => ExprKind::SymConcat(Box::new(lhs), Box::new(rhs)),
                },
                span,
                depth.max(rhs_depth) + 1,
                at,
            )?;
            // Comparisons are non-associative.
            if level == 3 {
                return Ok((lhs, depth));
            }
        }
    }

    fn application(&mut self) -> Result<Parsed, Diag> {
        let (mut head, mut depth) = self.atom()?;
        while self.starts_atom() {
            let (arg, arg_depth) = self.atom()?;
            let span = head.span.to(arg.span);
            let at = arg.span;
            (head, depth) = self.node(
                ExprKind::App(Box::new(head), Box::new(arg)),
                span,
                depth.max(arg_depth) + 1,
                at,
            )?;
        }
        Ok((head, depth))
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Ident(_)
                | TokenKind::Int(_)
                | TokenKind::Str(_)
                | TokenKind::LParen
                | TokenKind::LBrace
                | TokenKind::LBracket
                | TokenKind::Hash
                | TokenKind::AtBrace
                | TokenKind::Percent
                | TokenKind::CaretBrace
        )
    }

    fn atom(&mut self) -> Result<Parsed, Diag> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok((Expr::new(ExprKind::Var(s), span), 1))
            }
            TokenKind::Int(n) => {
                self.bump();
                Ok((Expr::new(ExprKind::Int(n), span), 1))
            }
            TokenKind::Minus => {
                // Negative integer literal: `-` directly before a number
                // in atom position (binary subtraction is consumed at the
                // additive level before atoms are reached).
                self.bump();
                match self.peek().clone() {
                    TokenKind::Int(n) => {
                        let end = self.bump().span;
                        Ok((Expr::new(ExprKind::Int(-n), span.to(end)), 1))
                    }
                    other => Err(Diag::error(
                        self.peek_span(),
                        format!("expected a number after `-`, found {}", other.describe()),
                    )),
                }
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok((Expr::new(ExprKind::Str(s), span), 1))
            }
            TokenKind::LParen => {
                self.bump();
                let (e, depth) = self.expr()?;
                let end = self.expect(TokenKind::RParen)?.span;
                Ok((Expr::new(e.kind, span.to(end)), depth))
            }
            TokenKind::LBracket => {
                self.bump();
                let mut items = Vec::new();
                let mut depth = 0;
                if self.peek() != &TokenKind::RBracket {
                    loop {
                        let (item, d) = self.expr()?;
                        items.push(item);
                        depth = depth.max(d);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RBracket)?.span;
                Ok((Expr::new(ExprKind::List(items), span.to(end)), depth + 1))
            }
            TokenKind::LBrace => {
                self.bump();
                if self.peek() == &TokenKind::RBrace {
                    let end = self.bump().span;
                    return Ok((Expr::new(ExprKind::Empty, span.to(end)), 1));
                }
                // Record literal sugar: {a = e1, b = e2} desugars to
                // updates applied to {}.
                let fields = self.field_list()?;
                let end = self.expect(TokenKind::RBrace)?.span;
                let full = span.to(end);
                let mut record = (Expr::new(ExprKind::Empty, full), 1);
                for (name, (value, value_depth)) in fields {
                    let at = value.span;
                    let update = Expr::new(ExprKind::Update(name, Box::new(value)), full);
                    record = self.node(
                        ExprKind::App(Box::new(update), Box::new(record.0)),
                        full,
                        (value_depth + 1).max(record.1) + 1,
                        at,
                    )?;
                }
                Ok(record)
            }
            TokenKind::Hash => {
                self.bump();
                let (name, end) = self.ident()?;
                Ok((Expr::new(ExprKind::Select(name), span.to(end)), 1))
            }
            TokenKind::Percent => {
                self.bump();
                let (name, end) = self.ident()?;
                Ok((Expr::new(ExprKind::Remove(name), span.to(end)), 1))
            }
            TokenKind::CaretBrace => {
                self.bump();
                let (from, _) = self.ident()?;
                self.expect(TokenKind::Arrow)?;
                let (to, _) = self.ident()?;
                let end = self.expect(TokenKind::RBrace)?.span;
                Ok((Expr::new(ExprKind::Rename(from, to), span.to(end)), 1))
            }
            TokenKind::AtBrace => {
                self.bump();
                let fields = self.field_list()?;
                let end = self.expect(TokenKind::RBrace)?.span;
                let full = span.to(end);
                match fields.len() {
                    0 => Err(Diag::error(full, "update `@{…}` needs at least one field")),
                    1 => {
                        let (name, (value, depth)) = fields.into_iter().next().expect("one field");
                        self.node(
                            ExprKind::Update(name, Box::new(value)),
                            full,
                            depth + 1,
                            full,
                        )
                    }
                    _ => {
                        // Multi-field update sugar: a function composing
                        // the single-field updates left to right.
                        self.binders += 1;
                        let r = Symbol::intern(&format!("r#{}", self.binders));
                        let mut body = (Expr::new(ExprKind::Var(r), full), 1);
                        for (name, (value, value_depth)) in fields {
                            let at = value.span;
                            let update = Expr::new(ExprKind::Update(name, Box::new(value)), full);
                            body = self.node(
                                ExprKind::App(Box::new(update), Box::new(body.0)),
                                full,
                                (value_depth + 1).max(body.1) + 1,
                                at,
                            )?;
                        }
                        self.node(ExprKind::Lam(r, Box::new(body.0)), full, body.1 + 1, full)
                    }
                }
            }
            other => Err(Diag::error(
                span,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }

    fn field_list(&mut self) -> Result<Vec<(Symbol, Parsed)>, Diag> {
        let mut fields = Vec::new();
        loop {
            let (name, _) = self.ident()?;
            self.expect(TokenKind::Eq)?;
            let value = self.expr()?;
            fields.push((name, value));
            if !self.eat(&TokenKind::Comma) {
                return Ok(fields);
            }
        }
    }
}

/// The diagnostic for an expression nested deeper than [`MAX_DEPTH`].
fn too_deep(at: Span) -> Diag {
    Diag::error(
        at,
        format!("expression nests deeper than {MAX_DEPTH} levels"),
    )
}

enum BinaryTok {
    Op(BinOp),
    Concat,
    SymConcat,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn application_is_left_associative() {
        let e = parse_expr("f x y").unwrap();
        match &e.kind {
            ExprKind::App(fx, y) => {
                assert_eq!(y.kind, ExprKind::Var(sym("y")));
                match &fx.kind {
                    ExprKind::App(f, x) => {
                        assert_eq!(f.kind, ExprKind::Var(sym("f")));
                        assert_eq!(x.kind, ExprKind::Var(sym("x")));
                    }
                    other => panic!("expected app, got {other:?}"),
                }
            }
            other => panic!("expected app, got {other:?}"),
        }
    }

    #[test]
    fn lambda_with_multiple_binders() {
        let e = parse_expr(r"\x y . x").unwrap();
        match &e.kind {
            ExprKind::Lam(x, body) => {
                assert_eq!(*x, sym("x"));
                assert!(matches!(body.kind, ExprKind::Lam(..)));
            }
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match &e.kind {
            ExprKind::BinOp(BinOp::Add, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::BinOp(BinOp::Mul, _, _)));
            }
            other => panic!("expected +, got {other:?}"),
        }
    }

    #[test]
    fn select_binds_as_atom() {
        // #foo s is the selector applied to s.
        let e = parse_expr("#foo s").unwrap();
        match &e.kind {
            ExprKind::App(f, s) => {
                assert_eq!(f.kind, ExprKind::Select(sym("foo")));
                assert_eq!(s.kind, ExprKind::Var(sym("s")));
            }
            other => panic!("expected app, got {other:?}"),
        }
    }

    #[test]
    fn update_atbrace_versus_concat() {
        // `r @{a = 1}` is application of the update to... no: it is
        // `r` applied? No — `r @{a=1}` lexes as Ident AtBrace, so it is the
        // application `r (@{a=1})`? It is: App(r, update-fn). Whereas
        // `r @ {a = 1}` is concatenation with a record literal.
        let app = parse_expr("f @{a = 1} r").unwrap();
        match &app.kind {
            ExprKind::App(fu, r) => {
                assert_eq!(r.kind, ExprKind::Var(sym("r")));
                match &fu.kind {
                    ExprKind::App(f, u) => {
                        assert_eq!(f.kind, ExprKind::Var(sym("f")));
                        assert!(matches!(u.kind, ExprKind::Update(..)));
                    }
                    other => panic!("expected app, got {other:?}"),
                }
            }
            other => panic!("expected app, got {other:?}"),
        }

        let concat = parse_expr("r @ {a = 1}").unwrap();
        assert!(matches!(concat.kind, ExprKind::Concat(..)));
        let sym_concat = parse_expr("r @@ s").unwrap();
        assert!(matches!(sym_concat.kind, ExprKind::SymConcat(..)));
    }

    #[test]
    fn record_literal_desugars_to_updates() {
        let e = parse_expr("{a = 1, b = 2}").unwrap();
        // @{b=2} (@{a=1} {})
        match &e.kind {
            ExprKind::App(ub, inner) => {
                assert!(matches!(ub.kind, ExprKind::Update(n, _) if n == sym("b")));
                match &inner.kind {
                    ExprKind::App(ua, empty) => {
                        assert!(matches!(ua.kind, ExprKind::Update(n, _) if n == sym("a")));
                        assert_eq!(empty.kind, ExprKind::Empty);
                    }
                    other => panic!("expected app, got {other:?}"),
                }
            }
            other => panic!("expected app, got {other:?}"),
        }
    }

    #[test]
    fn multi_field_update_desugars_to_lambda() {
        let e = parse_expr("@{a = 1, b = 2}").unwrap();
        assert!(matches!(e.kind, ExprKind::Lam(..)));
    }

    #[test]
    fn update_binders_are_numbered_per_definition() {
        let binders = |src: &str| -> Vec<String> {
            let p = parse_program(src).unwrap();
            p.defs
                .iter()
                .map(|d| match &d.body.kind {
                    ExprKind::Lam(_, body) => match &body.kind {
                        ExprKind::App(update, _) => match &update.kind {
                            ExprKind::Lam(r, _) => r.to_string(),
                            other => panic!("expected the update lambda, got {other:?}"),
                        },
                        other => panic!("expected app, got {other:?}"),
                    },
                    other => panic!("expected lambda, got {other:?}"),
                })
                .collect()
        };
        let src = "def f r = @{a = 1, b = 2} r\ndef g r = @{c = 1, d = 2} r";
        assert_eq!(binders(src), ["r#1", "r#1"]);
        // The same definition parses to the same AST in any file.
        let alone = parse_program("def g r = @{c = 1, d = 2} r").unwrap();
        let mut second = parse_program(src).unwrap().defs.remove(1);
        second.shift(-28);
        assert_eq!(alone.defs[0], second);
    }

    #[test]
    fn let_with_params_and_multiple_bindings() {
        let e = parse_expr("let f x = x; y = f 1 in y").unwrap();
        match &e.kind {
            ExprKind::Let { name, bound, body } => {
                assert_eq!(*name, sym("f"));
                assert!(matches!(bound.kind, ExprKind::Lam(..)));
                assert!(matches!(&body.kind, ExprKind::Let { name, .. } if *name == sym("y")));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn when_expression() {
        let e = parse_expr("when foo in s then 1 else 2").unwrap();
        match &e.kind {
            ExprKind::When { field, subject, .. } => {
                assert_eq!(*field, sym("foo"));
                assert_eq!(*subject, sym("s"));
            }
            other => panic!("expected when, got {other:?}"),
        }
    }

    #[test]
    fn program_with_defs() {
        let p = parse_program("def id x = x\ndef main = id {}").unwrap();
        assert_eq!(p.defs.len(), 2);
        assert_eq!(p.defs[0].name, sym("id"));
        assert!(matches!(p.defs[0].body.kind, ExprKind::Lam(..)));
    }

    #[test]
    fn paper_intro_example_parses() {
        let src = r"
def f s = if some_condition then
            let s' = @{foo = 42} s;
                v  = #foo s'
            in s'
          else s
def main = f {}
";
        // `some_condition` is a free variable; parsing succeeds regardless.
        let p = parse_program(src).unwrap();
        assert_eq!(p.defs.len(), 2);
    }

    #[test]
    fn error_on_unbalanced_paren() {
        assert!(parse_expr("(1 + 2").is_err());
    }

    #[test]
    fn error_on_trailing_tokens() {
        assert!(parse_expr("1 2 3 )").is_err());
    }

    #[test]
    fn comparisons_are_non_associative() {
        // `a == b == c` must not parse as a chain; second `==` is trailing
        // garbage at the expression level.
        assert!(parse_expr("a == b == c").is_err());
    }

    #[test]
    fn empty_record_and_lists() {
        assert_eq!(parse_expr("{}").unwrap().kind, ExprKind::Empty);
        let e = parse_expr("[1, 2, 3]").unwrap();
        assert!(matches!(e.kind, ExprKind::List(ref v) if v.len() == 3));
        let e = parse_expr("[]").unwrap();
        assert!(matches!(e.kind, ExprKind::List(ref v) if v.is_empty()));
    }

    #[test]
    fn rename_and_remove() {
        assert!(matches!(
            parse_expr("%foo").unwrap().kind,
            ExprKind::Remove(_)
        ));
        assert!(
            matches!(parse_expr("^{a -> b}").unwrap().kind, ExprKind::Rename(a, b)
                if a == sym("a") && b == sym("b"))
        );
    }
}
