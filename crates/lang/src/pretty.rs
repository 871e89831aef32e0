//! Pretty-printer producing parseable source text.
//!
//! The printer is the inverse of the parser up to sugar: record literals
//! and multi-field updates are printed in their desugared form, and
//! definition parameters are re-sugared from leading lambdas. The
//! round-trip property `parse(pretty(e)) == e` (modulo spans) is
//! checked by the crate's tests. A multi-field update's binder (`r#1`,
//! numbered within its definition) prints as is; no identifier lexes
//! with a `#`, so that form does not parse back.

use std::fmt::Write;

use crate::ast::{Def, Expr, ExprKind, Program};

/// Renders a program, one `def` per block.
pub fn pretty_program(p: &Program) -> String {
    let mut out = String::new();
    for def in &p.defs {
        out.push_str(&pretty_def(def));
        out.push('\n');
    }
    out
}

/// Renders a single definition, re-sugaring leading lambdas as parameters.
pub fn pretty_def(def: &Def) -> String {
    let mut params = Vec::new();
    let mut body = &def.body;
    while let ExprKind::Lam(x, inner) = &body.kind {
        params.push(*x);
        body = inner;
    }
    let mut out = String::new();
    write!(out, "def {}", def.name).expect("write to string");
    for p in &params {
        write!(out, " {p}").expect("write to string");
    }
    out.push_str(" =");
    let rendered = pretty_expr_indent(body, 1);
    if rendered.contains('\n') || rendered.len() > 60 {
        out.push('\n');
        out.push_str(&indent(&rendered, 1));
    } else {
        out.push(' ');
        out.push_str(&rendered);
    }
    out.push('\n');
    out
}

/// Renders an expression.
pub fn pretty_expr(e: &Expr) -> String {
    pretty_expr_indent(e, 0)
}

fn pretty_expr_indent(e: &Expr, depth: usize) -> String {
    print_prec(e, 0, depth)
}

const INDENT: &str = "  ";

fn indent(text: &str, by: usize) -> String {
    let pad = INDENT.repeat(by);
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Precedence levels, mirroring the parser: 0 binders, 1 `||`, 2 `&&`,
/// 3 comparisons, 4 concatenation, 5 additive, 6 multiplicative,
/// 7 application, 8 atoms.
fn level(e: &Expr) -> u8 {
    use crate::ast::BinOp::*;
    match &e.kind {
        ExprKind::Lam(..) | ExprKind::Let { .. } | ExprKind::If(..) | ExprKind::When { .. } => 0,
        ExprKind::BinOp(Or, ..) => 1,
        ExprKind::BinOp(And, ..) => 2,
        ExprKind::BinOp(Eq | Lt | Le, ..) => 3,
        ExprKind::Concat(..) | ExprKind::SymConcat(..) => 4,
        ExprKind::BinOp(Add | Sub, ..) => 5,
        // Negative literals print with a leading `-`, which would read as
        // binary subtraction in application position; give them additive
        // precedence so they are parenthesised there.
        ExprKind::Int(n) if *n < 0 => 5,
        ExprKind::BinOp(Mul, ..) => 6,
        ExprKind::App(..) => 7,
        _ => 8,
    }
}

fn print_prec(e: &Expr, min: u8, depth: usize) -> String {
    let own = level(e);
    let body = print_node(e, depth);
    if own < min {
        format!("({body})")
    } else {
        body
    }
}

fn print_node(e: &Expr, depth: usize) -> String {
    match &e.kind {
        ExprKind::Var(x) => x.to_string(),
        ExprKind::Int(n) => n.to_string(),
        ExprKind::Str(s) => format!("{:?}", s),
        ExprKind::List(items) => {
            let inner: Vec<String> = items.iter().map(|i| print_prec(i, 0, depth)).collect();
            format!("[{}]", inner.join(", "))
        }
        ExprKind::Lam(x, body) => {
            // Collapse nested lambdas into one binder list.
            let mut params = vec![*x];
            let mut inner = body.as_ref();
            while let ExprKind::Lam(y, next) = &inner.kind {
                params.push(*y);
                inner = next;
            }
            let names: Vec<String> = params.iter().map(|p| p.to_string()).collect();
            format!("\\{} . {}", names.join(" "), print_prec(inner, 0, depth))
        }
        ExprKind::App(f, a) => {
            format!("{} {}", print_prec(f, 7, depth), print_prec(a, 8, depth))
        }
        ExprKind::Let { name, bound, body } => {
            let b = print_prec(bound, 0, depth + 1);
            let k = print_prec(body, 0, depth);
            if b.contains('\n') || b.len() > 50 {
                format!("let {name} =\n{}\nin {k}", indent(&b, 1))
            } else {
                format!("let {name} = {b}\nin {k}")
            }
        }
        ExprKind::If(c, t, f) => {
            format!(
                "if {}\nthen {}\nelse {}",
                print_prec(c, 1, depth),
                print_prec(t, 0, depth),
                print_prec(f, 0, depth)
            )
        }
        ExprKind::Empty => "{}".to_owned(),
        ExprKind::Select(n) => format!("#{n}"),
        ExprKind::Update(n, v) => format!("@{{{n} = {}}}", print_prec(v, 0, depth)),
        ExprKind::Remove(n) => format!("%{n}"),
        ExprKind::Rename(from, to) => format!("^{{{from} -> {to}}}"),
        ExprKind::Concat(a, b) => {
            format!("{} @ {}", print_prec(a, 4, depth), print_prec(b, 5, depth))
        }
        ExprKind::SymConcat(a, b) => {
            format!("{} @@ {}", print_prec(a, 4, depth), print_prec(b, 5, depth))
        }
        ExprKind::When {
            field,
            subject,
            then_branch,
            else_branch,
        } => {
            format!(
                "when {field} in {subject}\nthen {}\nelse {}",
                print_prec(then_branch, 0, depth),
                print_prec(else_branch, 0, depth)
            )
        }
        ExprKind::BinOp(op, a, b) => {
            let own = level(e);
            // Left-associative: right operand needs one level more; the
            // non-associative comparisons need more on both sides.
            let (lmin, rmin) = if own == 3 { (4, 4) } else { (own, own + 1) };
            format!(
                "{} {} {}",
                print_prec(a, lmin, depth),
                op.symbol(),
                print_prec(b, rmin, depth)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    /// Strips spans so parse→pretty→parse comparisons ignore layout.
    fn normalize(e: &Expr) -> Expr {
        let mut c = e.clone();
        strip(&mut c);
        c
    }

    fn strip(e: &mut Expr) {
        e.span = crate::span::Span::dummy();
        match &mut e.kind {
            ExprKind::List(items) => items.iter_mut().for_each(strip),
            ExprKind::Lam(_, b) | ExprKind::Update(_, b) => strip(b),
            ExprKind::App(a, b)
            | ExprKind::Concat(a, b)
            | ExprKind::SymConcat(a, b)
            | ExprKind::BinOp(_, a, b) => {
                strip(a);
                strip(b);
            }
            ExprKind::Let { bound, body, .. } => {
                strip(bound);
                strip(body);
            }
            ExprKind::If(a, b, c) => {
                strip(a);
                strip(b);
                strip(c);
            }
            ExprKind::When {
                then_branch,
                else_branch,
                ..
            } => {
                strip(then_branch);
                strip(else_branch);
            }
            _ => {}
        }
    }

    fn roundtrip(src: &str) {
        let e1 = parse_expr(src).expect("parse original");
        let printed = pretty_expr(&e1);
        let e2 =
            parse_expr(&printed).unwrap_or_else(|d| panic!("re-parse failed for {printed:?}: {d}"));
        assert_eq!(
            normalize(&e1),
            normalize(&e2),
            "round trip changed:\n{printed}"
        );
    }

    #[test]
    fn roundtrip_core_forms() {
        roundtrip("f x y");
        roundtrip(r"\x y . x + y * 2");
        roundtrip("let f x = x in f 1");
        roundtrip("if a < b then 1 else 2");
        roundtrip("#foo (@{foo = 42} {})");
        roundtrip("r @ s @@ t");
        roundtrip("when foo in s then #foo s else 0");
        roundtrip("%foo (^{a -> b} r)");
        roundtrip("[1, 2, f 3]");
        roundtrip("(1 + 2) * 3");
        roundtrip("a == b + 1");
        roundtrip("x && y || z");
    }

    #[test]
    fn roundtrip_nested_binders() {
        roundtrip(r"\f . (\x . f (x x)) (\x . f (x x))");
        roundtrip("let a = let b = 1 in b in a");
        roundtrip("let s' = @{foo = 42} s; v = #foo s' in s'");
    }

    #[test]
    fn concat_requires_parens_when_nested_right() {
        // @ is left-associative: a @ (b @ c) must keep its parens.
        let e = parse_expr("a @ (b @ c)").unwrap();
        let printed = pretty_expr(&e);
        assert!(printed.contains('('), "got {printed}");
        roundtrip("a @ (b @ c)");
    }

    #[test]
    fn program_roundtrip() {
        let src = "def id x = x\ndef use = id {}\n";
        let p1 = parse_program(src).unwrap();
        let printed = pretty_program(&p1);
        let p2 = parse_program(&printed).expect("re-parse program");
        assert_eq!(p1.defs.len(), p2.defs.len());
        for (d1, d2) in p1.defs.iter().zip(&p2.defs) {
            assert_eq!(d1.name, d2.name);
            assert_eq!(normalize(&d1.body), normalize(&d2.body));
        }
    }

    #[test]
    fn multiline_if_renders_indented() {
        let e = parse_expr("if c then 1 else 2").unwrap();
        let printed = pretty_expr(&e);
        assert!(printed.contains("\nthen"));
        assert!(printed.contains("\nelse"));
    }

    #[test]
    fn string_literals_are_escaped() {
        let e = parse_expr(r#""a\"b""#).unwrap();
        roundtrip(&pretty_expr(&e));
    }
}
