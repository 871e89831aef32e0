//! Abstract syntax of the record calculus `E` (Fig. 1 of the paper, plus
//! the Section 5 extensions).

use std::collections::BTreeSet;

use crate::span::Span;
use crate::symbol::Symbol;

/// Record field names are interned symbols.
pub type FieldName = Symbol;

/// Built-in binary operators over integers.
///
/// The paper's conditional requires an `Int` condition, so comparisons and
/// connectives also yield `Int` (0 = false, non-zero = true); there is no
/// separate Boolean base type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `==` (yields `Int`)
    Eq,
    /// `<` (yields `Int`)
    Lt,
    /// `<=` (yields `Int`)
    Le,
    /// `&&` (yields `Int`)
    And,
    /// `||` (yields `Int`)
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Eq => "==",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// An expression with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// The node.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression forms.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Variable reference `x`.
    Var(Symbol),
    /// Integer constant.
    Int(i64),
    /// String constant.
    Str(String),
    /// List literal `[e1, …, en]`.
    List(Vec<Expr>),
    /// Lambda abstraction `\x . e`.
    Lam(Symbol, Box<Expr>),
    /// Application `e1 e2`.
    App(Box<Expr>, Box<Expr>),
    /// (Possibly recursive) binding `let x = e in e'`.
    Let {
        /// Bound variable; in scope in both `bound` (recursion) and `body`.
        name: Symbol,
        /// The bound expression.
        bound: Box<Expr>,
        /// The continuation.
        body: Box<Expr>,
    },
    /// Conditional `if e1 then e2 else e3`; the condition has type `Int`
    /// and non-zero means true.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// The empty record `{}`.
    Empty,
    /// Field selector function `#N : {N.Pre : a, r} → a`.
    Select(FieldName),
    /// Field update function `@{N = e}` adding or replacing field `N`.
    Update(FieldName, Box<Expr>),
    /// Field removal function `%N`.
    Remove(FieldName),
    /// Field renaming function `^{M -> N}`.
    Rename(FieldName, FieldName),
    /// Asymmetric record concatenation `e1 @ e2` (right-biased: a field
    /// present in both records takes its value from `e2`).
    Concat(Box<Expr>, Box<Expr>),
    /// Symmetric record concatenation `e1 @@ e2` (a field present in both
    /// records is a type error).
    SymConcat(Box<Expr>, Box<Expr>),
    /// `when N in x then e1 else e2` — branches on whether record variable
    /// `x` currently has field `N` (Fig. 8).
    When {
        /// The tested field.
        field: FieldName,
        /// The scrutinised record variable.
        subject: Symbol,
        /// Branch taken when the field is present.
        then_branch: Box<Expr>,
        /// Branch taken when the field is absent.
        else_branch: Box<Expr>,
    },
    /// Built-in integer operator.
    BinOp(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Wraps a node with a span.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// Whether `name` occurs free: `free_vars().contains(&name)`, without
    /// building the set and stopping at the first occurrence.
    pub fn mentions(&self, name: Symbol) -> bool {
        match &self.kind {
            ExprKind::Var(x) => *x == name,
            ExprKind::Int(_) | ExprKind::Str(_) | ExprKind::Empty => false,
            ExprKind::Select(_) | ExprKind::Remove(_) | ExprKind::Rename(_, _) => false,
            ExprKind::List(es) => es.iter().any(|e| e.mentions(name)),
            ExprKind::Lam(x, body) => *x != name && body.mentions(name),
            ExprKind::Let {
                name: x,
                bound,
                body,
            } => *x != name && (bound.mentions(name) || body.mentions(name)),
            ExprKind::If(c, t, e) => c.mentions(name) || t.mentions(name) || e.mentions(name),
            ExprKind::Update(_, e) => e.mentions(name),
            ExprKind::App(a, b)
            | ExprKind::Concat(a, b)
            | ExprKind::SymConcat(a, b)
            | ExprKind::BinOp(_, a, b) => a.mentions(name) || b.mentions(name),
            ExprKind::When {
                subject,
                then_branch,
                else_branch,
                ..
            } => *subject == name || then_branch.mentions(name) || else_branch.mentions(name),
        }
    }

    /// The set of free variables.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.free_vars_into(&mut BTreeSet::new(), &mut out);
        out
    }

    fn free_vars_into(&self, bound: &mut BTreeSet<Symbol>, out: &mut BTreeSet<Symbol>) {
        match &self.kind {
            ExprKind::Var(x) => {
                if !bound.contains(x) {
                    out.insert(*x);
                }
            }
            ExprKind::Int(_) | ExprKind::Str(_) | ExprKind::Empty => {}
            ExprKind::Select(_) | ExprKind::Remove(_) | ExprKind::Rename(_, _) => {}
            ExprKind::List(es) => {
                for e in es {
                    e.free_vars_into(bound, out);
                }
            }
            ExprKind::Lam(x, body) => {
                let fresh = bound.insert(*x);
                body.free_vars_into(bound, out);
                if fresh {
                    bound.remove(x);
                }
            }
            ExprKind::App(f, a) => {
                f.free_vars_into(bound, out);
                a.free_vars_into(bound, out);
            }
            ExprKind::Let {
                name,
                bound: b,
                body,
            } => {
                let fresh = bound.insert(*name);
                b.free_vars_into(bound, out);
                body.free_vars_into(bound, out);
                if fresh {
                    bound.remove(name);
                }
            }
            ExprKind::If(c, t, e) => {
                c.free_vars_into(bound, out);
                t.free_vars_into(bound, out);
                e.free_vars_into(bound, out);
            }
            ExprKind::Update(_, e) => e.free_vars_into(bound, out),
            ExprKind::Concat(a, b) | ExprKind::SymConcat(a, b) => {
                a.free_vars_into(bound, out);
                b.free_vars_into(bound, out);
            }
            ExprKind::When {
                subject,
                then_branch,
                else_branch,
                ..
            } => {
                if !bound.contains(subject) {
                    out.insert(*subject);
                }
                then_branch.free_vars_into(bound, out);
                else_branch.free_vars_into(bound, out);
            }
            ExprKind::BinOp(_, a, b) => {
                a.free_vars_into(bound, out);
                b.free_vars_into(bound, out);
            }
        }
    }

    /// Number of AST nodes (a size metric for benchmarks).
    pub fn size(&self) -> usize {
        let mut n = 1;
        self.for_each_child(|c| n += c.size());
        n
    }

    /// Moves every span of the expression by `by` bytes (a splice that
    /// grew or shrank the text before it).
    pub fn shift(&mut self, by: i64) {
        let at = |offset: u32| (offset as i64 + by) as u32;
        self.span = Span::new(at(self.span.start), at(self.span.end));
        self.for_each_child_mut(|c| c.shift(by));
    }

    /// Calls `f` on each direct child expression, mutably.
    fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match &mut self.kind {
            ExprKind::Var(_)
            | ExprKind::Int(_)
            | ExprKind::Str(_)
            | ExprKind::Empty
            | ExprKind::Select(_)
            | ExprKind::Remove(_)
            | ExprKind::Rename(_, _) => {}
            ExprKind::List(es) => es.iter_mut().for_each(&mut f),
            ExprKind::Lam(_, b) | ExprKind::Update(_, b) => f(b),
            ExprKind::App(a, b)
            | ExprKind::Concat(a, b)
            | ExprKind::SymConcat(a, b)
            | ExprKind::BinOp(_, a, b)
            | ExprKind::Let {
                bound: a, body: b, ..
            }
            | ExprKind::When {
                then_branch: a,
                else_branch: b,
                ..
            } => {
                f(a);
                f(b);
            }
            ExprKind::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
        }
    }

    /// Calls `f` on each direct child expression.
    pub fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        match &self.kind {
            ExprKind::Var(_)
            | ExprKind::Int(_)
            | ExprKind::Str(_)
            | ExprKind::Empty
            | ExprKind::Select(_)
            | ExprKind::Remove(_)
            | ExprKind::Rename(_, _) => {}
            ExprKind::List(es) => es.iter().for_each(&mut f),
            ExprKind::Lam(_, b) => f(b),
            ExprKind::App(a, b)
            | ExprKind::Concat(a, b)
            | ExprKind::SymConcat(a, b)
            | ExprKind::BinOp(_, a, b) => {
                f(a);
                f(b);
            }
            ExprKind::Let { bound, body, .. } => {
                f(bound);
                f(body);
            }
            ExprKind::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            ExprKind::Update(_, e) => f(e),
            ExprKind::When {
                then_branch,
                else_branch,
                ..
            } => {
                f(then_branch);
                f(else_branch);
            }
        }
    }
}

/// A top-level definition `def f x1 … xn = e`.
///
/// Parameters are desugared into lambdas at parse time, so `body` is the
/// full right-hand side including binders. Each definition may refer to
/// itself (recursion) and to all earlier definitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Def {
    /// Defined name.
    pub name: Symbol,
    /// Span of the whole definition.
    pub span: Span,
    /// Right-hand side (with parameter lambdas already applied).
    pub body: Expr,
}

impl Def {
    /// Moves every span of the definition by `by` bytes.
    pub fn shift(&mut self, by: i64) {
        let at = |offset: u32| (offset as i64 + by) as u32;
        self.span = Span::new(at(self.span.start), at(self.span.end));
        self.body.shift(by);
    }
}

/// A program: a sequence of top-level definitions.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Definitions, in source order.
    pub defs: Vec<Def>,
}

impl Program {
    /// The free variables of the program: those of [`Program::to_expr`],
    /// computed per definition without building the nested expression.
    /// A body's own name and the names defined before it are bound in
    /// it; a name defined later stays free there.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut defined = BTreeSet::new();
        let mut out = BTreeSet::new();
        for def in &self.defs {
            defined.insert(def.name);
            def.body.free_vars_into(&mut defined, &mut out);
        }
        out
    }

    /// Folds the program into a single expression: nested `let`s ending in
    /// a reference to the last definition.
    ///
    /// # Panics
    ///
    /// Panics if the program has no definitions.
    pub fn to_expr(&self) -> Expr {
        let last = self
            .defs
            .last()
            .expect("program has at least one definition");
        let mut expr = Expr::new(ExprKind::Var(last.name), last.span);
        for def in self.defs.iter().rev() {
            expr = Expr::new(
                ExprKind::Let {
                    name: def.name,
                    bound: Box::new(def.body.clone()),
                    body: Box::new(expr),
                },
                def.span,
            );
        }
        expr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Expr {
        Expr::new(ExprKind::Var(Symbol::intern(name)), Span::dummy())
    }

    #[test]
    fn free_vars_respect_binders() {
        // \x . x y
        let e = Expr::new(
            ExprKind::Lam(
                Symbol::intern("x"),
                Box::new(Expr::new(
                    ExprKind::App(Box::new(var("x")), Box::new(var("y"))),
                    Span::dummy(),
                )),
            ),
            Span::dummy(),
        );
        let fv = e.free_vars();
        assert!(fv.contains(&Symbol::intern("y")));
        assert!(!fv.contains(&Symbol::intern("x")));
    }

    #[test]
    fn let_binds_recursively() {
        // let f = f in f — f is not free.
        let f = Symbol::intern("f");
        let e = Expr::new(
            ExprKind::Let {
                name: f,
                bound: Box::new(var("f")),
                body: Box::new(var("f")),
            },
            Span::dummy(),
        );
        assert!(e.free_vars().is_empty());
    }

    #[test]
    fn when_subject_is_free() {
        let e = Expr::new(
            ExprKind::When {
                field: Symbol::intern("n"),
                subject: Symbol::intern("s"),
                then_branch: Box::new(var("a")),
                else_branch: Box::new(var("b")),
            },
            Span::dummy(),
        );
        let fv = e.free_vars();
        assert!(fv.contains(&Symbol::intern("s")));
        assert!(fv.contains(&Symbol::intern("a")));
        assert!(fv.contains(&Symbol::intern("b")));
    }

    #[test]
    fn program_free_vars_keep_later_names_free_in_earlier_bodies() {
        let p = crate::parse_program(
            "def a = b + c\ndef b = a\ndef c = \\x . x y\ndef d = let y = d in y",
        )
        .expect("parses");
        let names = |xs: &[&str]| xs.iter().map(|x| Symbol::intern(x)).collect();
        let fv = p.free_vars();
        assert_eq!(fv, names(&["b", "c", "y"]));
        assert_eq!(fv, p.to_expr().free_vars());
    }

    #[test]
    fn mentions_agrees_with_free_vars() {
        let p = crate::parse_program(
            "def a = \\x . let y = x in when n in z then y else w\n\
             def b = [u, \\u . u, (let v = v in v) @ {}]",
        )
        .expect("parses");
        for def in &p.defs {
            let fv = def.body.free_vars();
            for x in ["x", "y", "z", "w", "u", "v", "n", "a"] {
                let x = Symbol::intern(x);
                assert_eq!(def.body.mentions(x), fv.contains(&x), "{x} in {}", def.name);
            }
        }
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::new(
            ExprKind::App(Box::new(var("f")), Box::new(var("x"))),
            Span::dummy(),
        );
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn program_to_expr_nests_lets() {
        let p = Program {
            defs: vec![
                Def {
                    name: Symbol::intern("a"),
                    span: Span::dummy(),
                    body: var("x"),
                },
                Def {
                    name: Symbol::intern("b"),
                    span: Span::dummy(),
                    body: var("a"),
                },
            ],
        };
        let e = p.to_expr();
        match &e.kind {
            ExprKind::Let { name, body, .. } => {
                assert_eq!(*name, Symbol::intern("a"));
                match &body.kind {
                    ExprKind::Let { name, body, .. } => {
                        assert_eq!(*name, Symbol::intern("b"));
                        assert_eq!(body.kind, ExprKind::Var(Symbol::intern("b")));
                    }
                    other => panic!("expected inner let, got {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
    }
}
