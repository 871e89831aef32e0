//! Surface language for the row-polymorphic record calculus.
//!
//! This crate implements the extended λ-calculus `E` of Simon, *Optimal
//! Inference of Fields in Row-Polymorphic Records* (PLDI 2014, Fig. 1),
//! together with the record operations discussed in its Section 5:
//!
//! * core: variables, lambdas, application, recursive `let`, integers,
//!   conditionals;
//! * records: the empty record `{}`, field selection `#N`, field update
//!   `@{N = e}`;
//! * extensions: field removal `%N`, field renaming `^{M -> N}`,
//!   asymmetric concatenation `e1 @ e2`, symmetric concatenation
//!   `e1 @@ e2`, and the field-conditional `when N in x then e1 else e2`.
//!
//! The crate provides the lexer, parser, AST, pretty-printer, and
//! span-based diagnostics. Type inference lives in `rowpoly-core`.
//!
//! # Example
//!
//! ```
//! use rowpoly_lang::{parse_expr, pretty_expr};
//!
//! let e = parse_expr("#foo (@{foo = 42} {})")?;
//! assert_eq!(pretty_expr(&e), "#foo (@{foo = 42} {})");
//! # Ok::<(), rowpoly_lang::Diag>(())
//! ```

mod ast;
mod diag;
mod lexer;
mod parser;
mod pretty;
mod span;
mod symbol;
mod token;

pub use ast::{BinOp, Def, Expr, ExprKind, FieldName, Program};
pub use diag::{Diag, Severity};
pub use lexer::lex;
pub use parser::{parse_expr, parse_program, MAX_DEPTH};
pub use pretty::{pretty_def, pretty_expr, pretty_program};
pub use span::{LineMap, Span};
pub use symbol::Symbol;
pub use token::{Token, TokenKind};
