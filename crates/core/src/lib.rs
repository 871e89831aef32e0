//! Flow-sensitive type inference for row-polymorphic records.
//!
//! This crate is the primary contribution of the reproduction of Simon,
//! *Optimal Inference of Fields in Row-Polymorphic Records* (PLDI 2014):
//! a Milner–Mycroft type inference (polymorphic recursion via fixpoint
//! iteration) over row-polymorphic record types, paired with a Boolean
//! function β over field-existence flags. A program is rejected iff its
//! type terms fail to unify **or** β becomes unsatisfiable — the latter
//! detecting accesses to record fields on paths where the field was never
//! added.
//!
//! Entry points:
//!
//! * [`Session`] — parse + infer whole programs or expressions;
//! * [`graph`] and [`run_group_spec`] — definition groups and the step
//!   that infers one, which every entry point infers through;
//! * [`FlowInfer`] — the rule-level engine (Fig. 3 of the paper plus the
//!   Section 5 extensions: removal, renaming, asymmetric/symmetric
//!   concatenation, `when N in x` conditionals);
//! * [`Options`] — field tracking on/off (the two columns of the paper's
//!   Fig. 9), stale-flag compaction and a SAT step budget;
//! * [`remy`] — the flag-unification baseline of the paper's
//!   introduction (Rémy-style `Pre`/`Abs` flags), which rejects programs
//!   the flow inference accepts;
//! * [`smt`] — the conditional-unification extension (Section 5), typing
//!   branch-dependent field types via SAT modulo a unification theory.
//!
//! # Example
//!
//! ```
//! use rowpoly_core::Session;
//!
//! // The paper's motivating example: a producer adds `foo` before a
//! // consumer reads it, all conditionally; applying the function to the
//! // empty record is fine, but selecting `foo` from the result is not.
//! let ok = "
//! def f s = if c then (let s2 = @{foo = 42} s; v = #foo s2 in s2) else s
//! def use = f {}
//! ";
//! assert!(Session::default().infer_source(ok).is_ok());
//!
//! let bad = "
//! def f s = if c then (let s2 = @{foo = 42} s; v = #foo s2 in s2) else s
//! def use = #foo (f {})
//! ";
//! assert!(Session::default().infer_source(bad).is_err());
//! ```

mod config;
mod driver;
mod error;
mod flow;
mod unit;

pub mod graph;
pub mod hm;
pub mod remy;
pub mod smt;

pub use config::{Compaction, Options, Stats, SAT_CLASSES, SAT_CLASS_COUNT};
pub use driver::{DefReport, ProgramReport, Session, SessionError};
pub use error::{FlagOrigin, ProofInfo, Provenance, TypeError, TypeErrorKind};
pub use flow::{alpha_eq_skeleton, FlowInfer, Infer};
pub use unit::{run_group_spec, DefVerdict, EngineScratch, GroupOutcome, GroupSpec};
