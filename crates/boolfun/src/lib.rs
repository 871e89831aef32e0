//! Boolean function domain for flow-sensitive record-field inference.
//!
//! This crate implements the Boolean-function half of the reduced cardinal
//! power domain `PR ⋉ B` of Simon, *Optimal Inference of Fields in
//! Row-Polymorphic Records* (PLDI 2014). A Boolean function β over
//! propositional *flag* variables describes which record fields exist; the
//! type-term half lives in `rowpoly-types`.
//!
//! The crate provides:
//!
//! * [`Flag`], [`Lit`], [`Clause`], [`Cnf`] — CNF-represented Boolean
//!   functions with the operations the inference rules need: conjunction,
//!   sequence (bi-)implications, assertion of literals.
//! * [`Cnf::expand`] — the *expansion* operation of Definition 2, which
//!   replicates the flow of a type variable's flags onto the flags of the
//!   type it is substituted with (with contra-variant polarity).
//! * [`Cnf::project_out`] — existential quantifier elimination by
//!   resolution, used to drop *stale* flags (Section 6 of the paper shows
//!   this is required for the correctness of expansion). Runs on an
//!   occurrence-indexed clause database with a binary-implication fast
//!   path and inline, signature-filtered subsumption; each call reports
//!   its work as a [`ProjectStats`].
//! * [`sat`] — three from-scratch satisfiability engines matching the
//!   complexity classes the paper identifies: a linear-time 2-SAT engine
//!   (select/update generate only two-variable Horn clauses), a linear-time
//!   Horn-SAT engine (asymmetric record concatenation), and a CDCL solver
//!   for general CNF (symmetric concatenation, `when`-conditionals), one
//!   cold solve per question ([`sat::solve`]).
//! * [`classify`] — classifies a formula into the cheapest applicable
//!   solver class.
//!
//! # Example
//!
//! ```
//! use rowpoly_boolfun::{Cnf, FlagAlloc, Lit};
//!
//! let mut flags = FlagAlloc::new();
//! let (fa, fb) = (flags.fresh(), flags.fresh());
//! let mut beta = Cnf::top();
//! beta.imply(Lit::pos(fa), Lit::pos(fb)); // fa -> fb
//! beta.assert_lit(Lit::pos(fa));
//! assert!(beta.is_sat());
//! beta.assert_lit(Lit::neg(fb));
//! assert!(!beta.is_sat());
//! ```

mod classify;
mod clause;
mod cnf;
mod db;
mod expand;
mod lit;
mod project;
pub mod proof;
pub mod sat;

pub use classify::{classify, SatClass};
pub use clause::Clause;
pub use cnf::Cnf;
pub use db::ProjectStats;
pub use lit::{Flag, FlagAlloc, FlagSet, Lit};
pub use proof::{
    minimize_core, ClauseRef, DerivationStep, Proof, ProofChecker, ProofError, UnsatProof,
};
pub use sat::{check_proofs_enabled, set_check_proofs, BudgetStop, SatBudget, SatResult};
