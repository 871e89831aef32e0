//! Type-term substrate for row-polymorphic record inference.
//!
//! Implements the three type universes of Simon, *Optimal Inference of
//! Fields in Row-Polymorphic Records* (PLDI 2014) — monotypes `M`,
//! polytypes `P`, and flow-decorated record polytypes `PR` — together with
//! the operations the derived inference rules are built from:
//!
//! * [`Ty`], [`Row`] — terms with row-polymorphic records whose fields and
//!   variable occurrences carry existence [`rowpoly_boolfun::Flag`]s;
//! * [`unify`]/[`mgu`] — most general unifiers over `⇓RP`-skeletons, with
//!   Rémy-style row unification and occurs checks;
//! * [`flag_lits`] — the `*t+` flag-sequence extraction of Definition 1,
//!   with contra-variant polarity;
//! * [`apply_subst_flow`] — `applyS` (Fig. 4): applying a skeleton
//!   substitution to a flow-decorated judgement, replicating flows by
//!   Boolean expansion;
//! * [`instantiate`]/[`generalize`] — type schemes whose flags are
//!   implicitly generalized alongside the quantified variables;
//! * [`TyEnv`] — copy-on-write environments with the version-tag
//!   optimisation of the paper's Section 6.
//!
//! # Example
//!
//! ```
//! use rowpoly_types::{unify, Ty, VarAlloc};
//!
//! let mut vars = VarAlloc::new();
//! let a = vars.fresh();
//! let s = unify(&Ty::svar(a), &Ty::fun(Ty::Int, Ty::Int), &mut vars)?;
//! assert_eq!(s.apply(&Ty::svar(a)), Ty::fun(Ty::Int, Ty::Int));
//! # Ok::<(), rowpoly_types::UnifyError>(())
//! ```

mod applys;
mod env;
mod flags;
mod pretty;
mod subst;
mod ty;
mod unify;

pub use applys::{apply_subst_flow, compact_flow, import_scheme, instantiate, ReplacedFlags};
pub use env::{generalize, Binding, Entry, Scheme, TyEnv};
pub use flags::flag_lits;
pub use pretty::{render_scheme, render_scheme_with_flow, render_ty};
pub use subst::Subst;
pub use ty::{FieldEntry, Row, RowTail, Ty, Var, VarAlloc, NO_FLAG};
pub use unify::{mgu, unify, UnifyError, MAX_TYPE_DEPTH};
