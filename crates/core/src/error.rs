//! Type errors with source locations and field-path explanations.

use rowpoly_boolfun::{Flag, Lit};
use rowpoly_lang::{Diag, FieldName, Span, Symbol};
use rowpoly_types::UnifyError;
use std::collections::HashMap;
use std::fmt;

/// Why a flag was created — recorded by the inference rules so that an
/// unsatisfiable Boolean function can be explained as the paper's "path
/// from an empty record to a field access on which the field has not been
/// added" (Observation 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagOrigin {
    /// The flag asserts that no field exists in an empty record `{}`.
    EmptyRecord,
    /// The flag asserts that a selected field exists (`#N`).
    FieldSelected(FieldName),
    /// The flag marks the output field of an update `@{N = e}`.
    FieldUpdated(FieldName),
    /// The flag asserts that a removed field is absent in the result.
    FieldRemoved(FieldName),
    /// Mutual-exclusion flag of a symmetric concatenation.
    SymConcat,
    /// The target of a field renaming, which must be absent in the input.
    RenameTarget(FieldName),
    /// The tested field of a `when N in x` conditional.
    WhenGuard(FieldName),
}

impl FlagOrigin {
    fn describe(&self) -> String {
        match self {
            FlagOrigin::EmptyRecord => "empty record `{}` created here".to_owned(),
            FlagOrigin::FieldSelected(n) => format!("field `{n}` selected here"),
            FlagOrigin::FieldUpdated(n) => format!("field `{n}` added here"),
            FlagOrigin::FieldRemoved(n) => format!("field `{n}` removed here"),
            FlagOrigin::SymConcat => "symmetric concatenation `@@` here".to_owned(),
            FlagOrigin::RenameTarget(n) => {
                format!("rename target `{n}` must be absent here")
            }
            FlagOrigin::WhenGuard(n) => format!("`when {n} in …` tested here"),
        }
    }
}

/// Side table mapping flags to their creating expression.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    map: HashMap<Flag, (Span, FlagOrigin)>,
}

impl Provenance {
    /// Records where a flag came from.
    pub fn record(&mut self, flag: Flag, span: Span, origin: FlagOrigin) {
        self.map.insert(flag, (span, origin));
    }

    /// Looks up a flag's origin.
    pub fn get(&self, flag: Flag) -> Option<&(Span, FlagOrigin)> {
        self.map.get(&flag)
    }

    /// Turns a solver conflict chain into human-readable notes, skipping
    /// flags without provenance (expansion copies).
    pub fn explain(&self, chain: &[Lit]) -> Vec<(Span, String)> {
        let mut notes = Vec::new();
        for l in chain {
            if let Some((span, origin)) = self.map.get(&l.flag()) {
                let note = origin.describe();
                if notes.last().map(|(_, n)| n) != Some(&note) {
                    notes.push((*span, note));
                }
            }
        }
        notes
    }
}

/// The kind of a type error.
#[derive(Clone, Debug)]
pub enum TypeErrorKind {
    /// Reference to a variable not in scope.
    Unbound(Symbol),
    /// Unification failure of type terms.
    Unify(UnifyError),
    /// The Boolean function β became unsatisfiable: some field is accessed
    /// on a path where it was never added.
    FieldMissing {
        /// The field whose access caused the conflict, when identifiable.
        field: Option<FieldName>,
    },
    /// The polymorphic-recursion fixpoint did not converge.
    RecursionDiverged(Symbol),
    /// A conditional-unification constraint set has no solution
    /// (SMT-with-unification-theory extension).
    NoConsistentInstantiation,
    /// A budgeted SAT check gave up before reaching a verdict (the
    /// step budget ran out, or the run was cancelled). Neither "well
    /// typed" nor "ill typed" — batch drivers surface it as a
    /// per-definition timeout.
    SatGaveUp {
        /// Search steps spent before stopping (0 for a cancellation).
        steps: u64,
    },
}

/// Machine-checkable evidence attached to a β-unsatisfiability verdict:
/// which clauses of β the error actually rests on, per the checked
/// resolution proof (see `rowpoly_boolfun::proof`). Populated by
/// `FlowInfer::check_sat` whenever a conflict is reported, and surfaced
/// by `rowpoly explain` / `--explain`.
#[derive(Clone, Debug)]
pub struct ProofInfo {
    /// Solver class that produced the verdict (`2sat`, `horn`, …).
    pub sat_class: &'static str,
    /// Size of β (in clauses) at the failing check.
    pub beta_clauses: usize,
    /// Unsat core as reported by the proving solver (β clause indices).
    pub core_clauses: Vec<usize>,
    /// Deletion-minimized core: every member is necessary.
    pub minimized_core_clauses: Vec<usize>,
    /// Length of the checked resolution/RUP derivation.
    pub derivation_steps: usize,
}

impl ProofInfo {
    /// One-line human summary, e.g.
    /// `minimal unsat core: 3 of 17 β clauses (2sat), 4 derivation steps`.
    pub fn summary(&self) -> String {
        format!(
            "minimal unsat core: {} of {} β clauses ({}), {} derivation steps",
            self.minimized_core_clauses.len(),
            self.beta_clauses,
            self.sat_class,
            self.derivation_steps
        )
    }
}

/// A located type error, optionally with explanation notes.
#[derive(Clone, Debug)]
pub struct TypeError {
    /// What went wrong.
    pub kind: TypeErrorKind,
    /// Where the error was detected.
    pub span: Span,
    /// Explanation steps (e.g. the path from `{}` to the failing access).
    pub notes: Vec<(Span, String)>,
    /// Proof evidence for β-unsatisfiability errors.
    pub proof: Option<Box<ProofInfo>>,
}

impl TypeError {
    /// Builds an error without notes.
    pub fn new(kind: TypeErrorKind, span: Span) -> TypeError {
        TypeError {
            kind,
            span,
            notes: Vec::new(),
            proof: None,
        }
    }

    /// The primary message, without location.
    pub fn message(&self) -> String {
        match &self.kind {
            TypeErrorKind::Unbound(x) => format!("variable `{x}` is not in scope"),
            TypeErrorKind::Unify(e) => match e {
                UnifyError::Mismatch { left, right } => format!(
                    "type mismatch: `{}` does not unify with `{}`",
                    rowpoly_types::render_ty(left, false),
                    rowpoly_types::render_ty(right, false)
                ),
                UnifyError::Occurs { .. } => "cannot construct infinite type".to_owned(),
                UnifyError::MissingField { field, .. } => {
                    format!("record has no field `{field}`")
                }
                UnifyError::RowFieldClash { field } => {
                    format!("conflicting row extensions for field `{field}`")
                }
                UnifyError::TooDeep => e.to_string(),
            },
            TypeErrorKind::FieldMissing { field: Some(f) } => {
                format!("field `{f}` may not exist at this access")
            }
            TypeErrorKind::FieldMissing { field: None } => {
                "a record field is accessed on a path where it was never added".to_owned()
            }
            TypeErrorKind::RecursionDiverged(x) => {
                format!("cannot infer a type for the polymorphic recursion of `{x}`")
            }
            TypeErrorKind::NoConsistentInstantiation => {
                "no consistent typing for the conditional constraints".to_owned()
            }
            TypeErrorKind::SatGaveUp { steps: 0 } => {
                "satisfiability check was cancelled".to_owned()
            }
            TypeErrorKind::SatGaveUp { steps } => {
                format!("satisfiability check gave up after {steps} steps (raise --sat-budget)")
            }
        }
    }

    /// Whether this error is a budget/cancellation timeout rather than
    /// a genuine typing verdict.
    pub fn is_timeout(&self) -> bool {
        matches!(self.kind, TypeErrorKind::SatGaveUp { .. })
    }

    /// Converts to a renderable diagnostic.
    pub fn to_diag(&self) -> Diag {
        let mut d = Diag::error(self.span, self.message());
        for (span, note) in &self.notes {
            d = d.with_note(*span, note.clone());
        }
        d
    }

    /// [`TypeError::to_diag`] plus the proof summary note (`--explain`
    /// mode). The note is anchored at the error's own span so the human
    /// renderer keeps it.
    pub fn to_diag_explained(&self) -> Diag {
        let mut d = self.to_diag();
        if let Some(p) = &self.proof {
            d = d.with_note(self.span, p.summary());
        }
        d
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_explains_chains() {
        let mut p = Provenance::new_for_test();
        p.record(Flag(0), Span::new(0, 2), FlagOrigin::EmptyRecord);
        p.record(
            Flag(2),
            Span::new(5, 9),
            FlagOrigin::FieldSelected(Symbol::intern("foo")),
        );
        let chain = vec![Lit::pos(Flag(2)), Lit::neg(Flag(1)), Lit::neg(Flag(0))];
        let notes = p.explain(&chain);
        assert_eq!(notes.len(), 2);
        assert!(notes[0].1.contains("foo"));
        assert!(notes[1].1.contains("empty record"));
    }

    impl Provenance {
        fn new_for_test() -> Provenance {
            Provenance::default()
        }
    }

    #[test]
    fn error_messages_are_specific() {
        let e = TypeError::new(
            TypeErrorKind::FieldMissing {
                field: Some(Symbol::intern("foo")),
            },
            Span::new(0, 1),
        );
        assert!(e.message().contains("`foo`"));
        let d = e.to_diag();
        assert!(d.message.contains("foo"));
    }
}
