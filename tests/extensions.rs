//! Section 5 extensions: removal, renaming, concatenation, `when`, and
//! the conditional-unification (SMT) repair of Pottier's rule.

use rowpoly::core::{Options, Session};

fn flow() -> Session {
    Session::default()
}

#[test]
fn removal_makes_field_inaccessible() {
    assert!(flow().infer_source("def use = #a (%a {a = 1})").is_err());
    assert!(flow()
        .infer_source("def use = #b (%a {a = 1, b = 2})")
        .is_ok());
    // Removing an absent field is fine.
    assert!(flow().infer_source("def use = %a {}").is_ok());
    // Re-adding after removal works.
    assert!(flow()
        .infer_source("def use = #a (@{a = 2} (%a {a = 1}))")
        .is_ok());
}

#[test]
fn renaming_moves_existence_and_content() {
    assert!(flow()
        .infer_source("def use = #b (^{a -> b} {a = 1}) + 1")
        .is_ok());
    // The source is gone afterwards.
    assert!(flow()
        .infer_source("def use = #a (^{a -> b} {a = 1})")
        .is_err());
    // Renaming requires the target to be absent.
    assert!(flow()
        .infer_source("def use = ^{a -> b} {a = 1, b = 2}")
        .is_err());
    // Renaming something absent yields an absent target.
    assert!(flow().infer_source("def use = #b (^{a -> b} {})").is_err());
}

#[test]
fn asymmetric_concat_unions_fields() {
    let s = flow();
    assert!(s.infer_source("def use = #a ({a = 1} @ {b = 2})").is_ok());
    assert!(s.infer_source("def use = #b ({a = 1} @ {b = 2})").is_ok());
    assert!(s.infer_source("def use = #c ({a = 1} @ {b = 2})").is_err());
    // Overlap is allowed (right bias); the field types must unify.
    assert!(s
        .infer_source("def use = #a ({a = 1} @ {a = 2}) + 1")
        .is_ok());
    assert!(s.infer_source(r#"def use = {a = 1} @ {a = "s"}"#).is_err());
}

#[test]
fn symmetric_concat_rejects_overlap() {
    let s = flow();
    assert!(s.infer_source("def use = #a ({a = 1} @@ {b = 2})").is_ok());
    assert!(
        s.infer_source("def use = {a = 1} @@ {a = 2}").is_err(),
        "a field present in both operands of @@ is a type error"
    );
    assert!(s.infer_source("def use = {} @@ {a = 1}").is_ok());
}

#[test]
fn concat_field_from_either_side_flows_to_output() {
    // Unknown-record concatenation through a function.
    let src = r"def join x y = x @ y
def use = #a (join {a = 1} {})";
    assert!(flow().infer_source(src).is_ok());
    let src2 = r"def join x y = x @ y
def use = #a (join {} {})";
    assert!(flow().infer_source(src2).is_err());
}

#[test]
fn sat_class_matches_paper_table() {
    use rowpoly::boolfun::SatClass;
    let s = flow();
    // Select/update only → two-variable Horn clauses, 2-SAT.
    let r = s.infer_source("def use = #a (@{a = 1} {})").unwrap();
    assert!(r.sat_class <= SatClass::TwoSat, "got {:?}", r.sat_class);
    // Asymmetric concatenation leaves the 2-SAT class but stays Horn-ish.
    let r = s.infer_source("def use = #a ({a = 1} @ {b = 2})").unwrap();
    assert!(r.sat_class <= SatClass::DualHorn, "got {:?}", r.sat_class);
    // Symmetric concatenation requires general CNF.
    let r = s.infer_source("def use = {a = 1} @@ {b = 2}").unwrap();
    assert_eq!(r.sat_class, SatClass::General);
}

#[test]
fn when_grants_the_field_in_the_then_branch() {
    // Reading the tested field inside `then` is safe even though the
    // record may lack it.
    let src = r"def read s = when foo in s then #foo s else 0
def a = read {foo = 1}
def b = read {}";
    assert!(
        flow().infer_source(src).is_ok(),
        "when-guard licenses the select"
    );
}

#[test]
fn when_else_branch_does_not_get_the_field() {
    let src = r"def read s = when foo in s then 0 else #foo s
def b = read {}";
    assert!(
        flow().infer_source(src).is_err(),
        "selecting the tested field in the else branch of an empty record"
    );
}

#[test]
fn when_branch_conflict_refutes_only_its_guard() {
    // The then-branch cannot run on a record without `foo`: a conflict
    // inside the branch refutes its guard, not the definition.
    let src = r"def read s = when foo in s then #bar {} else 0
def b = read {}";
    assert!(flow().infer_source(src).is_ok(), "the branch is dead");
}

#[test]
fn when_requires_general_sat() {
    use rowpoly::boolfun::SatClass;
    // With Int-typed branches the guarded clauses stay Horn; the general
    // case needs record-typed branches, whose result-flow implications
    // `ff → (*tr+ ⇒ *tσt+)` and `¬ff → (*tr+ ⇒ *tσe+)` mix polarities.
    let horn_only = r"def read s = when foo in s then #foo s else 0
def use = read {}";
    let r = flow().infer_source(horn_only).unwrap();
    assert!(r.sat_class > SatClass::TwoSat, "got {:?}", r.sat_class);

    let general = r"def pick s = when foo in s then s else @{foo = 9} s
def use = #foo (pick {})";
    let r = flow().infer_source(general).unwrap();
    assert_eq!(r.sat_class, SatClass::General);
}

#[test]
fn when_default_value_pattern() {
    // The paper's Section 7 example: supply a default if none present.
    let src = r"def getdef s = when n in s then #n s else 42
def a = getdef {}
def b = getdef {n = 7}";
    assert!(flow().infer_source(src).is_ok());
}

#[test]
fn extensions_respect_track_fields_off() {
    let opts = Options {
        track_fields: false,
        ..Options::default()
    };
    let s = Session::new(opts);
    // Without flags nothing about field existence is checked.
    assert!(s.infer_source("def use = #a (%a {a = 1})").is_ok());
    assert!(s.infer_source("def use = {a = 1} @@ {a = 2}").is_ok());
}

mod smt {
    use rowpoly::boolfun::{Cnf, FlagAlloc, Lit};
    use rowpoly::core::smt::{solve_conditional, CondEq};
    use rowpoly::types::{Ty, VarAlloc};

    /// Section 1.1: `{} @ (if c then {f=42} else {f="42"})` — rejected by
    /// Pottier's simplified rule D'r (and by our eager unification), but
    /// accepted once field types are constrained only under the branch
    /// guard.
    #[test]
    fn pottier_example_accepted_conditionally() {
        let mut flags = FlagAlloc::new();
        let mut vars = VarAlloc::new();
        let g = flags.fresh();
        let d = Ty::svar(vars.fresh());
        let eqs = [
            CondEq::when(Lit::pos(g), d.clone(), Ty::Int),
            CondEq::when(Lit::neg(g), d.clone(), Ty::Str),
        ];
        assert!(solve_conditional(&Cnf::top(), &eqs, &mut vars).is_sat());
    }

    /// With an access demanding a *specific* type, only the compatible
    /// branch survives; demanding both is unsatisfiable.
    #[test]
    fn access_restricts_branches() {
        let mut flags = FlagAlloc::new();
        let mut vars = VarAlloc::new();
        let g = flags.fresh();
        let d = Ty::svar(vars.fresh());
        let eqs = [
            CondEq::when(Lit::pos(g), d.clone(), Ty::Int),
            CondEq::when(Lit::neg(g), d.clone(), Ty::Str),
            CondEq::always(d.clone(), Ty::Int),
        ];
        match solve_conditional(&Cnf::top(), &eqs, &mut vars) {
            rowpoly::core::smt::SmtOutcome::Sat { model, .. } => {
                assert_eq!(model.get(&g), Some(&true), "only the Int branch fits");
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
