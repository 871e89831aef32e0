//! Section 5's classification of record operations into satisfiability
//! classes, verified on the formulas whole programs actually generate,
//! plus cross-solver agreement on those formulas.

use rowpoly::boolfun::{classify, Cnf, Flag, Lit, SatBudget, SatClass};
use rowpoly::core::Session;

/// Decides `cnf` with the engine of `class` forced.
fn sat_as(class: SatClass, cnf: &Cnf) -> bool {
    rowpoly::boolfun::sat::solve_as(cnf, class, &SatBudget::unlimited())
        .expect("unlimited budget")
        .is_sat()
}

fn class_of(src: &str) -> SatClass {
    Session::default()
        .infer_source(src)
        .unwrap_or_else(|e| panic!("{src} should check: {e}"))
        .sat_class
}

#[test]
fn select_update_programs_stay_two_sat() {
    // A whole pipeline of empty records, updates, selects, removals and
    // renamings never leaves the 2-SAT class.
    let src = r"
def mk = {a = 1, b = 2, c = 3}
def moved = ^{c -> d} (%b mk)
def use s = if #a s < 2 then #d (@{d = 9} s) else #a s
def go = use moved
";
    assert!(class_of(src) <= SatClass::TwoSat, "got {:?}", class_of(src));
}

#[test]
fn asymmetric_concat_stays_linear_time() {
    let src = r"
def join x y = x @ y
def use = #a (join {a = 1} {b = 2}) + #b (join {a = 1} {b = 2})
";
    let c = class_of(src);
    assert!(
        c <= SatClass::DualHorn,
        "asymmetric concatenation must stay within a linear-time class, got {c:?}"
    );
}

#[test]
fn symmetric_concat_and_when_are_general() {
    assert_eq!(class_of("def use = {a = 1} @@ {b = 2}"), SatClass::General);
    // `when` exceeds the Horn fragment once its branches carry flags of
    // their own (record-typed results mix clause polarities).
    let when_int = class_of("def use s = when a in s then #a s else 0\ndef go = use {}");
    assert!(
        when_int > SatClass::TwoSat,
        "guarded clauses leave 2-SAT: {when_int:?}"
    );
    assert_eq!(
        class_of("def pick s = when a in s then s else @{a = 9} s\ndef go = #a (pick {})"),
        SatClass::General
    );
}

/// The three solvers agree on the formula families the inference
/// generates (implication chains with equivalences; Horn rule sets;
/// disjunction + mutual exclusion).
#[test]
fn solvers_agree_on_inference_formula_families() {
    let mut cases: Vec<Cnf> = Vec::new();

    // Select/update family: equivalence chains with one asserted flag and
    // one denied flag at varying distances.
    for n in [2u32, 5, 17] {
        let mut b = Cnf::top();
        for i in 0..n {
            b.iff(Lit::pos(Flag(i)), Lit::pos(Flag(i + 1)));
        }
        b.assert_lit(Lit::pos(Flag(0)));
        cases.push(b.clone());
        b.assert_lit(Lit::neg(Flag(n)));
        cases.push(b);
    }
    // Concatenation family: fr ↔ f1 ∨ f2 columns with some assertions.
    for k in [1u32, 4] {
        let mut b = Cnf::top();
        for i in 0..k {
            let (f1, f2, fr) = (Flag(3 * i), Flag(3 * i + 1), Flag(3 * i + 2));
            b.add_lits(vec![Lit::neg(fr), Lit::pos(f1), Lit::pos(f2)]);
            b.imply(Lit::pos(f1), Lit::pos(fr));
            b.imply(Lit::pos(f2), Lit::pos(fr));
            b.assert_lit(Lit::pos(fr));
            b.assert_lit(Lit::neg(f1));
        }
        cases.push(b.clone());
        // Symmetric: additionally exclude both.
        for i in 0..k {
            b.add_lits(vec![Lit::neg(Flag(3 * i)), Lit::neg(Flag(3 * i + 1))]);
        }
        cases.push(b);
    }

    for (i, cnf) in cases.iter().enumerate() {
        let auto = cnf.is_sat();
        let cdcl = sat_as(SatClass::General, cnf);
        assert_eq!(auto, cdcl, "case {i} disagrees: {cnf:?}");
        match classify(cnf) {
            SatClass::TwoSat => {
                assert_eq!(sat_as(SatClass::TwoSat, cnf), cdcl, "case {i}");
            }
            SatClass::Horn => {
                assert_eq!(sat_as(SatClass::Horn, cnf), cdcl, "case {i}");
            }
            _ => {}
        }
    }
}

/// The 2-SAT conflict chain drives the error explanation: it traverses
/// from the selector's requirement back to the empty record.
#[test]
fn conflict_chain_connects_requirement_to_origin() {
    let mut b = Cnf::top();
    // ¬f0 (empty record), chain f0 ↔ f1 ↔ f2, select asserts f2.
    b.assert_lit(Lit::neg(Flag(0)));
    b.iff(Lit::pos(Flag(0)), Lit::pos(Flag(1)));
    b.iff(Lit::pos(Flag(1)), Lit::pos(Flag(2)));
    b.assert_lit(Lit::pos(Flag(2)));
    match b.solve() {
        rowpoly::boolfun::SatResult::Unsat(chain) => {
            let flags: Vec<Flag> = chain.iter().map(|l| l.flag()).collect();
            assert!(
                flags.contains(&Flag(0)),
                "chain reaches the origin: {chain:?}"
            );
            assert!(
                flags.contains(&Flag(2)),
                "chain includes the demand: {chain:?}"
            );
        }
        other => panic!("expected unsat, got {other:?}"),
    }
}
