//! The Boolean substrate on its own: build the formulas the record
//! operations generate, classify them (Section 5's complexity table), and
//! watch the class-dispatched solver agree with one forced onto CDCL.
//!
//! ```sh
//! cargo run --example sat_playground
//! ```

use rowpoly::boolfun::{classify, sat, Cnf, FlagAlloc, Lit, SatBudget, SatClass};

fn main() {
    let mut flags = FlagAlloc::new();
    let mut fresh = || flags.fresh();

    // --- select/update: two-variable Horn clauses (2-SAT) --------------
    // ¬fe (empty record) … fe ↔ f1 ↔ f2 … select asserts f2.
    let (fe, f1, f2) = (fresh(), fresh(), fresh());
    let mut select_chain = Cnf::top();
    select_chain.assert_lit(Lit::neg(fe));
    select_chain.iff(Lit::pos(fe), Lit::pos(f1));
    select_chain.iff(Lit::pos(f1), Lit::pos(f2));
    select_chain.assert_lit(Lit::pos(f2));
    show("select on empty record", &select_chain);

    // --- asymmetric concatenation: fr ↔ f1 ∨ f2 ------------------------
    let (a1, a2, ar) = (fresh(), fresh(), fresh());
    let mut concat = Cnf::top();
    concat.add_lits(vec![Lit::neg(ar), Lit::pos(a1), Lit::pos(a2)]);
    concat.imply(Lit::pos(a1), Lit::pos(ar));
    concat.imply(Lit::pos(a2), Lit::pos(ar));
    concat.assert_lit(Lit::pos(ar)); // a later select demands the field
    concat.assert_lit(Lit::neg(a1)); // left operand lacks it
    show("asymmetric concat, field demanded", &concat);

    // --- symmetric concatenation adds mutual exclusion -----------------
    let mut sym = concat.clone();
    sym.add_lits(vec![Lit::neg(a1), Lit::neg(a2)]);
    show("symmetric concat (¬(f1 ∧ f2) added)", &sym);

    // Duplicate field: both sides present.
    let (b1, b2) = (fresh(), fresh());
    let mut dup = Cnf::top();
    dup.assert_lit(Lit::pos(b1));
    dup.assert_lit(Lit::pos(b2));
    dup.add_lits(vec![Lit::neg(b1), Lit::neg(b2)]);
    show("symmetric concat with duplicate field", &dup);

    // --- `when N in x`: guarded clauses --------------------------------
    let (ff, ft, fe2, fr) = (fresh(), fresh(), fresh(), fresh());
    let mut when = Cnf::top();
    // ff → (fr → ft) and ¬ff → (fr → fe2); the then-branch has the field,
    // the else-branch does not, and the result is selected.
    when.add_lits(vec![Lit::neg(ff), Lit::neg(fr), Lit::pos(ft)]);
    when.add_lits(vec![Lit::pos(ff), Lit::neg(fr), Lit::pos(fe2)]);
    when.assert_lit(Lit::pos(ft));
    when.assert_lit(Lit::neg(fe2));
    when.assert_lit(Lit::pos(fr));
    show("when-conditional, result selected", &when);
}

fn show(name: &str, cnf: &Cnf) {
    let class = classify(cnf);
    let auto = cnf.solve();
    let cdcl =
        sat::solve_as(cnf, SatClass::General, &SatBudget::unlimited()).expect("unlimited budget");
    assert_eq!(auto.is_sat(), cdcl.is_sat(), "solvers must agree");
    println!("{name}");
    println!("  β      = {cnf:?}");
    println!("  class  = {class:?}");
    match auto {
        rowpoly::boolfun::SatResult::Sat(model) => {
            let on: Vec<String> = model
                .iter()
                .filter(|(_, &v)| v)
                .map(|(f, _)| f.to_string())
                .collect();
            println!("  SAT    — fields present: [{}]", on.join(", "));
        }
        rowpoly::boolfun::SatResult::Unsat(chain) => {
            println!("  UNSAT  — conflict chain: {chain:?}");
        }
    }
    println!();
}
