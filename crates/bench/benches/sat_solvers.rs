//! Solver ablation: the same formula families decided by the class-
//! dispatched solver versus one forced onto CDCL, matching the paper's
//! Section 5 complexity classification (select/update ⇒ 2-SAT,
//! asymmetric concat ⇒ Horn, symmetric concat / `when` ⇒ general CNF).
//! Every solve is cold: no state carries over between solves.

use rowpoly_bench::bench;
use rowpoly_boolfun::{sat, Cnf, Flag, Lit, SatBudget, SatClass};

/// Decides `f` with the engine of `class` forced.
fn sat_as(class: SatClass, f: &Cnf) -> bool {
    sat::solve_as(f, class, &SatBudget::unlimited())
        .expect("unlimited budget")
        .is_sat()
}

/// Implication-chain formulas (what select/update programs generate).
fn chain(n: u32) -> Cnf {
    let mut b = Cnf::top();
    for i in 0..n {
        b.imply(Lit::pos(Flag(i)), Lit::pos(Flag(i + 1)));
        b.iff(Lit::pos(Flag(i)), Lit::pos(Flag(n + 1 + i)));
    }
    b.assert_lit(Lit::pos(Flag(0)));
    b
}

/// Horn rule sets (asymmetric concatenation's inverted-flag clauses).
fn horn_rules(n: u32) -> Cnf {
    let mut b = Cnf::top();
    b.assert_lit(Lit::pos(Flag(0)));
    b.assert_lit(Lit::pos(Flag(1)));
    for i in 0..n {
        b.add_lits(vec![
            Lit::neg(Flag(i)),
            Lit::neg(Flag(i + 1)),
            Lit::pos(Flag(i + 2)),
        ]);
    }
    b
}

/// General CNF in the style of symmetric concatenation: disjunctive
/// existence plus mutual exclusion.
fn symmetric(n: u32) -> Cnf {
    let mut b = Cnf::top();
    for i in 0..n {
        let (f1, f2, fr) = (Flag(3 * i), Flag(3 * i + 1), Flag(3 * i + 2));
        b.add_lits(vec![Lit::neg(fr), Lit::pos(f1), Lit::pos(f2)]);
        b.imply(Lit::pos(f1), Lit::pos(fr));
        b.imply(Lit::pos(f2), Lit::pos(fr));
        b.add_lits(vec![Lit::neg(f1), Lit::neg(f2)]);
        b.assert_lit(Lit::pos(fr));
    }
    b
}

fn main() {
    for n in [100u32, 1000, 5000] {
        let f = chain(n);
        bench(&format!("sat_solvers/twosat_on_chain/{n}"), || {
            assert!(sat_as(SatClass::TwoSat, &f))
        });
        bench(&format!("sat_solvers/cdcl_on_chain/{n}"), || {
            assert!(sat_as(SatClass::General, &f))
        });
        let h = horn_rules(n);
        bench(&format!("sat_solvers/horn_on_rules/{n}"), || {
            assert!(sat_as(SatClass::Horn, &h))
        });
        bench(&format!("sat_solvers/cdcl_on_rules/{n}"), || {
            assert!(sat_as(SatClass::General, &h))
        });
        let s = symmetric(n / 2);
        bench(&format!("sat_solvers/cdcl_on_symmetric/{n}"), || {
            assert!(sat_as(SatClass::General, &s))
        });
        bench(&format!("sat_solvers/auto_dispatch_chain/{n}"), || {
            assert!(f.is_sat())
        });
    }
}
