//! Property tests for the Boolean-function domain: the syntactic
//! operations (expansion, projection) agree with their model-theoretic
//! specifications, and all solvers agree with brute force.
//!
//! Sampling uses the in-tree seeded PRNG (`rowpoly_obs::rng`) instead
//! of `proptest` — the build environment has no crates.io access. Case
//! counts scale with the `exhaustive` feature via `rowpoly_obs::cases`.

use rowpoly_boolfun::{
    classify, sat, Clause, Cnf, Flag, FlagSet, Lit, SatBudget, SatClass, SatResult,
};
use rowpoly_obs::cases;
use rowpoly_obs::rng::SplitMix64;
use std::collections::BTreeSet;

/// A random literal over `nflags` flags.
fn lit(rng: &mut SplitMix64, nflags: u32) -> Lit {
    Lit::new(Flag(rng.gen_range(0..nflags)), rng.gen_bool(0.5))
}

/// A random CNF over `nflags` flags with up to `max_clauses` clauses of
/// up to `max_width` literals.
fn cnf(rng: &mut SplitMix64, nflags: u32, max_clauses: usize, max_width: usize) -> Cnf {
    let nclauses = rng.gen_range(0..max_clauses + 1);
    let mut b = Cnf::top();
    for _ in 0..nclauses {
        let width = rng.gen_range(1..max_width + 1);
        b.add_lits((0..width).map(|_| lit(rng, nflags)).collect());
    }
    b.normalize();
    b
}

const N: u32 = 6;

fn universe() -> Vec<Flag> {
    (0..N).map(Flag).collect()
}

/// Solves `f` with the engine of `class` forced.
fn solve_as(f: &Cnf, class: SatClass) -> SatResult {
    sat::solve_as(f, class, &SatBudget::unlimited()).expect("unlimited budget")
}

/// Every solver agrees with brute-force model enumeration.
#[test]
fn solvers_agree_with_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0xB001);
    for case in 0..cases(256) {
        let f = cnf(&mut rng, N, 14, 3);
        let brute = !f.models(&universe()).is_empty();
        assert_eq!(f.is_sat(), brute, "case {case}: auto vs brute on {f:?}");
        assert_eq!(
            solve_as(&f, SatClass::General).is_sat(),
            brute,
            "case {case}: cdcl vs brute on {f:?}"
        );
        match classify(&f) {
            SatClass::TwoSat => assert_eq!(
                solve_as(&f, SatClass::TwoSat).is_sat(),
                brute,
                "case {case}: twosat vs brute on {f:?}"
            ),
            SatClass::Horn => assert_eq!(
                solve_as(&f, SatClass::Horn).is_sat(),
                brute,
                "case {case}: horn vs brute on {f:?}"
            ),
            _ => {}
        }
    }
}

/// Returned models actually satisfy the formula.
#[test]
fn models_are_models() {
    let mut rng = SplitMix64::seed_from_u64(0xB002);
    for _ in 0..cases(256) {
        let f = cnf(&mut rng, N, 14, 3);
        if let SatResult::Sat(m) = f.solve() {
            assert!(rowpoly_boolfun::sat::check_model(&f, &m), "{m:?} ⊭ {f:?}");
        }
    }
}

/// Projection is exactly model restriction: models(∃D.β) over the
/// remaining flags = the restrictions of models(β).
#[test]
fn projection_is_model_restriction() {
    let mut rng = SplitMix64::seed_from_u64(0xB003);
    for _ in 0..cases(256) {
        let f = cnf(&mut rng, N, 10, 3);
        let dead_mask = rng.gen_range(0u32..1 << N);
        let dead: FlagSet = (0..N)
            .filter(|i| dead_mask >> i & 1 == 1)
            .map(Flag)
            .collect();
        let remaining: Vec<Flag> = (0..N).map(Flag).filter(|fl| !dead.contains(fl)).collect();

        let mut expect: BTreeSet<BTreeSet<Flag>> = BTreeSet::new();
        for m in f.models(&universe()) {
            expect.insert(m.into_iter().filter(|fl| !dead.contains(fl)).collect());
        }
        let mut projected = f.clone();
        projected.project_out(&dead);
        let got: BTreeSet<BTreeSet<Flag>> = projected.models(&remaining).into_iter().collect();
        assert_eq!(got, expect, "projection of {f:?} by {dead:?}");
    }
}

/// Expansion implements Definition 2 syntactically: the result is the
/// original conjoined with a renamed copy of every clause mentioning a
/// source flag.
#[test]
fn expansion_matches_definition_2() {
    let mut rng = SplitMix64::seed_from_u64(0xB004);
    for _ in 0..cases(256) {
        let f = cnf(&mut rng, 4, 10, 3);
        // Sources: flags 0 and 1; targets: fresh flags 4 and 5, with the
        // second target contra-variant (negated).
        let sources = [Flag(0), Flag(1)];
        let targets = [Lit::pos(Flag(4)), Lit::neg(Flag(5))];
        let mut expanded = f.clone();
        expanded.expand(&sources, &targets);

        let mut expect = f.clone();
        for c in f.clauses() {
            if c.lits().iter().any(|l| sources.contains(&l.flag())) {
                let copy = c.rename(|l| match sources.iter().position(|&s| s == l.flag()) {
                    Some(i) => targets[i].xor_sign(l.is_neg()),
                    None => l,
                });
                if let Some(copy) = copy {
                    expect.add_clause(copy);
                }
            }
        }
        expect.normalize();
        assert!(expanded.equivalent(&expect), "{expanded:?} vs {expect:?}");
    }
}

/// Expansion never affects satisfiability when the targets are fresh:
/// the copies constrain only fresh flags.
#[test]
fn expansion_with_fresh_targets_preserves_sat() {
    let mut rng = SplitMix64::seed_from_u64(0xB005);
    for _ in 0..cases(256) {
        let f = cnf(&mut rng, 4, 10, 3);
        let mut expanded = f.clone();
        expanded.expand(&[Flag(0), Flag(1)], &[Lit::pos(Flag(8)), Lit::pos(Flag(9))]);
        assert_eq!(
            expanded.is_sat(),
            f.is_sat(),
            "expansion changed sat of {f:?}"
        );
    }
}

/// `classify` is sound: the reported class's syntactic invariant holds.
#[test]
fn classification_is_sound() {
    let mut rng = SplitMix64::seed_from_u64(0xB006);
    for _ in 0..cases(256) {
        let f = cnf(&mut rng, N, 12, 4);
        match classify(&f) {
            SatClass::Trivial => assert!(f.is_empty()),
            SatClass::Unsat => assert!(f.has_empty_clause()),
            SatClass::TwoSat => {
                assert!(f.clauses().iter().all(|c| c.len() <= 2), "{f:?}")
            }
            SatClass::Horn => assert!(
                f.clauses()
                    .iter()
                    .all(|c| c.lits().iter().filter(|l| !l.is_neg()).count() <= 1),
                "{f:?}"
            ),
            SatClass::DualHorn => assert!(
                f.clauses()
                    .iter()
                    .all(|c| c.lits().iter().filter(|l| l.is_neg()).count() <= 1),
                "{f:?}"
            ),
            SatClass::General => {}
        }
    }
}

/// Subsumption preserves logical equivalence.
#[test]
fn subsumption_preserves_equivalence() {
    let mut rng = SplitMix64::seed_from_u64(0xB007);
    for _ in 0..cases(256) {
        let f = cnf(&mut rng, N, 12, 3);
        let mut reduced = f.clone();
        reduced.subsume();
        assert!(reduced.equivalent(&f), "{reduced:?} vs {f:?}");
        assert!(reduced.len() <= f.len());
    }
}

/// Clause resolution is sound: the resolvent is entailed.
#[test]
fn resolution_is_entailed() {
    let mut rng = SplitMix64::seed_from_u64(0xB008);
    for _ in 0..cases(256) {
        let a: Vec<Lit> = (0..rng.gen_range(1..4usize))
            .map(|_| lit(&mut rng, N))
            .collect();
        let b: Vec<Lit> = (0..rng.gen_range(1..4usize))
            .map(|_| lit(&mut rng, N))
            .collect();
        let (Some(ca), Some(cb)) = (Clause::new(a), Clause::new(b)) else {
            continue;
        };
        // Find a pivot present positively in `ca` and negatively in `cb`.
        let pivot = ca.lits().iter().copied().find(|l| cb.contains(l.negate()));
        if let Some(p) = pivot {
            if let Some(r) = ca.resolve(&cb, p) {
                let both = Cnf::from_clauses([ca.clone(), cb.clone()]);
                assert!(both.entails_clause(&r), "{ca:?}, {cb:?} ⊭ {r:?}");
            }
        }
    }
}
