//! Randomized equivalence: a warm [`Session`] vs brute force and vs a
//! cold session over seeded clause-add/retract scripts, one batch of
//! seeds per solver class, with proof checking forced on — every warm
//! and cold verdict is proved and replayed by the independent checker,
//! and every script step cross-checks model enumeration on the same
//! active clause set.

use rowpoly_boolfun::sat::check_model;
use rowpoly_boolfun::{
    classify, set_check_proofs, Clause, Flag, Lit, SatBudget, SatResult, Session,
};

/// Flags every script draws from.
const NFLAGS: usize = 8;

/// Deterministic splitmix64; no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Clone, Copy)]
enum Shape {
    TwoSat,
    Horn,
    DualHorn,
    General,
}

fn gen_clause(rng: &mut Rng, shape: Shape, nflags: usize) -> Clause {
    loop {
        let len = match shape {
            Shape::TwoSat => 1 + rng.below(2),
            _ => 1 + rng.below(3),
        };
        let mut lits: Vec<Lit> = Vec::with_capacity(len);
        for i in 0..len {
            let f = Flag(rng.below(nflags) as u32);
            let neg = match shape {
                Shape::Horn => i > 0 || rng.below(3) == 0,
                Shape::DualHorn => !(i > 0 || rng.below(3) == 0),
                _ => rng.below(2) == 0,
            };
            lits.push(Lit::new(f, neg));
        }
        // Tautologies come back as None; redraw.
        if let Some(c) = Clause::new(lits) {
            return c;
        }
    }
}

/// Runs one add/retract script, asserting after every step that the
/// warm verdict matches brute force and a cold solve of the same
/// active set.
fn run_script(seed: u64, shape: Shape) {
    let mut rng = Rng(seed);
    let mut session = Session::new();
    let mut live: Vec<u32> = Vec::new();
    let budget = SatBudget::unlimited();
    let universe: Vec<Flag> = (0..NFLAGS as u32).map(Flag).collect();
    for _ in 0..25 {
        if !live.is_empty() && rng.below(5) == 0 {
            let slot = live.swap_remove(rng.below(live.len()));
            session.retract(slot);
        } else {
            let c = gen_clause(&mut rng, shape, NFLAGS);
            live.push(session.push(&c));
        }
        let cnf = session.active_cnf();
        assert_eq!(
            session.class(),
            classify(&cnf),
            "class diverged (seed {seed})"
        );
        // Proof checking is on: this proves the verdict and replays the
        // witness against the active set before returning.
        let incr = session.solve(&budget).expect("unlimited");
        let cold = Session::cold(&cnf).solve(&budget).expect("unlimited");
        assert_eq!(
            incr.is_sat(),
            !cnf.models(&universe).is_empty(),
            "verdict wrong (seed {seed}, {} clauses)",
            cnf.len()
        );
        assert_eq!(
            incr.is_sat(),
            cold.is_sat(),
            "warm and cold diverged (seed {seed}, {} clauses)",
            cnf.len()
        );
        if let SatResult::Sat(m) = &incr {
            assert!(check_model(&cnf, m), "invalid model (seed {seed})");
        }
    }
}

fn run_batch(shape: Shape, base: u64) {
    set_check_proofs(true);
    for seed in 0..rowpoly_obs::cases(50) as u64 {
        run_script(base + seed, shape);
    }
}

#[test]
fn twosat_scripts_agree_with_brute_force() {
    run_batch(Shape::TwoSat, 0x2541);
}

#[test]
fn horn_scripts_agree_with_brute_force() {
    run_batch(Shape::Horn, 0x4042);
}

#[test]
fn dual_horn_scripts_agree_with_brute_force() {
    run_batch(Shape::DualHorn, 0x6743);
}

#[test]
fn general_scripts_agree_with_brute_force() {
    run_batch(Shape::General, 0x8f44);
}
