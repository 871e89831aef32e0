//! One-shot solving: one cold proved solve ([`sat::solve_proved`]) per
//! formula. The conflict chain, unsat core and deletion-minimized core
//! of an unsat formula feed `--explain`, so over seeded random CNFs of
//! every solver class an FNV-1a digest of those cold answers must equal
//! the one captured from the original one-shot per-class drivers; any
//! drift in them fails here. Verdicts are checked against model
//! enumeration and every proof replays through [`ProofChecker`].

use rowpoly_boolfun::sat::{self, check_model};
use rowpoly_boolfun::{
    classify, minimize_core, Clause, Cnf, Flag, Lit, Proof, ProofChecker, SatBudget, SatResult,
};
use rowpoly_obs::rng::SplitMix64;

/// Formulas per solver class.
const CASES: usize = 500;

/// FNV-1a over the answers of every case, captured from the original
/// one-shot class-dispatched drivers.
const DIGEST: u64 = 0x0d07_7194_fdc8_2bef;

#[derive(Clone, Copy)]
enum Shape {
    TwoSat,
    Horn,
    DualHorn,
    General,
}

fn gen_clause(rng: &mut SplitMix64, shape: Shape, nflags: u32) -> Clause {
    loop {
        let len = match shape {
            Shape::TwoSat => rng.gen_range(1..3usize),
            _ => rng.gen_range(1..4usize),
        };
        let lits: Vec<Lit> = (0..len)
            .map(|i| {
                let f = Flag(rng.gen_range(0..nflags));
                let neg = match shape {
                    Shape::Horn => i > 0 || rng.gen_range(0..3u8) == 0,
                    Shape::DualHorn => !(i > 0 || rng.gen_range(0..3u8) == 0),
                    _ => rng.gen_bool(0.5),
                };
                Lit::new(f, neg)
            })
            .collect();
        // Tautologies come back as None; redraw.
        if let Some(c) = Clause::new(lits) {
            return c;
        }
    }
}

fn gen_cnf(rng: &mut SplitMix64, shape: Shape) -> Cnf {
    let nflags = rng.gen_range(2..9u32);
    let nclauses = rng.gen_range(1..17usize);
    Cnf::from_clauses((0..nclauses).map(|_| gen_clause(rng, shape, nflags)))
}

fn cold_solve(cnf: &Cnf) -> (SatResult, Proof) {
    sat::solve_proved(cnf, &SatBudget::unlimited()).expect("unlimited budget")
}

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, tag: u8, words: impl IntoIterator<Item = usize>) {
        self.write(&[tag]);
        for w in words {
            self.write(&(w as u32).to_le_bytes());
        }
    }
}

#[test]
fn cold_answers_match_the_captured_digest() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut unsat = 0;
    for shape in [Shape::TwoSat, Shape::Horn, Shape::DualHorn, Shape::General] {
        for case in 0..CASES {
            let cnf = gen_cnf(&mut rng, shape);
            let what = format!("{} case {case}: {cnf:?}", classify(&cnf));
            let (res, proof) = cold_solve(&cnf);
            if let Err(e) = ProofChecker::check(&cnf, &proof) {
                panic!("cold proof rejected ({e}), {what}\nproof: {proof:?}");
            }
            let universe: Vec<Flag> = cnf.flags().into_iter().collect();
            let brute = !cnf.models(&universe).is_empty();
            assert_eq!(res.is_sat(), brute, "verdict, {what}");
            match res {
                SatResult::Sat(m) => {
                    assert!(check_model(&cnf, &m), "model, {what}");
                    digest.words(1, []);
                }
                SatResult::Unsat(chain) => {
                    unsat += 1;
                    let core = &proof.unsat().expect("unsat proof").core;
                    digest.words(0, chain.iter().map(|l| l.code()));
                    digest.words(2, core.iter().copied());
                    digest.words(3, minimize_core(&cnf, core));
                }
            }
        }
    }
    assert!(unsat > CASES, "only {unsat} unsat cases");
    assert_eq!(
        digest.0, DIGEST,
        "cold answers drifted: digest {:#018x}",
        digest.0
    );
}
