//! Differential tests for the indexed projection engine: on randomized
//! CNFs from each of the paper's Boolean classes (2-SAT, Horn, general),
//! `Cnf::project_out` must agree with the retained naive Davis–Putnam
//! reference `Cnf::project_out_dp` on model semantics, satisfiability,
//! and mutual entailment — and the class-aware dispatch must route
//! binary-only pivots through the fast path.
//!
//! Sampling uses the in-tree seeded PRNG (`rowpoly_obs::rng`) instead of
//! `proptest` — the build environment has no crates.io access.

use std::collections::BTreeSet;

use rowpoly_boolfun::{Cnf, Flag, FlagSet, Lit, ProjectStats};
use rowpoly_obs::cases;
use rowpoly_obs::rng::SplitMix64;

const N: u32 = 6;

fn universe() -> Vec<Flag> {
    (0..N).map(Flag).collect()
}

fn lit(rng: &mut SplitMix64, nflags: u32) -> Lit {
    Lit::new(Flag(rng.gen_range(0..nflags)), rng.gen_bool(0.5))
}

/// Random 2-SAT formula: units and binary clauses only (the class that
/// select/update generate; ~99% of fig9 β-clauses).
fn cnf_twosat(rng: &mut SplitMix64) -> Cnf {
    let mut b = Cnf::top();
    for _ in 0..rng.gen_range(0..14usize) {
        let width = rng.gen_range(1..3usize);
        b.add_lits((0..width).map(|_| lit(rng, N)).collect());
    }
    b.normalize();
    b
}

/// Random Horn formula: at most one positive literal per clause
/// (asymmetric concatenation's class).
fn cnf_horn(rng: &mut SplitMix64) -> Cnf {
    let mut b = Cnf::top();
    for _ in 0..rng.gen_range(0..12usize) {
        let negs = rng.gen_range(0..3usize);
        let mut lits: Vec<Lit> = (0..negs)
            .map(|_| Lit::neg(Flag(rng.gen_range(0..N))))
            .collect();
        if rng.gen_bool(0.7) {
            lits.push(Lit::pos(Flag(rng.gen_range(0..N))));
        }
        if lits.is_empty() {
            continue;
        }
        b.add_lits(lits);
    }
    b.normalize();
    b
}

/// Random general CNF with clauses wide enough to force the
/// Davis–Putnam fallback (symmetric concat / `when` shapes).
fn cnf_general(rng: &mut SplitMix64) -> Cnf {
    let mut b = Cnf::top();
    for _ in 0..rng.gen_range(0..12usize) {
        let width = rng.gen_range(1..5usize);
        b.add_lits((0..width).map(|_| lit(rng, N)).collect());
    }
    b.normalize();
    b
}

/// A random non-empty dead set over the universe.
fn dead_set(rng: &mut SplitMix64) -> FlagSet {
    let mask = rng.gen_range(1u32..1 << N);
    (0..N).filter(|i| mask >> i & 1 == 1).map(Flag).collect()
}

/// Runs both engines on clones of `f` and checks they agree on
/// satisfiability, mutual entailment, and model semantics over the
/// remaining flags.
fn check_agreement(f: &Cnf, dead: &FlagSet, ctx: &str) {
    let remaining: Vec<Flag> = universe()
        .into_iter()
        .filter(|x| !dead.contains(x))
        .collect();
    let mut expect: BTreeSet<BTreeSet<Flag>> = BTreeSet::new();
    for m in f.models(&universe()) {
        expect.insert(m.into_iter().filter(|x| !dead.contains(x)).collect());
    }

    let mut indexed = f.clone();
    indexed.project_out(dead);
    let mut reference = f.clone();
    reference.project_out_dp(dead);

    assert_eq!(
        indexed.is_sat(),
        reference.is_sat(),
        "{ctx}: sat disagreement projecting {dead:?} from {f:?}"
    );
    assert!(
        indexed.entails(&reference),
        "{ctx}: indexed {indexed:?} ⊭ reference {reference:?} (from {f:?} minus {dead:?})"
    );
    assert!(
        reference.entails(&indexed),
        "{ctx}: reference {reference:?} ⊭ indexed {indexed:?} (from {f:?} minus {dead:?})"
    );
    let got: BTreeSet<BTreeSet<Flag>> = indexed.models(&remaining).into_iter().collect();
    assert_eq!(
        got, expect,
        "{ctx}: model semantics broken projecting {dead:?} from {f:?}"
    );
}

#[test]
fn twosat_projection_matches_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE_0001);
    for case in 0..cases(256) {
        let f = cnf_twosat(&mut rng);
        let dead = dead_set(&mut rng);
        check_agreement(&f, &dead, &format!("2-sat case {case}"));
    }
}

#[test]
fn horn_projection_matches_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE_0002);
    for case in 0..cases(256) {
        let f = cnf_horn(&mut rng);
        let dead = dead_set(&mut rng);
        check_agreement(&f, &dead, &format!("horn case {case}"));
    }
}

#[test]
fn general_projection_matches_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE_0003);
    for case in 0..cases(256) {
        let f = cnf_general(&mut rng);
        let dead = dead_set(&mut rng);
        check_agreement(&f, &dead, &format!("general case {case}"));
    }
}

/// 2-SAT inputs never hit the Davis–Putnam fallback: resolvents of
/// binary clauses are at most binary, so the whole elimination sequence
/// stays on the implication-graph fast path.
#[test]
fn twosat_eliminations_stay_on_the_fast_path() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE_0004);
    let mut fastpath_total = 0usize;
    for case in 0..cases(256) {
        let f = cnf_twosat(&mut rng);
        let dead = dead_set(&mut rng);
        let mut projected = f.clone();
        let stats = projected.project_out(&dead);
        assert_eq!(
            stats.fallback, 0,
            "case {case}: fallback on 2-sat input {f:?} minus {dead:?}"
        );
        assert_eq!(stats.eliminated, stats.fastpath, "case {case}");
        fastpath_total += stats.fastpath;
    }
    assert!(fastpath_total > 0, "sampling never exercised the fast path");
}

/// Wide clauses route their pivots through the fallback, and the split
/// between the two paths always accounts for every elimination.
#[test]
fn elimination_counters_are_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE_0005);
    let mut fallback_total = 0usize;
    for case in 0..cases(256) {
        let f = cnf_general(&mut rng);
        let dead = dead_set(&mut rng);
        let mut projected = f.clone();
        let stats = projected.project_out(&dead);
        assert_eq!(
            stats.eliminated,
            stats.fastpath + stats.fallback,
            "case {case}: paths do not partition eliminations on {f:?}"
        );
        fallback_total += stats.fallback;
    }
    assert!(fallback_total > 0, "sampling never exercised the fallback");
}

/// Projections run back to back per family for the digest test.
const DIGEST_CASES: usize = 400;

/// FNV-1a over the output clauses and [`ProjectStats`] of every
/// projection in [`projection_output_matches_the_captured_digest`],
/// captured from the engine that allocated a fresh database per call.
const PROJECT_DIGEST: u64 = 0xec8d_fb3a_76c1_2a19;

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

    fn projection(&mut self, cnf: &Cnf, stats: &ProjectStats) {
        for c in cnf.clauses() {
            self.words(0, c.lits().iter().map(|l| l.code()));
        }
        self.words(
            1,
            [
                stats.eliminated,
                stats.fastpath,
                stats.fallback,
                stats.resolvents,
                stats.subsumed,
                stats.sig_checks,
                stats.sig_pruned,
            ],
        );
    }
}

/// A clause of 1 to `max_width` literals over `nflags` flags; `horn`
/// keeps at most one literal positive.
fn wide_clause(rng: &mut SplitMix64, nflags: u32, max_width: usize, horn: bool) -> Vec<Lit> {
    let width = rng.gen_range(1..max_width + 1);
    (0..width)
        .map(|i| {
            let neg = if horn {
                i > 0 || rng.gen_bool(0.3)
            } else {
                rng.gen_bool(0.5)
            };
            Lit::new(Flag(rng.gen_range(0..nflags)), neg)
        })
        .collect()
}

/// Over seeded 2-SAT, Horn and general formulas — clauses of up to six
/// literals, so both the inline and the boxed clause forms appear — the
/// projection engine's output clauses and counters must equal the
/// captured digest. Every projection runs on this one thread, back to
/// back, and each result is projected a second time: state carried from
/// one call into the next would change the digest.
#[test]
fn projection_output_matches_the_captured_digest() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE_0006);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    // (max clause width, Horn shape, max flags, max clauses)
    let families = [(2, false, 80, 120), (6, true, 24, 40), (6, false, 14, 20)];
    let mut total = ProjectStats::default();
    let (mut sweeps, mut unsat) = (0, 0);
    for (max_width, horn, max_flags, max_clauses) in families {
        for _ in 0..DIGEST_CASES {
            let nflags = rng.gen_range(2..max_flags + 1);
            let mut f = Cnf::top();
            for _ in 0..rng.gen_range(0..max_clauses + 1) {
                f.add_lits(wide_clause(&mut rng, nflags, max_width, horn));
            }
            if rng.gen_bool(0.5) {
                f.normalize();
            }
            let density = rng.gen_range(1..5u32);
            let dead: Vec<Flag> = (0..nflags)
                .filter(|_| rng.gen_range(0..5u32) < density)
                .map(Flag)
                .collect();
            let stats = match rng.gen_range(0..3u8) {
                0 => f.project_out(&dead.iter().copied().collect()),
                1 => f.project_out_sorted(&dead),
                _ => f.project_unless(|x| dead.binary_search(&x).is_err()),
            };
            digest.projection(&f, &stats);
            total.merge(&stats);
            sweeps += usize::from(stats.eliminated > 32);
            // Then keep only the low half of the remaining flags.
            let keep: FlagSet = (0..nflags / 2).map(Flag).collect();
            let stats = f.project_onto(&keep);
            digest.projection(&f, &stats);
            total.merge(&stats);
            unsat += usize::from(f.has_empty_clause());
        }
    }
    assert!(total.fastpath > 0 && total.fallback > 0, "{total:?}");
    assert!(sweeps > 0, "no projection took the sweep path");
    assert!(unsat > 0, "no projection derived the empty clause");
    assert_eq!(
        digest.0, PROJECT_DIGEST,
        "projection output drifted: digest {:#018x}",
        digest.0
    );
}
