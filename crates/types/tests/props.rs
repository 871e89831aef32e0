//! Property tests for unification and substitutions over random skeleton
//! types (including rows).
//!
//! Sampling uses the in-tree seeded PRNG (`rowpoly_obs::rng`) instead
//! of `proptest`; case counts scale with the `exhaustive` feature.

use rowpoly_lang::Symbol;
use rowpoly_obs::cases;
use rowpoly_obs::rng::SplitMix64;
use rowpoly_types::{unify, FieldEntry, RowTail, Subst, Ty, Var, VarAlloc, NO_FLAG};

const FIELD_POOL: [&str; 4] = ["a", "b", "c", "d"];

/// Random skeleton types over variables `t0..t5`, with row variables
/// drawn from the disjoint pool `t6..t8` so a variable never plays both
/// sorts.
fn ty(rng: &mut SplitMix64, depth: usize) -> Ty {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..4u8) {
            0 | 1 => Ty::svar(Var(rng.gen_range(0..6u32))),
            2 => Ty::Int,
            _ => Ty::Str,
        };
    }
    match rng.gen_range(0..3u8) {
        0 => Ty::fun(ty(rng, depth - 1), ty(rng, depth - 1)),
        1 => Ty::list(ty(rng, depth - 1)),
        _ => {
            let mut idx: Vec<usize> = (0..FIELD_POOL.len()).collect();
            rng.shuffle(&mut idx);
            let mut idx: Vec<usize> = idx.into_iter().take(rng.gen_range(0..3usize)).collect();
            idx.sort_unstable();
            let fields = idx
                .into_iter()
                .map(|i| FieldEntry {
                    name: Symbol::intern(FIELD_POOL[i]),
                    flag: NO_FLAG,
                    ty: ty(rng, depth - 1),
                })
                .collect();
            let tail = if rng.gen_bool(0.5) {
                RowTail::Var(Var(rng.gen_range(6..9u32)), NO_FLAG)
            } else {
                RowTail::Closed
            };
            Ty::record(fields, tail)
        }
    }
}

fn pair(rng: &mut SplitMix64) -> (Ty, Ty) {
    (ty(rng, 3), ty(rng, 3))
}

fn fresh_alloc() -> VarAlloc {
    let mut a = VarAlloc::new();
    for _ in 0..16 {
        a.fresh(); // reserve the ids used by the generator
    }
    a
}

/// A unifier actually unifies: σ(t1) == σ(t2) (on skeletons).
#[test]
fn unifier_unifies() {
    let mut rng = SplitMix64::seed_from_u64(0x7101);
    for _ in 0..cases(512) {
        let (t1, t2) = pair(&mut rng);
        let mut vars = fresh_alloc();
        if let Ok(s) = unify(&t1, &t2, &mut vars) {
            assert_eq!(s.apply(&t1).strip(), s.apply(&t2).strip(), "σ = {s:?}");
        }
    }
}

/// Unification is symmetric in success.
#[test]
fn unification_is_symmetric() {
    let mut rng = SplitMix64::seed_from_u64(0x7102);
    for _ in 0..cases(512) {
        let (t1, t2) = pair(&mut rng);
        let mut v1 = fresh_alloc();
        let mut v2 = fresh_alloc();
        assert_eq!(
            unify(&t1, &t2, &mut v1).is_ok(),
            unify(&t2, &t1, &mut v2).is_ok(),
            "{t1:?} ~ {t2:?}"
        );
    }
}

/// Every type unifies with itself, with an effectively-identity unifier.
#[test]
fn unification_is_reflexive() {
    let mut rng = SplitMix64::seed_from_u64(0x7103);
    for _ in 0..cases(512) {
        let t = ty(&mut rng, 3);
        let mut vars = fresh_alloc();
        let s = unify(&t, &t, &mut vars).expect("t ~ t");
        assert_eq!(s.apply(&t).strip(), t.strip());
    }
}

/// Unifiers are idempotent: applying twice equals applying once.
/// (The probe must be built from the unified terms — a substitution is
/// only meaningful for types whose row constraints took part in the
/// unification.)
#[test]
fn unifiers_are_idempotent() {
    let mut rng = SplitMix64::seed_from_u64(0x7104);
    for _ in 0..cases(512) {
        let (t1, t2) = pair(&mut rng);
        let mut vars = fresh_alloc();
        if let Ok(s) = unify(&t1, &t2, &mut vars) {
            let probe = Ty::fun(t1.clone(), Ty::list(t2.clone()));
            let once = s.apply(&probe);
            assert_eq!(s.apply(&once), once);
        }
    }
}

/// A unifier binds no variable to a term containing it (occurs-check
/// invariant).
#[test]
fn no_cyclic_bindings() {
    let mut rng = SplitMix64::seed_from_u64(0x7105);
    for _ in 0..cases(512) {
        let (t1, t2) = pair(&mut rng);
        let mut vars = fresh_alloc();
        if let Ok(s) = unify(&t1, &t2, &mut vars) {
            for (v, bound) in s.ty_bindings() {
                assert!(!bound.mentions_var(v), "{v:?} ↦ {bound:?}");
            }
            for (v, row) in s.row_bindings() {
                assert!(!Ty::Record(row.clone()).mentions_var(v), "{v:?} ↦ {row:?}");
            }
        }
    }
}

/// Unification with a fresh variable always succeeds and binds it to
/// (an instance of) the type.
#[test]
fn fresh_variable_unifies_with_anything() {
    let mut rng = SplitMix64::seed_from_u64(0x7106);
    for _ in 0..cases(512) {
        let t = ty(&mut rng, 3);
        let mut vars = fresh_alloc();
        // Fresh type variables start beyond both generator pools.
        for _ in 0..8 {
            vars.fresh();
        }
        let v = vars.fresh();
        let s = unify(&Ty::svar(v), &t, &mut vars).expect("fresh var unifies");
        assert_eq!(s.apply(&Ty::svar(v)).strip(), s.apply(&t).strip());
    }
}

/// `strip` is idempotent and `decorate ∘ strip` preserves skeletons.
#[test]
fn strip_decorate_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0x7107);
    for _ in 0..cases(512) {
        let t = ty(&mut rng, 3);
        let stripped = t.strip();
        assert_eq!(stripped.strip(), stripped.clone());
        let mut flags = rowpoly_boolfun::FlagAlloc::new();
        let decorated = stripped.decorate(&mut flags);
        assert_eq!(decorated.strip(), stripped);
        // One fresh flag per flag position.
        assert_eq!(decorated.flags().len(), flags.count());
    }
}

/// The empty substitution is the identity.
#[test]
fn empty_subst_is_identity() {
    let mut rng = SplitMix64::seed_from_u64(0x7108);
    for _ in 0..cases(512) {
        let t = ty(&mut rng, 3);
        assert_eq!(Subst::new().apply(&t), t);
    }
}
