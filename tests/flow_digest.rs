//! Byte-identical flows: an FNV-1a digest over the flag-showing scheme
//! and the `type | flow` rendering of every definition of seeded decoder
//! programs (with the semantics layer) and seeded guarded programs,
//! under the default options, per-definition compaction and the naive
//! environment meet. Flag numbers appear verbatim in both renderings, so
//! any change in the order flags are allocated, clauses reach β or
//! bindings are paired shows up here. The digest was captured before
//! the environment's local layer became shared entries with cached
//! summaries.

use rowpoly::core::{Compaction, Options, Session};
use rowpoly::gen::{generate, generate_guarded, GenParams, GuardedParams};
use rowpoly::lang::Program;

/// FNV-1a over every rendering below.
const DIGEST: u64 = 0xcb1b_aac0_6ab1_9d8f;

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn programs() -> Vec<Program> {
    let mut out = Vec::new();
    for seed in 0..4 {
        out.push(generate(&GenParams {
            seed,
            groups: 2,
            decoders_per_group: 3,
            ops_per_decoder: 4,
            with_sem: true,
        }));
    }
    for seed in 0..3 {
        for with_concat in [false, true] {
            out.push(generate_guarded(&GuardedParams {
                seed,
                modules: 2,
                fields_per_module: 3,
                with_concat,
            }));
        }
    }
    out
}

fn option_sets() -> Vec<Options> {
    let per_def = Options {
        compaction: Compaction::PerDef,
        ..Options::default()
    };
    let naive_meet = Options {
        env_versions: false,
        ..Options::default()
    };
    vec![Options::default(), per_def, naive_meet]
}

#[test]
fn flows_match_the_captured_digest() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut defs = 0;
    for opts in option_sets() {
        let session = Session::new(opts);
        for program in programs() {
            // Per-definition compaction rejects some decoders (the
            // stale-flag aliasing of the paper's Section 6); the
            // rejection, core clause ids included, is pinned as well.
            match session.infer_program(&program) {
                Ok(report) => {
                    for d in &report.defs {
                        defs += 1;
                        digest.write(d.name.as_str().as_bytes());
                        digest.write(d.render(true).as_bytes());
                        digest.write(d.render_with_flow().as_bytes());
                    }
                }
                Err(e) => {
                    assert_eq!(
                        session.options().compaction,
                        Compaction::PerDef,
                        "aggressive compaction accepts every seeded program: {e}"
                    );
                    digest.write(format!("{e:?}").as_bytes());
                }
            }
        }
    }
    assert!(defs > 100, "only {defs} definitions checked");
    assert_eq!(digest.0, DIGEST, "flows drifted: digest {:#018x}", digest.0);
}
