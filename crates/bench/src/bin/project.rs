//! Microbenchmark for the projection engine: the indexed, class-aware
//! eliminator (`Cnf::project_out`) against the retained naive
//! Davis–Putnam reference (`Cnf::project_out_dp`).
//!
//! ```text
//! project [--quick] [--json] [--seed N]
//! ```
//!
//! Four workloads cover the clause shapes inference actually produces:
//!
//! * `chain`     — one long implication chain `f0 → f1 → … → fn` with
//!   every interior flag projected (the transitive-closure shape that
//!   dominates threaded record flows);
//! * `ladder`    — a bi-implication ladder (`fi ↔ fi+1` per rung), the
//!   shape column-wise record equations produce;
//! * `records`   — clusters of per-definition flags wired to a few
//!   shared globals by implications, mimicking a record-heavy β at
//!   `finish_def` time (most flags die, a handful survive);
//! * `symconcat` — `fr ↔ f1 ∨ f2` triples plus mutual-exclusion
//!   clauses, the genuine 3-CNF fragment symmetric concatenation
//!   emits, which forces the Davis–Putnam fallback.
//!
//! Both engines run on clones of the same formula and the results are
//! asserted mutually entailing, so the speedup is never bought with a
//! semantic drift. `BENCH_project.json` in the repository root is the
//! committed `--json` output of this binary.

use std::time::Duration;

use rowpoly_bench::bench;
use rowpoly_boolfun::{Cnf, Flag, FlagSet, Lit};
use rowpoly_obs::json::Json;
use rowpoly_obs::rng::SplitMix64;

struct Workload {
    name: &'static str,
    beta: Cnf,
    dead: FlagSet,
}

struct Outcome {
    name: &'static str,
    flags: usize,
    clauses: usize,
    dead: usize,
    indexed: Duration,
    reference: Duration,
    fastpath: usize,
    fallback: usize,
}

fn p(i: u32) -> Lit {
    Lit::pos(Flag(i))
}
fn n(i: u32) -> Lit {
    Lit::neg(Flag(i))
}

/// `f0 → f1 → … → fn`, interior flags dead.
fn chain(len: u32) -> Workload {
    let mut beta = Cnf::top();
    for i in 0..len {
        beta.imply(p(i), p(i + 1));
    }
    beta.normalize();
    let dead: FlagSet = (1..len).map(Flag).collect();
    Workload {
        name: "chain",
        beta,
        dead,
    }
}

/// `fi ↔ fi+1` per rung, interior flags dead.
fn ladder(rungs: u32) -> Workload {
    let mut beta = Cnf::top();
    for i in 0..rungs {
        beta.iff(p(i), p(i + 1));
    }
    beta.normalize();
    let dead: FlagSet = (1..rungs).map(Flag).collect();
    Workload {
        name: "ladder",
        beta,
        dead,
    }
}

/// `defs` clusters of `width` flags each: intra-cluster implications
/// plus edges onto a small shared global set; every cluster-local flag
/// dies, the globals survive (the `finish_def` shape).
fn records(defs: u32, width: u32, seed: u64) -> Workload {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let globals = 8u32;
    let mut beta = Cnf::top();
    let mut dead = FlagSet::new();
    for d in 0..defs {
        let base = globals + d * width;
        for j in 0..width {
            let f = base + j;
            dead.insert(Flag(f));
            // A couple of intra-cluster implications per flag.
            for _ in 0..2 {
                let g = base + rng.gen_range(0..width);
                if g != f {
                    beta.imply(p(f), p(g));
                }
            }
            // One edge onto the shared globals.
            beta.imply(p(f), p(rng.gen_range(0..globals)));
        }
        // Units: some fields are asserted present, like select does.
        beta.assert_lit(p(base + rng.gen_range(0..width)));
    }
    beta.normalize();
    Workload {
        name: "records",
        beta,
        dead,
    }
}

/// `fr ↔ f1 ∨ f2` with mutual exclusion `¬f1 ∨ ¬f2` per triple; the
/// operand flags die, the results survive. Wide clauses force the
/// general-resolution fallback.
fn symconcat(triples: u32) -> Workload {
    let mut beta = Cnf::top();
    let mut dead = FlagSet::new();
    for t in 0..triples {
        let (f1, f2, fr) = (3 * t, 3 * t + 1, 3 * t + 2);
        beta.add_lits(vec![n(fr), p(f1), p(f2)]);
        beta.imply(p(f1), p(fr));
        beta.imply(p(f2), p(fr));
        beta.add_lits(vec![n(f1), n(f2)]);
        dead.insert(Flag(f1));
        dead.insert(Flag(f2));
    }
    beta.normalize();
    Workload {
        name: "symconcat",
        beta,
        dead,
    }
}

fn run(w: &Workload) -> Outcome {
    // Parity first: both engines must produce mutually entailing
    // results before either is worth timing.
    let mut a = w.beta.clone();
    let stats = a.project_out(&w.dead);
    let mut b = w.beta.clone();
    b.project_out_dp(&w.dead);
    assert!(
        a.entails(&b) && b.entails(&a),
        "{}: engines disagree ({} vs {} clauses)",
        w.name,
        a.len(),
        b.len()
    );

    let indexed = bench(&format!("project/{}/indexed", w.name), || {
        let mut c = w.beta.clone();
        c.project_out(&w.dead)
    });
    let reference = bench(&format!("project/{}/reference", w.name), || {
        let mut c = w.beta.clone();
        c.project_out_dp(&w.dead);
    });
    Outcome {
        name: w.name,
        flags: w.beta.flags().len(),
        clauses: w.beta.len(),
        dead: w.dead.len(),
        indexed,
        reference,
        fastpath: stats.fastpath,
        fallback: stats.fallback,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42u64);

    let scale = if quick { 8 } else { 1 };
    let workloads = [
        chain(2048 / scale),
        ladder(1024 / scale),
        records(192 / scale, 12, seed),
        symconcat(256 / scale),
    ];

    let outcomes: Vec<Outcome> = workloads.iter().map(run).collect();

    if json {
        let items: Vec<Json> = outcomes
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("name", Json::Str(o.name.to_string())),
                    ("flags", Json::Int(o.flags as i64)),
                    ("clauses", Json::Int(o.clauses as i64)),
                    ("dead", Json::Int(o.dead as i64)),
                    ("indexed_s", Json::Float(o.indexed.as_secs_f64())),
                    ("reference_s", Json::Float(o.reference.as_secs_f64())),
                    (
                        "speedup",
                        Json::Float(o.reference.as_secs_f64() / o.indexed.as_secs_f64().max(1e-9)),
                    ),
                    ("fastpath", Json::Int(o.fastpath as i64)),
                    ("fallback", Json::Int(o.fallback as i64)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("bench", Json::Str("project".to_string())),
            ("seed", Json::Int(seed as i64)),
            ("quick", Json::Bool(quick)),
            ("workloads", Json::Arr(items)),
        ]);
        println!("{}", doc.render());
    } else {
        println!();
        for o in &outcomes {
            println!(
                "{:<10} {:>6} flags {:>6} clauses  indexed {:>10.4?}  reference {:>10.4?}  {:>6.1}x  ({} fast, {} fallback)",
                o.name,
                o.flags,
                o.clauses,
                o.indexed,
                o.reference,
                o.reference.as_secs_f64() / o.indexed.as_secs_f64().max(1e-9),
                o.fastpath,
                o.fallback
            );
        }
    }
}
