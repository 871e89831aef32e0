//! Proof-logged verdicts, end to end: `rowpoly explain` renders minimal
//! span-anchored error paths, unsat cores shrink under minimization, and
//! every verdict the inference produces on the fuzz corpus survives
//! `ProofChecker` replay (`ROWPOLY_CHECK_PROOFS=1` turns the whole
//! engine into its own referee — a bogus proof panics inside the solver).

use rowpoly::boolfun::{minimize_core, Clause, Cnf, Lit, ProofChecker, SatBudget};
use rowpoly::core::Session;
use rowpoly::gen::{random_pipeline, FuzzParams};

/// Every test in this binary turns on inline proof checking before its
/// first solver call, so the process-wide latch reads the flag no matter
/// which test the harness schedules first.
fn check_proofs_on() {
    std::env::set_var("ROWPOLY_CHECK_PROOFS", "1");
}

/// Renders the first error of `src` the way `rowpoly explain` does.
fn explain(src: &str) -> String {
    let err = Session::default()
        .infer_source(src)
        .expect_err("program has a type error");
    err.render_explained(src)
}

/// Golden rendering of a multi-step missing-field path: an empty record
/// gains `b`, then `a`, loses `a` again, and is then selected on `a`.
/// The minimal core pins the two steps the conflict actually rests on —
/// the removal and the selection — in source order.
#[test]
fn explain_renders_multistep_missing_field_path() {
    check_proofs_on();
    let src = "def path =\n  let r = @{b = 2} ({}) in\n  let s = %a (@{a = 1} r) in\n  #a s\n";
    let expected = "\
error: field `a` may not exist at this access
 --> 4:3
  |   #a s
  |   ^^^^
note: field `a` removed here
 --> 3:11
  |   let s = %a (@{a = 1} r) in
  |           ^^
note: field `a` selected here
 --> 4:3
  |   #a s
  |   ^^
note: minimal unsat core: 3 of 24 \u{3b2} clauses (2sat), 2 derivation steps
 --> 4:3
  |   #a s
  |   ^^^^
";
    assert_eq!(explain(src), expected);
}

/// The four record-op error forms each render a span-anchored minimal
/// path naming the responsible operation, plus the checked-core summary.
#[test]
fn explain_covers_all_record_op_error_forms() {
    check_proofs_on();
    let cases: &[(&str, &[&str])] = &[
        (
            "def use = #foo {}",
            &[
                "field `foo` selected here",
                "empty record `{}` created here",
            ],
        ),
        (
            "def gone = #a (%a (@{a = 1} ({})))",
            &["field `a` removed here", "field `a` selected here"],
        ),
        (
            "def clash = ^{a -> b} (@{b = 2} ({}))",
            &[
                "rename target `b` must be absent here",
                "field `b` added here",
            ],
        ),
        (
            "def overlap = (@{a = 1} ({})) @@ (@{a = 2} ({}))",
            &["symmetric concatenation `@@` here", "field `a` added here"],
        ),
    ];
    for (src, notes) in cases {
        let rendered = explain(src);
        for note in *notes {
            assert!(
                rendered.contains(note),
                "missing note {note:?} in:\n{rendered}"
            );
        }
        assert!(
            rendered.contains("minimal unsat core:"),
            "missing core summary in:\n{rendered}"
        );
        // Every note is span-anchored: a location line plus a caret line.
        let locs = rendered.matches("-->").count();
        let notes_shown = rendered.matches("note:").count();
        assert_eq!(
            locs,
            notes_shown + 1, // the error itself is anchored too
            "every note carries a source location:\n{rendered}"
        );
    }
}

/// Deletion-based minimization strictly shrinks a core that the solver
/// padded with clauses irrelevant to the contradiction.
#[test]
fn minimized_core_is_strictly_smaller_than_beta() {
    check_proofs_on();
    let f = |i: u32| rowpoly::boolfun::Flag(i);
    let clause = |lits: Vec<Lit>| Clause::new(lits).expect("not a tautology");
    // An unsat kernel {f0, f0→f1, ¬f1} buried among satisfiable chaff.
    let cnf = Cnf::from_clauses(vec![
        clause(vec![Lit::pos(f(2)), Lit::pos(f(3))]),
        clause(vec![Lit::pos(f(0))]),
        clause(vec![Lit::neg(f(2)), Lit::pos(f(4))]),
        clause(vec![Lit::neg(f(0)), Lit::pos(f(1))]),
        clause(vec![Lit::pos(f(5)), Lit::neg(f(3))]),
        clause(vec![Lit::neg(f(1))]),
    ]);
    let (res, proof) = rowpoly::boolfun::sat::solve_proved(&cnf, &SatBudget::unlimited())
        .expect("unlimited budget");
    assert!(!res.is_sat());
    let unsat = proof.unsat().expect("unsat proof");
    ProofChecker::check(&cnf, &proof).expect("proof replays");
    let minimized = minimize_core(&cnf, &unsat.core);
    assert!(
        minimized.len() < cnf.clauses().len(),
        "core {minimized:?} not smaller than \u{3b2} ({} clauses)",
        cnf.clauses().len()
    );
    assert_eq!(minimized, vec![1, 3, 5], "exactly the kernel survives");
    // The minimized subset is itself unsat — the evidence stands alone.
    let sub = Cnf::from_clauses(minimized.iter().map(|&i| cnf.clauses()[i].clone()));
    assert!(!sub.is_sat());
}

/// Every verdict on the fuzz corpus passes checked replay: with
/// `ROWPOLY_CHECK_PROOFS=1` the solver re-derives each SAT/UNSAT answer
/// with a proof and panics if the checker rejects it, so simply running
/// the corpus is the assertion. Rejections must also carry a usable
/// minimal core.
#[test]
fn proof_checker_accepts_every_fuzz_verdict() {
    check_proofs_on();
    let mut rejected = 0;
    for seed in 0..150 {
        let expr = random_pipeline(seed, FuzzParams::default());
        if let Err(e) = Session::default().infer_expr(&expr) {
            rejected += 1;
            let info = e.proof.as_ref().expect("rejection carries proof info");
            assert!(!info.minimized_core_clauses.is_empty());
            assert!(info.minimized_core_clauses.len() <= info.core_clauses.len());
            assert!(info.core_clauses.len() <= info.beta_clauses);
        }
    }
    assert!(rejected > 10, "only {rejected} rejections in 150 seeds");
}
