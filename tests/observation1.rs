//! Observation 1, tested differentially: for first-order record pipelines
//! (conditionals abstracted to non-deterministic choice, no reused
//! higher-order record functions), the flow inference rejects a program
//! *iff* some branch-choice path accesses a field that was never added.

use rowpoly::core::{Session, TypeErrorKind};
use rowpoly::eval::explore_paths;
use rowpoly::gen::{random_pipeline, FuzzParams};
use rowpoly::lang::pretty_expr;

/// Runs one seed through both the inference and exhaustive path
/// exploration; returns (accepted, has_failing_path, program text).
fn verdicts(seed: u64) -> (bool, bool, String) {
    let expr = random_pipeline(seed, FuzzParams::default());
    let src = pretty_expr(&expr);
    let accepted = Session::default().infer_expr(&expr).is_ok();
    let summary = explore_paths(&expr, 200_000, 4096);
    assert_eq!(summary.unknown, 0, "pipelines terminate within fuel");
    assert_eq!(summary.other_errors, 0, "pipelines are skeleton-well-typed");
    (accepted, summary.any_field_error(), src)
}

/// Soundness direction: accepted ⇒ no failing path. This direction must
/// hold unconditionally.
#[test]
fn accepted_programs_have_no_failing_path() {
    for seed in 0..400 {
        let (accepted, failing, src) = verdicts(seed);
        if accepted {
            assert!(
                !failing,
                "seed {seed}: inference accepted a program with a failing path\n{src}"
            );
        }
    }
}

/// Completeness direction (Observation 1): rejected ⇒ some failing path.
/// Holds on this fragment by the paper's Observation 1.
#[test]
fn rejected_programs_have_a_failing_path() {
    for seed in 0..400 {
        let (accepted, failing, src) = verdicts(seed);
        if !accepted {
            assert!(
                failing,
                "seed {seed}: inference rejected a program whose every path is safe\n{src}"
            );
        }
    }
}

/// Sanity: the fuzzer exercises both verdicts (otherwise the properties
/// above are vacuous).
#[test]
fn fuzzer_covers_both_verdicts() {
    let mut accepted = 0;
    let mut rejected = 0;
    for seed in 0..200 {
        if verdicts(seed).0 {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        accepted > 10,
        "only {accepted} accepted programs in 200 seeds"
    );
    assert!(
        rejected > 10,
        "only {rejected} rejected programs in 200 seeds"
    );
}

/// The diagnostic names a field some path fails on: for every rejected
/// seed whose error names a field, exhaustive exploration reports that
/// field failing. The counts pin how many rejections name one; the rest
/// select through a let-bound helper (`let g = \s. let v = #c s in s in
/// g r`), whose scheme states the requirement on a parameter flag that
/// has no provenance naming the field.
#[test]
fn rejections_name_a_field_that_fails_on_some_path() {
    let (mut rejected, mut named) = (0, 0);
    for seed in 0..400 {
        let expr = random_pipeline(seed, FuzzParams::default());
        let Err(err) = Session::default().infer_expr(&expr) else {
            continue;
        };
        rejected += 1;
        let TypeErrorKind::FieldMissing { field: Some(field) } = err.kind else {
            continue;
        };
        named += 1;
        let summary = explore_paths(&expr, 200_000, 4096);
        assert!(
            summary.failing_fields.contains(&field),
            "seed {seed}: the diagnostic names `{field}`, but the failing paths fail on {:?}\n{}",
            summary.failing_fields,
            pretty_expr(&expr)
        );
    }
    assert_eq!((rejected, named), (222, 161));
}
