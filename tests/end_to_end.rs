//! Whole-pipeline tests: generate → pretty-print → re-parse → infer →
//! evaluate, plus agreement between the inference configurations.

use rowpoly::core::{hm, Compaction, Options, Session};
use rowpoly::eval::{eval_program, Value};
use rowpoly::gen::{generate, generate_with_lines, GenParams};
use rowpoly::lang::{parse_program, pretty_program};

/// Generated decoder workloads round-trip through the printer and check
/// in every configuration.
#[test]
fn decoder_workloads_roundtrip_and_check() {
    let params = GenParams {
        groups: 2,
        with_sem: true,
        ..GenParams::default()
    };
    let program = generate(&params);
    let src = pretty_program(&program);
    let reparsed = parse_program(&src).expect("generated source parses");
    assert_eq!(reparsed.defs.len(), program.defs.len());

    // Both AST and re-parsed source give the same verdict and types.
    let session = Session::default();
    let r1 = session.infer_program(&program).expect("AST checks");
    let r2 = session.infer_program(&reparsed).expect("source checks");
    for (a, b) in r1.defs.iter().zip(&r2.defs) {
        assert_eq!(a.render(false), b.render(false), "def {}", a.name);
    }
}

/// The flow inference accepts a strict subset of the flow-free inference:
/// whatever the "w. fields" configuration accepts, "w/o fields" accepts
/// with the identical skeleton.
#[test]
fn flow_accepts_subset_of_skeleton_inference() {
    let (program, _) = generate_with_lines(300, false, 9);
    let with = Session::default()
        .infer_program(&program)
        .expect("w. fields");
    let without = hm::session().infer_program(&program).expect("w/o fields");
    for (a, b) in with.defs.iter().zip(&without.defs) {
        assert_eq!(
            a.render(false),
            b.render(false),
            "skeletons agree for {}",
            a.name
        );
    }
}

/// On small programs the two compaction strategies agree…
#[test]
fn compaction_strategies_agree_on_small_programs() {
    let cases = [
        "def f s = if c then (let s2 = @{foo = 42} s; v = #foo s2 in s2) else s\ndef use = f {}",
        "def id x = x\ndef use = #a (id {a = 1})",
        "def g s = @{b = 1} s\ndef use = #b (g (if c then {d = 1} else {b = 2}))",
        "def use = #a ({a = 1} @ {b = 2})",
    ];
    for src in cases {
        let agg = Session::default().infer_source(src).is_ok();
        let perdef = Session::new(Options {
            compaction: Compaction::PerDef,
            ..Options::default()
        })
        .infer_source(src)
        .is_ok();
        assert_eq!(agg, perdef, "verdicts diverge on {src}");
    }
}

/// …but deferring stale-flag projection to definition boundaries is
/// *incorrect*, exactly as the paper's Section 6 warns: expansion in the
/// presence of stale bi-implications aliases flag copies, and the
/// deferred mode over-rejects programs the aggressive (default) mode
/// correctly accepts. This reproduces the bug class the paper describes
/// having to fix.
#[test]
fn perdef_compaction_reproduces_the_section_6_bug() {
    let (program, _) = generate_with_lines(200, false, 42);
    assert!(
        Session::default().infer_program(&program).is_ok(),
        "the workload is well-typed"
    );
    let perdef = Session::new(Options {
        compaction: Compaction::PerDef,
        ..Options::default()
    })
    .infer_program(&program);
    assert!(
        perdef.is_err(),
        "stale flags must be projected aggressively (Section 6); if this \
         starts passing, the witness program no longer triggers the alias"
    );
}

/// The environment-version ablation does not change results, only cost.
#[test]
fn env_version_ablation_preserves_verdicts() {
    let (program, _) = generate_with_lines(300, false, 11);
    let on = Session::default()
        .infer_program(&program)
        .expect("with versions");
    let off = Session::new(Options {
        env_versions: false,
        ..Options::default()
    })
    .infer_program(&program)
    .expect("without versions");
    for (a, b) in on.defs.iter().zip(&off.defs) {
        assert_eq!(a.render(false), b.render(false));
    }
}

/// A checked program evaluates to the expected value.
#[test]
fn checked_program_evaluates() {
    let src = r"
def mk    = {acc = 0, step = 3}
def bump s = @{acc = #acc s + #step s} s
def main  = #acc (bump (bump mk))
";
    let program = parse_program(src).unwrap();
    Session::default().infer_program(&program).expect("checks");
    match eval_program(&program, 100_000) {
        Ok(Value::Int(n)) => assert_eq!(n, 6),
        other => panic!("expected 6, got {other:?}"),
    }
}

/// Generated decoder drivers actually run under the interpreter.
#[test]
fn generated_decoders_execute() {
    let params = GenParams {
        groups: 1,
        decoders_per_group: 3,
        ..GenParams::default()
    };
    let program = generate(&params);
    Session::default().infer_program(&program).expect("checks");
    match eval_program(&program, 2_000_000) {
        Ok(Value::Int(_)) => {}
        other => panic!("decoder driver should produce an Int, got {other:?}"),
    }
}

/// Error messages point into the offending source.
#[test]
fn diagnostics_render_against_source() {
    let src = "def mk = {a = 1}\ndef use = #missing mk";
    let err = Session::default()
        .infer_source(src)
        .expect_err("missing field");
    let rendered = err.render(src);
    assert!(rendered.contains("missing"), "{rendered}");
    assert!(rendered.contains("-->"), "has a location: {rendered}");
}
