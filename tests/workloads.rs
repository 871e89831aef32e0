//! The workload generators produce programs that type-check, evaluate,
//! and land in the satisfiability class their operations predict.

use rowpoly::boolfun::SatClass;
use rowpoly::core::{Options, Session, SessionError};
use rowpoly::eval::{eval_program, Value};
use rowpoly::gen::{generate_guarded, generate_with_lines, GuardedParams};

#[test]
fn guarded_workloads_check_and_run() {
    for with_concat in [false, true] {
        let program = generate_guarded(&GuardedParams {
            modules: 3,
            fields_per_module: 3,
            with_concat,
            ..GuardedParams::default()
        });
        let report = Session::default()
            .infer_program(&program)
            .expect("guarded workloads are well-typed");
        assert_eq!(report.sat_class, SatClass::General, "when ⇒ general CNF");
        match eval_program(&program, 5_000_000) {
            Ok(Value::Int(_)) => {}
            other => panic!("expected an Int, got {other:?}"),
        }
    }
}

#[test]
fn decoder_workloads_stay_two_sat() {
    let (program, _) = generate_with_lines(400, true, 3);
    let report = Session::default().infer_program(&program).expect("checks");
    assert!(
        report.sat_class <= SatClass::TwoSat,
        "got {:?}",
        report.sat_class
    );
}

#[test]
fn default_checking_reports_the_access_site() {
    // The error is raised at the offending select's application, not at
    // the end of the definition.
    let src = "def b = #foo {}";
    let Err(SessionError::Type(err)) = Session::default().infer_source(src) else {
        panic!("`{src}` is rejected with a type error");
    };
    let rendered = err.to_diag().render(src);
    assert!(rendered.contains("field `foo`"), "{rendered}");
    let access = src.find("#foo").expect("access") as u32;
    assert_eq!(
        (err.span.start, err.span.end),
        (access, src.len() as u32),
        "{rendered}"
    );
}

#[test]
fn letrec_iteration_bound_reports_divergence() {
    // A recursion whose type grows every iteration (f x = f 1 x builds
    // Int -> Int -> …) must stop at the bound, not loop forever.
    let opts = Options {
        max_letrec_iters: 4,
        ..Options::default()
    };
    let src = "def f x = f";
    // f = \x . f : the fixpoint alternates shapes; whatever the outcome,
    // inference must terminate. (Occurs check or divergence are both
    // acceptable rejections.)
    let _ = Session::new(opts.clone()).infer_source(src);
    let src2 = "def f x = f 1 x";
    let started = std::time::Instant::now();
    let _ = Session::new(opts).infer_source(src2);
    assert!(started.elapsed().as_secs() < 5, "fixpoint terminated");
}

#[test]
fn deep_pipelines_check_on_a_big_stack() {
    // Inference recursion is proportional to AST depth; deep expression
    // chains need a generous native stack (as in production compilers).
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let mut src = String::from("def main = #f0 (");
            for i in (0..120).rev() {
                src.push_str(&format!("@{{f{i} = {i}}} ("));
            }
            src.push_str("{}");
            src.push_str(&")".repeat(121));
            let report = Session::default()
                .infer_source(&src)
                .expect("long chain checks");
            assert_eq!(report.defs[0].render(false), "Int");
        })
        .expect("spawn")
        .join()
        .expect("deep pipeline thread");
}
