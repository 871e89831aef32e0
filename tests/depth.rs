//! Expression depth is bounded by the parser: one level past
//! [`MAX_DEPTH`] is a located diagnostic, and the deepest accepted
//! program of every nesting form checks on a thread with a pool
//! worker's 2 MiB stack. Debug builds use more stack per level (some
//! forms at the bound overflow 2 MiB there), so there the thread gets
//! 8 MiB.

use rowpoly::core::{Session, SessionError};
use rowpoly::lang::{parse_program, Expr, MAX_DEPTH};

const STACK: usize = if cfg!(debug_assertions) {
    8 << 20
} else {
    2 << 20
};

fn depth(e: &Expr) -> u32 {
    let mut d = 0;
    e.for_each_child(|c| d = d.max(depth(c)));
    d + 1
}

/// `def x = …` nested `n` levels by `form`.
fn nested(form: &str, n: usize) -> String {
    let body = match form {
        "chain" => vec!["1"; n].join(" + "),
        "concat" => vec!["{}"; n].join(" @ "),
        "let" => format!("{}1", "let a = 1 in ".repeat(n)),
        "lambda" => format!("{}1", "\\a . ".repeat(n)),
        "if" => format!("{}1", "if 1 then 1 else ".repeat(n)),
        "list" => format!("{}1{}", "[".repeat(n), "]".repeat(n)),
        "record" => format!("{}1{}", "{a = ".repeat(n), "}".repeat(n)),
        "parens" => format!("{}1{}", "(".repeat(n), ")".repeat(n)),
        "apply" => format!("(\\y . y){}", " (\\y . y)".repeat(n)),
        _ => unreachable!("unknown form {form}"),
    };
    format!("def x = {body}\ndef y = 2\n")
}

/// Every form at the bound: how many levels reach [`MAX_DEPTH`] (a
/// record literal adds two per level, parentheses add no node but one
/// parser recursion each).
fn at_the_bound() -> Vec<(&'static str, usize)> {
    let d = MAX_DEPTH as usize;
    vec![
        ("chain", d),
        ("concat", d),
        ("let", d - 1),
        ("lambda", d - 1),
        ("if", d - 1),
        ("list", d - 1),
        ("record", (d - 1) / 2),
        ("parens", d - 1),
        ("apply", d - 2),
    ]
}

fn on_a_worker_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("checking thread")
}

#[test]
fn the_deepest_accepted_programs_check_on_a_worker_sized_stack() {
    for (form, n) in at_the_bound() {
        let src = nested(form, n);
        let (report, deepest) = on_a_worker_stack(move || {
            let program = parse_program(&src).expect("at the bound parses");
            let deepest = program.defs.iter().map(|d| depth(&d.body)).max();
            (Session::default().infer_program(&program), deepest)
        });
        let deepest = deepest.expect("two definitions");
        assert!(deepest <= MAX_DEPTH, "{form}: depth {deepest}");
        if form != "parens" {
            assert!(deepest + 1 >= MAX_DEPTH, "{form}: only depth {deepest}");
        }
        let report = report.unwrap_or_else(|e| panic!("{form}: {e}"));
        assert_eq!(report.defs.len(), 2, "{form}");
    }
}

#[test]
fn one_level_deeper_is_a_located_diagnostic() {
    for (form, n) in at_the_bound() {
        let src = nested(form, n + 1);
        let diag = on_a_worker_stack(move || match Session::default().infer_source(&src) {
            Err(SessionError::Parse(d)) => Ok((d.message.clone(), d.render(&src))),
            other => Err(format!("{other:?}")),
        });
        let (message, rendered) =
            diag.unwrap_or_else(|e| panic!("{form}: expected a depth diagnostic, got {e}"));
        assert!(
            message.contains(&format!("nests deeper than {MAX_DEPTH} levels")),
            "{form}: {rendered}"
        );
        assert!(rendered.contains("1:"), "{form}: unlocated: {rendered}");
    }
}

#[test]
fn far_past_the_bound_the_parser_stops_early() {
    // 20,000 terms and 3,000 parentheses: the parser rejects them
    // without recursing or building past the bound.
    for src in [nested("chain", 20_000), nested("parens", 3_000)] {
        let err = on_a_worker_stack(move || parse_program(&src).map(|_| ()));
        let d = err.expect_err("too deep");
        assert!(d.message.contains("nests deeper than"), "{}", d.message);
    }
}
