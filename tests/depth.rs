//! Expression depth is bounded by the parser: one level past
//! [`MAX_DEPTH`] is a located diagnostic, and the deepest accepted
//! program of every nesting form checks on a thread with a pool
//! worker's 2 MiB stack. Debug builds use more stack per level (some
//! forms at the bound overflow 2 MiB there), so there the thread gets
//! 8 MiB. Type depth is bounded by unification: a program whose types
//! double in depth per definition ends in a located diagnostic on the
//! serial `Session`, `check` (cold and warm, one or two workers) and
//! `serve`.

use rowpoly::core::{Session, SessionError};
use rowpoly::lang::{parse_program, Expr, MAX_DEPTH};
use rowpoly::obs::json::Json;
use rowpoly::types::MAX_TYPE_DEPTH;

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

/// `def f0 x = {a = x}`, then `n` definitions that each compose the one
/// before with itself. `fi`'s result nests `2^i + 1` levels, so `f9`
/// (line 10) is the first past [`MAX_TYPE_DEPTH`], although every
/// definition is one short line.
fn doubling(n: usize) -> String {
    let mut src = String::from("def f0 x = {a = x}\n");
    for i in 1..=n {
        src.push_str(&format!("def f{i} x = f{} (f{} x)\n", i - 1, i - 1));
    }
    src
}

/// The diagnostic every entry point gives [`doubling`]`(14)`.
const TOO_DEEP: &str = "type nests deeper than 512 levels";

#[test]
fn a_type_past_the_bound_is_a_located_diagnostic() {
    assert_eq!(MAX_TYPE_DEPTH, 512);
    // `g` composes `f7` (129 levels) four times inside one definition.
    let compose = format!("{}def g x = f7 (f7 (f7 (f7 x)))\n", doubling(7));
    for (src, line) in [(doubling(14), "10:12"), (compose, "9:11")] {
        let src_copy = src.clone();
        let err = on_a_worker_stack(move || match Session::default().infer_source(&src_copy) {
            Err(SessionError::Type(e)) => Ok(e),
            other => Err(format!("{other:?}")),
        })
        .unwrap_or_else(|e| panic!("expected a type error, got {e}"));
        let rendered = err.to_diag().render(&src);
        assert_eq!(err.message(), TOO_DEEP, "{rendered}");
        assert!(rendered.contains(&format!("--> {line}")), "{rendered}");
    }
    // One definition fewer stays within the bound.
    let src = doubling(8);
    let report = on_a_worker_stack(move || Session::default().infer_source(&src).map(|_| ()));
    assert!(report.is_ok(), "{report:?}");
}

fn rowpoly(args: &[&str], cwd: &std::path::Path, stdin: &str) -> std::process::Output {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_rowpoly"))
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("stdin accepts the input");
    child.wait_with_output().expect("binary exits")
}

#[test]
fn check_and_serve_report_a_type_past_the_bound() {
    let dir = std::env::temp_dir().join(format!("rowpoly-type-depth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = doubling(14);
    std::fs::write(dir.join("deep.rp"), &src).unwrap();
    let mut reports = Vec::new();
    for jobs in ["1", "2"] {
        let cache = format!("cache-{jobs}");
        for run in ["cold", "warm"] {
            let out = rowpoly(
                &["check", "deep.rp", "--jobs", jobs, "--cache-dir", &cache],
                &dir,
                "",
            );
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            let what = format!(
                "--jobs {jobs}, {run}: {text}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(out.status.code(), Some(1), "{what}");
            assert!(
                text.contains(&format!(
                    "deep.rp: f9: error\n  error: {TOO_DEEP}\n   --> 10:12"
                )),
                "{what}"
            );
            assert!(
                text.contains("deep.rp: f14: skipped (after `f13`)"),
                "{what}"
            );
            assert!(
                text.contains("9 ok, 1 errors, 0 timeouts, 5 skipped"),
                "{what}"
            );
            reports.push(text);
        }
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]), "{reports:#?}");

    let open = Json::obj(vec![
        ("id", Json::Int(1)),
        ("method", Json::Str("open".into())),
        (
            "params",
            Json::obj(vec![
                ("path", Json::Str("deep.rp".into())),
                ("text", Json::Str(src)),
                ("version", Json::Int(1)),
            ]),
        ),
    ]);
    let script = format!("{open}\n{{\"id\":2,\"method\":\"shutdown\"}}\n");
    let out = rowpoly(&["serve", "--json-rpc", "--no-cache"], &dir, &script);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains(&format!(
            "\"def\":\"f9\",\"kind\":\"error\",\"message\":\"{TOO_DEEP}\""
        )),
        "{text}"
    );
    assert!(
        text.contains("\"range\":{\"start\":{\"line\":9,\"character\":11}"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
