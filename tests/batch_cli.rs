//! End-to-end tests of `rowpoly check` — the batch CLI surface.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn rowpoly(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rowpoly"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch directory with its own programs and cache.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rowpoly-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    fn write(&self, name: &str, source: &str) {
        std::fs::write(self.dir.join(name), source).unwrap();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn checks_a_directory_and_reports_success() {
    let s = Scratch::new("ok");
    s.write("a.rp", "def inc x = x + 1\n");
    s.write("b.rp", "def two = 2\n");
    let out = rowpoly(&["check", ".", "--jobs", "2"], &s.dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("a.rp: inc : Int -> Int"), "got: {text}");
    assert!(text.contains("b.rp: two : Int"), "got: {text}");
    assert!(text.contains("2 files, 2 definitions: 2 ok"), "got: {text}");
}

#[test]
fn any_failing_definition_makes_the_exit_nonzero() {
    let s = Scratch::new("fail");
    s.write("good.rp", "def v = 1\n");
    s.write("bad.rp", "def broken = #missing {}\n");
    let out = rowpoly(&["check", "good.rp", "bad.rp"], &s.dir);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    // Diagnostics render against the failing file's own path.
    assert!(text.contains("bad.rp: broken: error"), "got: {text}");
    assert!(text.contains("#missing {}"), "got: {text}");
    assert!(text.contains("good.rp: v : Int"), "got: {text}");
}

#[test]
fn missing_paths_and_bad_flags_exit_with_usage_errors() {
    let s = Scratch::new("usage");
    assert_eq!(rowpoly(&["check"], &s.dir).status.code(), Some(2));
    assert_eq!(
        rowpoly(&["check", "no-such-file.rp"], &s.dir).status.code(),
        Some(2)
    );
    s.write("a.rp", "def v = 1\n");
    assert_eq!(
        rowpoly(&["check", "a.rp", "--jobs", "many"], &s.dir)
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        rowpoly(&["check", "a.rp", "--compaction", "sometimes"], &s.dir)
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn second_run_hits_the_cache_and_output_is_stable() {
    let s = Scratch::new("cache");
    s.write("a.rp", "def tag r = @{t = 1} r\ndef use = #t (tag {})\n");
    let cold = rowpoly(&["check", ".", "--jobs", "2"], &s.dir);
    assert!(cold.status.success());

    let warm = rowpoly(&["check", ".", "--jobs", "2"], &s.dir);
    assert_eq!(stdout(&warm), stdout(&cold));
    assert!(
        s.dir.join(".rowpoly-cache").join("cache.json").is_file(),
        "cache file was not written"
    );

    let json = stdout(&rowpoly(&["check", ".", "--jobs", "2", "--json"], &s.dir));
    assert!(
        stat(&json, "cache_hits") > 0,
        "warm run reported no cache hits: {json}"
    );
}

/// `check --json` stats counter `name` from a JSON report.
fn stat(json: &str, name: &str) -> u64 {
    json.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|n| n.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("{name} in JSON report: {json}"))
}

#[test]
fn an_entry_too_deep_to_load_does_not_empty_the_cache() {
    // `v`'s scheme nests records 180 deep: its cache line would nest past
    // the JSON bound, so it is not written, but `w`'s and `y`'s still hit.
    let s = Scratch::new("deep-entry");
    let record = format!("{}x{}", "{a = ".repeat(10), "}".repeat(10));
    let apply = format!("{}1{}", "w (".repeat(18), ")".repeat(18));
    s.write(
        "deep.rp",
        &format!("def w x = {record}\ndef v = {apply}\ndef y = 2\n"),
    );
    let cold = stdout(&rowpoly(&["check", "deep.rp", "--json"], &s.dir));
    assert_eq!(stat(&cold, "cache_hits"), 0, "{cold}");
    let warm = stdout(&rowpoly(&["check", "deep.rp", "--json"], &s.dir));
    assert_eq!(stat(&warm, "cache_hits"), 2, "{warm}");
    assert_eq!(stat(&warm, "cache_misses"), 1, "{warm}");
}

#[test]
fn deep_nesting_exits_with_a_diagnostic() {
    let s = Scratch::new("deep-source");
    let parens = format!("def x = {}1{}\n", "(".repeat(3_000), ")".repeat(3_000));
    let chain = format!("def x = {}\n", vec!["1"; 20_000].join(" + "));
    for (name, src) in [("parens.rp", parens), ("chain.rp", chain)] {
        s.write(name, &src);
        let out = rowpoly(&["check", name, "--no-cache"], &s.dir);
        let text = format!("{}{}", stdout(&out), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{name}: {text}");
        assert!(text.contains("nests deeper than"), "{name}: {text}");
    }
}

#[test]
fn jobs_setting_does_not_change_the_output() {
    let s = Scratch::new("det");
    for i in 0..6 {
        s.write(
            &format!("f{i}.rp"),
            &format!("def a{i} = {i}\ndef b{i} r = @{{x = a{i}}} r\n"),
        );
    }
    let one = rowpoly(&["check", ".", "--jobs", "1", "--no-cache"], &s.dir);
    let eight = rowpoly(&["check", ".", "--jobs", "8", "--no-cache"], &s.dir);
    assert!(one.status.success());
    assert_eq!(stdout(&one), stdout(&eight));
}

#[test]
fn tiny_sat_budget_times_out_one_def_and_finishes_the_rest() {
    let s = Scratch::new("budget");
    s.write("p.rp", "def hard = {a = 1} @@ {b = 2}\ndef easy = 1\n");
    let out = rowpoly(
        &[
            "check",
            "p.rp",
            "--no-cache",
            "--compaction",
            "perdef",
            "--sat-budget",
            "0",
        ],
        &s.dir,
    );
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("hard: timeout"), "got: {text}");
    assert!(text.contains("easy : Int"), "got: {text}");
    assert!(text.contains("1 timeouts"), "got: {text}");
}
