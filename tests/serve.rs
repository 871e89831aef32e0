//! End-to-end tests of `rowpoly serve` — the incremental daemon's CLI
//! surface, driven as a subprocess over both front ends.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use rowpoly::obs::json::{self, Json};

/// Runs `rowpoly serve` with `args`, feeding `input` on stdin and
/// returning the completed output.
fn serve(args: &[&str], input: &str, cwd: &Path) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rowpoly"))
        .arg("serve")
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
        .write_all(input.as_bytes())
        .expect("stdin accepts the script");
    child.wait_with_output().expect("binary exits")
}

/// Parses the line-delimited responses of a `--json-rpc` session.
fn responses(out: &Output) -> Vec<Json> {
    assert!(
        out.status.success(),
        "serve exited with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad response line {l:?}: {e}")))
        .collect()
}

fn stat(update: &Json, name: &str) -> i64 {
    update
        .get("result")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get(name))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("stats.{name} missing in {update}"))
}

/// A scratch directory with its own programs and cache.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rowpoly-serve-test-{tag}-{}", std::process::id()));
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
fn lifecycle_open_edit_reverdict_shutdown() {
    let s = Scratch::new("lifecycle");
    let script = concat!(
        r#"{"id":1,"method":"open","params":{"path":"a.rp","text":"def a = 1\ndef b = a + 1\ndef c = b + 1","version":1}}"#,
        "\n",
        // Edit `a`'s body without changing its closed scheme: only `a`
        // may recompute; `b` and `c` must reuse their verdicts.
        r#"{"id":2,"method":"edit","params":{"path":"a.rp","version":2,"text":"def a = 2\ndef b = a + 1\ndef c = b + 1"}}"#,
        "\n",
        // Whitespace-only edit: the pretty-printed groups are unchanged,
        // so zero verdicts recompute even though the text re-parses.
        r#"{"id":3,"method":"edit","params":{"path":"a.rp","version":3,"text":"def a = 2\n\ndef b = a   + 1\ndef c = b + 1"}}"#,
        "\n",
        r#"{"id":4,"method":"counters"}"#,
        "\n",
        r#"{"id":5,"method":"shutdown"}"#,
        "\n",
    );
    let out = serve(&["--json-rpc", "--no-cache"], script, &s.dir);
    let rs = responses(&out);
    assert_eq!(rs.len(), 5, "{rs:?}");

    let opened = &rs[0];
    assert_eq!(
        opened.get("result").and_then(|r| r.get("ok")),
        Some(&Json::Bool(true))
    );
    assert_eq!(
        stat(opened, "verdict_recomputed"),
        3,
        "cold open infers all"
    );

    let edited = &rs[1];
    assert_eq!(stat(edited, "verdict_recomputed"), 1, "only `a` re-ran");
    assert_eq!(
        stat(edited, "verdict_hits"),
        2,
        "unchanged defs reused their verdicts"
    );
    assert_eq!(stat(edited, "defs_recomputed"), 1);

    let whitespace = &rs[2];
    assert_eq!(
        stat(whitespace, "verdict_recomputed"),
        0,
        "whitespace never re-infers"
    );
    assert_eq!(stat(whitespace, "verdict_hits"), 3);
    assert_eq!(stat(whitespace, "parse_misses"), 1, "text did change");

    // Lifetime counters aggregate the same story: 4 recomputes total
    // (3 at open + 1 for the edit) across 3 revisions.
    let counters = rs[3].get("result").expect("counters");
    let verdict = counters
        .get("queries")
        .and_then(|q| q.get("verdict"))
        .expect("verdict counters");
    assert_eq!(verdict.get("recomputed").and_then(Json::as_i64), Some(4));
    assert_eq!(verdict.get("hits").and_then(Json::as_i64), Some(5));
    assert_eq!(
        counters
            .get("edits")
            .and_then(|e| e.get("count"))
            .and_then(Json::as_i64),
        Some(2)
    );

    assert_eq!(
        rs[4].get("result").and_then(|r| r.get("ok")),
        Some(&Json::Bool(true))
    );
}

#[test]
fn diagnostics_are_byte_identical_with_one_shot_check_explain() {
    let s = Scratch::new("parity");
    let source = "def broken = #missing {}\ndef fine = 1\n";
    s.write("bad.rp", source);

    // One-shot reference: `rowpoly check --explain` renders the error
    // block as `path: def: error` plus the explained diagnostic
    // indented by two spaces.
    let check = Command::new(env!("CARGO_BIN_EXE_rowpoly"))
        .args(["check", "--explain", "--no-cache", "bad.rp"])
        .current_dir(&s.dir)
        .output()
        .expect("binary runs");
    let check_text = String::from_utf8_lossy(&check.stdout).into_owned();
    assert!(check_text.contains("broken: error"), "got: {check_text}");

    // Daemon: open the same text and take the diagnostic's `rendered`.
    let script = format!(
        "{}\n{}\n",
        Json::obj(vec![
            ("id", Json::Int(1)),
            ("method", Json::Str("open".into())),
            (
                "params",
                Json::obj(vec![
                    ("path", Json::Str("bad.rp".into())),
                    ("text", Json::Str(source.into())),
                    ("version", Json::Int(1)),
                ]),
            ),
        ])
        .render(),
        r#"{"id":2,"method":"shutdown"}"#
    );
    let rs = responses(&serve(&["--json-rpc", "--no-cache"], &script, &s.dir));
    let diags = rs[0]
        .get("result")
        .and_then(|r| r.get("diagnostics"))
        .and_then(Json::as_arr)
        .expect("diagnostics");
    assert_eq!(diags.len(), 1, "{:?}", rs[0]);
    assert_eq!(diags[0].get("def").and_then(Json::as_str), Some("broken"));
    let rendered = diags[0]
        .get("rendered")
        .and_then(Json::as_str)
        .expect("rendered");

    // Reconstruct the exact block the one-shot report prints from the
    // daemon's rendering. Byte-identical or the test fails.
    let mut expected = String::from("bad.rp: broken: error\n");
    for line in rendered.lines() {
        expected.push_str("  ");
        expected.push_str(line);
        expected.push('\n');
    }
    assert!(
        check_text.contains(&expected),
        "serve rendering diverged from `check --explain`.\nexpected block:\n{expected}\ncheck output:\n{check_text}"
    );
}

#[test]
fn lsp_stdio_session_publishes_diagnostics_and_hovers() {
    let s = Scratch::new("lsp");
    let bodies = [
        r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"initialized"}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{"textDocument":{"uri":"file:///a.rp","version":1,"text":"def inc x = x + 1"}}}"#.to_string(),
        r#"{"jsonrpc":"2.0","id":2,"method":"textDocument/hover","params":{"textDocument":{"uri":"file:///a.rp"},"position":{"line":0,"character":4}}}"#.to_string(),
        r#"{"jsonrpc":"2.0","id":3,"method":"shutdown"}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"exit"}"#.to_string(),
    ];
    let input: String = bodies
        .iter()
        .map(|b| format!("Content-Length: {}\r\n\r\n{b}", b.len()))
        .collect();
    let out = serve(&["--stdio", "--no-cache"], &input, &s.dir);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("\"textDocumentSync\""), "got: {text}");
    assert!(
        text.contains("textDocument/publishDiagnostics"),
        "got: {text}"
    );
    assert!(text.contains("inc : Int -> Int"), "got: {text}");
}

#[test]
fn disk_cache_carries_verdicts_across_daemon_sessions() {
    let s = Scratch::new("warm");
    let open = r#"{"id":1,"method":"open","params":{"path":"a.rp","text":"def a = 1\ndef b = a + 1","version":1}}"#;
    let script = format!("{open}\n{}\n", r#"{"id":2,"method":"shutdown"}"#);

    // Session 1 computes and persists on shutdown.
    let cold = responses(&serve(&["--json-rpc"], &script, &s.dir));
    assert_eq!(stat(&cold[0], "verdict_recomputed"), 2);
    assert!(
        s.dir.join(".rowpoly-cache").join("cache.json").is_file(),
        "shutdown did not persist the cache"
    );

    // Session 2 answers every verdict from disk: nothing recomputes.
    let warm = responses(&serve(&["--json-rpc"], &script, &s.dir));
    assert_eq!(stat(&warm[0], "verdict_recomputed"), 0, "{:?}", warm[0]);
    assert_eq!(stat(&warm[0], "verdict_disk_hits"), 2);

    // The persistent layer is the batch checker's own cache: a batch
    // run over the same content hits what the daemon stored.
    s.write("a.rp", "def a = 1\ndef b = a + 1");
    let check = Command::new(env!("CARGO_BIN_EXE_rowpoly"))
        .args(["check", "a.rp", "--json"])
        .current_dir(&s.dir)
        .output()
        .expect("binary runs");
    assert!(check.status.success());
    let json = String::from_utf8_lossy(&check.stdout).into_owned();
    let hits = json
        .split("\"cache_hits\":")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|n| n.trim().parse::<u64>().ok())
        .expect("cache_hits in JSON report");
    assert!(hits > 0, "batch run missed the daemon's cache: {json}");
}

/// Entry count of the `cache.json` under `dir`.
fn saved_entries(dir: &Path) -> usize {
    let text = std::fs::read_to_string(dir.join("cache.json")).expect("cache saved");
    let doc = json::parse(&text).expect("cache is JSON");
    doc.get("entries")
        .and_then(Json::as_arr)
        .expect("entries")
        .len()
}

/// `rowpoly check --json` over `args` in `cwd`; returns `stats`.
fn check_stats(args: &[&str], cwd: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_rowpoly"))
        .arg("check")
        .args(args)
        .arg("--json")
        .current_dir(cwd)
        .output()
        .expect("binary runs");
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON report");
    doc.get("stats").expect("stats").clone()
}

#[test]
fn saved_cache_stays_within_the_daemons_bound() {
    let s = Scratch::new("bound");
    let text = |n: usize| format!("def a = {n}\\ndef b = a + 1\\ndef c = b + 1");
    let mut script = format!(
        "{{\"id\":0,\"method\":\"open\",\"params\":{{\"path\":\"a.rp\",\"text\":\"{}\"}}}}\n",
        text(0)
    );
    for n in 1..=300 {
        script += &format!(
            "{{\"id\":{n},\"method\":\"edit\",\"params\":{{\"path\":\"a.rp\",\"text\":\"{}\"}}}}\n",
            text(n)
        );
    }
    script += "{\"id\":301,\"method\":\"save\"}\n{\"id\":302,\"method\":\"counters\"}\n";
    script += "{\"id\":303,\"method\":\"shutdown\"}\n";
    let rs = responses(&serve(
        &["--json-rpc", "--cache-dir", "c", "--memo-max-bytes", "4000"],
        &script,
        &s.dir,
    ));
    let memo = rs[302]
        .get("result")
        .and_then(|r| r.get("memo"))
        .expect("memo");
    let held = memo.get("entries").and_then(Json::as_i64).expect("entries");
    let live = memo.get("live_bytes").and_then(Json::as_i64).expect("live");
    assert!(
        memo.get("evicted").and_then(Json::as_i64) > Some(0),
        "{memo}"
    );
    assert!(live <= 4000, "store over its bound: {memo}");
    let saved = saved_entries(&s.dir.join("c"));
    assert!(
        saved as i64 <= held,
        "saved {saved} entries, store holds {held}"
    );
}

#[test]
fn a_daemon_save_keeps_the_batch_checkers_entries() {
    let s = Scratch::new("shared");
    let corpus = s.dir.join("programs");
    std::fs::create_dir_all(&corpus).unwrap();
    let programs = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    for entry in std::fs::read_dir(programs).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, corpus.join(path.file_name().unwrap())).unwrap();
    }
    let cold = check_stats(&["programs", "--cache-dir", "c"], &s.dir);
    let stored = saved_entries(&s.dir.join("c"));
    assert!(stored > 1, "{cold}");

    // A daemon session on an unrelated file saves into the same cache.
    let script = concat!(
        r#"{"id":1,"method":"open","params":{"path":"z.rp","text":"def z = 1"}}"#,
        "\n",
        r#"{"id":2,"method":"save"}"#,
        "\n",
        r#"{"id":3,"method":"shutdown"}"#,
        "\n",
    );
    responses(&serve(&["--json-rpc", "--cache-dir", "c"], script, &s.dir));
    assert_eq!(saved_entries(&s.dir.join("c")), stored + 1);

    let warm = check_stats(&["programs", "--cache-dir", "c"], &s.dir);
    let hits = warm.get("cache_hits").and_then(Json::as_i64).expect("hits");
    assert_eq!(hits as usize, stored, "warm check lost entries: {warm}");
}

#[test]
fn a_zero_byte_bound_is_a_usage_error() {
    let s = Scratch::new("zero");
    for bad in ["0", "lots"] {
        let out = serve(&["--json-rpc", "--memo-max-bytes", bad], "", &s.dir);
        assert_eq!(out.status.code(), Some(2), "--memo-max-bytes {bad}");
    }
}

/// File-record count of the `cache.json` under `dir`.
fn saved_records(dir: &Path) -> usize {
    let text = std::fs::read_to_string(dir.join("cache.json")).expect("cache saved");
    let doc = json::parse(&text).expect("cache is JSON");
    doc.get("files")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len)
}

#[test]
fn check_and_serve_keep_sharing_file_records() {
    let s = Scratch::new("records");
    let corpus = s.dir.join("programs");
    std::fs::create_dir_all(&corpus).unwrap();
    let programs = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut files = 0;
    for entry in std::fs::read_dir(programs).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, corpus.join(path.file_name().unwrap())).unwrap();
        files += 1;
    }
    let cold = check_stats(&["programs", "--cache-dir", "c"], &s.dir);
    let (stored, records) = (
        saved_entries(&s.dir.join("c")),
        saved_records(&s.dir.join("c")),
    );
    // Every sample but the one with a rejected definition has a record.
    assert_eq!(records, files - 1, "{cold}");

    // A daemon over the v6 file answers a sample's groups from disk, as
    // before records, and its save keeps every record: it still holds
    // every group they name.
    let merge = std::fs::read_to_string(corpus.join("merge.rp")).unwrap();
    let open = Json::obj(vec![
        ("id", Json::Int(1)),
        ("method", Json::Str("open".into())),
        (
            "params",
            Json::obj(vec![
                ("path", Json::Str("programs/merge.rp".into())),
                ("text", Json::Str(merge)),
            ]),
        ),
    ]);
    let script = format!(
        "{open}\n{}\n{}\n{}\n",
        r#"{"id":2,"method":"open","params":{"path":"z.rp","text":"def z = 1"}}"#,
        r#"{"id":3,"method":"save"}"#,
        r#"{"id":4,"method":"shutdown"}"#,
    );
    let replies = responses(&serve(&["--json-rpc", "--cache-dir", "c"], &script, &s.dir));
    assert_eq!(stat(&replies[0], "verdict_recomputed"), 0, "{}", replies[0]);
    assert!(stat(&replies[0], "verdict_disk_hits") > 0, "{}", replies[0]);
    assert_eq!(saved_entries(&s.dir.join("c")), stored + 1);
    assert_eq!(saved_records(&s.dir.join("c")), records);

    // A `check` after the session still serves the unchanged files from
    // their records and parses only the one with an error.
    let warm = check_stats(&["programs", "--cache-dir", "c"], &s.dir);
    let stat_of = |name: &str| warm.get(name).and_then(Json::as_i64).expect(name);
    assert_eq!(stat_of("files_parsed"), 1, "{warm}");
    assert_eq!(stat_of("cache_hits") as usize, stored, "{warm}");
}
