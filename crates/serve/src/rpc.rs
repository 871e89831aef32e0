//! The newline-delimited JSON front end (`rowpoly serve --json-rpc`).
//!
//! One request object per line in, one response object per line out —
//! no framing headers, no notification traffic, nothing asynchronous.
//! This is the protocol the lifecycle tests and the `edits` benchmark
//! drive, and the shape a scripted client (or `jq` pipeline) wants.
//!
//! ```text
//! → {"id":1,"method":"open","params":{"path":"a.rp","text":"def a = 1","version":1}}
//! ← {"id":1,"result":{"path":"a.rp","version":1,"ok":true,"diagnostics":[],"stats":{...}}}
//! ```
//!
//! Methods:
//!
//! | method        | params                                             | result |
//! |---------------|----------------------------------------------------|--------|
//! | `open`        | `path`, `text`, `version?`                         | file update |
//! | `edit`        | `path`, `version?`, `text` *or* `changes: [...]`   | file update |
//! | `close`       | `path`                                             | `{"closed": bool}` |
//! | `diagnostics` | `path`                                             | `{"diagnostics": [...]}` |
//! | `hover`       | `path`, `line`, `character` (0-based)              | hover info or `null` |
//! | `counters`    | —                                                  | lifetime query counters |
//! | `save`        | —                                                  | persists the disk cache |
//! | `shutdown`    | —                                                  | `{"ok": true}`, ends the loop |
//!
//! `edit` accepts either a full `text` replacement or LSP-shaped
//! incremental `changes` (`{"range": {"start": {"line", "character"},
//! "end": ...}, "text"}`, applied in order), so a test can exercise the
//! exact code path an editor uses.
//!
//! Every file update embeds the revision's [`RevisionStats`] — that is
//! how a client proves early cutoff ("this edit recomputed exactly one
//! verdict") without scraping observability output.

use std::io::{BufRead, Write};

use rowpoly_obs::json::{self, Json};

use crate::engine::{DefStatus, RangeEdit, ServeConfig, ServeEngine};
use crate::{diagnostics, range_json, Analysis, FileUpdate};

/// A JSON-RPC error: standard `code` plus human-readable `message`.
/// Codes follow the JSON-RPC 2.0 assignments: `-32700` parse error,
/// `-32601` method not found, `-32602` invalid params (including
/// operations on documents that are not open), `-32603` internal.
#[derive(Debug)]
pub struct RpcError {
    /// JSON-RPC 2.0 error code.
    pub code: i64,
    /// Human-readable description, surfaced verbatim to the client.
    pub message: String,
}

impl RpcError {
    fn parse_error(message: String) -> RpcError {
        RpcError {
            code: -32700,
            message,
        }
    }

    fn method_not_found(message: String) -> RpcError {
        RpcError {
            code: -32601,
            message,
        }
    }

    fn internal(message: String) -> RpcError {
        RpcError {
            code: -32603,
            message,
        }
    }
}

/// Engine-surfaced strings are parameter problems (missing fields,
/// documents that are not open, malformed ranges): invalid params.
impl From<String> for RpcError {
    fn from(message: String) -> RpcError {
        RpcError {
            code: -32602,
            message,
        }
    }
}

impl From<&str> for RpcError {
    fn from(message: &str) -> RpcError {
        RpcError::from(message.to_string())
    }
}

/// Runs the protocol loop until `shutdown` or end of input. On
/// shutdown the disk cache (when configured) is persisted.
pub fn serve<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    config: ServeConfig,
) -> std::io::Result<()> {
    let mut engine = ServeEngine::new(config);
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (id, outcome, shutdown) = match json::parse(&line) {
            Err(e) => (
                Json::Null,
                Err(RpcError::parse_error(format!("unparseable request: {e}"))),
                false,
            ),
            Ok(req) => {
                let id = req.get("id").cloned().unwrap_or(Json::Null);
                let method = req.get("method").and_then(Json::as_str).unwrap_or("");
                let shutdown = method == "shutdown";
                (id, dispatch(&mut engine, method, &req), shutdown)
            }
        };
        let body = match outcome {
            Ok(result) => ("result", result),
            Err(e) => (
                "error",
                Json::obj(vec![
                    ("code", Json::Int(e.code)),
                    ("message", Json::Str(e.message)),
                ]),
            ),
        };
        let response = Json::obj(vec![("id", id), body]);
        writeln!(output, "{}", response.render())?;
        output.flush()?;
        if shutdown {
            engine.persist().map_err(std::io::Error::other)?;
            break;
        }
    }
    Ok(())
}

fn dispatch(engine: &mut ServeEngine, method: &str, req: &Json) -> Result<Json, RpcError> {
    let params = req.get("params").cloned().unwrap_or(Json::Null);
    match method {
        "open" => {
            let path = str_param(&params, "path")?;
            let text = str_param(&params, "text")?.to_string();
            let version = params.get("version").and_then(Json::as_i64).unwrap_or(0);
            let update = engine.open(&path, text, version);
            Ok(update_json(engine, &update))
        }
        "edit" => {
            let path = str_param(&params, "path")?;
            let version = params.get("version").and_then(Json::as_i64).unwrap_or(0);
            let update = if let Some(text) = params.get("text").and_then(Json::as_str) {
                engine.change_full(&path, text.to_string(), version)?
            } else if let Some(changes) = params.get("changes").and_then(Json::as_arr) {
                let edits = changes
                    .iter()
                    .map(parse_change)
                    .collect::<Result<Vec<_>, _>>()?;
                engine.change_ranges(&path, &edits, version)?
            } else {
                return Err("edit needs `text` or `changes`".into());
            };
            Ok(update_json(engine, &update))
        }
        "close" => {
            let path = str_param(&params, "path")?;
            Ok(Json::obj(vec![("closed", Json::Bool(engine.close(&path)))]))
        }
        "diagnostics" => {
            let path = str_param(&params, "path")?;
            if engine.document(&path).is_none() {
                return Err(format!("document not open: {path}").into());
            }
            Ok(Json::obj(vec![(
                "diagnostics",
                diagnostics_json(engine, &path),
            )]))
        }
        "hover" => {
            let path = str_param(&params, "path")?;
            let line = u_param(&params, "line")?;
            let character = u_param(&params, "character")?;
            match engine.hover(&path, line, character) {
                None => Ok(Json::Null),
                Some(h) => {
                    let doc = engine.document(&path).expect("hover implies open");
                    Ok(Json::obj(vec![
                        ("name", Json::Str(h.name)),
                        ("status", Json::Str(h.status.to_string())),
                        ("scheme", h.scheme.map(Json::Str).unwrap_or(Json::Null)),
                        (
                            "sat_class",
                            h.sat_class
                                .map(|c| Json::Str(c.to_string()))
                                .unwrap_or(Json::Null),
                        ),
                        ("range", range_json(doc, h.span)),
                    ]))
                }
            }
        }
        "counters" => Ok(engine.counters()),
        "save" => {
            engine.persist().map_err(RpcError::internal)?;
            Ok(Json::obj(vec![("ok", Json::Bool(true))]))
        }
        "shutdown" => Ok(Json::obj(vec![("ok", Json::Bool(true))])),
        other => Err(RpcError::method_not_found(format!(
            "unknown method: {other:?}"
        ))),
    }
}

fn str_param(params: &Json, key: &str) -> Result<String, String> {
    params
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string param `{key}`"))
}

fn u_param(params: &Json, key: &str) -> Result<usize, String> {
    params
        .get(key)
        .and_then(Json::as_i64)
        .filter(|&n| n >= 0)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing non-negative param `{key}`"))
}

/// Parses one LSP-shaped incremental change (shared with the LSP front
/// end, whose `contentChanges` have exactly this shape).
pub(crate) fn parse_change(change: &Json) -> Result<RangeEdit, String> {
    let text = change
        .get("text")
        .and_then(Json::as_str)
        .ok_or("change missing `text`")?
        .to_string();
    let range = change.get("range").ok_or("change missing `range`")?;
    let pos = |which: &str| -> Result<(usize, usize), String> {
        let p = range
            .get(which)
            .ok_or_else(|| format!("range missing `{which}`"))?;
        let line = p
            .get("line")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("`{which}` missing `line`"))?;
        let character = p
            .get("character")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("`{which}` missing `character`"))?;
        Ok((line.max(0) as usize, character.max(0) as usize))
    };
    let (start_line, start_character) = pos("start")?;
    let (end_line, end_character) = pos("end")?;
    Ok(RangeEdit {
        start_line,
        start_character,
        end_line,
        end_character,
        text,
    })
}

/// The `FileUpdate` wire shape shared by `open` and `edit`.
fn update_json(engine: &ServeEngine, update: &FileUpdate) -> Json {
    Json::obj(vec![
        ("path", Json::Str(update.path.clone())),
        ("version", Json::Int(update.version)),
        ("ok", Json::Bool(update.ok)),
        ("diagnostics", diagnostics_json(engine, &update.path)),
        ("stats", update.stats.to_json()),
    ])
}

fn diagnostics_json(engine: &ServeEngine, path: &str) -> Json {
    let Some(doc) = engine.document(path) else {
        return Json::Arr(Vec::new());
    };
    Json::Arr(
        diagnostics(doc)
            .into_iter()
            .map(|d| {
                Json::obj(vec![
                    ("def", d.def.map(Json::Str).unwrap_or(Json::Null)),
                    ("kind", Json::Str(d.kind.to_string())),
                    ("message", Json::Str(d.message)),
                    ("rendered", Json::Str(d.rendered)),
                    ("range", range_json(doc, d.span)),
                ])
            })
            .collect(),
    )
}

/// Schemes of every definition in a checked document, for tests that
/// want to compare against the one-shot checker's report.
pub fn schemes_json(engine: &ServeEngine, path: &str) -> Json {
    let Some(doc) = engine.document(path) else {
        return Json::Arr(Vec::new());
    };
    let Analysis::Checked { defs } = &doc.analysis else {
        return Json::Arr(Vec::new());
    };
    Json::Arr(
        defs.iter()
            .map(|d| {
                let scheme = match &d.status {
                    DefStatus::Ok { scheme, .. } => Json::Str(scheme.clone()),
                    _ => Json::Null,
                };
                Json::obj(vec![
                    ("name", Json::Str(d.name.clone())),
                    ("status", Json::Str(d.status.word().to_string())),
                    ("scheme", scheme),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the protocol loop in-process over byte buffers.
    fn run(requests: &[&str]) -> Vec<Json> {
        let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
        let mut output = Vec::new();
        serve(input.as_bytes(), &mut output, ServeConfig::default()).expect("io");
        String::from_utf8(output)
            .expect("utf8")
            .lines()
            .map(|l| json::parse(l).expect("response parses"))
            .collect()
    }

    #[test]
    fn open_edit_counters_shutdown_roundtrip() {
        let responses = run(&[
            r#"{"id":1,"method":"open","params":{"path":"a.rp","text":"def a = 1\ndef b = a + 1","version":1}}"#,
            r#"{"id":2,"method":"edit","params":{"path":"a.rp","version":2,"text":"def a = 2\ndef b = a + 1"}}"#,
            r#"{"id":3,"method":"counters"}"#,
            r#"{"id":4,"method":"shutdown"}"#,
        ]);
        assert_eq!(responses.len(), 4);
        let opened = responses[0].get("result").expect("result");
        assert_eq!(opened.get("ok"), Some(&Json::Bool(true)));

        let edited = responses[1].get("result").expect("result");
        let stats = edited.get("stats").expect("stats");
        assert_eq!(
            stats.get("verdict_recomputed").and_then(Json::as_i64),
            Some(1),
            "only the edited def re-ran: {stats}"
        );
        assert_eq!(stats.get("verdict_hits").and_then(Json::as_i64), Some(1));

        let counters = responses[2].get("result").expect("result");
        assert!(counters.get("queries").is_some(), "{counters}");
        assert_eq!(
            responses[3].get("result").and_then(|r| r.get("ok")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn incremental_changes_apply_and_errors_render() {
        let responses = run(&[
            r#"{"id":1,"method":"open","params":{"path":"a.rp","text":"def a = 1","version":1}}"#,
            r##"{"id":2,"method":"edit","params":{"path":"a.rp","version":2,"changes":[{"range":{"start":{"line":0,"character":8},"end":{"line":0,"character":9}},"text":"#foo {}"}]}}"##,
            r#"{"id":3,"method":"hover","params":{"path":"a.rp","line":0,"character":4}}"#,
        ]);
        let edited = responses[1].get("result").expect("result");
        assert_eq!(edited.get("ok"), Some(&Json::Bool(false)));
        let diags = edited
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diags");
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("def").and_then(Json::as_str),
            Some("a"),
            "{:?}",
            diags[0]
        );
        assert!(diags[0]
            .get("rendered")
            .and_then(Json::as_str)
            .expect("rendered")
            .contains("field `foo`"));
        let hover = responses[2].get("result").expect("result");
        assert_eq!(hover.get("status").and_then(Json::as_str), Some("error"));
    }

    #[test]
    fn unknown_methods_and_bad_json_return_errors() {
        let responses = run(&[
            r#"{"id":1,"method":"nope"}"#,
            r#"this is not json"#,
            r#"{"id":2,"method":"edit","params":{"path":"missing.rp","text":"def a = 1"}}"#,
        ]);
        for r in &responses {
            assert!(r.get("error").is_some(), "expected error: {r}");
        }
    }

    /// A request nested deeper than the JSON parser's bound is a parse
    /// error, not a stack overflow, and the daemon keeps serving.
    #[test]
    fn a_deeply_nested_request_is_a_parse_error() {
        let deep = "[".repeat(200_000);
        let responses = run(&[&deep, r#"{"id":1,"method":"counters"}"#]);
        assert_eq!(responses.len(), 2);
        let code = responses[0]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_i64);
        assert_eq!(code, Some(-32700), "{}", responses[0]);
        assert!(responses[1].get("result").is_some(), "{}", responses[1]);
    }

    /// Editing a document that was never opened (or was closed) is an
    /// invalid-params error (`-32602`), not a crash; the other failure
    /// shapes carry their standard JSON-RPC codes too.
    #[test]
    fn error_codes_follow_jsonrpc_assignments() {
        let code = |r: &Json| {
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_i64)
                .expect("error carries a code")
        };
        let responses = run(&[
            r#"{"id":1,"method":"edit","params":{"path":"never.rp","text":"def a = 1"}}"#,
            r#"{"id":2,"method":"open","params":{"path":"a.rp","text":"def a = 1","version":1}}"#,
            r#"{"id":3,"method":"close","params":{"path":"a.rp"}}"#,
            r#"{"id":4,"method":"edit","params":{"path":"a.rp","version":2,"text":"def a = 2"}}"#,
            r#"{"id":5,"method":"frobnicate"}"#,
            r#"{not json"#,
        ]);
        assert_eq!(code(&responses[0]), -32602, "{}", responses[0]);
        let msg = responses[0]
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("message");
        assert!(msg.contains("not open"), "{msg}");
        assert!(responses[1].get("result").is_some());
        assert_eq!(
            responses[2].get("result").and_then(|r| r.get("closed")),
            Some(&Json::Bool(true))
        );
        assert_eq!(code(&responses[3]), -32602, "{}", responses[3]);
        assert_eq!(code(&responses[4]), -32601, "{}", responses[4]);
        assert_eq!(code(&responses[5]), -32700, "{}", responses[5]);
    }

    /// An edit position inside a multi-byte character is invalid params,
    /// like a start after its end; the daemon keeps serving and the
    /// document keeps its text.
    #[test]
    fn an_edit_inside_a_multibyte_character_is_invalid_params() {
        let responses = run(&[
            r#"{"id":1,"method":"open","params":{"path":"a.rp","text":"-- é\ndef a = 1","version":1}}"#,
            r#"{"id":2,"method":"edit","params":{"path":"a.rp","version":2,"changes":[{"range":{"start":{"line":0,"character":4},"end":{"line":0,"character":4}},"text":"x"}]}}"#,
            r#"{"id":3,"method":"edit","params":{"path":"a.rp","version":3,"changes":[{"range":{"start":{"line":0,"character":3},"end":{"line":0,"character":4}},"text":"x"}]}}"#,
            r#"{"id":4,"method":"edit","params":{"path":"a.rp","version":4,"changes":[{"range":{"start":{"line":0,"character":1},"end":{"line":0,"character":0}},"text":"x"}]}}"#,
            r#"{"id":5,"method":"hover","params":{"path":"a.rp","line":1,"character":4}}"#,
        ]);
        assert_eq!(responses.len(), 5);
        for r in &responses[1..4] {
            let error = r.get("error").expect("edit rejected");
            assert_eq!(
                error.get("code").and_then(Json::as_i64),
                Some(-32602),
                "{r}"
            );
            assert!(error
                .get("message")
                .and_then(Json::as_str)
                .expect("message")
                .starts_with("invalid edit range"));
        }
        let hover = responses[4].get("result").expect("result");
        assert_eq!(
            hover.get("scheme").and_then(Json::as_str),
            Some("Int"),
            "{hover}"
        );
    }
}
