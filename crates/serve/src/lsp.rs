//! The Language Server Protocol front end (`rowpoly serve --stdio`).
//!
//! Speaks JSON-RPC 2.0 with `Content-Length` framing over any
//! reader/writer pair (stdio in production, byte buffers in tests).
//! The supported surface is deliberately small — exactly what the
//! incremental engine can answer well:
//!
//! * `initialize`/`initialized`/`shutdown`/`exit` lifecycle;
//! * `textDocument/didOpen`, `didChange` (incremental sync, LSP
//!   `TextDocumentSyncKind.Incremental = 2`), `didSave` (persists the
//!   disk cache), `didClose`;
//! * `textDocument/publishDiagnostics` notifications after every
//!   document revision, carrying the same minimal-core error paths the
//!   batch checker reports (the full explained rendering rides in each
//!   diagnostic's `data.rendered`);
//! * `textDocument/hover`: the inferred closed scheme and SAT class of
//!   the definition under the cursor.
//!
//! Document URIs are used verbatim as engine keys — the engine never
//! touches the filesystem for open documents, so `file://`, `untitled:`
//! and anything else an editor sends all work.

use std::io::{BufRead, Write};

use rowpoly_obs::json::{self, Json};

use crate::engine::{RangeEdit, ServeConfig, ServeEngine};
use crate::{diagnostics, range_json};

/// JSON-RPC error code for an unknown method.
const METHOD_NOT_FOUND: i64 = -32601;
/// JSON-RPC error code for malformed params.
const INVALID_PARAMS: i64 = -32602;

/// Runs the LSP loop until `exit` or end of input.
pub fn serve<R: BufRead, W: Write>(
    mut input: R,
    mut output: W,
    config: ServeConfig,
) -> std::io::Result<()> {
    let mut engine = ServeEngine::new(config);
    while let Some(msg) = read_frame(&mut input)? {
        let Ok(msg) = json::parse(&msg) else {
            continue; // a malformed frame is the client's bug, not fatal
        };
        let id = msg.get("id").cloned();
        let method = msg.get("method").and_then(Json::as_str).unwrap_or("");
        let params = msg.get("params").cloned().unwrap_or(Json::Null);
        match method {
            "initialize" => {
                respond(&mut output, id, Ok(initialize_result()))?;
            }
            "initialized" | "$/cancelRequest" => {}
            "textDocument/didOpen" => {
                if let Some((uri, version, text)) = open_params(&params) {
                    engine.open(&uri, text, version);
                    publish(&mut output, &engine, &uri)?;
                }
            }
            "textDocument/didChange" => {
                if let Err(e) = did_change(&mut engine, &mut output, &params) {
                    log_message(&mut output, &format!("didChange failed: {e}"))?;
                }
            }
            "textDocument/didSave" => {
                if let Some(uri) = uri_param(&params) {
                    // A save may carry the full text (includeText: true);
                    // treat it as an authoritative refresh.
                    if let Some(text) = params.get("text").and_then(Json::as_str) {
                        let version = engine.document(&uri).map_or(0, |d| d.version);
                        let _ = engine.change_full(&uri, text.to_string(), version);
                        publish(&mut output, &engine, &uri)?;
                    }
                    if let Err(e) = engine.persist() {
                        log_message(&mut output, &e)?;
                    }
                }
            }
            "textDocument/didClose" => {
                if let Some(uri) = uri_param(&params) {
                    engine.close(&uri);
                    // Clear stale squiggles in the editor.
                    notify(
                        &mut output,
                        "textDocument/publishDiagnostics",
                        Json::obj(vec![
                            ("uri", Json::Str(uri)),
                            ("diagnostics", Json::Arr(Vec::new())),
                        ]),
                    )?;
                }
            }
            "textDocument/hover" => {
                let result = hover_result(&engine, &params);
                respond(&mut output, id, result)?;
            }
            "shutdown" => {
                if let Err(e) = engine.persist() {
                    log_message(&mut output, &e)?;
                }
                respond(&mut output, id, Ok(Json::Null))?;
            }
            "exit" => break,
            _ => {
                // Unknown notifications are ignored per the spec;
                // unknown requests get a MethodNotFound error.
                if let Some(id) = id {
                    respond(
                        &mut output,
                        Some(id),
                        Err((METHOD_NOT_FOUND, format!("unhandled method {method:?}"))),
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// Reads one `Content-Length`-framed message body. `None` at EOF.
fn read_frame<R: BufRead>(input: &mut R) -> std::io::Result<Option<String>> {
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if input.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let line = line.trim_end();
        if line.is_empty() {
            if content_length.is_some() {
                break;
            }
            continue; // stray blank line between frames
        }
        if let Some(value) = line.strip_prefix("Content-Length:") {
            content_length = value.trim().parse().ok();
        }
        // Other headers (Content-Type) are ignored.
    }
    let len = content_length.expect("loop only breaks with a length");
    let mut buf = vec![0u8; len];
    input.read_exact(&mut buf)?;
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Writes one framed message.
fn write_frame<W: Write>(output: &mut W, body: &Json) -> std::io::Result<()> {
    let rendered = body.render();
    write!(
        output,
        "Content-Length: {}\r\n\r\n{rendered}",
        rendered.len()
    )?;
    output.flush()
}

fn respond<W: Write>(
    output: &mut W,
    id: Option<Json>,
    result: Result<Json, (i64, String)>,
) -> std::io::Result<()> {
    let id = id.unwrap_or(Json::Null);
    let body = match result {
        Ok(result) => Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("id", id),
            ("result", result),
        ]),
        Err((code, message)) => Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("id", id),
            (
                "error",
                Json::obj(vec![
                    ("code", Json::Int(code)),
                    ("message", Json::Str(message)),
                ]),
            ),
        ]),
    };
    write_frame(output, &body)
}

fn notify<W: Write>(output: &mut W, method: &str, params: Json) -> std::io::Result<()> {
    write_frame(
        output,
        &Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("method", Json::Str(method.to_string())),
            ("params", params),
        ]),
    )
}

fn log_message<W: Write>(output: &mut W, message: &str) -> std::io::Result<()> {
    notify(
        output,
        "window/logMessage",
        Json::obj(vec![
            ("type", Json::Int(1)), // Error
            ("message", Json::Str(message.to_string())),
        ]),
    )
}

fn initialize_result() -> Json {
    Json::obj(vec![
        (
            "capabilities",
            Json::obj(vec![
                (
                    "textDocumentSync",
                    Json::obj(vec![
                        ("openClose", Json::Bool(true)),
                        // 2 = Incremental: the client sends range edits.
                        ("change", Json::Int(2)),
                        ("save", Json::obj(vec![("includeText", Json::Bool(true))])),
                    ]),
                ),
                ("hoverProvider", Json::Bool(true)),
            ]),
        ),
        (
            "serverInfo",
            Json::obj(vec![
                ("name", Json::Str("rowpoly-serve".to_string())),
                ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
            ]),
        ),
    ])
}

fn uri_param(params: &Json) -> Option<String> {
    params
        .get("textDocument")?
        .get("uri")?
        .as_str()
        .map(str::to_string)
}

fn open_params(params: &Json) -> Option<(String, i64, String)> {
    let doc = params.get("textDocument")?;
    let uri = doc.get("uri")?.as_str()?.to_string();
    let version = doc.get("version").and_then(Json::as_i64).unwrap_or(0);
    let text = doc.get("text")?.as_str()?.to_string();
    Some((uri, version, text))
}

fn did_change<W: Write>(
    engine: &mut ServeEngine,
    output: &mut W,
    params: &Json,
) -> Result<(), String> {
    let uri = uri_param(params).ok_or("didChange missing textDocument.uri")?;
    let version = params
        .get("textDocument")
        .and_then(|d| d.get("version"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    let changes = params
        .get("contentChanges")
        .and_then(Json::as_arr)
        .ok_or("didChange missing contentChanges")?;
    // Apply in order: ranged changes batch into one incremental
    // revision; a change without a range replaces the whole document.
    let mut pending: Vec<RangeEdit> = Vec::new();
    for change in changes {
        if change.get("range").is_some() {
            pending.push(crate::rpc::parse_change(change)?);
        } else {
            if !pending.is_empty() {
                engine.change_ranges(&uri, &pending, version)?;
                pending.clear();
            }
            let text = change
                .get("text")
                .and_then(Json::as_str)
                .ok_or("change missing `text`")?;
            engine.change_full(&uri, text.to_string(), version)?;
        }
    }
    if !pending.is_empty() {
        engine.change_ranges(&uri, &pending, version)?;
    }
    publish(output, engine, &uri).map_err(|e| e.to_string())
}

/// Publishes the document's current diagnostics.
fn publish<W: Write>(output: &mut W, engine: &ServeEngine, uri: &str) -> std::io::Result<()> {
    let Some(doc) = engine.document(uri) else {
        return Ok(());
    };
    let items: Vec<Json> = diagnostics(doc)
        .into_iter()
        .map(|d| {
            // LSP severity: 1 = Error, 2 = Warning. A timeout is not a
            // typing verdict, so it warns instead of erroring.
            let severity = if d.kind == "timeout" { 2 } else { 1 };
            let mut data = vec![("rendered", Json::Str(d.rendered))];
            if let Some(def) = d.def {
                data.push(("def", Json::Str(def)));
            }
            Json::obj(vec![
                ("range", range_json(doc, d.span)),
                ("severity", Json::Int(severity)),
                ("source", Json::Str("rowpoly".to_string())),
                ("message", Json::Str(d.message)),
                ("data", Json::obj(data)),
            ])
        })
        .collect();
    notify(
        output,
        "textDocument/publishDiagnostics",
        Json::obj(vec![
            ("uri", Json::Str(uri.to_string())),
            ("version", Json::Int(doc.version)),
            ("diagnostics", Json::Arr(items)),
        ]),
    )
}

fn hover_result(engine: &ServeEngine, params: &Json) -> Result<Json, (i64, String)> {
    let uri = uri_param(params).ok_or((INVALID_PARAMS, "hover missing uri".to_string()))?;
    let pos = params
        .get("position")
        .ok_or((INVALID_PARAMS, "hover missing position".to_string()))?;
    let line = pos.get("line").and_then(Json::as_i64).unwrap_or(0).max(0) as usize;
    let character = pos
        .get("character")
        .and_then(Json::as_i64)
        .unwrap_or(0)
        .max(0) as usize;
    let Some(h) = engine.hover(&uri, line, character) else {
        return Ok(Json::Null);
    };
    let doc = engine.document(&uri).expect("hover implies open");
    let value = match (&h.scheme, h.sat_class) {
        (Some(scheme), Some(class)) => {
            format!("```\n{} : {}\n```\n\nSAT class: {}", h.name, scheme, class)
        }
        _ => format!("`{}` — {}", h.name, h.status),
    };
    Ok(Json::obj(vec![
        (
            "contents",
            Json::obj(vec![
                ("kind", Json::Str("markdown".to_string())),
                ("value", Json::Str(value)),
            ]),
        ),
        ("range", range_json(doc, h.span)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &str) -> String {
        format!("Content-Length: {}\r\n\r\n{}", body.len(), body)
    }

    /// Runs the LSP loop in-process and returns the decoded frames.
    fn run(messages: &[&str]) -> Vec<Json> {
        let input: String = messages.iter().map(|m| frame(m)).collect();
        let mut output = Vec::new();
        serve(input.as_bytes(), &mut output, ServeConfig::default()).expect("io");
        let mut cursor = std::io::Cursor::new(output);
        let mut frames = Vec::new();
        while let Some(body) = read_frame(&mut cursor).expect("well-framed") {
            frames.push(json::parse(&body).expect("json"));
        }
        frames
    }

    fn find<'a>(frames: &'a [Json], method: &str) -> Vec<&'a Json> {
        frames
            .iter()
            .filter(|f| f.get("method").and_then(Json::as_str) == Some(method))
            .collect()
    }

    #[test]
    fn lifecycle_with_incremental_sync_and_hover() {
        let frames = run(&[
            r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#,
            r#"{"jsonrpc":"2.0","method":"initialized"}"#,
            r#"{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{"textDocument":{"uri":"file:///a.rp","version":1,"text":"def a = 1\ndef b = a + 1"}}}"#,
            r#"{"jsonrpc":"2.0","method":"textDocument/didChange","params":{"textDocument":{"uri":"file:///a.rp","version":2},"contentChanges":[{"range":{"start":{"line":0,"character":8},"end":{"line":0,"character":9}},"text":"41"}]}}"#,
            r#"{"jsonrpc":"2.0","id":2,"method":"textDocument/hover","params":{"textDocument":{"uri":"file:///a.rp"},"position":{"line":0,"character":4}}}"#,
            r#"{"jsonrpc":"2.0","id":3,"method":"shutdown"}"#,
            r#"{"jsonrpc":"2.0","method":"exit"}"#,
        ]);

        let init = &frames[0];
        let sync = init
            .get("result")
            .and_then(|r| r.get("capabilities"))
            .and_then(|c| c.get("textDocumentSync"))
            .expect("caps");
        assert_eq!(sync.get("change").and_then(Json::as_i64), Some(2));

        let published = find(&frames, "textDocument/publishDiagnostics");
        assert_eq!(published.len(), 2, "one per revision");
        for p in &published {
            let diags = p
                .get("params")
                .and_then(|p| p.get("diagnostics"))
                .and_then(Json::as_arr)
                .expect("list");
            assert!(diags.is_empty(), "clean file: {p}");
        }

        let hover = frames
            .iter()
            .find(|f| f.get("id").and_then(Json::as_i64) == Some(2))
            .expect("hover response");
        let value = hover
            .get("result")
            .and_then(|r| r.get("contents"))
            .and_then(|c| c.get("value"))
            .and_then(Json::as_str)
            .expect("markdown");
        assert!(value.contains("a : Int"), "{value}");
        assert!(value.contains("SAT class"), "{value}");
    }

    #[test]
    fn errors_publish_diagnostics_with_explained_rendering() {
        let frames = run(&[
            r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#,
            r#"{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{"textDocument":{"uri":"file:///bad.rp","version":1,"text":"def bad = #foo {}"}}}"#,
            r#"{"jsonrpc":"2.0","method":"exit"}"#,
        ]);
        let published = find(&frames, "textDocument/publishDiagnostics");
        let diags = published[0]
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(Json::as_arr)
            .expect("list");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("severity").and_then(Json::as_i64), Some(1));
        assert!(diags[0]
            .get("data")
            .and_then(|d| d.get("rendered"))
            .and_then(Json::as_str)
            .expect("rendered")
            .contains("field `foo`"));
        // The range starts at the access `#foo`, not at the definition.
        let start = diags[0]
            .get("range")
            .and_then(|r| r.get("start"))
            .expect("range start");
        assert_eq!(start.get("line").and_then(Json::as_i64), Some(0));
        assert_eq!(start.get("character").and_then(Json::as_i64), Some(10));
    }

    #[test]
    fn unknown_requests_get_method_not_found() {
        let frames = run(&[
            r#"{"jsonrpc":"2.0","id":9,"method":"textDocument/definition","params":{}}"#,
            r#"{"jsonrpc":"2.0","method":"exit"}"#,
        ]);
        let err = frames[0].get("error").expect("error");
        assert_eq!(
            err.get("code").and_then(Json::as_i64),
            Some(METHOD_NOT_FOUND)
        );
    }
}
