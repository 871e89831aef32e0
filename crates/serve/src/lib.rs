//! `rowpoly-serve`: a persistent incremental-query daemon for rowpoly,
//! with an LSP front end for editors and a line-delimited JSON-RPC
//! front end for tests and benchmarks.
//!
//! The batch checker (`rowpoly-batch`) already keys every definition
//! group by the content that determines its outcome — the members'
//! syntax trees, inference options, and the *closed schemes* of its
//! dependencies — and persists those keys across runs. This crate
//! turns that one-shot cache into a living query graph: a daemon that
//! holds open documents in memory, re-answers only the queries whose
//! keys an edit actually changed, and pushes diagnostics and hover
//! answers to an editor in editor time rather than batch time.
//!
//! * [`engine`] — the [`ServeEngine`]: open documents, the four-query
//!   pipeline (parse → slice → verdict → scheme), one bounded verdict
//!   store (the batch checker's `Cache`, loaded from and saved to its
//!   cache directory), and the per-revision cutoff accounting.
//! * [`live`] — a document's live parsed program, revised by
//!   reparsing only the definitions an edit touches.
//! * [`rpc`] — the newline-delimited JSON protocol (`rowpoly serve
//!   --json-rpc`): one request object per line, one response per line.
//!   Deterministic and trivially scriptable, it is what `tests/serve.rs`
//!   and the `edits` benchmark drive.
//! * [`lsp`] — the Language Server Protocol front end (`rowpoly serve
//!   --stdio`): Content-Length framing, incremental text sync,
//!   `publishDiagnostics`, and hover showing the inferred scheme and
//!   SAT class.
//!
//! Both front ends are pure functions of `(reader, writer, config)`,
//! so every protocol test runs them in-process over byte buffers.

#![warn(missing_docs)]

pub mod engine;
pub mod live;
pub mod lsp;
pub mod rpc;

pub use engine::{
    analysis_ok, Analysis, DefState, DefStatus, Document, FileUpdate, HoverInfo, RangeEdit,
    RevisionStats, ServeConfig, ServeEngine,
};

use rowpoly_lang::Span;
use rowpoly_obs::json::Json;

/// One diagnostic extracted from a document's analysis: a definition's
/// failure, or the file's parse error.
#[derive(Clone, Debug)]
pub struct DiagItem {
    /// The failing definition; `None` for a parse error.
    pub def: Option<String>,
    /// `parse-error`, `error`, or `timeout`.
    pub kind: &'static str,
    /// One-line message.
    pub message: String,
    /// The full span-anchored diagnostic, rendered against the current
    /// source exactly as one-shot `rowpoly check --explain` renders it.
    pub rendered: String,
    /// Primary span.
    pub span: Span,
}

/// Extracts the diagnostics of a document's current analysis, in
/// source order. Skipped definitions produce nothing: their cause is
/// already reported, and the batch checker's reports treat them the
/// same way.
pub fn diagnostics(doc: &Document) -> Vec<DiagItem> {
    match &doc.analysis {
        Analysis::ParseError {
            message,
            rendered,
            span,
        } => vec![DiagItem {
            def: None,
            kind: "parse-error",
            message: message.clone(),
            rendered: rendered.clone(),
            span: *span,
        }],
        Analysis::Checked { defs } => defs
            .iter()
            .filter_map(|d| match &d.status {
                DefStatus::Error {
                    message,
                    rendered,
                    span,
                } => Some(DiagItem {
                    def: Some(d.name.clone()),
                    kind: "error",
                    message: message.clone(),
                    rendered: rendered.clone(),
                    span: *span,
                }),
                DefStatus::Timeout { message, span } => Some(DiagItem {
                    def: Some(d.name.clone()),
                    kind: "timeout",
                    message: message.clone(),
                    rendered: format!("{}: {}", d.name, message),
                    span: *span,
                }),
                DefStatus::Ok { .. } | DefStatus::Skipped { .. } => None,
            })
            .collect(),
    }
}

/// Converts a byte span into a 0-based LSP-style range object using the
/// document's line map.
pub fn range_json(doc: &Document, span: Span) -> Json {
    let pos = |offset: u32| {
        let (line, col) = doc.line_map.position(offset.min(doc.source.len() as u32));
        Json::obj(vec![
            ("line", Json::Int(line as i64 - 1)),
            ("character", Json::Int(col as i64 - 1)),
        ])
    };
    Json::obj(vec![("start", pos(span.start)), ("end", pos(span.end))])
}
