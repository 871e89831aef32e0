//! Diagnostics with source rendering.

use std::fmt;

use crate::span::{LineMap, Span};

/// Severity of a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A hard error; the program is rejected.
    Error,
    /// Informative note attached to an error.
    Note,
}

/// A diagnostic message anchored to a source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Severity of the primary message.
    pub severity: Severity,
    /// Primary location.
    pub span: Span,
    /// Primary message.
    pub message: String,
    /// Secondary notes (e.g. the steps of a missing-field path).
    pub notes: Vec<(Span, String)>,
}

impl Diag {
    /// Builds an error diagnostic.
    pub fn error(span: Span, message: impl Into<String>) -> Diag {
        Diag {
            severity: Severity::Error,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a note at a location (builder style).
    pub fn with_note(mut self, span: Span, message: impl Into<String>) -> Diag {
        self.notes.push((span, message.into()));
        self
    }

    /// Renders the diagnostic against its source text, with line/column
    /// positions and a caret line, e.g.
    ///
    /// ```text
    /// error: field `foo` may not exist
    ///  --> 3:12
    ///   |     v = #foo s
    ///   |         ^^^^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let lm = LineMap::new(source);
        let mut out = String::new();
        render_one(
            &mut out,
            source,
            &lm,
            self.severity,
            self.span,
            &self.message,
        );
        for (span, note) in &self.notes {
            // Synthesised nodes (generated ASTs, builder helpers) carry
            // zero-width dummy spans; a caret pointing at offset 0 of an
            // unrelated line explains nothing, so such notes are dropped
            // from the human rendering. They stay in `notes` for
            // structured consumers.
            if span.is_empty() {
                continue;
            }
            render_one(&mut out, source, &lm, Severity::Note, *span, note);
        }
        out
    }
}

fn render_one(
    out: &mut String,
    source: &str,
    lm: &LineMap,
    severity: Severity,
    span: Span,
    message: &str,
) {
    use fmt::Write;
    let tag = match severity {
        Severity::Error => "error",
        Severity::Note => "note",
    };
    let (line, col) = lm.position(span.start);
    writeln!(out, "{tag}: {message}").expect("write to string");
    writeln!(out, " --> {line}:{col}").expect("write to string");
    let text = lm.line_text(source, span.start);
    writeln!(out, "  | {text}").expect("write to string");
    let width = span
        .len()
        .clamp(1, text.len().saturating_sub(col - 1).max(1));
    writeln!(out, "  | {}{}", " ".repeat(col - 1), "^".repeat(width)).expect("write to string");
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Diag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_span() {
        let src = "let x = 1 in\n#foo x";
        let d = Diag::error(Span::new(13, 17), "field `foo` may not exist");
        let rendered = d.render(src);
        assert!(rendered.contains("error: field `foo` may not exist"));
        assert!(rendered.contains("--> 2:1"));
        assert!(rendered.contains("#foo x"));
        assert!(rendered.contains("^^^^"));
    }

    #[test]
    fn notes_are_rendered_after_error() {
        let src = "abc";
        let d = Diag::error(Span::new(0, 1), "boom").with_note(Span::new(2, 3), "because");
        let rendered = d.render(src);
        let epos = rendered.find("error:").unwrap();
        let npos = rendered.find("note:").unwrap();
        assert!(epos < npos);
    }

    #[test]
    fn dummy_span_notes_are_skipped() {
        let src = "abc";
        let d = Diag::error(Span::new(0, 1), "boom")
            .with_note(Span::dummy(), "synthesised, no anchor")
            .with_note(Span::new(2, 3), "because");
        let rendered = d.render(src);
        assert!(!rendered.contains("synthesised"));
        assert!(rendered.contains("note: because"));
        assert_eq!(d.notes.len(), 2, "structured notes keep the dummy entry");
    }
}
