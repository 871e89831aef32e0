//! One live parsed program per open document, revised by splicing.
//!
//! A revision of a document usually changes a few bytes of one
//! definition. The daemon keeps the parsed program, each definition's
//! content digest ([`def_digest`], the key material) and the dependency
//! graph, and on a new text reparses only the definitions the changed
//! byte range touches:
//!
//! 1. the changed range is what lies between the longest common prefix
//!    and the longest common suffix of the old and new text;
//! 2. a definition owns the bytes from its `def` to the next one's
//!    (the first also owns the text before it); the region is every
//!    definition whose bytes the range touches, widened to whole
//!    definitions;
//! 3. [`parse_program`] parses the region's new text alone, the result
//!    is moved to the region's offset, and later definitions' spans
//!    shift by the change in length.
//!
//! The region starts where a definition started in the old text and
//! everything before it is unchanged, so the lexer reaches it in the
//! same state. Its end is another definition's `def` in the unchanged
//! suffix, but new text can glue onto that `def`: an identifier
//! character right before it, or a `--` comment left open on the
//! region's last line (a comment swallows a following same-line `def`).
//! Then, and whenever the region does not parse on its own, the splice
//! falls back to parsing the whole text — so every answer, diagnostics
//! included, is what [`parse_program`] gives for the new text.
//!
//! The graph is kept when no definition was added, removed or renamed
//! and none changed its free variables, the only inputs
//! [`ProgramGraph::build`] reads.

use rowpoly_batch::cache::def_digest;
use rowpoly_core::graph::ProgramGraph;
use rowpoly_lang::{parse_program, Diag, Program};

/// A document's parsed program and what the daemon derives from it.
#[derive(Debug)]
pub struct LiveProgram {
    /// The program, spans against the current text.
    pub program: Program,
    /// [`def_digest`] of each definition.
    pub digests: Vec<u64>,
    /// The dependency graph of `program`.
    pub graph: ProgramGraph,
}

/// What one revision of a [`LiveProgram`] reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Splice {
    /// Definitions carried over from the previous program.
    pub carried: usize,
    /// Definitions parsed anew: every definition when the splice fell
    /// back to a full parse.
    pub reparsed: usize,
    /// Whether the previous graph was kept.
    pub graph_kept: bool,
}

impl LiveProgram {
    /// Parses a whole text.
    pub fn parse(text: &str) -> Result<LiveProgram, Diag> {
        let program = parse_program(text)?;
        Ok(LiveProgram {
            digests: program.defs.iter().map(def_digest).collect(),
            graph: ProgramGraph::build(&program),
            program,
        })
    }

    /// Revises the program of `old` to the program of `new`. On an
    /// error, `new` does not parse (the diagnostic is
    /// [`parse_program`]'s) and `self` is unchanged.
    pub fn revise(&mut self, old: &str, new: &str) -> Result<Splice, Diag> {
        if let Some(splice) = self.splice(old, new) {
            return Ok(splice);
        }
        *self = LiveProgram::parse(new)?;
        Ok(Splice {
            carried: 0,
            reparsed: self.program.defs.len(),
            graph_kept: false,
        })
    }

    /// Reparses the region the change touches; `None`, with `self`
    /// unchanged, when the region does not parse alone or does not end
    /// on a definition boundary.
    fn splice(&mut self, old: &str, new: &str) -> Option<Splice> {
        let defs = &self.program.defs;
        if defs.is_empty() {
            return None;
        }
        let (old_b, new_b) = (old.as_bytes(), new.as_bytes());
        let prefix = old_b.iter().zip(new_b).take_while(|(a, b)| a == b).count();
        let suffix = old_b[prefix..]
            .iter()
            .rev()
            .zip(new_b[prefix..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let changed_end = old_b.len() - suffix;
        let start = |i: usize| defs[i].span.start as usize;
        let lo = defs
            .partition_point(|d| d.span.start as usize <= prefix)
            .saturating_sub(1);
        let hi = defs
            .partition_point(|d| (d.span.start as usize) < changed_end)
            .saturating_sub(1)
            .max(lo);
        let from = if lo == 0 { 0 } else { start(lo) };
        let delta = new_b.len() as i64 - old_b.len() as i64;
        let to = if hi + 1 < defs.len() {
            (start(hi + 1) as i64 + delta) as usize
        } else {
            new_b.len()
        };
        let region_text = &new[from..to];
        let mut region = parse_program(region_text).ok()?;
        if to < new_b.len() && !ends_on_boundary(region_text, &region) {
            return None;
        }

        let graph_kept = region.defs.len() == hi + 1 - lo
            && region
                .defs
                .iter()
                .zip(&defs[lo..=hi])
                .all(|(n, o)| n.name == o.name && n.body.free_vars() == o.body.free_vars());
        for def in &mut region.defs {
            def.shift(from as i64);
        }
        if delta != 0 {
            for def in &mut self.program.defs[hi + 1..] {
                def.shift(delta);
            }
        }
        let reparsed = region.defs.len();
        self.digests
            .splice(lo..=hi, region.defs.iter().map(def_digest));
        self.program.defs.splice(lo..=hi, region.defs);
        if !graph_kept {
            self.graph = ProgramGraph::build(&self.program);
        }
        Some(Splice {
            carried: self.program.defs.len() - reparsed,
            reparsed,
            graph_kept,
        })
    }
}

/// Whether the lexer, continuing past the end of `text` (a region whose
/// parse is `region`) into a `def`, starts a fresh token there: the last
/// byte is no identifier character, and no `--` comment is open on the
/// trivia's last line. A definition's span ends at its last token.
fn ends_on_boundary(text: &str, region: &Program) -> bool {
    let glued = text
        .bytes()
        .last()
        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'');
    let trivia = &text[region.defs.last().map_or(0, |d| d.span.end as usize)..];
    let last_line = &trivia[trivia.rfind('\n').map_or(0, |i| i + 1)..];
    !glued && !last_line.contains("--")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn revised(old: &str, new: &str) -> (LiveProgram, Splice) {
        let mut live = LiveProgram::parse(old).expect("old parses");
        let splice = live.revise(old, new).expect("new parses");
        let full = LiveProgram::parse(new).expect("new parses");
        assert_eq!(live.program, full.program, "{old:?} -> {new:?}");
        assert_eq!(live.digests, full.digests);
        assert_eq!(live.graph, full.graph);
        (live, splice)
    }

    #[test]
    fn a_literal_edit_reparses_one_definition_and_keeps_the_graph() {
        let (_, splice) = revised(
            "def a = 1\ndef b = a + 1\ndef c = b + 1",
            "def a = 1\ndef b = a + 10\ndef c = b + 1",
        );
        assert_eq!(
            splice,
            Splice {
                carried: 2,
                reparsed: 1,
                graph_kept: true
            }
        );
    }

    #[test]
    fn adding_a_definition_rebuilds_the_graph() {
        let (live, splice) = revised("def a = 1\ndef c = 3", "def a = 1\ndef b = a\ndef c = 3");
        assert_eq!(live.program.defs.len(), 3);
        assert!(!splice.graph_kept);
        assert!(splice.reparsed <= 2, "{splice:?}");
    }

    #[test]
    fn an_open_comment_before_a_same_line_def_falls_back() {
        let (live, splice) = revised("def a = 1 def b = 2", "def a = 1 -- def b = 2");
        assert_eq!(live.program.defs.len(), 1);
        assert!(!splice.graph_kept);
        // Joining a comment's line to the next definition swallows it.
        let (live, splice) = revised("def a = 1 -- c\ndef b = 2", "def a = 1 -- cdef b = 2");
        assert_eq!(live.program.defs.len(), 1);
        assert_eq!(splice.carried, 0, "fell back to a full parse");
    }

    /// Asserts that revising `old` to `new` fails as a full parse of
    /// `new` does, leaving the program as it was.
    fn fails(old: &str, new: &str) {
        let mut live = LiveProgram::parse(old).expect("old parses");
        let before = live.program.clone();
        let err = live.revise(old, new).expect_err("new does not parse");
        assert_eq!(err, parse_program(new).expect_err("fails"), "{new:?}");
        assert_eq!(live.program, before);
    }

    #[test]
    fn a_glued_identifier_fails_like_a_full_parse() {
        // The region `def a = x\ny` parses alone; `ydef` does not.
        fails("def a = x\ndef b = 2", "def a = x\nydef b = 2");
    }

    #[test]
    fn text_that_stops_parsing_fails_like_a_full_parse() {
        fails("def a = 1\ndef b = \"s\"", "def a = 1\ndef b = \"s");
    }
}
