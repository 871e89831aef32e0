//! Differential test of serve's spliced reparse against a full parse.
//!
//! `LiveProgram::revise` reparses only the definitions an edit touches
//! and shifts the spans of the rest. After every seeded edit — random
//! byte inserts, deletes and replaces, whole definitions added and
//! removed, comments opened before a same-line `def` or joined onto the
//! next line, unterminated strings, edits at either end of the text —
//! the spliced program must equal `parse_program` of the new text, spans
//! included, with the same digests and dependency graph; or both must
//! fail with the same diagnostic.

use rowpoly::batch::cache::def_digest;
use rowpoly::core::graph::ProgramGraph;
use rowpoly::gen::generate_with_lines;
use rowpoly::gen::rng::SplitMix64;
use rowpoly::lang::parse_program;
use rowpoly::serve::live::LiveProgram;

/// Snippets random inserts and replaces draw from: tokens, trivia, and
/// the pieces that make region boundaries interesting.
const SNIPPETS: &[&str] = &[
    "1",
    "42",
    "x",
    "s",
    " ",
    "\n",
    "+ 1",
    "-- ",
    "--",
    "\"",
    "\"str\"",
    "def ",
    "def z = 1\n",
    "(",
    ")",
    "{a = 1}",
    "@{b = 2, c = 3} ",
    "#foo ",
    "\\y . y",
    "let q = 1 in ",
    "=",
    "_",
    "'",
];

/// How each kind of edit fared.
#[derive(Default, Debug)]
struct Tally {
    edits: usize,
    /// Edits both sides parsed, where the splice carried definitions.
    spliced: usize,
    /// Edits whose splice kept the previous graph.
    graph_kept: usize,
    /// Edits both sides parsed, where the splice fell back to a full
    /// parse of a program of several definitions.
    fell_back: usize,
    /// Edits neither side parsed.
    failed: usize,
}

/// Start offsets of the text's definitions (a `def` at a line start).
fn def_starts(text: &str) -> Vec<usize> {
    text.match_indices("def ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .collect()
}

/// Picks a byte offset of `text` on a character boundary.
fn offset(text: &str, rng: &mut SplitMix64) -> usize {
    let mut at = rng.gen_range(0..text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One seeded edit of `text`: the byte range to replace and its
/// replacement.
fn edit(text: &str, rng: &mut SplitMix64) -> (usize, usize, String) {
    let snippet = |rng: &mut SplitMix64| SNIPPETS[rng.gen_range(0..SNIPPETS.len())].to_string();
    let starts = def_starts(text);
    let pick = |rng: &mut SplitMix64, v: &[usize]| v[rng.gen_range(0..v.len())];
    match rng.gen_range(0..12u32) {
        // Random byte inserts, deletes and replaces.
        0 | 1 => {
            let at = offset(text, rng);
            (at, at, snippet(rng))
        }
        2 | 3 => {
            let at = offset(text, rng);
            let mut end = (at + rng.gen_range(1..9usize)).min(text.len());
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            (at, end, String::new())
        }
        4 => {
            let at = offset(text, rng);
            let mut end = (at + rng.gen_range(1..5usize)).min(text.len());
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            (at, end, snippet(rng))
        }
        // Add a whole definition, before another or at the end.
        5 => {
            let at = if starts.is_empty() || rng.gen_bool(0.3) {
                text.len()
            } else {
                pick(rng, &starts)
            };
            let n = rng.gen_range(0..1000u32);
            let def = if at == text.len() && !text.ends_with('\n') {
                format!("\ndef added_{n} x = x + {n}\n")
            } else {
                format!("def added_{n} x = x + {n}\n")
            };
            (at, at, def)
        }
        // Delete a whole definition.
        6 if !starts.is_empty() => {
            let k = rng.gen_range(0..starts.len());
            let end = starts.get(k + 1).copied().unwrap_or(text.len());
            (starts[k], end, String::new())
        }
        // Join a definition onto the previous line, or open a `--`
        // comment right before a `def` that shares its line.
        7 if starts.len() > 1 => {
            let at = pick(rng, &starts[1..]);
            let same_line = text[..at].trim_end_matches([' ', '\n']).len();
            if same_line == at - 1 && text.as_bytes()[same_line] == b' ' {
                (at - 1, at - 1, " --".to_string())
            } else {
                (same_line, at, " ".to_string())
            }
        }
        // End a definition's line with a comment, or delete the newline
        // that ends a comment (the next line joins the comment).
        8 => {
            let ends: Vec<usize> = text.match_indices('\n').map(|(i, _)| i).collect();
            let commented: Vec<usize> = ends
                .iter()
                .copied()
                .filter(|&i| text[..i].rsplit('\n').next().unwrap_or("").contains("--"))
                .collect();
            if !commented.is_empty() && rng.gen_bool(0.6) {
                let at = pick(rng, &commented);
                (at, at + 1, String::new())
            } else if !ends.is_empty() {
                let at = pick(rng, &ends);
                (at, at, " -- note".to_string())
            } else {
                (text.len(), text.len(), " -- note".to_string())
            }
        }
        // An unterminated string inside a body.
        9 => {
            let eqs: Vec<usize> = text.match_indices("= ").map(|(i, _)| i + 2).collect();
            let at = if eqs.is_empty() {
                offset(text, rng)
            } else {
                pick(rng, &eqs)
            };
            (at, at, "\"open ".to_string())
        }
        // Edits at offset 0 and at the end of the text.
        10 => {
            let end = rng.gen_range(0..3usize).min(text.len());
            (0, end, snippet(rng))
        }
        _ => {
            let at = text.len().saturating_sub(rng.gen_range(0..3usize));
            (at, text.len(), snippet(rng))
        }
    }
}

/// Runs `edits` seeded edits from `source`, checking each splice against
/// a full parse. A text neither side parses is dropped: the next edit
/// starts from the last text that parsed.
fn run(source: &str, edits: usize, seed: u64, tally: &mut Tally) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut text = source.to_string();
    let mut live = LiveProgram::parse(&text).expect("the base text parses");
    for n in 0..edits {
        let (start, end, with) = edit(&text, &mut rng);
        let new = format!("{}{with}{}", &text[..start], &text[end..]);
        let context = || format!("edit {n} (seed {seed}): {start}..{end} -> {with:?}\n{new}");
        tally.edits += 1;
        match (live.revise(&text, &new), parse_program(&new)) {
            (Ok(splice), Ok(program)) => {
                assert_eq!(live.program, program, "{}", context());
                let digests: Vec<u64> = program.defs.iter().map(def_digest).collect();
                assert_eq!(live.digests, digests, "{}", context());
                assert_eq!(live.graph, ProgramGraph::build(&program), "{}", context());
                assert_eq!(splice.carried + splice.reparsed, program.defs.len());
                if splice.carried > 0 {
                    tally.spliced += 1;
                } else if program.defs.len() > 1 {
                    tally.fell_back += 1;
                }
                if splice.graph_kept {
                    tally.graph_kept += 1;
                }
                text = new;
            }
            (Err(spliced), Err(full)) => {
                assert_eq!(spliced, full, "{}", context());
                tally.failed += 1;
            }
            (spliced, full) => panic!(
                "splice and full parse disagree: {:?} vs {:?}\n{}",
                spliced.map(|_| ()),
                full.map(|_| ()),
                context()
            ),
        }
    }
}

#[test]
fn spliced_reparse_equals_a_full_parse() {
    let mut tally = Tally::default();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("programs/ exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rp"))
        .collect();
    paths.sort();
    for (k, path) in paths.iter().enumerate() {
        let source = std::fs::read_to_string(path).expect("readable");
        run(&source, 100, k as u64 + 1, &mut tally);
    }
    let (_, decoder) = generate_with_lines(120, true, 7);
    run(&decoder, 300, 99, &mut tally);

    assert!(tally.edits >= 500, "{tally:?}");
    // Every path ran, not just the fallback.
    assert!(tally.spliced >= 150, "{tally:?}");
    assert!(tally.graph_kept >= 50, "{tally:?}");
    assert!(tally.fell_back >= 10, "{tally:?}");
    assert!(tally.failed >= 50, "{tally:?}");
}
