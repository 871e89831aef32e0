//! `def_digest` hashes a definition's syntax tree instead of its
//! pretty-printed text, so it must draw exactly the lines
//! `pretty_def` draws: two definitions digest alike if and only if they
//! print alike. Checked on seeded decoder and guarded programs, the
//! shipped samples, and whitespace, comment and small-edit variants of
//! every definition.

use std::collections::BTreeMap;

use rowpoly::batch::cache::def_digest;
use rowpoly::gen::rng::SplitMix64;
use rowpoly::gen::{generate_guarded, generate_with_lines, GuardedParams};
use rowpoly::lang::{parse_program, pretty_def, pretty_program, Def, Program};

/// Both directions of the iff, over every definition seen: one digest
/// per printed form and one printed form per digest.
#[derive(Default)]
struct Classes {
    by_text: BTreeMap<String, u64>,
    by_digest: BTreeMap<u64, String>,
}

impl Classes {
    fn add(&mut self, def: &Def) {
        let (text, digest) = (pretty_def(def), def_digest(def));
        let known = *self.by_text.entry(text.clone()).or_insert(digest);
        assert_eq!(known, digest, "one printed form, two digests:\n{text}");
        let known = self.by_digest.entry(digest).or_insert_with(|| text.clone());
        assert_eq!(*known, text, "one digest, two printed forms");
    }
}

/// The programs the check runs over.
fn programs() -> Vec<Program> {
    let mut out = Vec::new();
    for seed in [1, 7, 11] {
        for with_sem in [false, true] {
            out.push(generate_with_lines(400, with_sem, seed).0);
        }
        out.push(generate_guarded(&GuardedParams {
            seed,
            modules: 6,
            ..GuardedParams::default()
        }));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("programs/ exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rp"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable program");
        out.push(parse_program(&text).expect("sample parses"));
    }
    out
}

/// `text` with its layout changed outside string literals: some spaces
/// widened or broken onto an indented new line, and a comment before
/// some line breaks.
fn relayout(text: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            ' ' => out.push_str(["  ", "\n    ", " ", "\t"][rng.next_u64() as usize % 4]),
            '\n' if rng.next_u64().is_multiple_of(2) => out.push_str("  -- a comment (\n"),
            c => out.push(c),
        }
    }
    out
}

#[test]
fn digests_agree_with_printed_forms() {
    let mut classes = Classes::default();
    let mut rng = SplitMix64::seed_from_u64(24);
    let mut defs = 0;
    for program in programs() {
        for def in &program.defs {
            defs += 1;
            classes.add(def);
            // A new layout parses back to a definition that prints and
            // digests as before. (A multi-field update's binder prints
            // in a form that does not parse back.)
            if parse_program(&pretty_def(def)).is_err() {
                continue;
            }
            let text = relayout(&pretty_def(def), &mut rng);
            let again = parse_program(&text).expect("a relayout parses");
            assert_eq!(again.defs.len(), 1, "{text}");
            assert_eq!(pretty_def(&again.defs[0]), pretty_def(def), "{text}");
            assert_eq!(def_digest(&again.defs[0]), def_digest(def), "{text}");
            classes.add(&again.defs[0]);
        }
        // Small edits: every digit bumped, then every name lengthened,
        // one at a time. Each edit that still parses is a definition of
        // its own, compared with all the others.
        let text = pretty_program(&program);
        for (at, c) in text
            .char_indices()
            .filter(|&(_, c)| c.is_ascii_digit())
            .step_by(7)
        {
            let bumped = char::from(b'0' + (c as u8 - b'0' + 1) % 10);
            let edited = format!("{}{bumped}{}", &text[..at], &text[at + 1..]);
            if let Ok(p) = parse_program(&edited) {
                p.defs.iter().for_each(|d| classes.add(d));
            }
        }
        for (at, _) in text.match_indices(' ').step_by(11) {
            let edited = format!("{}q{}", &text[..at], &text[at..]);
            if let Ok(p) = parse_program(&edited) {
                p.defs.iter().for_each(|d| classes.add(d));
            }
        }
    }
    assert!(defs > 200, "only {defs} definitions checked");
    assert!(
        classes.by_text.len() > defs,
        "the edits made few new definitions: {} forms",
        classes.by_text.len()
    );
}

#[test]
fn spans_do_not_reach_the_digest() {
    let a = parse_program("def f x = {a = x}").expect("parses");
    let b = parse_program("\n\n-- a header\ndef f x =\n  {a = x}  -- done").expect("parses");
    assert_ne!(a.defs[0].span, b.defs[0].span);
    assert_eq!(def_digest(&a.defs[0]), def_digest(&b.defs[0]));
    // A name, a literal or a binder that changes the printed form
    // changes the digest.
    for other in [
        "def g x = {a = x}",
        "def f y = {a = y}",
        "def f x = {b = x}",
        "def f x = {a = 1}",
        "def f x = @{a = x} {}",
    ] {
        let p = parse_program(other).expect("parses");
        assert_eq!(
            def_digest(&p.defs[0]) == def_digest(&a.defs[0]),
            pretty_def(&p.defs[0]) == pretty_def(&a.defs[0]),
            "{other}"
        );
    }
}
