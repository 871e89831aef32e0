//! Byte-for-byte golden rendering of `--explain` diagnostics.
//!
//! Each ill-typed program is checked under two configurations — the
//! default options every entry point uses, and per-definition
//! compaction — and the rendered error (span-anchored notes plus the
//! minimal-core summary) is compared with `tests/golden/explain.txt`. The programs
//! cover every SAT class the diagnostics come from: 2-SAT (an
//! Observation 1 select-after-remove pipeline, a rename target, the
//! shipped `bad_select.rp`), dual-Horn (asymmetric `@`), and general CNF
//! (`@@`, `when`).

use rowpoly::core::{Compaction, Options, Session};

const PROGRAMS: &[(&str, &str)] = &[
    (
        "select after remove",
        "def path =\n  let r = @{b = 2} ({}) in\n  let s = %a (@{a = 1} r) in\n  #a s\n",
    ),
    ("rename target", "def clash = ^{a -> b} (@{b = 2} ({}))\n"),
    ("asymmetric concat", "def f r s = #a (%a (r @ s))\n"),
    (
        "symmetric concat",
        "def overlap = (@{a = 1} ({})) @@ (@{a = 2} ({}))\n",
    ),
    (
        "when",
        "def w s = when foo in s then #bar s else #foo s\ndef bad = w {}\n",
    ),
    ("bad_select.rp", include_str!("../programs/bad_select.rp")),
];

fn configs() -> [(&'static str, Options); 2] {
    [
        ("default", Options::default()),
        (
            "perdef",
            Options {
                compaction: Compaction::PerDef,
                ..Options::default()
            },
        ),
    ]
}

fn render_all() -> String {
    let mut out = String::new();
    for (name, src) in PROGRAMS {
        for (config, opts) in configs() {
            out.push_str(&format!("=== {name} [{config}]\n"));
            let err = Session::new(opts)
                .infer_source(src)
                .expect_err("program has a type error");
            out.push_str(&err.render_explained(src));
        }
    }
    out
}

#[test]
fn explain_output_matches_golden() {
    let expected = include_str!("golden/explain.txt");
    let got = render_all();
    if got != expected {
        panic!("--explain rendering drifted from tests/golden/explain.txt; got:\n{got}");
    }
}
