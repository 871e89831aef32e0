//! Batch-vs-serial and serve-vs-batch parity on generated decoder
//! workloads.
//!
//! The batch engine must agree with the serial [`Session`] driver on
//! both verdicts and rendered schemes, and the serve daemon must agree
//! with the batch engine and the serial driver after any edit history,
//! whatever the worker count on either side and whether or not `check`
//! starts warm. This is the regression net for
//! cross-engine scheme transport: dependency schemes travel between
//! engines in closed form and are renamed into the consumer's flag and
//! variable spaces (`import_scheme`); a bug there shows up as a
//! spurious "field never added" rejection or a drifted scheme on
//! exactly the deep call-chains these workloads generate.

use std::path::PathBuf;

use rowpoly::batch::{check_sources, BatchOptions, FileInput, Verdict};
use rowpoly::core::{Session, SessionError};
use rowpoly::gen::generate_with_lines;
use rowpoly::gen::rng::SplitMix64;
use rowpoly::serve::{Analysis, DefStatus, ServeConfig, ServeEngine};

#[test]
fn batch_matches_serial_on_generated_decoders() {
    for seed in [1u64, 7, 42] {
        let (program, src) = generate_with_lines(200, true, seed);
        let serial = Session::default()
            .infer_program(&program)
            .expect("serial driver checks the generated workload");

        let report = check_sources(
            vec![FileInput {
                path: "gen.rp".to_string(),
                source: src,
            }],
            &BatchOptions::in_memory(4),
        );
        assert!(
            report.ok(),
            "batch rejected a workload the serial driver accepts (seed {seed}):\n{}",
            report.render()
        );

        let defs = report.files[0].defs.as_ref().expect("source parses");
        assert_eq!(defs.len(), serial.defs.len());
        for (batch_def, serial_def) in defs.iter().zip(&serial.defs) {
            match &batch_def.verdict {
                Verdict::Ok { scheme, .. } => assert_eq!(
                    scheme,
                    &serial_def.render(false),
                    "scheme drift for `{}` (seed {seed})",
                    batch_def.name
                ),
                other => panic!(
                    "`{}` did not check: {other:?} (seed {seed})",
                    batch_def.name
                ),
            }
        }
    }
}

/// One definition's outcome as both front ends can render it: the
/// status word plus its payload (scheme, explained diagnostic, timeout
/// message, or the shadowing definition).
type Outcome = (String, &'static str, String);

fn batch_outcomes(source: &str, jobs: usize) -> Vec<Outcome> {
    batch_outcomes_with(source, BatchOptions::in_memory(jobs)).0
}

/// The outcomes of one `check` run under `options` (explained), and the
/// run's cache hits.
fn batch_outcomes_with(source: &str, mut options: BatchOptions) -> (Vec<Outcome>, u64) {
    options.explain = true;
    let report = check_sources(
        vec![FileInput {
            path: "gen.rp".to_string(),
            source: source.to_string(),
        }],
        &options,
    );
    let defs = report.files[0].defs.as_ref().expect("source parses");
    let outcomes = defs
        .iter()
        .map(|d| {
            let (word, payload) = match &d.verdict {
                Verdict::Ok { scheme, .. } => ("ok", scheme.clone()),
                Verdict::Error { diagnostic, .. } => ("error", diagnostic.clone()),
                Verdict::Timeout { message } => ("timeout", message.clone()),
                Verdict::Skipped { after } => ("skipped", after.clone()),
            };
            (d.name.clone(), word, payload)
        })
        .collect();
    (outcomes, report.stats.cache_hits)
}

/// What the serial driver reports for a whole program: every scheme, or
/// the explained diagnostic of the first failing definition.
#[derive(Debug, PartialEq)]
enum Serial {
    Schemes(Vec<(String, String)>),
    Rejected(String),
}

fn serial_outcome(source: &str) -> Serial {
    match Session::default().infer_source(source) {
        Ok(report) => Serial::Schemes(
            report
                .defs
                .iter()
                .map(|d| (d.name.to_string(), d.render(false)))
                .collect(),
        ),
        Err(e @ SessionError::Type(_)) => Serial::Rejected(e.render_explained(source)),
        Err(e) => panic!("serial driver failed to parse: {e}"),
    }
}

/// The serial driver's view of serve's outcomes: all schemes when every
/// definition checked, else the rendering at the first failure.
fn serial_view(served: &[Outcome]) -> Serial {
    match served.iter().find(|(_, word, _)| *word != "ok") {
        Some((_, _, rendered)) => Serial::Rejected(rendered.clone()),
        None => Serial::Schemes(
            served
                .iter()
                .map(|(name, _, scheme)| (name.clone(), scheme.clone()))
                .collect(),
        ),
    }
}

fn serve_outcomes(engine: &ServeEngine, path: &str) -> Vec<Outcome> {
    let doc = engine.document(path).expect("document open");
    let Analysis::Checked { defs } = &doc.analysis else {
        panic!("serve failed to parse its document");
    };
    defs.iter()
        .map(|d| {
            let payload = match &d.status {
                DefStatus::Ok { scheme, .. } => scheme.clone(),
                DefStatus::Error { rendered, .. } => rendered.clone(),
                DefStatus::Timeout { message, .. } => message.clone(),
                DefStatus::Skipped { after } => after.clone(),
            };
            (d.name.clone(), d.status.word(), payload)
        })
        .collect()
}

/// Byte ranges of standalone integer literals (digit runs not embedded
/// in an identifier).
fn literal_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            i += 1;
        } else if start == 0
            || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_')
        {
            spans.push((start, i));
        }
    }
    spans
}

#[derive(Clone, Copy)]
enum Edit {
    /// Rewrite an integer literal.
    Literal,
    /// Add a field to the shared `mk_state` helper.
    Field,
    /// Break a `#opcode` select in `main`.
    Break,
    /// Undo the last `Break`.
    Fix,
    /// Insert two definitions, the second using the first, before a
    /// random definition.
    Insert,
    /// Comment out the line of the second inserted definition.
    Comment,
    /// Delete the first inserted definition and the commented line.
    Delete,
}

const ABSENT: &str = "#absent_field ";

/// A seeded script of 23 edits: 10 literals, 4 helper fields, 3
/// breaks and one insertion, shuffled, each break directly followed by
/// its fix and the insertion by its comment and delete.
fn script(rng: &mut SplitMix64) -> Vec<Edit> {
    let mut units = [
        [Edit::Literal; 10].as_slice(),
        &[Edit::Field; 4],
        &[Edit::Break; 3],
        &[Edit::Insert],
    ]
    .concat();
    rng.shuffle(&mut units);
    units
        .into_iter()
        .flat_map(|e| match e {
            Edit::Break => vec![Edit::Break, Edit::Fix],
            Edit::Insert => vec![Edit::Insert, Edit::Comment, Edit::Delete],
            e => vec![e],
        })
        .collect()
}

const INSERTED: &str = "def inserted x = x + 5\n";
const USES: &str = "def uses_inserted = inserted 3\n";

/// Applies one scripted edit to `text`; `n` numbers the edit.
fn apply(edit: Edit, text: &str, rng: &mut SplitMix64, n: usize) -> String {
    let splice =
        |start: usize, end: usize, with: &str| format!("{}{with}{}", &text[..start], &text[end..]);
    match edit {
        Edit::Literal => {
            let spans = literal_spans(text);
            let (start, end) = spans[rng.gen_range(0..spans.len())];
            let old: u64 = text[start..end].parse().expect("digit run");
            let new = (old + 1 + rng.gen_range(0..7u64)) % 100;
            splice(start, end, &new.to_string())
        }
        Edit::Field => {
            const HELPER: &str = "def mk_state x = ";
            let start = text.find(HELPER).expect("decoder has the shared helper") + HELPER.len();
            let end = start + text[start..].find('\n').expect("helper ends its line");
            splice(
                start,
                end,
                &format!("@{{extra_{n} = x}} ({})", &text[start..end]),
            )
        }
        Edit::Break => {
            let main = text.find("\ndef main").expect("decoder has main");
            let sites: Vec<usize> = text[main..]
                .match_indices("#opcode ")
                .map(|(i, _)| main + i)
                .collect();
            let at = sites[rng.gen_range(0..sites.len())];
            splice(at, at + "#opcode ".len(), ABSENT)
        }
        Edit::Fix => {
            let at = text.find(ABSENT).expect("a break precedes its fix");
            splice(at, at + ABSENT.len(), "#opcode ")
        }
        Edit::Insert => {
            let starts: Vec<usize> = text.match_indices("\ndef ").map(|(i, _)| i + 1).collect();
            let at = starts[rng.gen_range(0..starts.len())];
            splice(at, at, &format!("{INSERTED}{USES}"))
        }
        Edit::Comment => {
            let at = text.find(USES).expect("an insert precedes its comment");
            splice(at, at, "-- ")
        }
        Edit::Delete => {
            let at = text.find(INSERTED).expect("an insert precedes its delete");
            let end = at + INSERTED.len() + "-- ".len() + USES.len();
            splice(at, end, "")
        }
    }
}

/// A scratch directory for one test run, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("rowpoly-parity-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn serve_matches_batch_after_an_edit_history() {
    for seed in [1u64, 7, 42] {
        let (_, mut src) = generate_with_lines(200, true, seed);
        // Serve with one worker and with four: both stores save to disk
        // at the end, for comparison.
        let dirs = [1, 4].map(|workers| TempDir::new(&format!("serve{workers}-{seed}")));
        let mut engines: Vec<ServeEngine> = [1, 4]
            .iter()
            .zip(&dirs)
            .map(|(&workers, dir)| {
                let mut engine = ServeEngine::new(ServeConfig {
                    cache_dir: Some(dir.0.clone()),
                    ..ServeConfig::default()
                });
                engine.set_workers(workers);
                engine.open("gen.rp", src.clone(), 0);
                engine
            })
            .collect();
        // `check` on a cache every earlier version of the text warmed.
        let warm = TempDir::new(&format!("warm-{seed}"));
        let mut rng = SplitMix64::seed_from_u64(seed);
        let edits = script(&mut rng);
        let mut errors = 0;
        for version in 0..=edits.len() {
            if version > 0 {
                src = apply(edits[version - 1], &src, &mut rng, version);
                for engine in &mut engines {
                    engine
                        .change_full("gen.rp", src.clone(), version as i64)
                        .expect("document open");
                }
            }
            let served = serve_outcomes(&engines[0], "gen.rp");
            assert_eq!(
                serve_outcomes(&engines[1], "gen.rp"),
                served,
                "serve with 1 and 4 workers disagree after edit {version} (seed {seed})"
            );
            if version > 0 {
                let inserted = served.iter().any(|(name, _, _)| name == "uses_inserted");
                let expected = matches!(edits[version - 1], Edit::Insert);
                assert_eq!(inserted, expected, "edit {version} (seed {seed})");
            }
            errors += served
                .iter()
                .filter(|(_, word, _)| *word == "error")
                .count();
            assert_eq!(
                serial_outcome(&src),
                serial_view(&served),
                "serve and the serial driver disagree after edit {version} (seed {seed})"
            );
            let (warmed, hits) = batch_outcomes_with(
                &src,
                BatchOptions {
                    jobs: 2,
                    cache_dir: warm.0.clone(),
                    ..BatchOptions::default()
                },
            );
            assert!(
                version == 0 || hits > 0,
                "edit {version} ran cold (seed {seed})"
            );
            let checks = [1, 2, 4]
                .map(|jobs| (format!("--jobs {jobs}"), batch_outcomes(&src, jobs)))
                .into_iter()
                .chain([("--jobs 2 on a warm cache".to_string(), warmed)]);
            for (run, batch) in checks {
                assert_eq!(batch.len(), served.len());
                for (b, s) in batch.iter().zip(&served) {
                    assert_eq!(
                        b, s,
                        "serve and `check {run}` disagree after edit {version} (seed {seed})"
                    );
                }
            }
        }
        assert_eq!(errors, 3, "each break rejects `main` once (seed {seed})");

        // The worker count changes neither the store nor a counter.
        let [one, four] = [0, 1].map(|e| {
            engines[e].persist().expect("store saves");
            let counters = engines[e].counters();
            let saved = std::fs::read(dirs[e].0.join(rowpoly::batch::cache::CACHE_FILE))
                .expect("store saved");
            (
                counters.get("queries").cloned(),
                counters.get("memo").cloned(),
                saved,
            )
        });
        assert!(
            one == four,
            "stores differ under 1 and 4 workers (seed {seed})"
        );
    }
}

#[test]
fn forward_reference_inside_a_group_matches_serial() {
    // `a` references `b` before its definition, and both share the
    // ambient `m`, so they form one group: `b` inside `a` is the
    // ambient monomorphic name the serial driver binds, not the later
    // definition.
    let src = "def a = b + m\ndef b = m\n";
    let program = rowpoly::lang::parse_program(src).expect("parses");
    let serial: Vec<(String, &'static str, String)> = Session::default()
        .infer_program(&program)
        .expect("the serial driver checks it")
        .defs
        .iter()
        .map(|d| (d.name.to_string(), "ok", d.render(false)))
        .collect();
    assert_eq!(
        serial,
        [("a", "ok", "Int"), ("b", "ok", "Int")].map(|(n, w, s)| (n.to_string(), w, s.to_string()))
    );
    for jobs in [1, 2, 4] {
        assert_eq!(batch_outcomes(src, jobs), serial, "check --jobs {jobs}");
    }
    for workers in [1, 4] {
        let mut engine = ServeEngine::new(ServeConfig::default());
        engine.set_workers(workers);
        engine.open("fwd.rp", src.to_string(), 0);
        assert_eq!(
            serve_outcomes(&engine, "fwd.rp"),
            serial,
            "serve, {workers} workers"
        );
    }
}
