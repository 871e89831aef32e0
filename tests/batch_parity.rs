//! Batch-vs-serial and serve-vs-batch parity on generated decoder
//! workloads, and `Session` against the let-chain on open programs.
//!
//! The batch engine must agree with the serial [`Session`] driver on
//! both verdicts and rendered schemes, and the serve daemon must agree
//! with the batch engine and the serial driver after any edit history,
//! whatever the worker count on either side and whether or not `check`
//! starts warm. All three cut a program into definition groups; the
//! reference they answer to is the let-chain itself, every definition
//! folded through one engine ([`let_chain`]). This is the regression
//! net for cross-engine scheme transport: dependency schemes travel
//! between engines in closed form and are renamed into the consumer's
//! flag and variable spaces (`import_scheme`); a bug there shows up as
//! a spurious "field never added" rejection or a drifted scheme on
//! exactly the deep call-chains these workloads generate, and a
//! grouping bug as an open program the let-chain rejects but the
//! groups accept.

use std::path::PathBuf;

use rowpoly::batch::{check_sources, BatchOptions, FileInput, Verdict};
use rowpoly::core::{
    run_group_spec, DefVerdict, EngineScratch, GroupSpec, Options, Session, SessionError, TypeError,
};
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
        let chain = let_chain(&program);
        assert_eq!(chain.len(), serial.defs.len(), "seed {seed}");
        for ((name, verdict), def) in chain.iter().zip(&serial.defs) {
            let DefVerdict::Ok(report) = verdict else {
                panic!("the let-chain rejects `{name}` (seed {seed}): {verdict:?}");
            };
            assert_eq!(
                report.render(false),
                def.render(false),
                "`{name}` (seed {seed})"
            );
        }

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

/// The let-chain reference: every definition folded in source order
/// through one engine and one growing environment, with no dependency
/// graph and no scheme closed between definitions. Each definition's
/// name and verdict, up to the first failure.
fn let_chain(program: &rowpoly::lang::Program) -> Vec<(String, DefVerdict)> {
    let all: Vec<usize> = (0..program.defs.len()).collect();
    let free_names: Vec<_> = program.free_vars().into_iter().collect();
    let spec = GroupSpec {
        opts: &Options::default(),
        program,
        def_indices: &all,
        deps: &[],
        free_names: &free_names,
    };
    run_group_spec(&spec, &mut EngineScratch::default())
        .items
        .into_iter()
        .filter(|(_, v)| !matches!(v, DefVerdict::Skipped { .. }))
        .map(|(i, v)| (program.defs[i].name.to_string(), v))
        .collect()
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

#[test]
fn cross_definition_diagnostics_are_identical_on_every_entry_point() {
    // The failing definition uses a field another definition removed
    // or never added: the explained diagnostic must be the same bytes
    // from the serial driver, `check --explain` cold and warm at one
    // and two workers, and serve at one and four workers.
    for (src, failing) in [
        ("def r = %a {a = 1}\ndef use = #a r\n", "use"),
        ("def get s = #bar s\ndef main = get {foo = 1}\n", "main"),
    ] {
        let Serial::Rejected(serial) = serial_outcome(src) else {
            panic!("the serial driver accepts {src:?}");
        };
        let diagnostic = |outcomes: &[Outcome], run: &str| -> String {
            let (name, word, payload) = outcomes.last().expect("definitions");
            assert_eq!((name.as_str(), *word), (failing, "error"), "{run}");
            payload.clone()
        };
        for jobs in [1, 2] {
            let cache = TempDir::new(&format!("diag-{failing}-{jobs}"));
            for warm in [false, true] {
                let run = format!("check --explain --jobs {jobs}, warm: {warm}");
                let (outcomes, hits) = batch_outcomes_with(
                    src,
                    BatchOptions {
                        jobs,
                        cache_dir: cache.0.clone(),
                        ..BatchOptions::default()
                    },
                );
                assert_eq!(hits > 0, warm, "{run}");
                assert_eq!(diagnostic(&outcomes, &run), serial, "{run}");
            }
        }
        for workers in [1, 4] {
            let mut engine = ServeEngine::new(ServeConfig::default());
            engine.set_workers(workers);
            engine.open("cross.rp", src.to_string(), 0);
            let run = format!("serve, {workers} workers");
            let served = serve_outcomes(&engine, "cross.rp");
            assert_eq!(diagnostic(&served, &run), serial, "{run}");
        }
    }
}

/// A verdict both the let-chain and the session can produce: every
/// scheme, or the first failing definition's error kind and span.
/// (Rendered diagnostics may differ: only the let-chain keeps origin
/// notes from other definitions.)
#[derive(Debug, PartialEq)]
enum Typing {
    Schemes(Vec<(String, String)>),
    Rejected(String, String),
}

fn rejected(e: &TypeError) -> Typing {
    Typing::Rejected(e.to_string(), format!("{:?}", e.span))
}

fn let_chain_typing(program: &rowpoly::lang::Program) -> Typing {
    let mut schemes = Vec::new();
    for (name, verdict) in let_chain(program) {
        match verdict {
            DefVerdict::Ok(report) => schemes.push((name, report.render(true))),
            DefVerdict::Error(e) | DefVerdict::Timeout(e) => return rejected(&e),
            DefVerdict::Skipped { .. } => unreachable!("skips are filtered"),
        }
    }
    Typing::Schemes(schemes)
}

fn session_typing(program: &rowpoly::lang::Program) -> Typing {
    match Session::default().infer_program(program) {
        Ok(report) => Typing::Schemes(
            report
                .defs
                .iter()
                .map(|d| (d.name.to_string(), d.render(true)))
                .collect(),
        ),
        Err(e) => rejected(&e),
    }
}

#[test]
fn open_programs_keep_the_let_chain_verdict() {
    // `f` reads the ambient `x`, so its type stays `x`'s; `g` (or `h`,
    // reading `x` itself) binds it to `Int` for every reader, and `#foo
    // f` must then fail as in the let-chain. A dependent that saw `f`
    // through a renamed copy of its scheme would accept.
    for (src, failing) in [
        ("def f = x\ndef g = f + 1\ndef k = #foo f\n", "k"),
        ("def f = x\ndef h = x + 1\ndef g = #foo f\n", "g"),
        ("def f y = x y\ndef g = f 1 + 1\ndef h = f {}\n", "h"),
    ] {
        let program = rowpoly::lang::parse_program(src).expect("parses");
        let chain = let_chain_typing(&program);
        let Typing::Rejected(kind, _) = &chain else {
            panic!("the let-chain accepts {src:?}");
        };
        assert!(kind.contains("does not unify"), "{src:?}: {kind}");
        assert_eq!(session_typing(&program), chain, "{src:?}");
        let Serial::Rejected(serial) = serial_outcome(src) else {
            unreachable!("the session rejects {src:?}");
        };
        let last = |outcomes: &[Outcome], run: &str| {
            let (name, word, payload) = outcomes.last().expect("definitions").clone();
            assert_eq!((name.as_str(), word), (failing, "error"), "{src:?}, {run}");
            payload
        };
        for jobs in [1, 2] {
            let run = format!("check --jobs {jobs}");
            assert_eq!(last(&batch_outcomes(src, jobs), &run), serial, "{run}");
        }
        for workers in [1, 4] {
            let mut engine = ServeEngine::new(ServeConfig::default());
            engine.set_workers(workers);
            engine.open("open.rp", src.to_string(), 0);
            let run = format!("serve, {workers} workers");
            assert_eq!(
                last(&serve_outcomes(&engine, "open.rp"), &run),
                serial,
                "{run}"
            );
        }
    }
}

/// A random expression over earlier definitions `d0..d{defs}`, the
/// ambient names `x`/`y`/`z`, one lambda-bound `v`, list built-ins and
/// record operations. Expressions are drawn by sort (`Int` when `int`,
/// else a record) so that most type errors come from the untyped
/// names, whose types flow between definitions.
fn open_expr(rng: &mut SplitMix64, defs: usize, depth: u32, bound: bool, int: bool) -> String {
    if depth == 0 || rng.gen_bool(0.3) {
        let mut names = vec!["x".to_string(), "y".to_string(), "z".to_string()];
        if bound {
            names.push("v".to_string());
        }
        for d in 0..defs {
            names.push(format!("d{d}"));
            names.push(format!("d{d}"));
        }
        if depth > 0 || rng.gen_bool(0.5) {
            return names[rng.gen_range(0..names.len())].clone();
        }
        return if int { "1" } else { "{foo = 1}" }.to_string();
    }
    let d = depth - 1;
    let sub = |rng: &mut SplitMix64, int| open_expr(rng, defs, d, bound, int);
    if rng.gen_bool(0.15) {
        let body = open_expr(rng, defs, d, true, int);
        let arg_int = rng.gen_bool(0.5);
        return format!("((\\v . {body}) {})", sub(rng, arg_int));
    }
    if int {
        match rng.gen_range(0..5u32) {
            0 => format!("({} + 1)", sub(rng, true)),
            1 => format!("(#foo {})", sub(rng, false)),
            2 => format!("(head (cons {} {}))", sub(rng, true), sub(rng, false)),
            3 => format!("(null {})", sub(rng, false)),
            _ => format!("(if {} then {} else 1)", sub(rng, true), sub(rng, true)),
        }
    } else {
        match rng.gen_range(0..5u32) {
            0 => format!("{{foo = {}}}", sub(rng, true)),
            1 => format!("(@{{foo = {}}} {})", sub(rng, true), sub(rng, false)),
            2 => format!("(%foo {})", sub(rng, false)),
            3 => format!("(@{{bar = {}}} {})", sub(rng, true), sub(rng, false)),
            _ => format!("({} @@ {{baz = 1}})", sub(rng, false)),
        }
    }
}

#[test]
fn session_matches_the_let_chain_on_random_open_programs() {
    let mut rng = SplitMix64::seed_from_u64(0x6f70_656e);
    let (mut accepted, mut rejected_at) = (0, [0usize; 6]);
    for case in 0..1000 {
        let mut src = String::new();
        for d in 0..6 {
            let int = rng.gen_bool(0.5);
            let body = open_expr(&mut rng, d, 2, false, int);
            src.push_str(&format!("def d{d} = {body}\n"));
        }
        let program = rowpoly::lang::parse_program(&src).expect("parses");
        let chain = let_chain_typing(&program);
        match &chain {
            Typing::Schemes(_) => accepted += 1,
            Typing::Rejected(..) => {
                let failed = let_chain(&program).len() - 1;
                rejected_at[failed] += 1;
            }
        }
        assert_eq!(session_typing(&program), chain, "case {case}:\n{src}");
    }
    // The net must catch both late rejections and acceptances.
    assert!(accepted >= 20, "{accepted} accepted");
    assert!(
        rejected_at[3..].iter().sum::<usize>() >= 20,
        "{rejected_at:?}"
    );
}
