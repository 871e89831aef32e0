//! `rowpoly-batch`: parallel multi-file checking with an incremental,
//! content-addressed inference cache.
//!
//! The serial [`rowpoly_core::Session`] checks one file on one thread.
//! This crate scales the same inference to many files and many cores:
//!
//! * [`rowpoly_core::graph`] slices each file into definition groups
//!   with explicit dependency edges (topological waves bound the
//!   parallelism);
//! * [`pool`] drains the resulting DAG on a std-only work-stealing
//!   thread pool;
//! * [`cache`] keys each group by the content that determines its
//!   outcome — one digest of each member's syntax tree, options, and
//!   the digests of its dependencies' closed schemes — and persists
//!   results across runs, each with the rendering a report prints,
//!   plus one record per fully-checked file, so a warm run reports an
//!   unchanged file without parsing it;
//! * [`step`] is how one group gets its verdicts — gather dependency
//!   schemes, key, replay or infer, hand back the entry to store. The
//!   serve daemon takes the same step. Inference honours a
//!   per-definition SAT step budget, so one pathological definition
//!   degrades to a `timeout` verdict while the rest of the batch
//!   completes.
//!
//! Output is deterministic by construction: every group runs in a
//! fresh engine whose flag numbering depends only on the group's
//! inputs, and the report orders files by path and definitions by
//! source position. `--jobs 1` and `--jobs 8` produce byte-identical
//! text; scheduling artefacts (steals, cache hits, wall time) surface
//! only in the machine-readable stats.
//!
//! # Example
//!
//! ```
//! use rowpoly_batch::{check_sources, BatchOptions, FileInput};
//!
//! let files = vec![FileInput {
//!     path: "demo.rp".to_string(),
//!     source: "def inc x = x + 1\ndef use = inc 41".to_string(),
//! }];
//! let report = check_sources(files, &BatchOptions::in_memory(2));
//! assert!(report.ok());
//! assert!(report.render().contains("use : Int"));
//! ```

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rowpoly_boolfun::SatClass;
use rowpoly_core::graph::{Group, ProgramGraph};
use rowpoly_core::{DefReport, DefVerdict, EngineScratch, Options};
use rowpoly_lang::{parse_program, Program};
use rowpoly_obs as obs;
use rowpoly_obs::json::Json;
use rowpoly_obs::timeline::{JobRecord, Profiler, WorkerTimeline};
use rowpoly_obs::Recorder;

pub mod cache;
pub mod codec;
pub mod pool;
pub mod profile;
pub mod step;

use cache::Sharded;
use profile::ProfileReport;
use step::{Answer, GroupResult, GroupStep, Lookup};

/// Batch configuration.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Inference options shared by every definition group (carries the
    /// SAT step budget and the cancellation flag, if any).
    pub opts: Options,
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Whether to read and write the persistent cache.
    pub use_cache: bool,
    /// Directory holding `cache.json`.
    pub cache_dir: PathBuf,
    /// Render error diagnostics with the proof-evidence summary
    /// (minimal unsat core) appended.
    pub explain: bool,
    /// Emit a live progress line to stderr while the batch drains.
    /// Only takes effect when stderr is a terminal, so piped and CI
    /// runs stay clean regardless.
    pub progress: bool,
    /// Capture per-worker timelines, lock contention, and the
    /// dependency-graph critical path; the result lands in
    /// [`BatchReport::profile`]. Off by default: a disabled profiler
    /// costs one thread-local load per instrumentation point.
    pub profile: bool,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            opts: Options::default(),
            jobs: 0,
            use_cache: true,
            cache_dir: cache::default_dir(),
            explain: false,
            progress: false,
            profile: false,
        }
    }
}

impl BatchOptions {
    /// Options for `jobs` workers with the persistent cache disabled —
    /// the right setup for tests and one-shot in-memory checking.
    pub fn in_memory(jobs: usize) -> BatchOptions {
        BatchOptions {
            jobs,
            use_cache: false,
            ..BatchOptions::default()
        }
    }
}

/// One source file to check.
#[derive(Clone, Debug)]
pub struct FileInput {
    /// Display path (diagnostics are reported against it).
    pub path: String,
    /// File contents.
    pub source: String,
}

/// The verdict for one definition, pre-rendered for display.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Checked; `scheme` is the rendered closed scheme.
    Ok {
        /// Rendered scheme (no flags).
        scheme: String,
        /// SAT class of the definition's closed flow.
        sat_class: SatClass,
    },
    /// Rejected by inference.
    Error {
        /// One-line message.
        message: String,
        /// Full diagnostic rendered against the file's source.
        diagnostic: String,
        /// Proof evidence (minimal unsat core) for β-conflict errors.
        proof: Option<Box<rowpoly_core::ProofInfo>>,
    },
    /// The SAT budget ran out (or the run was cancelled) — not a
    /// typing verdict.
    Timeout {
        /// One-line message.
        message: String,
    },
    /// Not attempted because `after` (an earlier group member or a
    /// failed dependency) stopped.
    Skipped {
        /// The definition whose failure shadowed this one.
        after: String,
    },
}

impl Verdict {
    fn word(&self) -> &'static str {
        match self {
            Verdict::Ok { .. } => "ok",
            Verdict::Error { .. } => "error",
            Verdict::Timeout { .. } => "timeout",
            Verdict::Skipped { .. } => "skipped",
        }
    }
}

/// The outcome for one definition.
#[derive(Clone, Debug)]
pub struct DefResult {
    /// Definition name.
    pub name: String,
    /// What happened.
    pub verdict: Verdict,
}

/// The outcome for one file.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// Display path, as given in the input.
    pub path: String,
    /// Per-definition results in source order, or the rendered parse
    /// diagnostic.
    pub defs: Result<Vec<DefResult>, String>,
}

impl FileReport {
    /// Whether every definition checked.
    pub fn ok(&self) -> bool {
        match &self.defs {
            Ok(defs) => defs.iter().all(|d| matches!(d.verdict, Verdict::Ok { .. })),
            Err(_) => false,
        }
    }
}

/// Aggregate batch statistics. Everything here except the counts is
/// scheduling-dependent and deliberately kept out of the text report.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Files submitted.
    pub files: usize,
    /// Definitions across parsed files.
    pub defs: usize,
    /// Definitions that checked.
    pub ok: usize,
    /// Definitions rejected.
    pub errors: usize,
    /// Definitions whose SAT budget ran out.
    pub timeouts: usize,
    /// Definitions shadowed by an earlier failure.
    pub skipped: usize,
    /// Files that failed to parse.
    pub parse_errors: usize,
    /// Files parsed: every file but those served from their cache
    /// records.
    pub files_parsed: usize,
    /// Definition groups replayed from the cache.
    pub cache_hits: u64,
    /// Definition groups inferred from scratch.
    pub cache_misses: u64,
    /// Jobs taken from another worker's queue.
    pub steals: u64,
    /// Deepest dependency chain (in groups) over all files.
    pub waves: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
}

/// The result of checking a batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-file reports, sorted by path.
    pub files: Vec<FileReport>,
    /// Aggregate statistics.
    pub stats: BatchStats,
    /// The concurrency profile, when [`BatchOptions::profile`] was set.
    pub profile: Option<ProfileReport>,
    /// The memory-accounting block, when the counting allocator was
    /// tracking (`ROWPOLY_MEM=1`). JSON-only: memory numbers are
    /// scheduling-dependent and never appear in the text report.
    pub mem: Option<Json>,
}

impl BatchReport {
    /// Whether every file parsed and every definition checked.
    pub fn ok(&self) -> bool {
        self.files.iter().all(FileReport::ok)
    }

    /// Renders the deterministic text report: one line per definition,
    /// files sorted by path, definitions in source order, followed by a
    /// summary of the verdict counts. Contains no timing, scheduling,
    /// or cache information, so it is byte-identical across `--jobs`
    /// settings and cache states.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for file in &self.files {
            match &file.defs {
                Err(diag) => {
                    out.push_str(&format!("{}: parse error\n", file.path));
                    for line in diag.lines() {
                        out.push_str(&format!("  {line}\n"));
                    }
                }
                Ok(defs) => {
                    for d in defs {
                        match &d.verdict {
                            Verdict::Ok { scheme, .. } => {
                                out.push_str(&format!("{}: {} : {}\n", file.path, d.name, scheme));
                            }
                            Verdict::Error { diagnostic, .. } => {
                                out.push_str(&format!("{}: {}: error\n", file.path, d.name));
                                for line in diagnostic.lines() {
                                    out.push_str(&format!("  {line}\n"));
                                }
                            }
                            Verdict::Timeout { message } => {
                                out.push_str(&format!(
                                    "{}: {}: timeout: {}\n",
                                    file.path, d.name, message
                                ));
                            }
                            Verdict::Skipped { after } => {
                                out.push_str(&format!(
                                    "{}: {}: skipped (after `{}`)\n",
                                    file.path, d.name, after
                                ));
                            }
                        }
                    }
                }
            }
        }
        let s = &self.stats;
        out.push_str(&format!(
            "batch: {} files, {} definitions: {} ok, {} errors, {} timeouts, {} skipped{}\n",
            s.files,
            s.defs,
            s.ok,
            s.errors,
            s.timeouts,
            s.skipped,
            if s.parse_errors > 0 {
                format!(", {} parse errors", s.parse_errors)
            } else {
                String::new()
            }
        ));
        out
    }

    /// The machine-readable report, including the scheduling-dependent
    /// statistics the text report omits.
    pub fn to_json(&self) -> Json {
        let files = self
            .files
            .iter()
            .map(|f| {
                let mut members = vec![("path", Json::Str(f.path.clone()))];
                match &f.defs {
                    Err(diag) => members.push(("parse_error", Json::Str(diag.clone()))),
                    Ok(defs) => members.push((
                        "defs",
                        Json::Arr(
                            defs.iter()
                                .map(|d| {
                                    let mut m = vec![
                                        ("name", Json::Str(d.name.clone())),
                                        ("status", Json::Str(d.verdict.word().to_string())),
                                    ];
                                    match &d.verdict {
                                        Verdict::Ok { scheme, sat_class } => {
                                            m.push(("scheme", Json::Str(scheme.clone())));
                                            m.push((
                                                "class",
                                                Json::Str(sat_class.name().to_string()),
                                            ));
                                        }
                                        Verdict::Error { message, proof, .. } => {
                                            m.push(("message", Json::Str(message.clone())));
                                            if let Some(p) = proof {
                                                m.push((
                                                    "proof",
                                                    Json::obj(vec![
                                                        (
                                                            "class",
                                                            Json::Str(p.sat_class.to_string()),
                                                        ),
                                                        (
                                                            "beta_clauses",
                                                            Json::Int(p.beta_clauses as i64),
                                                        ),
                                                        (
                                                            "core",
                                                            Json::Arr(
                                                                p.core_clauses
                                                                    .iter()
                                                                    .map(|&i| Json::Int(i as i64))
                                                                    .collect(),
                                                            ),
                                                        ),
                                                        (
                                                            "minimized_core",
                                                            Json::Arr(
                                                                p.minimized_core_clauses
                                                                    .iter()
                                                                    .map(|&i| Json::Int(i as i64))
                                                                    .collect(),
                                                            ),
                                                        ),
                                                        (
                                                            "derivation_steps",
                                                            Json::Int(p.derivation_steps as i64),
                                                        ),
                                                    ]),
                                                ));
                                            }
                                        }
                                        Verdict::Timeout { message } => {
                                            m.push(("message", Json::Str(message.clone())));
                                        }
                                        Verdict::Skipped { after } => {
                                            m.push(("after", Json::Str(after.clone())));
                                        }
                                    }
                                    Json::obj(m)
                                })
                                .collect(),
                        ),
                    )),
                }
                Json::obj(members)
            })
            .collect();
        let s = &self.stats;
        let mut members = vec![
            ("files", Json::Arr(files)),
            (
                "stats",
                Json::obj(vec![
                    ("files", Json::Int(s.files as i64)),
                    ("defs", Json::Int(s.defs as i64)),
                    ("ok", Json::Int(s.ok as i64)),
                    ("errors", Json::Int(s.errors as i64)),
                    ("timeouts", Json::Int(s.timeouts as i64)),
                    ("skipped", Json::Int(s.skipped as i64)),
                    ("parse_errors", Json::Int(s.parse_errors as i64)),
                    ("files_parsed", Json::Int(s.files_parsed as i64)),
                    ("cache_hits", Json::Int(s.cache_hits as i64)),
                    ("cache_misses", Json::Int(s.cache_misses as i64)),
                    ("steals", Json::Int(s.steals as i64)),
                    ("waves", Json::Int(s.waves as i64)),
                    ("workers", Json::Int(s.workers as i64)),
                    ("wall_ms", Json::Float(s.wall.as_secs_f64() * 1e3)),
                ]),
            ),
        ];
        if let Some(mem) = &self.mem {
            members.push(("mem", mem.clone()));
        }
        Json::obj(members)
    }
}

/// Live progress line for interactive runs: one `\r`-rewritten stderr
/// line tracking completed jobs against the total, plus cache hits.
/// Under ready-set dispatch waves are not the scheduling unit — a
/// worker may be three "waves" deep in one file while another file's
/// wave 0 is still queued — so the line counts *jobs*; the wave depth
/// survives only as a graph statistic ([`BatchStats::waves`]). Active
/// only when requested *and* stderr is a terminal, so piped output,
/// `--json` pipelines, and CI logs never see control characters.
///
/// Clearing the line is handled by `Drop`, so every exit path —
/// including early returns and panics unwinding out of the pool —
/// leaves stderr at column zero instead of a stale partial line.
struct Progress {
    total: usize,
    done: std::sync::atomic::AtomicUsize,
    /// Serializes writers; holds the length of the last printed line
    /// so `finish` can blank exactly what was written.
    line: Mutex<usize>,
    finished: std::sync::atomic::AtomicBool,
    active: bool,
}

impl Progress {
    fn new(requested: bool, total: usize) -> Progress {
        use std::io::IsTerminal;
        Progress {
            total,
            done: std::sync::atomic::AtomicUsize::new(0),
            line: Mutex::new(0),
            finished: std::sync::atomic::AtomicBool::new(false),
            active: requested && std::io::stderr().is_terminal(),
        }
    }

    /// Called by a worker after each job finishes. The completion
    /// counter here is the *only* source of the displayed job count —
    /// cache hits are reported alongside but never folded into it, so
    /// a warm run (every job answered from cache) still counts each
    /// job exactly once.
    fn tick(&self, cache: Option<&Sharded>) {
        use std::sync::atomic::Ordering;
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.active {
            return;
        }
        let hits = cache.map_or(0, Sharded::hits);
        let line = progress_line(done, self.total, hits);
        let mut last_len = self.line.lock().unwrap();
        // Pad with spaces when the new line is shorter (hit counts can
        // make earlier lines longer than later ones).
        let pad = last_len.saturating_sub(line.len());
        *last_len = line.len();
        eprint!("\r{line}{:pad$}", "");
    }

    /// Clears the line so whatever prints next starts at column zero.
    /// Idempotent; also invoked by `Drop` on early exits.
    fn finish(&self) {
        use std::sync::atomic::Ordering;
        if self.active && !self.finished.swap(true, Ordering::Relaxed) {
            let width = *self.line.lock().unwrap();
            eprint!("\r{:width$}\r", "");
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Renders the progress line. Pure so the shape is unit-testable; the
/// displayed count is clamped to the total, so even a miscounted tick
/// (a completion recorded outside the dispatch loop) can never show
/// `k/N` with `k > N`.
fn progress_line(done: usize, total: usize, hits: u64) -> String {
    format!(
        "checking: {}/{total} jobs | {hits} cache hits",
        done.min(total)
    )
}

/// A parsed file awaiting scheduling.
struct ParsedFile {
    path: String,
    source: String,
    /// The key of the file's cache record ([`cache::Cache::file_key`]),
    /// when a cache is in use.
    record_key: Option<u64>,
    program: Arc<Program>,
    graph: ProgramGraph,
    /// Index of this file's first job in the global job list.
    job_base: usize,
}

impl ParsedFile {
    /// The file's cache record, when every definition checked: each
    /// one's group key and member index, from the published results.
    fn record(&self, results: &[OnceLock<GroupResult>]) -> Option<cache::FileRecord> {
        let defs = (0..self.program.defs.len())
            .map(|i| {
                let result = results[self.job_base + self.graph.group_of[i]].get()?;
                let (_, k) = result.verdict(i).ok()?;
                Some((result.key?, k))
            })
            .collect::<Option<Vec<_>>>()?;
        (!defs.is_empty()).then_some(cache::FileRecord {
            defs,
            waves: self.graph.waves,
        })
    }
}

/// Checks a batch of in-memory sources. This is the whole engine; the
/// CLI's `check` command is a thin wrapper that reads files into
/// [`FileInput`]s and renders the result.
pub fn check_sources(mut inputs: Vec<FileInput>, options: &BatchOptions) -> BatchReport {
    let wall_start = Instant::now();
    let trace_path = obs::init_from_env();
    // The run (workers included) records into its own recorder, read
    // for the profile and memory sites, then folded into the caller's.
    let run = Recorder::child();
    let recording = run.enter();
    // The report's `mem` block is the allocator ledger's delta.
    let mem_baseline = obs::mem::tracking().then(obs::mem::snapshot);
    inputs.sort_by(|a, b| a.path.cmp(&b.path));
    inputs.dedup_by(|a, b| a.path == b.path);

    let threads = if options.jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        options.jobs
    };

    let cache = options.use_cache.then(|| Sharded::load(&options.cache_dir));
    let fingerprint = options.opts.fingerprint();

    // Serve each unchanged, fully-checked file from its record; parse
    // the others and lay their groups out in one global job list.
    let mut served: Vec<(String, cache::ServedFile)> = Vec::new();
    let mut parsed: Vec<Result<ParsedFile, (String, String)>> = Vec::new();
    let mut n_jobs = 0usize;
    for input in inputs {
        let record_key = cache
            .as_ref()
            .map(|_| cache::Cache::file_key(&fingerprint, &input.source));
        if let Some(file) = record_key.and_then(|k| cache.as_ref()?.serve_file(k)) {
            served.push((input.path, file));
            continue;
        }
        match parse_program(&input.source) {
            Err(diag) => {
                parsed.push(Err((input.path, diag.render(&input.source))));
            }
            Ok(program) => {
                let graph = ProgramGraph::build(&program);
                let job_base = n_jobs;
                n_jobs += graph.groups.len();
                parsed.push(Ok(ParsedFile {
                    path: input.path,
                    source: input.source,
                    record_key,
                    program: Arc::new(program),
                    graph,
                    job_base,
                }));
            }
        }
    }

    let jobs: Vec<(usize, usize)> = parsed
        .iter()
        .enumerate()
        .filter_map(|(f, p)| p.as_ref().ok().map(|pf| (f, pf)))
        .flat_map(|(f, pf)| (0..pf.graph.groups.len()).map(move |g| (f, g)))
        .collect();
    let deps: Vec<Vec<usize>> = jobs
        .iter()
        .map(|&(f, g)| {
            let pf = parsed[f].as_ref().expect("jobs index parsed files");
            pf.graph.groups[g]
                .dep_groups
                .iter()
                .map(|&d| pf.job_base + d)
                .collect()
        })
        .collect();

    let results: Vec<OnceLock<GroupResult>> = (0..n_jobs).map(|_| OnceLock::new()).collect();

    let progress = Progress::new(options.progress, n_jobs);
    let profiler = options.profile.then(Profiler::new);
    let (_, pool_stats) = pool::run_graph_with(
        n_jobs,
        &deps,
        threads,
        profiler.as_ref(),
        |_| EngineScratch::default(),
        |j, ws, tl| {
            let (f, g) = jobs[j];
            let pf = parsed[f].as_ref().expect("jobs index parsed files");
            let wave = pf.graph.groups[g].wave;
            if let Some(p) = &profiler {
                if p.first_of_wave(wave) {
                    tl.instant_with(|| format!("wave {wave}"));
                    if obs::mem::tracking() {
                        p.note_wave_mem(obs::WaveMem {
                            wave,
                            t_ns: tl.now_ns(),
                            live_bytes: obs::mem::live_bytes(),
                            peak_bytes: obs::mem::peak_bytes(),
                        });
                    }
                }
            }
            let result = run_group(
                pf,
                g,
                j,
                &results,
                cache.as_ref(),
                &fingerprint,
                options,
                ws,
                tl,
            );
            assert!(results[j].set(result).is_ok(), "job ran twice");
            progress.tick(cache.as_ref());
        },
    );
    progress.finish();
    let profile = profiler.map(|p| ProfileReport::build(p.finish(), &deps));

    if let Some(cache) = cache.as_ref() {
        for pf in parsed.iter().flatten() {
            if let Some((key, record)) = pf.record_key.zip(pf.record(&results)) {
                cache.insert_file(key, record);
            }
        }
        if let Err(e) = cache.save(&options.cache_dir) {
            eprintln!(
                "rowpoly: warning: could not save cache to {}: {e}",
                options.cache_dir.display()
            );
        }
    }

    let mut report = assemble(
        parsed,
        served,
        &results,
        cache.as_ref(),
        pool_stats,
        threads,
        wall_start,
        options.explain,
    );
    report.profile = profile;
    flush_batch_metrics(&report.stats);
    drop(recording);
    let recorded = run.take();
    if let Some(base_snap) = mem_baseline {
        let now = obs::mem::snapshot();
        let delta = now.delta_since(&base_snap);
        report.mem = Some(obs::mem::report_json(
            &delta,
            &base_snap,
            &now,
            &recorded.sites,
            report.stats.defs as u64,
        ));
    }
    Recorder::current().absorb(&run, recorded);
    if let Some(path) = trace_path {
        let snap = obs::snapshot();
        if let Err(e) = obs::chrome::write_chrome_trace(&snap, std::path::Path::new(path)) {
            eprintln!(
                "rowpoly: failed to write {TRACE}={path}: {e}",
                TRACE = obs::TRACE_ENV
            );
        }
    }
    report
}

/// Renders `file.rp:def+def` for a group — the label jobs carry in
/// profiles and traces.
fn group_label(pf: &ParsedFile, group: &Group) -> String {
    let names: Vec<String> = group
        .def_indices
        .iter()
        .map(|&i| pf.program.defs[i].name.to_string())
        .collect();
    format!("{}:{}", pf.path, names.join("+"))
}

/// Runs (or replays) one definition group through the shared
/// [`step`], counting cache hits and storing fresh all-ok entries.
/// `job` is the group's global scheduler id; `scratch` is the executing
/// worker's private scratch; `tl` is its timeline (inert unless
/// profiling).
#[allow(clippy::too_many_arguments)]
fn run_group(
    pf: &ParsedFile,
    g: usize,
    job: usize,
    results: &[OnceLock<GroupResult>],
    cache: Option<&Sharded>,
    fingerprint: &str,
    options: &BatchOptions,
    scratch: &mut EngineScratch,
    tl: &mut WorkerTimeline,
) -> GroupResult {
    let group = &pf.graph.groups[g];
    let start_ns = tl.now_ns();
    let digests: Vec<u64> = match cache {
        Some(_) => group
            .def_indices
            .iter()
            .map(|&i| cache::def_digest(&pf.program.defs[i]))
            .collect(),
        None => Vec::new(),
    };
    let step = GroupStep {
        program: &pf.program,
        graph: &pf.graph,
        group: g,
        opts: &options.opts,
        fingerprint,
        digests: &digests,
    };
    let mut lookup = |key, fits: &dyn Fn(&[DefReport]) -> bool| {
        cache?
            .lookup(key)
            .filter(|(_, checked)| fits(&checked.defs))
    };
    let out = step.run(
        |d| {
            results[pf.job_base + d]
                .get()
                .expect("dependency not finished")
        },
        cache.map(|_| &mut lookup as &mut Lookup),
        scratch,
    );
    match (out.result.answer, cache) {
        (answer, _) if answer.is_hit() => {
            obs::counter_add("batch.cache.hits", 1);
            tl.instant("cache-hit");
        }
        (Answer::Recomputed, Some(cache)) => {
            obs::counter_add("batch.cache.misses", 1);
            if let Some((key, defs)) = out.store {
                cache.insert(key, defs);
            }
        }
        _ => {}
    }
    let end_ns = tl.now_ns();
    if tl.enabled() {
        tl.push_job(JobRecord {
            job,
            label: group_label(pf, group),
            start_ns,
            end_ns,
            cached: out.result.answer.is_hit(),
            phases: out.phases,
        });
    }
    out.result
}

/// Sews the per-group results back into per-file, source-ordered
/// reports and tallies the statistics.
#[allow(clippy::too_many_arguments)]
fn assemble(
    parsed: Vec<Result<ParsedFile, (String, String)>>,
    served: Vec<(String, cache::ServedFile)>,
    results: &[OnceLock<GroupResult>],
    cache: Option<&Sharded>,
    pool_stats: pool::PoolStats,
    workers: usize,
    wall_start: Instant,
    explain: bool,
) -> BatchReport {
    let mut stats = BatchStats {
        files: parsed.len() + served.len(),
        files_parsed: parsed.len(),
        steals: pool_stats.steals,
        workers,
        ..BatchStats::default()
    };
    if let Some(cache) = cache {
        stats.cache_hits = cache.hits();
        stats.cache_misses = cache.misses();
    }

    let mut files = Vec::with_capacity(stats.files);
    for (path, file) in served {
        stats.waves = stats.waves.max(file.waves);
        obs::hist_record("batch.file.waves", file.waves as u64);
        let groups = file.defs.iter().filter(|&&(_, k)| k == 0).count();
        obs::counter_add("batch.cache.hits", groups as u64);
        obs::counter_add("batch.cache.file_hits", 1);
        stats.defs += file.defs.len();
        stats.ok += file.defs.len();
        let defs = file
            .defs
            .iter()
            .map(|(checked, k)| DefResult {
                name: checked.defs[*k].name.to_string(),
                verdict: Verdict::Ok {
                    scheme: checked.rendered(*k).to_string(),
                    sat_class: checked.defs[*k].sat_class,
                },
            })
            .collect();
        files.push(FileReport {
            path,
            defs: Ok(defs),
        });
    }
    for entry in parsed {
        match entry {
            Err((path, diag)) => {
                stats.parse_errors += 1;
                files.push(FileReport {
                    path,
                    defs: Err(diag),
                });
            }
            Ok(pf) => {
                stats.waves = stats.waves.max(pf.graph.waves);
                obs::hist_record("batch.file.waves", pf.graph.waves as u64);
                let mut defs = Vec::with_capacity(pf.program.defs.len());
                for (i, def) in pf.program.defs.iter().enumerate() {
                    let job = pf.job_base + pf.graph.group_of[i];
                    let verdict = results[job].get().expect("group never ran").verdict(i);
                    stats.defs += 1;
                    let rendered = match verdict {
                        Ok((checked, k)) => {
                            stats.ok += 1;
                            Verdict::Ok {
                                scheme: checked.rendered(k).to_string(),
                                sat_class: checked.defs[k].sat_class,
                            }
                        }
                        Err(DefVerdict::Ok(_)) => unreachable!("checked members lead their group"),
                        Err(DefVerdict::Error(e)) => {
                            stats.errors += 1;
                            let diag = if explain {
                                e.to_diag_explained()
                            } else {
                                e.to_diag()
                            };
                            Verdict::Error {
                                message: e.message(),
                                diagnostic: diag.render(&pf.source),
                                proof: e.proof.clone(),
                            }
                        }
                        Err(DefVerdict::Timeout(e)) => {
                            stats.timeouts += 1;
                            obs::counter_add("batch.timeouts", 1);
                            Verdict::Timeout {
                                message: e.message(),
                            }
                        }
                        Err(DefVerdict::Skipped { after }) => {
                            stats.skipped += 1;
                            Verdict::Skipped {
                                after: after.to_string(),
                            }
                        }
                    };
                    defs.push(DefResult {
                        name: def.name.to_string(),
                        verdict: rendered,
                    });
                }
                files.push(FileReport {
                    path: pf.path,
                    defs: Ok(defs),
                });
            }
        }
    }
    // Both lists came in path order; the report interleaves them.
    files.sort_by(|a, b| a.path.cmp(&b.path));
    stats.wall = wall_start.elapsed();
    BatchReport {
        files,
        stats,
        profile: None,
        mem: None,
    }
}

fn flush_batch_metrics(stats: &BatchStats) {
    if !obs::enabled() {
        return;
    }
    obs::counter_add("batch.files", stats.files as u64);
    obs::counter_add("batch.defs", stats.defs as u64);
    obs::counter_add("batch.steals", stats.steals);
    obs::counter_max("batch.waves.max", stats.waves as u64);
    obs::counter_max("batch.workers", stats.workers as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, source: &str) -> FileInput {
        FileInput {
            path: path.to_string(),
            source: source.to_string(),
        }
    }

    #[test]
    fn matches_serial_session_on_a_simple_program() {
        let src = "def inc x = x + 1\ndef use = inc 41\ndef mk r = @{foo = 1} r";
        let report = check_sources(vec![file("a.rp", src)], &BatchOptions::in_memory(2));
        assert!(report.ok());
        let serial = rowpoly_core::Session::default()
            .infer_source(src)
            .expect("serial checks");
        let Ok(defs) = &report.files[0].defs else {
            panic!("parse failed")
        };
        for (batch, serial) in defs.iter().zip(&serial.defs) {
            let Verdict::Ok { scheme, .. } = &batch.verdict else {
                panic!("{} failed in batch", batch.name)
            };
            assert_eq!(scheme, &serial.render(false), "scheme of {}", batch.name);
        }
    }

    #[test]
    fn identical_definitions_in_two_files_share_an_entry() {
        let dir = std::env::temp_dir().join(format!("rowpoly-batch-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = BatchOptions {
            jobs: 1,
            cache_dir: dir.clone(),
            ..BatchOptions::default()
        };
        // The multi-field update desugars with a binder numbered within
        // its definition, so both copies print, and key, alike.
        let src = "def f r = @{a = 1, b = 2} r";
        let report = check_sources(vec![file("a.rp", src), file("b.rp", src)], &options);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.ok());
        assert_eq!(
            (report.stats.cache_misses, report.stats.cache_hits),
            (1, 1),
            "the second file's copy replays the first's entry"
        );
    }

    #[test]
    fn errors_are_reported_and_independent_defs_still_check() {
        let src = "def bad = #foo {}\ndef fine = 1";
        let report = check_sources(vec![file("a.rp", src)], &BatchOptions::in_memory(2));
        assert!(!report.ok());
        let Ok(defs) = &report.files[0].defs else {
            panic!("parse failed")
        };
        assert!(matches!(defs[0].verdict, Verdict::Error { .. }));
        assert!(
            matches!(defs[1].verdict, Verdict::Ok { .. }),
            "independent definition should still check"
        );
        assert_eq!(report.stats.errors, 1);
        assert_eq!(report.stats.ok, 1);
    }

    #[test]
    fn failed_dependency_skips_dependents() {
        let src = "def bad = #foo {}\ndef use = bad";
        let report = check_sources(vec![file("a.rp", src)], &BatchOptions::in_memory(2));
        let Ok(defs) = &report.files[0].defs else {
            panic!("parse failed")
        };
        assert!(matches!(defs[0].verdict, Verdict::Error { .. }));
        assert!(matches!(&defs[1].verdict, Verdict::Skipped { after } if after == "bad"));
    }

    #[test]
    fn parse_errors_do_not_stop_other_files() {
        let report = check_sources(
            vec![file("b.rp", "def broken = ("), file("a.rp", "def x = 1")],
            &BatchOptions::in_memory(2),
        );
        assert!(!report.ok());
        assert_eq!(report.stats.parse_errors, 1);
        // Files come back sorted by path.
        assert_eq!(report.files[0].path, "a.rp");
        assert!(report.files[0].ok());
        assert!(report.files[1].defs.is_err());
    }

    #[test]
    fn profiled_run_reports_utilization_and_critical_path() {
        let src = "def a = 1\ndef b = a + 1\ndef c = b + 1\ndef d = {x = 1}\ndef e = #x d";
        let mut options = BatchOptions::in_memory(2);
        options.profile = true;
        let report = check_sources(vec![file("a.rp", src)], &options);
        assert!(report.ok());
        let profile = report.profile.as_ref().expect("profile requested");
        assert!(!profile.workers.is_empty(), "at least one worker timeline");
        for u in &profile.workers {
            let sum = u.busy_pct() + u.idle_pct() + u.search_pct() + u.lock_wait_pct();
            assert!(
                sum <= 100.5,
                "worker {} buckets exceed wall: {sum}",
                u.worker
            );
        }
        let c = &profile.critical;
        assert!(c.path_ns > 0, "critical path measured");
        assert!(c.path_ns <= c.wall_ns, "chain cannot exceed wall");
        assert!(c.serial_ns >= c.path_ns, "serial work includes the chain");
        assert!(!c.chain.is_empty() && c.chain[0].starts_with("a.rp:"));
        assert_eq!(
            profile.jobs.len(),
            5,
            "every definition group left a job record"
        );
        assert!(profile.jobs.iter().any(|j| !j.phases.is_empty()));

        // Profiling never perturbs the deterministic report.
        let plain = check_sources(vec![file("a.rp", src)], &BatchOptions::in_memory(2));
        assert!(plain.profile.is_none());
        assert_eq!(report.render(), plain.render());
    }

    #[test]
    fn tiny_sat_budget_times_out_only_the_pathological_def() {
        // Symmetric concatenation generates general CNF — the only
        // class that reaches CDCL, where the budget applies. Aggressive
        // compaction would project the general structure away before
        // the check, so the pathological case needs the per-definition
        // compaction ablation (where β genuinely blows up).
        let src = "def hard = {a = 1} @@ {b = 2}\ndef easy = 1";
        let mut options = BatchOptions::in_memory(2);
        options.opts.compaction = rowpoly_core::Compaction::PerDef;
        options.opts.sat_budget = Some(0);
        let report = check_sources(vec![file("a.rp", src)], &options);
        let Ok(defs) = &report.files[0].defs else {
            panic!("parse failed")
        };
        assert!(
            matches!(defs[0].verdict, Verdict::Timeout { .. }),
            "expected timeout, got {:?}",
            defs[0].verdict
        );
        assert!(matches!(defs[1].verdict, Verdict::Ok { .. }));
        assert_eq!(report.stats.timeouts, 1);
        assert!(report.render().contains("timeout"));
    }

    #[test]
    fn progress_line_clamps_to_total() {
        assert_eq!(
            progress_line(3, 10, 0),
            "checking: 3/10 jobs | 0 cache hits"
        );
        assert_eq!(
            progress_line(10, 10, 10),
            "checking: 10/10 jobs | 10 cache hits"
        );
        // A completion recorded outside the dispatch loop (the warm-run
        // double-count) must not push the display past the total.
        assert_eq!(
            progress_line(12, 10, 10),
            "checking: 10/10 jobs | 10 cache hits"
        );
        assert_eq!(progress_line(0, 0, 0), "checking: 0/0 jobs | 0 cache hits");
    }
}
