//! The demand-driven incremental query engine.
//!
//! One [`ServeEngine`] owns the daemon's entire state: the open
//! documents, each with its live parsed program, and one bounded
//! verdict store — the batch checker's content-addressed [`Cache`],
//! loaded from the cache directory when one is configured. Each
//! document revision flows through four queries:
//!
//! 1. **parse** — a splice ([`crate::live`]): the definitions the
//!    changed byte range touches are reparsed, the rest are carried
//!    over with their content digests, and the dependency graph is kept
//!    unless the edit changed a name or a free variable. There is no
//!    memo of texts: an open parses in full, an edit costs its region;
//! 2. **slice** — for each definition group, the inputs that determine
//!    its outcome: its members' digests and the *closed schemes* of
//!    the definitions it references;
//! 3. **verdict** — the per-definition outcomes of a group, keyed by
//!    the slice fingerprint ([`Cache::key`]: options fingerprint +
//!    member digests + dependency scheme digests); a hit shares the
//!    store's entry, with its schemes' digests and renderings made once;
//! 4. **scheme** — the closed schemes a verdict publishes, which feed
//!    the slices of dependent groups.
//!
//! Early cutoff falls out of the keying, with no dirty bits anywhere:
//! an edit that does not change a definition's AST (spans aside)
//! leaves its verdict key unchanged (whitespace and comments are
//! free); an edit that changes the body but not the *closed scheme*
//! re-keys only that one group, because its dependents key on the
//! scheme, not the text. The serve counters make this observable —
//! after a one-definition edit, `verdict.recomputed` is exactly the
//! number of definitions whose meaning-relevant inputs changed.
//!
//! A revision takes the groups one topological wave at a time (no group
//! of a wave depends on another). First, on the calling thread and in
//! group order, every group of the wave is sliced, keyed and looked up,
//! so the store's stamps, LRU order and counters are a serial loop's.
//! Then the misses re-infer: a lone miss inline, two or more on
//! [`rowpoly_batch::pool`], each worker with its own scratch. Last, the
//! results are counted, stored and published in group order. Inference
//! reads nothing but the group's slice, so the worker count changes the
//! wall time and nothing else.
//!
//! Failures (type errors, timeouts) are recomputed every revision
//! rather than memoized: inference stops at the first failure, so they
//! are cheap, and their diagnostics carry byte spans that the next
//! keystroke would invalidate.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rowpoly_batch::cache::Cache;
use rowpoly_batch::pool;
use rowpoly_batch::step::{Answer, GroupResult, GroupStep, Slice, StepOutcome};
use rowpoly_boolfun::SatClass;
use rowpoly_core::{DefReport, DefVerdict, EngineScratch, Options};
use rowpoly_lang::{LineMap, Span};
use rowpoly_obs as obs;
use rowpoly_obs::json::Json;
use rowpoly_obs::metrics::Histogram;

use crate::live::LiveProgram;

/// Configuration of a serve session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Inference options (the same surface `rowpoly check` exposes;
    /// part of every query key, so switching options never replays
    /// stale results).
    pub opts: Options,
    /// Cache directory the store is loaded from and saved to; `None`
    /// keeps the store in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Byte bound over the store's deterministic entry-size estimates
    /// (the entry cap is [`rowpoly_batch::cache::BOUNDED_CAP`]).
    /// Reported, with the live estimate, in the `counters` reply so
    /// clients can assert the store stays bounded.
    pub memo_max_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            opts: Options::default(),
            cache_dir: None,
            memo_max_bytes: 64 << 20,
        }
    }
}

/// What happened to the queries of one document revision.
#[derive(Clone, Copy, Debug, Default)]
pub struct RevisionStats {
    /// The new text equals the old: every query reused.
    pub unchanged: bool,
    /// Definitions carried over from the previous revision's program
    /// without reparsing.
    pub parse_hits: u64,
    /// Definitions parsed anew: those the edit touched, or every
    /// definition on an open or when the splice fell back to a full
    /// parse (none when the text does not parse).
    pub parse_misses: u64,
    /// Dependency-slice queries evaluated (one per definition group).
    pub slices: u64,
    /// Verdict queries answered by an entry this process already used
    /// or inserted.
    pub verdict_hits: u64,
    /// Verdict queries answered by an entry loaded from the cache
    /// directory and not used before.
    pub verdict_disk_hits: u64,
    /// Verdict queries that ran inference.
    pub verdict_recomputed: u64,
    /// Dependency schemes served from memoized verdicts.
    pub scheme_hits: u64,
    /// Definitions inside recomputed groups.
    pub defs_recomputed: u64,
    /// Wall time of the revision.
    pub wall_ns: u64,
    /// Allocator delta over the revision, of the calling thread and of
    /// every worker that re-inferred groups for it (all zeros unless
    /// memory accounting is on).
    pub mem: rowpoly_obs::MemDelta,
    /// The store's size estimate after the revision (see
    /// [`Cache::live_bytes`]).
    pub memo_live_bytes: u64,
}

impl RevisionStats {
    fn fold_into(&self, t: &mut Totals) {
        t.parse_hits += self.parse_hits;
        t.parse_misses += self.parse_misses;
        t.slices += self.slices;
        t.verdict_hits += self.verdict_hits;
        t.verdict_disk_hits += self.verdict_disk_hits;
        t.verdict_recomputed += self.verdict_recomputed;
        t.scheme_hits += self.scheme_hits;
        t.defs_recomputed += self.defs_recomputed;
    }

    /// The machine-readable form embedded in protocol responses.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("unchanged", Json::Bool(self.unchanged)),
            ("parse_hits", Json::Int(self.parse_hits as i64)),
            ("parse_misses", Json::Int(self.parse_misses as i64)),
            ("slices", Json::Int(self.slices as i64)),
            ("verdict_hits", Json::Int(self.verdict_hits as i64)),
            (
                "verdict_disk_hits",
                Json::Int(self.verdict_disk_hits as i64),
            ),
            (
                "verdict_recomputed",
                Json::Int(self.verdict_recomputed as i64),
            ),
            ("scheme_hits", Json::Int(self.scheme_hits as i64)),
            ("defs_recomputed", Json::Int(self.defs_recomputed as i64)),
            ("wall_ns", Json::Int(self.wall_ns as i64)),
            ("mem", self.mem.to_json()),
            ("memo_live_bytes", Json::Int(self.memo_live_bytes as i64)),
        ])
    }
}

/// Lifetime totals across every revision (the `counters` query).
#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    parse_hits: u64,
    parse_misses: u64,
    slices: u64,
    verdict_hits: u64,
    verdict_disk_hits: u64,
    verdict_recomputed: u64,
    scheme_hits: u64,
    defs_recomputed: u64,
    edits: u64,
    opens: u64,
}

/// The verdict of one definition, rendered for protocol consumers.
#[derive(Clone, Debug)]
pub enum DefStatus {
    /// Checked; carries the rendered closed scheme and its SAT class.
    Ok {
        /// Rendered scheme (no flags).
        scheme: String,
        /// SAT class of the closed flow.
        sat_class: SatClass,
    },
    /// Rejected; `rendered` is the span-anchored explained diagnostic
    /// (identical to one-shot `rowpoly check --explain` output).
    Error {
        /// One-line message.
        message: String,
        /// Full explained diagnostic rendered against the source.
        rendered: String,
        /// Primary error span.
        span: Span,
    },
    /// A budgeted SAT check gave up.
    Timeout {
        /// One-line message.
        message: String,
        /// Span of the definition.
        span: Span,
    },
    /// Shadowed by an earlier failure in its group or dependencies.
    Skipped {
        /// The definition whose failure shadowed this one.
        after: String,
    },
}

impl DefStatus {
    /// The status word used across reports (`ok`/`error`/…), matching
    /// the batch checker's vocabulary.
    pub fn word(&self) -> &'static str {
        match self {
            DefStatus::Ok { .. } => "ok",
            DefStatus::Error { .. } => "error",
            DefStatus::Timeout { .. } => "timeout",
            DefStatus::Skipped { .. } => "skipped",
        }
    }
}

/// One definition's state in the current revision of a document.
#[derive(Clone, Debug)]
pub struct DefState {
    /// Definition name.
    pub name: String,
    /// Span of the whole definition (hover anchor).
    pub span: Span,
    /// Current verdict.
    pub status: DefStatus,
}

/// Analysis of one document revision.
#[derive(Debug)]
pub enum Analysis {
    /// The file does not parse.
    ParseError {
        /// Diagnostic message.
        message: String,
        /// Full rendered diagnostic.
        rendered: String,
        /// Error location.
        span: Span,
    },
    /// The file parses; per-definition verdicts in source order.
    Checked {
        /// Per-definition states.
        defs: Vec<DefState>,
    },
}

/// An open document.
#[derive(Debug)]
pub struct Document {
    /// Current text.
    pub source: String,
    /// Client-supplied version (monotone per LSP).
    pub version: i64,
    /// Line index of `source`.
    pub line_map: LineMap,
    /// Current analysis.
    pub analysis: Analysis,
    /// The parsed program of `source`, spliced by the next edit; `None`
    /// while the text does not parse.
    live: Option<LiveProgram>,
}

/// A hover answer: the definition under the cursor.
#[derive(Clone, Debug)]
pub struct HoverInfo {
    /// Definition name.
    pub name: String,
    /// Rendered closed scheme, when the definition checks.
    pub scheme: Option<String>,
    /// SAT class name, when the definition checks.
    pub sat_class: Option<&'static str>,
    /// Status word (`ok`/`error`/`timeout`/`skipped`).
    pub status: &'static str,
    /// Span of the definition (the hover highlight range).
    pub span: Span,
}

/// One incremental text edit, LSP-style: 0-based line/character range
/// replaced by `text`.
#[derive(Clone, Debug)]
pub struct RangeEdit {
    /// 0-based start line.
    pub start_line: usize,
    /// 0-based start character (byte column).
    pub start_character: usize,
    /// 0-based end line (exclusive position).
    pub end_line: usize,
    /// 0-based end character.
    pub end_character: usize,
    /// Replacement text.
    pub text: String,
}

/// The result of revising one document.
#[derive(Clone, Debug)]
pub struct FileUpdate {
    /// Document path (or URI) as the client supplied it.
    pub path: String,
    /// Document version after the update.
    pub version: i64,
    /// Whether every definition checks.
    pub ok: bool,
    /// Query accounting for this revision.
    pub stats: RevisionStats,
}

/// The daemon's state: open documents plus the verdict store.
pub struct ServeEngine {
    opts: Options,
    fingerprint: String,
    files: BTreeMap<String, Document>,
    /// The verdict store, stamped with revisions.
    store: Cache,
    cache_dir: Option<PathBuf>,
    revision: u64,
    totals: Totals,
    /// Per-edit wall-time distribution (microseconds, log₂ buckets).
    edit_us: Histogram,
    /// Most threads that re-infer one wave's misses.
    workers: usize,
    /// Recycled inference allocations, one per worker that has run;
    /// the first is the calling thread's.
    scratches: Vec<EngineScratch>,
}

impl ServeEngine {
    /// Starts an engine, loading the store from the cache directory
    /// when one is configured.
    pub fn new(config: ServeConfig) -> ServeEngine {
        let mut store = Cache::bounded(config.memo_max_bytes);
        if let Some(dir) = &config.cache_dir {
            store.load(dir);
        }
        ServeEngine {
            fingerprint: config.opts.fingerprint(),
            opts: config.opts,
            files: BTreeMap::new(),
            store,
            cache_dir: config.cache_dir,
            revision: 0,
            totals: Totals::default(),
            edit_us: Histogram::default(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            scratches: vec![EngineScratch::default()],
        }
    }

    /// Sets the most threads that re-infer one wave's misses (at least
    /// one; [`ServeEngine::new`] takes the host's available
    /// parallelism). Verdicts, the store and every counter are the same
    /// for any count.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Opens (or re-opens) a document and computes its analysis.
    pub fn open(&mut self, path: &str, text: String, version: i64) -> FileUpdate {
        self.totals.opens += 1;
        self.revise(path, text, version, false)
    }

    /// Replaces a document's entire text.
    pub fn change_full(
        &mut self,
        path: &str,
        text: String,
        version: i64,
    ) -> Result<FileUpdate, String> {
        if !self.files.contains_key(path) {
            return Err(format!("document not open: {path}"));
        }
        Ok(self.revise(path, text, version, true))
    }

    /// Applies LSP-style incremental edits in order (each edit
    /// addresses the document state left by the previous one).
    pub fn change_ranges(
        &mut self,
        path: &str,
        edits: &[RangeEdit],
        version: i64,
    ) -> Result<FileUpdate, String> {
        let Some(doc) = self.files.get(path) else {
            return Err(format!("document not open: {path}"));
        };
        let mut text = doc.source.clone();
        for edit in edits {
            let lm = LineMap::new(&text);
            let start = lm.offset_of(edit.start_line + 1, edit.start_character + 1, text.len());
            let end = lm.offset_of(edit.end_line + 1, edit.end_character + 1, text.len());
            if start > end {
                return Err(format!(
                    "invalid edit range: start {}:{} after end {}:{}",
                    edit.start_line, edit.start_character, edit.end_line, edit.end_character
                ));
            }
            for (line, character, at) in [
                (edit.start_line, edit.start_character, start),
                (edit.end_line, edit.end_character, end),
            ] {
                if !text.is_char_boundary(at as usize) {
                    return Err(format!(
                        "invalid edit range: {line}:{character} falls inside a character"
                    ));
                }
            }
            text.replace_range(start as usize..end as usize, &edit.text);
        }
        Ok(self.revise(path, text, version, true))
    }

    /// Closes a document, dropping its state (memoized queries stay
    /// warm for a re-open). Returns whether it was open.
    pub fn close(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// The open document at `path`.
    pub fn document(&self, path: &str) -> Option<&Document> {
        self.files.get(path)
    }

    /// Paths of every open document.
    pub fn open_paths(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// The definition covering the 0-based `(line, character)`
    /// position, with its scheme and SAT class.
    pub fn hover(&self, path: &str, line: usize, character: usize) -> Option<HoverInfo> {
        let doc = self.files.get(path)?;
        let Analysis::Checked { defs } = &doc.analysis else {
            return None;
        };
        let offset = doc
            .line_map
            .offset_of(line + 1, character + 1, doc.source.len());
        let def = defs
            .iter()
            .find(|d| d.span.start <= offset && offset < d.span.end.max(d.span.start + 1))?;
        let (scheme, sat_class) = match &def.status {
            DefStatus::Ok { scheme, sat_class } => (Some(scheme.clone()), Some(sat_class.name())),
            _ => (None, None),
        };
        Some(HoverInfo {
            name: def.name.clone(),
            scheme,
            sat_class,
            status: def.status.word(),
            span: def.span,
        })
    }

    /// Saves the store to the cache directory (no-op without one).
    /// Called on `didSave` and at shutdown.
    pub fn persist(&mut self) -> Result<(), String> {
        let Some(dir) = &self.cache_dir else {
            return Ok(());
        };
        self.store
            .save(dir)
            .map_err(|e| format!("cannot save cache to {}: {e}", dir.display()))
    }

    /// Lifetime counters: query hits/misses per kind, store occupancy,
    /// and the per-edit latency distribution (p50/p90/p99).
    pub fn counters(&self) -> Json {
        let t = &self.totals;
        let pct = |p: f64| Json::Int(self.edit_us.percentile(p).unwrap_or(0) as i64);
        Json::obj(vec![
            ("revision", Json::Int(self.revision as i64)),
            ("open_files", Json::Int(self.files.len() as i64)),
            (
                "queries",
                Json::obj(vec![
                    (
                        "parse",
                        Json::obj(vec![
                            ("hits", Json::Int(t.parse_hits as i64)),
                            ("misses", Json::Int(t.parse_misses as i64)),
                        ]),
                    ),
                    (
                        "slice",
                        Json::obj(vec![("evaluated", Json::Int(t.slices as i64))]),
                    ),
                    (
                        "verdict",
                        Json::obj(vec![
                            ("hits", Json::Int(t.verdict_hits as i64)),
                            ("disk_hits", Json::Int(t.verdict_disk_hits as i64)),
                            ("recomputed", Json::Int(t.verdict_recomputed as i64)),
                        ]),
                    ),
                    (
                        "scheme",
                        Json::obj(vec![("hits", Json::Int(t.scheme_hits as i64))]),
                    ),
                ]),
            ),
            (
                "memo",
                Json::obj(vec![
                    ("entries", Json::Int(self.store.len() as i64)),
                    ("hits", Json::Int(self.store.hits as i64)),
                    ("misses", Json::Int(self.store.misses as i64)),
                    ("evicted", Json::Int(self.store.evicted as i64)),
                    ("live_bytes", Json::Int(self.store.live_bytes() as i64)),
                    (
                        "max_bytes",
                        self.store
                            .max_bytes()
                            .map_or(Json::Null, |v| Json::Int(v as i64)),
                    ),
                ]),
            ),
            (
                "mem",
                Json::obj(vec![
                    (
                        "enabled",
                        Json::Bool(obs::mem::tracking() && obs::mem::installed()),
                    ),
                    ("live_bytes", Json::Int(obs::mem::live_bytes())),
                    ("peak_bytes", Json::Int(obs::mem::peak_bytes())),
                    (
                        "peak_rss_bytes",
                        obs::mem::peak_rss_bytes().map_or(Json::Null, |v| Json::Int(v as i64)),
                    ),
                ]),
            ),
            (
                "disk",
                Json::obj(vec![("enabled", Json::Bool(self.cache_dir.is_some()))]),
            ),
            (
                "edits",
                Json::obj(vec![
                    ("count", Json::Int(t.edits as i64)),
                    ("opens", Json::Int(t.opens as i64)),
                    ("p50_us", pct(50.0)),
                    ("p90_us", pct(90.0)),
                    ("p99_us", pct(99.0)),
                    ("max_us", Json::Int(self.edit_us.max().unwrap_or(0) as i64)),
                ]),
            ),
            ("defs_recomputed", Json::Int(t.defs_recomputed as i64)),
        ])
    }

    /// Revises a document: parse → slice → verdict for every group,
    /// reusing memoized answers wherever the keys still match.
    fn revise(&mut self, path: &str, text: String, version: i64, is_edit: bool) -> FileUpdate {
        let start = Instant::now();
        let mem_mark = obs::mem::thread_mark();
        self.revision += 1;
        let mut stats = RevisionStats::default();

        if let Some(doc) = self.files.get_mut(path).filter(|doc| doc.source == text) {
            // Identical content: every query reuses by construction.
            stats.unchanged = true;
            stats.parse_hits = doc.live.as_ref().map_or(0, |l| l.program.defs.len() as u64);
            doc.version = version;
            let ok = analysis_ok(&doc.analysis);
            stats.wall_ns = start.elapsed().as_nanos() as u64;
            stats.mem = obs::mem::thread_delta_since(&mem_mark);
            stats.memo_live_bytes = self.store.live_bytes();
            self.note_revision(&stats, is_edit);
            return FileUpdate {
                path: path.to_string(),
                version,
                ok,
                stats,
            };
        }

        // Query 1: an edit splices the document's live program; an open
        // (or an edit after a parse error) parses the whole text.
        let previous = self.files.remove(path).filter(|_| is_edit);
        let parsed = match previous {
            Some(Document {
                source,
                live: Some(mut live),
                ..
            }) => live.revise(&source, &text).map(|splice| {
                stats.parse_hits = splice.carried as u64;
                stats.parse_misses = splice.reparsed as u64;
                live
            }),
            _ => LiveProgram::parse(&text).inspect(|live| {
                stats.parse_misses = live.program.defs.len() as u64;
            }),
        };
        let (analysis, live) = match parsed {
            Err(diag) => {
                let analysis = Analysis::ParseError {
                    message: diag.message.clone(),
                    rendered: diag.render(&text),
                    span: diag.span,
                };
                (analysis, None)
            }
            Ok(live) => {
                let analysis = self.analyze(&live, &text, &mut stats);
                (analysis, Some(live))
            }
        };
        let line_map = LineMap::new(&text);
        let ok = analysis_ok(&analysis);
        self.files.insert(
            path.to_string(),
            Document {
                source: text,
                version,
                line_map,
                analysis,
                live,
            },
        );
        stats.wall_ns = start.elapsed().as_nanos() as u64;
        stats.mem.merge(&obs::mem::thread_delta_since(&mem_mark));
        stats.memo_live_bytes = self.store.live_bytes();
        self.note_revision(&stats, is_edit);
        FileUpdate {
            path: path.to_string(),
            version,
            ok,
            stats,
        }
    }

    /// Runs queries 2–4 over a parsed document text, one topological
    /// wave of groups at a time (see the module docs).
    fn analyze(&mut self, live: &LiveProgram, text: &str, stats: &mut RevisionStats) -> Analysis {
        let (program, graph) = (&live.program, &live.graph);
        let revision = self.revision;
        let steps: Vec<GroupStep> = graph
            .groups
            .iter()
            .enumerate()
            .map(|(g, group)| {
                let members = group.def_indices[0]..=group.def_indices[group.def_indices.len() - 1];
                GroupStep {
                    program,
                    graph,
                    group: g,
                    opts: &self.opts,
                    fingerprint: &self.fingerprint,
                    digests: &live.digests[members],
                }
            })
            .collect();
        let results: Vec<OnceLock<GroupResult>> = steps.iter().map(|_| OnceLock::new()).collect();
        let published = |d: usize| {
            results[d]
                .get()
                .expect("dependencies publish in earlier waves")
        };
        let mut waves: Vec<Vec<usize>> = vec![Vec::new(); graph.waves];
        for (g, group) in graph.groups.iter().enumerate() {
            waves[group.wave].push(g);
        }
        for wave in &waves {
            // Slice and look up every group, in group order, on this
            // thread. A key an earlier group of the wave missed on waits
            // for the publish pass, where that group's entry answers it.
            let mut missed = BTreeSet::new();
            let mut todo: Vec<Todo> = Vec::with_capacity(wave.len());
            for &g in wave {
                todo.push(match steps[g].slice(published, true) {
                    Err(skipped) => Todo::Done(skipped),
                    Ok(slice) if slice.key.is_some_and(|k| missed.contains(&k)) => {
                        Todo::Repeat(slice)
                    }
                    Ok(slice) => match replay(&steps[g], &slice, &mut self.store, revision) {
                        Some(out) => Todo::Done(out),
                        None => {
                            missed.extend(slice.key);
                            Todo::Miss(slice)
                        }
                    },
                });
            }

            // Re-infer the misses: one inline, more on the pool.
            let misses: Vec<(usize, &Slice)> = wave
                .iter()
                .zip(&todo)
                .filter_map(|(&g, t)| match t {
                    Todo::Miss(slice) => Some((g, slice)),
                    _ => None,
                })
                .collect();
            let inferred = match misses[..] {
                [] => Vec::new(),
                [(g, slice)] => vec![steps[g].infer(slice, &mut self.scratches[0])],
                _ => {
                    let workers = self.workers.min(misses.len());
                    if self.scratches.len() < workers {
                        self.scratches.resize_with(workers, EngineScratch::default);
                    }
                    let scratches: Vec<Mutex<Option<&mut EngineScratch>>> = self.scratches
                        [..workers]
                        .iter_mut()
                        .map(|s| Mutex::new(Some(s)))
                        .collect();
                    let (inferred, pool) = pool::run_graph_with(
                        misses.len(),
                        &vec![Vec::new(); misses.len()],
                        workers,
                        None,
                        |w| {
                            scratches[w]
                                .lock()
                                .expect("no worker panics holding a scratch slot")
                                .take()
                                .expect("one scratch per worker")
                        },
                        |i, scratch, _| {
                            let (g, slice) = misses[i];
                            steps[g].infer(slice, scratch)
                        },
                    );
                    stats.mem.merge(&pool.spawned_mem);
                    inferred
                }
            };

            // Publish in group order: count, store, and hand each result
            // to the next waves.
            let mut inferred = inferred.into_iter();
            for (&g, item) in wave.iter().zip(todo) {
                let out = match item {
                    Todo::Done(out) => out,
                    Todo::Miss(_) => inferred.next().expect("one outcome per miss"),
                    Todo::Repeat(slice) => replay(&steps[g], &slice, &mut self.store, revision)
                        .unwrap_or_else(|| steps[g].infer(&slice, &mut self.scratches[0])),
                };
                stats.slices += 1;
                stats.scheme_hits += out.dep_hits;
                match out.result.answer {
                    Answer::Memo => stats.verdict_hits += 1,
                    Answer::Disk => stats.verdict_disk_hits += 1,
                    Answer::Recomputed => {
                        stats.verdict_recomputed += 1;
                        stats.defs_recomputed += graph.groups[g].def_indices.len() as u64;
                    }
                    Answer::Skipped => {}
                }
                if let Some((key, checked)) = out.store {
                    self.store.insert(key, checked, revision);
                }
                assert!(results[g].set(out.result).is_ok(), "group published twice");
            }
        }

        // Render per-definition states against the current text.
        let defs = program
            .defs
            .iter()
            .enumerate()
            .map(|(i, def)| {
                let status = match published(graph.group_of[i]).verdict(i) {
                    Ok((checked, k)) => DefStatus::Ok {
                        scheme: checked.rendered(k).to_string(),
                        sat_class: checked.defs[k].sat_class,
                    },
                    Err(DefVerdict::Ok(_)) => unreachable!("checked members lead their group"),
                    Err(DefVerdict::Error(e)) => DefStatus::Error {
                        message: e.message(),
                        rendered: e.to_diag_explained().render(text),
                        span: e.span,
                    },
                    Err(DefVerdict::Timeout(e)) => DefStatus::Timeout {
                        message: e.message(),
                        span: def.span,
                    },
                    Err(DefVerdict::Skipped { after }) => DefStatus::Skipped {
                        after: after.to_string(),
                    },
                };
                DefState {
                    name: def.name.to_string(),
                    span: def.span,
                    status,
                }
            })
            .collect();
        Analysis::Checked { defs }
    }

    /// Folds a revision into the lifetime totals and mirrors the
    /// serve.* metrics into the global observability registry.
    fn note_revision(&mut self, stats: &RevisionStats, is_edit: bool) {
        stats.fold_into(&mut self.totals);
        let us = stats.wall_ns / 1_000;
        if is_edit {
            self.totals.edits += 1;
            self.edit_us.record(us);
        }
        if obs::enabled() {
            obs::counter_add("serve.parse.hits", stats.parse_hits);
            obs::counter_add("serve.parse.misses", stats.parse_misses);
            obs::counter_add("serve.slice.evaluated", stats.slices);
            obs::counter_add("serve.verdict.hits", stats.verdict_hits);
            obs::counter_add("serve.verdict.disk_hits", stats.verdict_disk_hits);
            obs::counter_add("serve.verdict.recomputed", stats.verdict_recomputed);
            obs::counter_add("serve.scheme.hits", stats.scheme_hits);
            if is_edit {
                obs::hist_record("serve.edit.us", us);
            } else {
                obs::hist_record("serve.open.us", us);
            }
        }
    }
}

/// One group of a wave between its lookup and its publication.
enum Todo<'r> {
    /// Skipped or replayed from the store.
    Done(StepOutcome),
    /// Missed the store: inferred by the wave's workers.
    Miss(Slice<'r>),
    /// Has the key of an earlier miss of the same wave: looked up again
    /// once that miss has published, as a serial loop would.
    Repeat(Slice<'r>),
}

/// Step 3 of `step`: replays the daemon's store, stamping with
/// `revision`.
fn replay(
    step: &GroupStep,
    slice: &Slice,
    store: &mut Cache,
    revision: u64,
) -> Option<StepOutcome> {
    let mut lookup = |key, fits: &dyn Fn(&[DefReport]) -> bool| {
        store
            .lookup(key, revision)
            .filter(|(_, checked)| fits(&checked.defs))
    };
    step.replay(slice, &mut lookup)
}

/// Whether every definition of an analysis checks.
pub fn analysis_ok(analysis: &Analysis) -> bool {
    match analysis {
        Analysis::ParseError { .. } => false,
        Analysis::Checked { defs } => defs
            .iter()
            .all(|d| matches!(d.status, DefStatus::Ok { .. })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ServeEngine {
        ServeEngine::new(ServeConfig::default())
    }

    #[test]
    fn open_checks_and_reports_schemes() {
        let mut e = engine();
        let up = e.open("a.rp", "def inc x = x + 1\ndef use = inc 41".into(), 1);
        assert!(up.ok);
        assert_eq!(up.stats.verdict_recomputed, 2);
        let doc = e.document("a.rp").expect("open");
        let Analysis::Checked { defs } = &doc.analysis else {
            panic!("parse failed");
        };
        assert!(matches!(&defs[0].status, DefStatus::Ok { scheme, .. } if scheme == "Int -> Int"));
        assert!(matches!(&defs[1].status, DefStatus::Ok { scheme, .. } if scheme == "Int"));
    }

    #[test]
    fn whitespace_edit_recomputes_nothing() {
        let mut e = engine();
        e.open("a.rp", "def a = 1\ndef b = a + 1".into(), 1);
        let up = e
            .change_full("a.rp", "def a = 1\n\ndef b = a   + 1".into(), 2)
            .expect("open");
        assert!(up.ok);
        // The text changed (parse miss) but both pretty-printed groups
        // and the dependency scheme are identical: zero recomputes.
        assert_eq!(up.stats.verdict_recomputed, 0, "{:?}", up.stats);
        assert_eq!(up.stats.verdict_hits, 2);
    }

    #[test]
    fn editing_a_body_without_changing_its_scheme_cuts_off_early() {
        let mut e = engine();
        e.open("a.rp", "def a = 1\ndef b = a + 1\ndef c = b + 1".into(), 1);
        let up = e
            .change_full("a.rp", "def a = 2\ndef b = a + 1\ndef c = b + 1".into(), 2)
            .expect("open");
        assert!(up.ok);
        // `a` re-keys (its body changed) but closes to the same scheme
        // `Int`, so `b` and `c` hit their memoized verdicts.
        assert_eq!(up.stats.verdict_recomputed, 1, "{:?}", up.stats);
        assert_eq!(up.stats.verdict_hits, 2);
        assert_eq!(up.stats.defs_recomputed, 1);
    }

    #[test]
    fn a_multi_field_update_keeps_its_key_across_revisions() {
        let mut e = engine();
        e.open("a.rp", "def f r = @{a = 1, b = 2} r\ndef g = 1".into(), 1);
        let up = e
            .change_full("a.rp", "def f r = @{a = 1, b = 2} r\ndef g = 2".into(), 2)
            .expect("open");
        assert!(up.ok);
        // The update's binder is numbered within `f`, so `f` prints,
        // digests and keys as before: only `g` re-infers.
        assert_eq!(up.stats.verdict_recomputed, 1, "{:?}", up.stats);
        assert_eq!(up.stats.verdict_hits, 1);
        assert_eq!((up.stats.parse_hits, up.stats.parse_misses), (1, 1));
    }

    #[test]
    fn identical_text_reuses_everything() {
        let mut e = engine();
        e.open("a.rp", "def a = 1".into(), 1);
        let up = e.change_full("a.rp", "def a = 1".into(), 2).expect("open");
        assert!(up.stats.unchanged);
        assert_eq!(up.stats.verdict_recomputed, 0);
    }

    #[test]
    fn range_edits_apply_like_an_editor() {
        let mut e = engine();
        e.open("a.rp", "def a = 1\ndef b = a + 1".into(), 1);
        // Replace the literal `1` in `def a = 1` (line 0, cols 8..9).
        let up = e
            .change_ranges(
                "a.rp",
                &[RangeEdit {
                    start_line: 0,
                    start_character: 8,
                    end_line: 0,
                    end_character: 9,
                    text: "41".into(),
                }],
                2,
            )
            .expect("applies");
        assert!(up.ok);
        assert_eq!(
            e.document("a.rp").unwrap().source,
            "def a = 41\ndef b = a + 1"
        );
        assert_eq!(up.stats.verdict_recomputed, 1);
    }

    #[test]
    fn errors_are_rendered_and_recomputed_each_revision() {
        let mut e = engine();
        let up = e.open("a.rp", "def bad = #foo {}\ndef fine = 1".into(), 1);
        assert!(!up.ok);
        let doc = e.document("a.rp").unwrap();
        let Analysis::Checked { defs } = &doc.analysis else {
            panic!("parse failed");
        };
        let DefStatus::Error { rendered, .. } = &defs[0].status else {
            panic!("expected error, got {:?}", defs[0].status);
        };
        assert!(rendered.contains("field `foo`"), "{rendered}");
        assert!(matches!(defs[1].status, DefStatus::Ok { .. }));

        // Same text again: the fine def hits, the bad def re-runs.
        let up = e
            .change_full("a.rp", "def bad = #foo {}\ndef fine = 1\n".into(), 2)
            .expect("open");
        assert_eq!(up.stats.verdict_recomputed, 1);
        assert_eq!(up.stats.verdict_hits, 1);
    }

    #[test]
    fn hover_reports_the_definition_under_the_cursor() {
        let mut e = engine();
        e.open("a.rp", "def inc x = x + 1\ndef use = inc 41".into(), 1);
        let h = e.hover("a.rp", 0, 4).expect("hover on inc");
        assert_eq!(h.name, "inc");
        assert_eq!(h.scheme.as_deref(), Some("Int -> Int"));
        assert_eq!(h.status, "ok");
        let h = e.hover("a.rp", 1, 0).expect("hover on use");
        assert_eq!(h.name, "use");
    }

    #[test]
    fn failed_dependency_skips_dependents() {
        let mut e = engine();
        e.open("a.rp", "def bad = #foo {}\ndef use2 = bad".into(), 1);
        let doc = e.document("a.rp").unwrap();
        let Analysis::Checked { defs } = &doc.analysis else {
            panic!("parse failed");
        };
        assert!(matches!(&defs[1].status, DefStatus::Skipped { after } if after == "bad"));
    }

    /// Every query counter of a revision (not its wall time or bytes).
    fn queries(s: &RevisionStats) -> [u64; 8] {
        [
            s.parse_hits,
            s.parse_misses,
            s.slices,
            s.verdict_hits,
            s.verdict_disk_hits,
            s.verdict_recomputed,
            s.scheme_hits,
            s.defs_recomputed,
        ]
    }

    #[test]
    fn a_key_repeated_within_a_wave_is_inferred_once() {
        // Both copies of `f` land in wave 0 with one key: the first
        // re-infers, the second replays its entry, as a serial loop
        // would. `g` makes the wave's misses two, so 4 workers take the
        // pool.
        for (text, recomputed) in [
            ("def f r = #a r\ndef f r = #a r", 1),
            ("def f r = #a r\ndef g = 2\ndef f r = #a r", 2),
        ] {
            for workers in [1, 4] {
                let mut e = engine();
                e.set_workers(workers);
                let up = e.open("a.rp", text.into(), 1);
                assert!(up.ok);
                let s = &up.stats;
                assert_eq!(
                    (s.verdict_recomputed, s.verdict_hits),
                    (recomputed, 1),
                    "{workers} workers: {s:?}"
                );
                assert_eq!((e.store.misses, e.store.hits), (recomputed, 1));
            }
        }
    }

    #[test]
    fn a_cascade_counts_the_same_under_any_worker_count() {
        // `mk` is shared by 12 independent groups, which `main` reads.
        // Adding a field to `mk` changes its scheme, so the 12 re-infer
        // as one wave; their schemes stay `Int`, so `main` replays.
        let doc = |helper: &str| {
            let mut text = format!("def mk x = {helper}\n");
            for k in 0..12 {
                text.push_str(&format!("def use{k} = #a (mk {k}) + {k}\n"));
            }
            let uses: Vec<String> = (0..12).map(|k| format!("use{k}")).collect();
            text.push_str(&format!("def main = {}\n", uses.join(" + ")));
            text
        };
        let mut seen = Vec::new();
        for workers in [1, 4] {
            let mut e = engine();
            e.set_workers(workers);
            let open = e.open("a.rp", doc("{a = x}"), 1);
            let edit = e
                .change_full("a.rp", doc("@{b = x} {a = x}"), 2)
                .expect("open");
            assert!(open.ok && edit.ok);
            assert_eq!(edit.stats.verdict_recomputed, 13, "{:?}", edit.stats);
            assert_eq!(edit.stats.verdict_hits, 1, "{:?}", edit.stats);
            let Analysis::Checked { defs } = &e.document("a.rp").expect("open").analysis else {
                panic!("parses");
            };
            let schemes: Vec<String> = defs.iter().map(|d| format!("{:?}", d.status)).collect();
            seen.push((queries(&open.stats), queries(&edit.stats), schemes));
        }
        assert_eq!(seen[0], seen[1], "1 worker against 4");
    }

    #[test]
    fn parse_errors_surface_with_spans() {
        let mut e = engine();
        let up = e.open("a.rp", "def broken = (".into(), 1);
        assert!(!up.ok);
        let doc = e.document("a.rp").unwrap();
        assert!(matches!(doc.analysis, Analysis::ParseError { .. }));
    }
}
