//! Edit-trace replay through the serve daemon: how fast is a keystroke?
//!
//! ```text
//! edits [--quick] [--json] [--mem] [--seed N] [--edits N]
//! ```
//!
//! `--mem` (or `ROWPOLY_MEM=1`) turns the counting allocator on for
//! the replay: each workload reports the allocator delta over its edit
//! trace and the verdict store's live-byte estimate against its
//! configured bound, and the JSON gains a process-wide `mem` block.
//!
//! For each Figure 9 decoder workload, the benchmark opens the
//! generated source in an in-process [`rowpoly_serve::ServeEngine`]
//! (the cold open runs full inference, like the first `rowpoly check`),
//! then replays a deterministic trace of single-literal edits through
//! the LSP-style incremental path (`change_ranges`) and records each
//! revision's wall time. The baseline is what an editor would otherwise
//! do: re-run one-shot inference over the whole file after every edit.
//!
//! Each edit rewrites one integer literal, which is the interesting
//! case for the query graph: the edited definition's group re-keys and
//! recomputes, but its closed scheme is unchanged, so every dependent
//! hits the store — the daemon's per-edit cost is one group, not one
//! file. The cutoff counters in the report prove that: over the whole
//! trace, `verdict_recomputed` stays at one group per edit while
//! `verdict_hits` absorbs the rest.
//!
//! * `--quick`   — scale workloads down 8x and the trace to 10 edits;
//! * `--json`    — machine-readable report on stdout (this is what
//!   `BENCH_serve.json` in the repository root is);
//! * `--seed N`  — workload generation seed (default 42);
//! * `--edits N` — trace length per workload (default 30).

use std::time::Instant;

use rowpoly_core::{Options, Session};
use rowpoly_gen::{fig9_workloads, generate_with_lines};
use rowpoly_lang::LineMap;
use rowpoly_obs::json::Json;
use rowpoly_obs::mem::{self, MemDelta};
use rowpoly_serve::{RangeEdit, ServeConfig, ServeEngine};

#[global_allocator]
static ALLOC: rowpoly_obs::CountingAlloc = rowpoly_obs::CountingAlloc;

struct WorkloadResult {
    name: &'static str,
    lines: usize,
    defs: usize,
    open_ns: u64,
    /// Sorted per-edit wall times (ns).
    edit_ns: Vec<u64>,
    one_shot_ns: u64,
    verdict_hits: u64,
    verdict_recomputed: u64,
    defs_recomputed: u64,
    slices: u64,
    /// Allocator delta summed over the edit trace (accounting on only).
    trace_mem: Option<MemDelta>,
    /// Verdict-store live-byte estimate after the last edit, and its
    /// bound.
    memo_live_bytes: u64,
    memo_max_bytes: u64,
}

impl WorkloadResult {
    fn percentile(&self, p: f64) -> u64 {
        let n = self.edit_ns.len();
        let idx = ((p / 100.0) * (n.saturating_sub(1)) as f64).round() as usize;
        self.edit_ns[idx.min(n - 1)]
    }

    fn speedup_p99(&self) -> f64 {
        self.one_shot_ns as f64 / self.percentile(99.0).max(1) as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let seed = opt("--seed").unwrap_or(42);
    let edits = opt("--edits").unwrap_or(if quick { 10 } else { 30 }) as usize;
    mem::init_from_env();
    if args.iter().any(|a| a == "--mem") {
        mem::enable();
    }
    let mem_baseline = mem::tracking().then(mem::snapshot);

    if !json {
        println!("serve: per-edit latency vs one-shot re-check (trace of {edits} literal edits)");
        println!();
        println!(
            "{:<18} {:>7} {:>6}  {:>10} {:>10} {:>10}  {:>10} {:>9}",
            "decoder", "lines", "defs", "p50", "p90", "p99", "one-shot", "speedup"
        );
    }

    let mut results = Vec::new();
    for w in fig9_workloads() {
        let target = if quick {
            w.paper_lines / 8
        } else {
            w.paper_lines
        };
        let (program, src) = generate_with_lines(target, w.with_sem, seed);
        let result = replay(w.name, &src, program.defs.len(), edits, seed);
        if !json {
            print_row(&result);
        }
        results.push(result);
    }

    let mem_block = mem_baseline.map(|base_snap| {
        let now = mem::snapshot();
        let delta = now.delta_since(&base_snap);
        let sites = rowpoly_obs::snapshot().sites;
        let defs: u64 = results.iter().map(|r| r.defs as u64).sum();
        mem::report_json(&delta, &base_snap, &now, &sites, defs)
    });

    if json {
        println!(
            "{}",
            render_json(seed, quick, edits, &results, mem_block).render()
        );
    } else {
        println!();
        println!("shape check: warm p99 should beat the one-shot baseline by >= 10x");
    }
}

fn replay(
    name: &'static str,
    source: &str,
    defs: usize,
    edits: usize,
    seed: u64,
) -> WorkloadResult {
    // No cache directory: the bench measures the hot path, and a
    // loaded cache would only flatter the open time.
    let mut engine = ServeEngine::new(ServeConfig {
        cache_dir: None,
        ..ServeConfig::default()
    });
    let path = format!("{name}.rp");
    let opened = engine.open(&path, source.to_string(), 0);
    assert!(opened.ok, "workload {name} must check clean");

    let mut edit_ns = Vec::with_capacity(edits);
    let (mut hits, mut recomputed, mut defs_rec, mut slices) = (0u64, 0u64, 0u64, 0u64);
    let mut trace_mem = MemDelta::default();
    let mut memo_live_bytes = 0u64;
    for k in 0..edits {
        let text = &engine.document(&path).expect("open").source;
        let spans = literal_spans(text);
        assert!(!spans.is_empty(), "workload {name} has no integer literals");
        // A fixed stride walks the file deterministically; the seed
        // offsets it so different seeds touch different definitions.
        let (start, end) = spans[(seed as usize + k * 7919) % spans.len()];
        let lm = LineMap::new(text);
        let (sl, sc) = lm.position(start as u32);
        let (el, ec) = lm.position(end as u32);
        let edit = RangeEdit {
            start_line: sl - 1,
            start_character: sc - 1,
            end_line: el - 1,
            end_character: ec - 1,
            text: format!("{}", (k % 89) + 1),
        };
        let update = engine
            .change_ranges(&path, &[edit], k as i64 + 1)
            .expect("document is open");
        assert!(update.ok, "edit {k} broke workload {name}");
        edit_ns.push(update.stats.wall_ns);
        hits += update.stats.verdict_hits;
        recomputed += update.stats.verdict_recomputed;
        defs_rec += update.stats.defs_recomputed;
        slices += update.stats.slices;
        trace_mem.merge(&update.stats.mem);
        memo_live_bytes = update.stats.memo_live_bytes;
    }
    edit_ns.sort_unstable();

    // Baseline: re-run one-shot inference over the whole file, exactly
    // what `rowpoly check` does per invocation. Best of 3 — the
    // generous baseline makes the speedup claim conservative.
    let final_text = engine.document(&path).expect("open").source.clone();
    let one_shot_ns = (0..3)
        .map(|_| {
            let start = Instant::now();
            let program = rowpoly_lang::parse_program(&final_text).expect("parses");
            Session::new(Options::default())
                .infer_program(&program)
                .expect("checks");
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three samples");

    WorkloadResult {
        name,
        lines: source.lines().count(),
        defs,
        open_ns: opened.stats.wall_ns,
        edit_ns,
        one_shot_ns,
        verdict_hits: hits,
        verdict_recomputed: recomputed,
        defs_recomputed: defs_rec,
        slices,
        trace_mem: mem::tracking().then_some(trace_mem),
        memo_live_bytes,
        memo_max_bytes: ServeConfig::default().memo_max_bytes,
    }
}

/// Byte ranges of standalone integer literals (digit runs not embedded
/// in an identifier).
fn literal_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let embedded =
                start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
            if !embedded {
                spans.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    spans
}

fn print_row(r: &WorkloadResult) {
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "{:<18} {:>7} {:>6}  {:>8.2}ms {:>8.2}ms {:>8.2}ms  {:>8.2}ms {:>8.1}x",
        r.name,
        r.lines,
        r.defs,
        ms(r.percentile(50.0)),
        ms(r.percentile(90.0)),
        ms(r.percentile(99.0)),
        ms(r.one_shot_ns),
        r.speedup_p99(),
    );
    println!(
        "    cutoff: {} verdicts recomputed / {} slices over the trace ({} hits, {} defs re-inferred)",
        r.verdict_recomputed, r.slices, r.verdict_hits, r.defs_recomputed
    );
}

fn render_json(
    seed: u64,
    quick: bool,
    edits: usize,
    results: &[WorkloadResult],
    mem_block: Option<Json>,
) -> Json {
    let workloads: Vec<Json> = results
        .iter()
        .map(|r| {
            let mut members = vec![
                ("name", Json::Str(r.name.to_string())),
                ("lines", Json::Int(r.lines as i64)),
                ("defs", Json::Int(r.defs as i64)),
                ("open_ns", Json::Int(r.open_ns as i64)),
                ("edits", Json::Int(r.edit_ns.len() as i64)),
                (
                    "per_edit_ns",
                    Json::obj(vec![
                        ("p50", Json::Int(r.percentile(50.0) as i64)),
                        ("p90", Json::Int(r.percentile(90.0) as i64)),
                        ("p99", Json::Int(r.percentile(99.0) as i64)),
                        (
                            "max",
                            Json::Int(*r.edit_ns.last().expect("nonempty") as i64),
                        ),
                    ]),
                ),
                ("one_shot_ns", Json::Int(r.one_shot_ns as i64)),
                ("speedup_p99", Json::Float(r.speedup_p99())),
                (
                    "cutoff",
                    Json::obj(vec![
                        ("slices", Json::Int(r.slices as i64)),
                        ("verdict_hits", Json::Int(r.verdict_hits as i64)),
                        ("verdict_recomputed", Json::Int(r.verdict_recomputed as i64)),
                        ("defs_recomputed", Json::Int(r.defs_recomputed as i64)),
                    ]),
                ),
            ];
            if let Some(d) = &r.trace_mem {
                members.push((
                    "mem",
                    Json::obj(vec![
                        ("trace_delta", d.to_json()),
                        ("memo_live_bytes", Json::Int(r.memo_live_bytes as i64)),
                        ("memo_max_bytes", Json::Int(r.memo_max_bytes as i64)),
                    ]),
                ));
            }
            Json::obj(members)
        })
        .collect();
    let min_speedup = results
        .iter()
        .map(WorkloadResult::speedup_p99)
        .fold(f64::INFINITY, f64::min);
    let mut members = vec![
        ("bench", Json::Str("serve-edits".to_string())),
        ("seed", Json::Int(seed as i64)),
        ("quick", Json::Bool(quick)),
        ("edits_per_workload", Json::Int(edits as i64)),
        // Host context, mirroring BENCH_batch.json (satellite of the
        // memory-observability issue: every benchmark records the
        // machine it ran on).
        (
            "host_cpus",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        (
            "host_mem_bytes",
            mem::host_mem_bytes().map_or(Json::Null, |v| Json::Int(v as i64)),
        ),
        ("workloads", Json::Arr(workloads)),
        ("min_speedup_p99", Json::Float(min_speedup)),
    ];
    if let Some(mem) = mem_block {
        members.push(("mem", mem));
    }
    Json::obj(members)
}
