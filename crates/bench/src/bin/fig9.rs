//! Regenerates Figure 9 of the paper: inference times for four decoder
//! workloads, with and without record-field tracking.
//!
//! ```text
//! fig9 [--quick] [--phases] [--classes] [--json] [--proof-overhead]
//!      [--mem] [--trace PATH] [--seed N]
//! ```
//!
//! * `--quick`   — scale every workload down 8x (for smoke runs);
//! * `--phases`  — additionally print per-phase timings (unify / applyS /
//!   projection / SAT), reproducing the paper's Section 6 observation
//!   that substitution application rivals the 2-SAT solver;
//! * `--classes` — print how many definitions landed in each
//!   satisfiability class (Section 5's operation → solver mapping);
//! * `--json`    — print a machine-readable report on stdout and the
//!   table on stderr (this is what `BENCH_fig9.json` and
//!   `fig9_output.txt` in the repository root are);
//! * `--proof-overhead` — run the with-fields configuration a second
//!   time with inline proof checking forced on (every SAT verdict
//!   re-derived with a proof and replayed through `ProofChecker`) and
//!   report the wall-time overhead; the acceptance bar is < 10%
//!   checked and zero unchecked (checking is gated on one relaxed
//!   atomic load);
//! * `--mem` — turn the counting allocator on for the measured runs
//!   (per-workload byte deltas, per-phase byte attribution, a
//!   process-wide `mem` block in the JSON) and additionally measure
//!   the accounting overhead itself: the with-fields configuration is
//!   re-run best-of-3 with accounting off and on, and the wall-time
//!   ratio lands in the JSON; the acceptance bar is < 5%;
//! * `--trace PATH` — write a Chrome trace-event file of the whole run
//!   (equivalent to setting `ROWPOLY_TRACE=PATH`);
//! * `--seed N`  — workload generation seed (default 42).
//!
//! Absolute numbers are not comparable to the paper's (different
//! hardware, language and — necessarily — synthetic workloads); the
//! *shape* is: both columns grow about linearly with the number of
//! definitions, and the "w. fields" column costs a roughly constant
//! factor over "w/o fields". The table's closing `shape:` line prints
//! both as measured: the factor's range across rows, and each column's
//! time per definition on the largest row over the smallest
//! (`scripts/check_projection.py` gates the w/o-fields growth at 2x).

use std::io::Write;
use std::time::{Duration, Instant};

use rowpoly_core::{Options, ProgramReport, Session, Stats, SAT_CLASSES};
use rowpoly_gen::{fig9_workloads, generate_with_lines};
use rowpoly_obs::json::Json;
use rowpoly_obs::mem::{self, MemDelta};

#[global_allocator]
static ALLOC: rowpoly_obs::CountingAlloc = rowpoly_obs::CountingAlloc;

struct Measurement {
    name: &'static str,
    paper_lines: usize,
    lines: usize,
    t_without: Duration,
    t_with: Duration,
    rep_without: ProgramReport,
    rep_with: ProgramReport,
    /// Best-of-3 with-fields walls, proof checking (off, on)
    /// (`--proof-overhead` only).
    proof_walls: Option<(Duration, Duration)>,
    /// Allocator deltas for the two measured runs (`--mem` or
    /// `ROWPOLY_MEM=1` only).
    mem_without: Option<MemDelta>,
    mem_with: Option<MemDelta>,
    /// Best-of-3 with-fields walls, accounting (off, on) (`--mem`
    /// only) — the overhead measurement the < 5% gate reads.
    mem_walls: Option<(Duration, Duration)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let phases = args.iter().any(|a| a == "--phases");
    let classes = args.iter().any(|a| a == "--classes");
    let json = args.iter().any(|a| a == "--json");
    let proof_overhead = args.iter().any(|a| a == "--proof-overhead");
    let mem_flag = args.iter().any(|a| a == "--mem");
    let trace = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42u64);

    if trace.is_some() {
        rowpoly_obs::enable();
    }
    mem::init_from_env();
    // `--mem` turns accounting on per measured run (scoped sessions,
    // so the overhead pair below can still measure a genuinely-off
    // leg); `ROWPOLY_MEM=1` turns it on for the whole process.
    let mem_on = mem_flag || mem::tracking();
    // Baseline for the process-wide `mem` block in the JSON report.
    let mem_baseline = mem_on.then(mem::snapshot);

    // The human-readable table goes to stdout, or to stderr next to a
    // `--json` report, so one run yields both views of the same numbers.
    let mut table: Box<dyn Write> = if json {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::io::stdout())
    };
    print_header(&mut table).expect("write table");

    let mut measurements = Vec::new();
    for w in fig9_workloads() {
        let target = if quick {
            w.paper_lines / 8
        } else {
            w.paper_lines
        };
        let (program, src) = generate_with_lines(target, w.with_sem, seed);
        let lines = src.lines().count();

        let run = |track: bool| {
            let opts = Options {
                track_fields: track,
                ..Options::default()
            };
            let start = Instant::now();
            let report = Session::new(opts)
                .infer_program(&program)
                .unwrap_or_else(|e| panic!("workload {} failed to check: {e}", w.name));
            (start.elapsed(), report)
        };
        // When accounting is requested, each measured run holds its own
        // session and captures this thread's allocator delta.
        let run_mem = |track: bool| {
            if mem_on {
                let _session = mem::accounting_session();
                let mark = mem::thread_mark();
                let (t, rep) = run(track);
                (t, rep, Some(mem::thread_delta_since(&mark)))
            } else {
                let (t, rep) = run(track);
                (t, rep, None)
            }
        };
        let (t_without, rep_without, mem_without) = run_mem(false);
        let (t_with, rep_with, mem_with) = run_mem(true);
        let mem_walls = mem_flag.then(|| {
            // Accounting-overhead pair: the same with-fields run,
            // best-of-3 with the counting hooks idle vs recording.
            let best = |tracked: bool| {
                let session = tracked.then(mem::accounting_session);
                let t = (0..3).map(|_| run(true).0).min().expect("three runs");
                drop(session);
                t
            };
            (best(false), best(true))
        });
        let proof_walls = proof_overhead.then(|| {
            // Same configuration, every verdict re-derived with a proof
            // and replayed through the checker. Best-of-3 on both sides
            // (the base runs keep checking off, gated on one relaxed
            // atomic load): the workloads are sub-second, so a single
            // pair would mostly measure scheduler noise.
            let best = |checked: bool| {
                rowpoly_boolfun::set_check_proofs(checked);
                let t = (0..3).map(|_| run(true).0).min().expect("three runs");
                rowpoly_boolfun::set_check_proofs(false);
                t
            };
            (best(false), best(true))
        });

        let m = Measurement {
            name: w.name,
            paper_lines: w.paper_lines,
            lines,
            t_without,
            t_with,
            rep_without,
            rep_with,
            proof_walls,
            mem_without,
            mem_with,
            mem_walls,
        };
        print_row(&mut table, &m, &w, phases, classes).expect("write table");
        measurements.push(m);
    }

    let mem_block = mem_baseline.map(|base_snap| {
        let now = mem::snapshot();
        let delta = now.delta_since(&base_snap);
        let sites = rowpoly_obs::snapshot().sites;
        let defs: u64 = measurements
            .iter()
            .map(|m| (m.rep_with.defs.len() + m.rep_without.defs.len()) as u64)
            .sum();
        mem::report_json(&delta, &base_snap, &now, &sites, defs)
    });

    if json {
        println!(
            "{}",
            render_json(seed, quick, &measurements, mem_block).render()
        );
    }
    print_shape(&mut table, &measurements).expect("write table");

    if let Some(path) = trace {
        let snap = rowpoly_obs::snapshot();
        match rowpoly_obs::chrome::write_chrome_trace(&snap, std::path::Path::new(&path)) {
            Ok(()) => eprintln!("wrote Chrome trace to {path}"),
            Err(e) => eprintln!("failed to write trace {path}: {e}"),
        }
    }
}

fn print_header(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "Figure 9: inference times on synthetic decoder specifications"
    )?;
    writeln!(
        out,
        "(paper numbers measured MLton-compiled SML on a 3.4 GHz Core i7)"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<18} {:>7} {:>7}  {:>12} {:>12}  {:>12} {:>12} {:>7}",
        "decoder", "paper", "lines", "paper w/o", "paper w.", "time w/o", "time w.", "ratio"
    )
}

fn print_row(
    out: &mut dyn Write,
    m: &Measurement,
    w: &rowpoly_gen::Workload,
    phases: bool,
    classes: bool,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{:<18} {:>7} {:>7}  {:>11.2}s {:>11.2}s  {:>11.2}s {:>11.2}s {:>6.2}x",
        m.name,
        m.paper_lines,
        m.lines,
        w.paper_secs_without,
        w.paper_secs_with,
        m.t_without.as_secs_f64(),
        m.t_with.as_secs_f64(),
        m.t_with.as_secs_f64() / m.t_without.as_secs_f64().max(1e-9),
    )?;
    if phases {
        let s0 = &m.rep_without.stats;
        let s1 = &m.rep_with.stats;
        writeln!(
            out,
            "    w/o fields: unify {:>8.3}s  applyS {:>8.3}s  ({} mgu, {} applyS)",
            s0.unify.as_secs_f64(),
            s0.applys.as_secs_f64(),
            s0.unify_calls,
            s0.applys_calls
        )?;
        writeln!(
            out,
            "    w. fields:  unify {:>8.3}s  applyS {:>8.3}s  project {:>8.3}s  sat {:>8.3}s  ({} checks, class {}, peak {} clauses)",
            s1.unify.as_secs_f64(),
            s1.applys.as_secs_f64(),
            s1.project.as_secs_f64(),
            s1.sat.as_secs_f64(),
            s1.sat_calls,
            m.rep_with.sat_class,
            s1.peak_clauses
        )?;
        writeln!(
            out,
            "    projection: {} eliminated ({} fast path, {} fallback), {} resolvents, {} subsumed",
            s1.project_resolutions,
            s1.project_fastpath,
            s1.project_fallback,
            s1.project_resolvents,
            s1.project_subsumed
        )?;
    }
    if let Some((tu, tc)) = m.proof_walls {
        let overhead = tc.as_secs_f64() / tu.as_secs_f64().max(1e-9) - 1.0;
        writeln!(
            out,
            "    proof checking: {:>8.3}s checked vs {:>8.3}s unchecked ({:+.1}% wall, best of 3)",
            tc.as_secs_f64(),
            tu.as_secs_f64(),
            overhead * 100.0
        )?;
    }
    if let Some(d) = &m.mem_with {
        const MIB: f64 = 1024.0 * 1024.0;
        writeln!(
            out,
            "    memory (w. fields): {:.2} MiB allocated in {} allocations, net {:+.2} MiB",
            d.alloc_bytes as f64 / MIB,
            d.allocs,
            d.net_bytes() as f64 / MIB,
        )?;
    }
    if let Some((toff, ton)) = m.mem_walls {
        let overhead = ton.as_secs_f64() / toff.as_secs_f64().max(1e-9) - 1.0;
        writeln!(
            out,
            "    mem accounting: {:>8.3}s tracked vs {:>8.3}s untracked ({:+.1}% wall, best of 3)",
            ton.as_secs_f64(),
            toff.as_secs_f64(),
            overhead * 100.0
        )?;
    }
    if classes {
        let mut counts = std::collections::BTreeMap::new();
        for d in &m.rep_with.defs {
            *counts.entry(d.sat_class.name()).or_insert(0usize) += 1;
        }
        let summary: Vec<String> = counts
            .iter()
            .map(|(name, n)| format!("{n} {name}"))
            .collect();
        writeln!(
            out,
            "    per-def flow classes: {} ({} defs)",
            summary.join(", "),
            m.rep_with.defs.len()
        )?;
    }
    Ok(())
}

/// The measured shape: the range of the w./w/o-fields factor across
/// rows, and each column's time per definition on the last (largest)
/// row over the first.
fn print_shape(out: &mut dyn Write, measurements: &[Measurement]) -> std::io::Result<()> {
    writeln!(out)?;
    let (Some(first), Some(last)) = (measurements.first(), measurements.last()) else {
        return Ok(());
    };
    let per_def = |t: Duration, r: &ProgramReport| t.as_secs_f64() / r.defs.len().max(1) as f64;
    let growth = |t: fn(&Measurement) -> (Duration, &ProgramReport)| {
        let (t0, r0) = t(first);
        let (t1, r1) = t(last);
        per_def(t1, r1) / per_def(t0, r0).max(1e-12)
    };
    let (lo, hi) = measurements
        .iter()
        .map(|m| m.t_with.as_secs_f64() / m.t_without.as_secs_f64().max(1e-9))
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), r| {
            (lo.min(r), hi.max(r))
        });
    writeln!(
        out,
        "shape: w. fields costs {lo:.1}-{hi:.1}x w/o fields; time per definition, \
         largest row over smallest: w/o {:.2}x, w. {:.2}x",
        growth(|m| (m.t_without, &m.rep_without)),
        growth(|m| (m.t_with, &m.rep_with)),
    )
}

fn phases_json(stats: &Stats) -> Json {
    Json::obj(vec![
        ("unify", Json::Float(stats.unify.as_secs_f64())),
        ("applys", Json::Float(stats.applys.as_secs_f64())),
        ("project", Json::Float(stats.project.as_secs_f64())),
        ("sat", Json::Float(stats.sat.as_secs_f64())),
    ])
}

fn run_json(wall: Duration, report: &ProgramReport, mem: Option<&MemDelta>) -> Json {
    let stats = &report.stats;
    let mut members = vec![
        ("wall_s", Json::Float(wall.as_secs_f64())),
        ("phases", phases_json(stats)),
        ("unify_calls", Json::Int(stats.unify_calls as i64)),
        ("applys_calls", Json::Int(stats.applys_calls as i64)),
        ("sat_checks", Json::Int(stats.sat_calls as i64)),
        ("peak_clauses", Json::Int(stats.peak_clauses as i64)),
        (
            "project_resolutions",
            Json::Int(stats.project_resolutions as i64),
        ),
        ("project_fastpath", Json::Int(stats.project_fastpath as i64)),
        ("project_fallback", Json::Int(stats.project_fallback as i64)),
        (
            "project_resolvents",
            Json::Int(stats.project_resolvents as i64),
        ),
        ("project_subsumed", Json::Int(stats.project_subsumed as i64)),
        ("env_meet_hits", Json::Int(stats.env_meet_hits as i64)),
        ("env_meet_misses", Json::Int(stats.env_meet_misses as i64)),
        ("sat_class", Json::Str(report.sat_class.name().to_string())),
    ];
    let by_class: Vec<(&str, Json)> = SAT_CLASSES
        .iter()
        .filter(|&&c| stats.sat_checks_for(c) > 0)
        .map(|&c| (c.name(), Json::Int(stats.sat_checks_for(c) as i64)))
        .collect();
    members.push(("sat_checks_by_class", Json::obj(by_class)));
    if let Some(d) = mem {
        members.push(("mem", d.to_json()));
        members.push((
            "phase_alloc_bytes",
            Json::obj(
                stats
                    .phase_alloc_bytes()
                    .into_iter()
                    .map(|(n, b)| (n, Json::Int(b as i64)))
                    .collect(),
            ),
        ));
    }
    let mut def_classes = std::collections::BTreeMap::new();
    for d in &report.defs {
        *def_classes.entry(d.sat_class.name()).or_insert(0i64) += 1;
    }
    members.push((
        "def_classes",
        Json::Obj(
            def_classes
                .into_iter()
                .map(|(k, n)| (k.to_string(), Json::Int(n)))
                .collect(),
        ),
    ));
    Json::obj(members)
}

fn render_json(
    seed: u64,
    quick: bool,
    measurements: &[Measurement],
    mem_block: Option<Json>,
) -> Json {
    let workloads: Vec<Json> = measurements
        .iter()
        .map(|m| {
            let mut members = vec![
                ("name", Json::Str(m.name.to_string())),
                ("paper_lines", Json::Int(m.paper_lines as i64)),
                ("lines", Json::Int(m.lines as i64)),
                (
                    "without_fields",
                    run_json(m.t_without, &m.rep_without, m.mem_without.as_ref()),
                ),
                (
                    "with_fields",
                    run_json(m.t_with, &m.rep_with, m.mem_with.as_ref()),
                ),
                (
                    "ratio",
                    Json::Float(m.t_with.as_secs_f64() / m.t_without.as_secs_f64().max(1e-9)),
                ),
            ];
            if let Some((tu, tc)) = m.proof_walls {
                members.push((
                    "proof_check",
                    Json::obj(vec![
                        ("wall_s_unchecked", Json::Float(tu.as_secs_f64())),
                        ("wall_s_checked", Json::Float(tc.as_secs_f64())),
                        (
                            "overhead",
                            Json::Float(tc.as_secs_f64() / tu.as_secs_f64().max(1e-9) - 1.0),
                        ),
                    ]),
                ));
            }
            if let Some((toff, ton)) = m.mem_walls {
                members.push((
                    "mem_overhead",
                    Json::obj(vec![
                        ("wall_s_untracked", Json::Float(toff.as_secs_f64())),
                        ("wall_s_tracked", Json::Float(ton.as_secs_f64())),
                        (
                            "overhead",
                            Json::Float(ton.as_secs_f64() / toff.as_secs_f64().max(1e-9) - 1.0),
                        ),
                    ]),
                ));
            }
            Json::obj(members)
        })
        .collect();
    let mut members = vec![
        ("bench", Json::Str("fig9".to_string())),
        ("seed", Json::Int(seed as i64)),
        ("quick", Json::Bool(quick)),
        // Host context, mirroring BENCH_batch.json: memory ceilings and
        // wall times only make sense relative to the machine they were
        // measured on.
        (
            "host_cpus",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        (
            "host_mem_bytes",
            mem::host_mem_bytes().map_or(Json::Null, |v| Json::Int(v as i64)),
        ),
        ("workloads", Json::Arr(workloads)),
    ];
    if let Some(mem) = mem_block {
        members.push(("mem", mem));
    }
    Json::obj(members)
}
