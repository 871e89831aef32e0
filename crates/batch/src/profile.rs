//! Parallel-run profiling: utilization, contention, and critical path.
//!
//! This module turns the raw [`TimelineSnapshot`] a profiled batch run
//! produces into the three answers the scaling work needs:
//!
//! 1. **Utilization** — for each worker, what fraction of the wall was
//!    spent executing jobs vs asleep vs scanning for work vs blocked on
//!    instrumented locks (`worker 3: 41% busy, 52% idle, 7% lock-wait`).
//! 2. **Contention** — per-site lock wait totals and histograms
//!    (`lock.wait.pool.queue`, `lock.wait.batch.cache.s0` …
//!    `lock.wait.batch.cache.s7`, `lock.wait.lang.interner.s0` …
//!    `lock.wait.lang.interner.s15`, ...), restricted to this run.
//! 3. **Critical path** — the longest weighted chain through the
//!    definition dependency graph using *measured* per-job durations.
//!    Comparing it to wall time separates "the graph is inherently
//!    serial" (`critical/wall ≈ 1`) from "the scheduler is serializing
//!    us" (`critical/wall ≪ 1` while `wall ≈ serial`).
//!
//! The report renders three ways: a text table for humans, JSON for
//! the bench harness and CI schema checks, and a Chrome trace of the
//! run's recorder, with one named track per worker, for
//! `chrome://tracing` / Perfetto.

use std::path::Path;

use rowpoly_obs::contention::LockWaitStats;
use rowpoly_obs::json::Json;
use rowpoly_obs::mem::MemDelta;
use rowpoly_obs::timeline::{TimelineSnapshot, WorkerUtil};

/// One scheduled job in the profile, flattened from the worker
/// timelines and keyed by scheduler job id.
#[derive(Clone, Debug)]
pub struct JobProfile {
    /// Scheduler job id (index into the dependency graph).
    pub job: usize,
    /// Display label (`file.rp:def+def`).
    pub label: String,
    /// Worker that executed it.
    pub worker: u32,
    /// Start offset from the profile epoch, nanoseconds.
    pub start_ns: u64,
    /// Measured duration, nanoseconds.
    pub dur_ns: u64,
    /// Whether it was replayed from the cache.
    pub cached: bool,
    /// Inference-phase breakdown measured inside the job.
    pub phases: Vec<(&'static str, u64)>,
}

/// The longest weighted chain through the job dependency graph.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Sum of measured durations along the heaviest chain.
    pub path_ns: u64,
    /// Sum of all measured job durations (perfect-serial work).
    pub serial_ns: u64,
    /// Wall time of the profiled run.
    pub wall_ns: u64,
    /// Labels along the critical path, in execution order.
    pub chain: Vec<String>,
}

impl CriticalPath {
    /// `critical path / wall` — how much of the run the inherently
    /// serial chain explains. Near 1.0 the graph itself is the limit;
    /// far below 1.0 the scheduler (or contention) is.
    pub fn ratio(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.path_ns as f64 / self.wall_ns as f64
        }
    }

    /// `serial work / critical path` — the speedup an ideal scheduler
    /// with unlimited workers could reach on this graph.
    pub fn ideal_speedup(&self) -> f64 {
        if self.path_ns == 0 {
            1.0
        } else {
            self.serial_ns as f64 / self.path_ns as f64
        }
    }
}

/// Everything a profiled batch run learned, ready to render.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Per-worker utilization against the run's wall clock.
    pub workers: Vec<WorkerUtil>,
    /// Per-site lock waits accrued during the run.
    pub locks: Vec<LockWaitStats>,
    /// Per-job measurements, sorted by scheduler job id.
    pub jobs: Vec<JobProfile>,
    /// Longest weighted dependency chain vs wall.
    pub critical: CriticalPath,
    /// The raw snapshot; its recorder `trace` is the Chrome trace.
    pub snapshot: TimelineSnapshot,
}

impl ProfileReport {
    /// Builds the report from a finished snapshot and the dependency
    /// edges the scheduler ran (for each job, the strictly smaller job
    /// ids it waited for).
    pub fn build(snapshot: TimelineSnapshot, deps: &[Vec<usize>]) -> ProfileReport {
        let mut jobs: Vec<JobProfile> = Vec::new();
        for w in &snapshot.workers {
            for j in &w.jobs {
                jobs.push(JobProfile {
                    job: j.job,
                    label: j.label.clone(),
                    worker: w.worker(),
                    start_ns: j.start_ns,
                    dur_ns: j.dur_ns(),
                    cached: j.cached,
                    phases: j.phases.clone(),
                });
            }
        }
        jobs.sort_by_key(|j| j.job);

        let critical = critical_path(&jobs, deps, snapshot.wall_ns);
        ProfileReport {
            workers: snapshot.utilization(),
            locks: snapshot.trace.locks.clone(),
            jobs,
            critical,
            snapshot,
        }
    }

    /// The human-readable profile: utilization table, lock table,
    /// critical path summary, and the heaviest jobs.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let wall_ms = self.critical.wall_ns as f64 / 1e6;
        out.push_str(&format!(
            "profile: {} workers, {} jobs, wall {wall_ms:.1} ms\n",
            self.workers.len(),
            self.jobs.len(),
        ));

        out.push_str("\nworker utilization\n");
        for u in &self.workers {
            out.push_str(&format!(
                "  worker {}: {:5.1}% busy, {:5.1}% idle, {:5.1}% lock-wait, {:5.1}% steal-scan, {:5.1}% other  ({} jobs, {} steals)\n",
                u.worker,
                u.busy_pct(),
                u.idle_pct(),
                u.lock_wait_pct(),
                u.search_pct(),
                u.other_pct(),
                u.jobs,
                u.steals,
            ));
        }

        out.push_str("\nlock waits\n");
        if self.locks.is_empty() {
            out.push_str("  (no instrumented lock was acquired)\n");
        }
        for l in &self.locks {
            out.push_str(&format!(
                "  lock.wait.{}: {} acquisitions, {} contended, total {:.3} ms, max {:.3} ms",
                l.name,
                l.acquisitions,
                l.contended,
                l.wait_ns as f64 / 1e6,
                l.max_wait_ns as f64 / 1e6,
            ));
            if let (Some(p50), Some(p90), Some(p99)) =
                (l.percentile(50.0), l.percentile(90.0), l.percentile(99.0))
            {
                out.push_str(&format!(", p50 {p50} ns, p90 {p90} ns, p99 {p99} ns"));
            }
            out.push('\n');
        }

        let c = &self.critical;
        out.push_str(&format!(
            "\ncritical path: {:.1} ms of {:.1} ms wall (ratio {:.2}); serial work {:.1} ms, ideal speedup {:.2}x\n",
            c.path_ns as f64 / 1e6,
            c.wall_ns as f64 / 1e6,
            c.ratio(),
            c.serial_ns as f64 / 1e6,
            c.ideal_speedup(),
        ));
        if !c.chain.is_empty() {
            let shown = c.chain.len().min(8);
            out.push_str(&format!(
                "  chain ({} jobs): {}{}\n",
                c.chain.len(),
                c.chain[..shown].join(" -> "),
                if c.chain.len() > shown { " -> ..." } else { "" },
            ));
        }

        let mut heaviest: Vec<&JobProfile> = self.jobs.iter().collect();
        heaviest.sort_by_key(|j| std::cmp::Reverse(j.dur_ns));
        if !heaviest.is_empty() {
            out.push_str("\nheaviest jobs\n");
            for j in heaviest.iter().take(5) {
                out.push_str(&format!(
                    "  {:8.3} ms  worker {}  {}{}\n",
                    j.dur_ns as f64 / 1e6,
                    j.worker,
                    j.label,
                    if j.cached { "  (cached)" } else { "" },
                ));
            }
        }

        let merged = self.snapshot.mem_merged();
        if merged != MemDelta::default() || !self.snapshot.wave_mem.is_empty() {
            const MIB: f64 = 1024.0 * 1024.0;
            out.push_str("\nmemory (counting allocator)\n");
            out.push_str(&format!(
                "  all workers: {:.2} MiB allocated in {} allocations, net {:+.2} MiB\n",
                merged.alloc_bytes as f64 / MIB,
                merged.allocs,
                merged.net_bytes() as f64 / MIB,
            ));
            for w in &self.snapshot.workers {
                if w.mem == MemDelta::default() {
                    continue;
                }
                out.push_str(&format!(
                    "  worker {}: {:.2} MiB allocated in {} allocations, net {:+.2} MiB\n",
                    w.worker(),
                    w.mem.alloc_bytes as f64 / MIB,
                    w.mem.allocs,
                    w.mem.net_bytes() as f64 / MIB,
                ));
            }
            for wm in &self.snapshot.wave_mem {
                out.push_str(&format!(
                    "  wave {} (t={:.1} ms): live {:.2} MiB, peak {:.2} MiB\n",
                    wm.wave,
                    wm.t_ns as f64 / 1e6,
                    wm.live_bytes as f64 / MIB,
                    wm.peak_bytes as f64 / MIB,
                ));
            }
        }
        out
    }

    /// The machine-readable profile (schema checked by
    /// `scripts/check_profile.py`).
    pub fn to_json(&self) -> Json {
        let workers = self
            .workers
            .iter()
            .map(|u| {
                Json::obj(vec![
                    ("worker", Json::Int(u.worker as i64)),
                    ("jobs", Json::Int(u.jobs as i64)),
                    ("steals", Json::Int(u.steals as i64)),
                    ("busy_pct", Json::Float(u.busy_pct())),
                    ("idle_pct", Json::Float(u.idle_pct())),
                    ("lock_wait_pct", Json::Float(u.lock_wait_pct())),
                    ("steal_scan_pct", Json::Float(u.search_pct())),
                    ("other_pct", Json::Float(u.other_pct())),
                ])
            })
            .collect();
        // Delegates to `LockWaitStats::to_json` so the JSON percentiles
        // come from the same `percentile_from_buckets` estimator the
        // text report prints (parity test below).
        let locks = self
            .locks
            .iter()
            .map(|l| (format!("lock.wait.{}", l.name), l.to_json()))
            .collect::<Vec<_>>();
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Json::obj(vec![
                    ("job", Json::Int(j.job as i64)),
                    ("label", Json::Str(j.label.clone())),
                    ("worker", Json::Int(j.worker as i64)),
                    ("start_ns", Json::Int(j.start_ns as i64)),
                    ("dur_ns", Json::Int(j.dur_ns as i64)),
                    ("cached", Json::Bool(j.cached)),
                    (
                        "phases",
                        Json::Obj(
                            j.phases
                                .iter()
                                .map(|(n, ns)| (n.to_string(), Json::Int(*ns as i64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let merged = self.snapshot.mem_merged();
        let mem = Json::obj(vec![
            ("merged", merged.to_json()),
            (
                "workers",
                Json::Arr(
                    self.snapshot
                        .workers
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("worker", Json::Int(w.worker() as i64)),
                                ("delta", w.mem.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "waves",
                Json::Arr(
                    self.snapshot
                        .wave_mem
                        .iter()
                        .map(|wm| {
                            Json::obj(vec![
                                ("wave", Json::Int(wm.wave as i64)),
                                ("t_ns", Json::Int(wm.t_ns as i64)),
                                ("live_bytes", Json::Int(wm.live_bytes)),
                                ("peak_bytes", Json::Int(wm.peak_bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let c = &self.critical;
        Json::obj(vec![
            ("wall_ns", Json::Int(c.wall_ns as i64)),
            ("workers", Json::Arr(workers)),
            ("locks", Json::Obj(locks)),
            ("jobs", Json::Arr(jobs)),
            ("mem", mem),
            (
                "critical_path",
                Json::obj(vec![
                    ("path_ns", Json::Int(c.path_ns as i64)),
                    ("serial_ns", Json::Int(c.serial_ns as i64)),
                    ("wall_ns", Json::Int(c.wall_ns as i64)),
                    ("ratio", Json::Float(c.ratio())),
                    ("ideal_speedup", Json::Float(c.ideal_speedup())),
                    (
                        "chain",
                        Json::Arr(c.chain.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                ]),
            ),
        ])
    }

    /// Writes the per-worker Chrome trace next to the JSON profile.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        rowpoly_obs::chrome::write_chrome_trace(&self.snapshot.trace, path)
    }
}

/// Longest weighted chain through the DAG. `deps[j]` only names ids
/// `< j` (the graph layer guarantees it), so one forward pass suffices.
fn critical_path(jobs: &[JobProfile], deps: &[Vec<usize>], wall_ns: u64) -> CriticalPath {
    let n = deps.len();
    // Duration per job id; jobs the profiler never saw weigh 0.
    let mut dur = vec![0u64; n];
    let mut label: Vec<&str> = vec![""; n];
    for j in jobs {
        if j.job < n {
            dur[j.job] = j.dur_ns;
            label[j.job] = &j.label;
        }
    }
    let mut longest = vec![0u64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    for j in 0..n {
        let (best_ns, best_pred) = deps[j]
            .iter()
            .filter(|&&d| d < j)
            .map(|&d| (longest[d], Some(d)))
            .max()
            .unwrap_or((0, None));
        longest[j] = dur[j] + best_ns;
        pred[j] = best_pred;
    }
    let end = (0..n).max_by_key(|&j| longest[j]);
    let mut chain = Vec::new();
    let mut cursor = end;
    while let Some(j) = cursor {
        chain.push(if label[j].is_empty() {
            format!("job {j}")
        } else {
            label[j].to_string()
        });
        cursor = pred[j];
    }
    chain.reverse();
    CriticalPath {
        path_ns: end.map_or(0, |j| longest[j]),
        serial_ns: dur.iter().sum(),
        wall_ns,
        chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_obs::timeline::{JobRecord, Profiler};

    fn snapshot_with_jobs(specs: &[(usize, u64, &str)]) -> TimelineSnapshot {
        let profiler = Profiler::new();
        let mut tl = profiler.worker(0);
        let mut t = 0u64;
        for &(job, dur, label) in specs {
            tl.push_job(JobRecord {
                job,
                label: label.to_string(),
                start_ns: t,
                end_ns: t + dur,
                cached: false,
                phases: vec![("unify", dur / 2)],
            });
            t += dur;
        }
        profiler.submit(tl);
        profiler.finish()
    }

    #[test]
    fn critical_path_follows_the_heaviest_chain() {
        // 0 -> 2, 1 -> 2; job 1 is heavier, so the chain is 1 -> 2.
        let deps = vec![vec![], vec![], vec![0, 1]];
        let snap = snapshot_with_jobs(&[(0, 100, "a"), (1, 900, "b"), (2, 50, "c")]);
        let report = ProfileReport::build(snap, &deps);
        assert_eq!(report.critical.path_ns, 950);
        assert_eq!(report.critical.serial_ns, 1050);
        assert_eq!(report.critical.chain, vec!["b", "c"]);
        assert!((report.critical.ideal_speedup() - 1050.0 / 950.0).abs() < 1e-9);
    }

    #[test]
    fn independent_jobs_critical_path_is_the_heaviest_job() {
        let deps = vec![vec![], vec![], vec![]];
        let snap = snapshot_with_jobs(&[(0, 10, "a"), (1, 30, "b"), (2, 20, "c")]);
        let report = ProfileReport::build(snap, &deps);
        assert_eq!(report.critical.path_ns, 30);
        assert_eq!(report.critical.chain, vec!["b"]);
        assert_eq!(report.critical.serial_ns, 60);
    }

    /// The text report and the JSON report must quote the *same*
    /// percentile estimates for lock waits: both go through
    /// `LockWaitStats::percentile` (the shared bucket estimator), so a
    /// golden site with a known wait distribution must round-trip
    /// identically through both renderings.
    #[test]
    fn lock_percentiles_agree_between_text_and_json() {
        let mut report = ProfileReport::build(snapshot_with_jobs(&[(0, 10, "a")]), &[vec![]]);
        report.locks = vec![LockWaitStats {
            name: "golden",
            acquisitions: 10,
            contended: 4,
            wait_ns: 1000,
            max_wait_ns: 700,
            // One wait in [2,4) ns, two in [256,512) ns, one at max.
            buckets: {
                let mut b = vec![0u64; 11];
                b[2] = 1;
                b[9] = 2;
                b[10] = 1;
                b
            },
        }];
        let l = &report.locks[0];
        let (p50, p90, p99) = (
            l.percentile(50.0).unwrap(),
            l.percentile(90.0).unwrap(),
            l.percentile(99.0).unwrap(),
        );

        let text = report.render_text();
        assert!(
            text.contains(&format!("p50 {p50} ns, p90 {p90} ns, p99 {p99} ns")),
            "text report must quote the shared estimator: {text}"
        );

        let doc = rowpoly_obs::json::parse(&report.to_json().render()).expect("valid JSON");
        let lock = doc.get("locks").unwrap().get("lock.wait.golden").unwrap();
        assert_eq!(lock.get("p50_ns").and_then(Json::as_i64), Some(p50 as i64));
        assert_eq!(lock.get("p90_ns").and_then(Json::as_i64), Some(p90 as i64));
        assert_eq!(lock.get("p99_ns").and_then(Json::as_i64), Some(p99 as i64));
    }

    #[test]
    fn report_json_carries_workers_locks_and_critical_path() {
        let deps = vec![vec![], vec![0]];
        let snap = snapshot_with_jobs(&[(0, 40, "x"), (1, 60, "y")]);
        let report = ProfileReport::build(snap, &deps);
        let text = report.render_text();
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        let doc = rowpoly_obs::json::parse(&report.to_json().render()).expect("valid JSON");
        let workers = doc.get("workers").and_then(Json::as_arr).unwrap();
        assert_eq!(workers.len(), 1);
        assert!(workers[0].get("busy_pct").and_then(Json::as_f64).is_some());
        let cp = doc.get("critical_path").unwrap();
        assert_eq!(cp.get("path_ns").and_then(Json::as_i64), Some(100));
        assert!(cp.get("ratio").and_then(Json::as_f64).is_some());
    }
}
