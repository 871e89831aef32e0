//! Per-worker timelines for parallel runs.
//!
//! A profiled run is one [`Profiler`] over the calling thread's current
//! [`crate::Recorder`]. The batch pool installs that recorder on each
//! worker (track `w + 1`, named `worker w`), so:
//!
//! * each worker owns a private [`WorkerTimeline`] — busy / idle /
//!   steal-search / lock-wait accumulators plus its job records — and
//!   records its steal / cache-hit / wave markers into its own buffer
//!   of the recorder, with no locking whatsoever;
//! * at join, workers [`Profiler::submit`] their timelines; the
//!   orchestrator calls [`Profiler::finish`] to get a
//!   [`TimelineSnapshot`] with every timeline, the run's wall time and
//!   its `trace`: one span per job on its worker's track, plus the
//!   recorder's markers, named tracks, `lock.wait.*` sites (see
//!   [`crate::contention`]) and per-wave `mem.*` counter samples.
//!
//! Job records and markers share the recorder's clock, so tracks from
//! different workers line up. [`crate::chrome::write_chrome_trace`]
//! renders `trace` with one named track per worker.
//!
//! Time attribution is *exclusive* by construction: the scheduler
//! brackets each loop region with [`WorkerTimeline::mark`] and one of
//! the `charge_*` methods, which subtract the lock-wait nanoseconds
//! accrued inside the region (drained from the contention TLS tally)
//! so `busy + idle + steal_search + lock_wait + other = wall` holds
//! per worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::collector::{self, EventKind, Recorder, Snapshot, SpanEvent, LOCKS};
use crate::contention;
use crate::mem::MemDelta;

/// One scheduled job as measured on the worker that ran it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Scheduler job id (index into the run's dependency graph).
    pub job: usize,
    /// Display label (e.g. `file.rp:def+def`).
    pub label: String,
    /// Start offset from the profiler epoch.
    pub start_ns: u64,
    /// End offset from the profiler epoch.
    pub end_ns: u64,
    /// Whether the job was replayed from a cache rather than computed.
    pub cached: bool,
    /// Named phase durations measured inside the job (nanoseconds).
    pub phases: Vec<(&'static str, u64)>,
}

impl JobRecord {
    /// Job duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A worker's private recording surface. All methods are no-ops on a
/// [`WorkerTimeline::disabled`] instance, so schedulers can thread one
/// through unconditionally.
#[derive(Clone, Debug)]
pub struct WorkerTimeline {
    enabled: bool,
    worker: u32,
    epoch: Instant,
    /// Jobs completed on this worker.
    pub jobs: Vec<JobRecord>,
    /// Nanoseconds spent executing jobs (lock waits subtracted).
    pub busy_ns: u64,
    /// Nanoseconds asleep waiting for work.
    pub idle_ns: u64,
    /// Nanoseconds scanning own and peer queues (lock waits subtracted).
    pub search_ns: u64,
    /// Nanoseconds blocked on instrumented locks.
    pub lock_wait_ns: u64,
    /// Jobs taken from another worker's queue.
    pub steals: u64,
    /// This worker thread's allocator delta over the run, captured by
    /// the scheduler just before [`Profiler::submit`] (all zeros when
    /// memory accounting is off).
    pub mem: MemDelta,
}

impl WorkerTimeline {
    /// An inert timeline: every call is a cheap no-op.
    pub fn disabled() -> WorkerTimeline {
        WorkerTimeline::new(0, Instant::now(), false)
    }

    fn new(worker: u32, epoch: Instant, enabled: bool) -> WorkerTimeline {
        WorkerTimeline {
            enabled,
            worker,
            epoch,
            jobs: Vec::new(),
            busy_ns: 0,
            idle_ns: 0,
            search_ns: 0,
            lock_wait_ns: 0,
            steals: 0,
            mem: MemDelta::default(),
        }
    }

    /// Whether this timeline records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// This worker's id (stable across the run).
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Nanoseconds since the profiler epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an instant marker.
    pub fn instant(&mut self, name: &str) {
        self.instant_with(|| name.to_string());
    }

    /// Records an instant marker named by `f` (only rendered when
    /// enabled).
    pub fn instant_with(&mut self, f: impl FnOnce() -> String) {
        if self.enabled {
            collector::record_instant(f());
        }
    }

    /// Records a completed job.
    pub fn push_job(&mut self, record: JobRecord) {
        if !self.enabled {
            return;
        }
        self.jobs.push(record);
    }

    /// Notes a successful steal (instant marker + counter).
    pub fn note_steal(&mut self) {
        if !self.enabled {
            return;
        }
        self.steals += 1;
        self.instant("steal");
    }

    /// Starts timing a region; pass the result to one `charge_*`
    /// method. `None` when disabled, so the charge is free too.
    #[inline]
    pub fn mark(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    fn charge(&mut self, mark: Option<Instant>) -> (u64, u64) {
        let Some(t0) = mark else { return (0, 0) };
        let total = t0.elapsed().as_nanos() as u64;
        let wait = contention::take_thread_wait_ns();
        self.lock_wait_ns += wait.min(total);
        (total.saturating_sub(wait), wait)
    }

    /// Charges the region since `mark` to busy time (lock waits inside
    /// it go to `lock_wait_ns` instead).
    pub fn charge_busy(&mut self, mark: Option<Instant>) {
        let (ns, _) = self.charge(mark);
        self.busy_ns += ns;
    }

    /// Charges the region since `mark` to idle (sleeping) time.
    pub fn charge_idle(&mut self, mark: Option<Instant>) {
        let (ns, _) = self.charge(mark);
        self.idle_ns += ns;
    }

    /// Charges the region since `mark` to steal-search time.
    pub fn charge_search(&mut self, mark: Option<Instant>) {
        let (ns, _) = self.charge(mark);
        self.search_ns += ns;
    }
}

/// Utilization summary for one worker, derived from its accumulators
/// against the run's wall clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerUtil {
    /// Worker id.
    pub worker: u32,
    /// Jobs the worker completed.
    pub jobs: usize,
    /// Jobs it stole from peers.
    pub steals: u64,
    /// Nanoseconds executing jobs.
    pub busy_ns: u64,
    /// Nanoseconds asleep.
    pub idle_ns: u64,
    /// Nanoseconds scanning queues.
    pub search_ns: u64,
    /// Nanoseconds blocked on instrumented locks.
    pub lock_wait_ns: u64,
    /// Run wall nanoseconds (shared denominator).
    pub wall_ns: u64,
}

impl WorkerUtil {
    fn pct(&self, ns: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.wall_ns as f64
        }
    }

    /// Percent of wall spent executing jobs.
    pub fn busy_pct(&self) -> f64 {
        self.pct(self.busy_ns)
    }

    /// Percent of wall spent asleep.
    pub fn idle_pct(&self) -> f64 {
        self.pct(self.idle_ns)
    }

    /// Percent of wall spent scanning for work.
    pub fn search_pct(&self) -> f64 {
        self.pct(self.search_ns)
    }

    /// Percent of wall spent blocked on instrumented locks.
    pub fn lock_wait_pct(&self) -> f64 {
        self.pct(self.lock_wait_ns)
    }

    /// Percent of wall not covered by the measured buckets (startup,
    /// result publishing, bookkeeping).
    pub fn other_pct(&self) -> f64 {
        (100.0 - self.busy_pct() - self.idle_pct() - self.search_pct() - self.lock_wait_pct())
            .max(0.0)
    }
}

/// A per-wave memory watermark sample, taken by the first worker to
/// start a job of each wave (no barrier — see
/// [`Profiler::first_of_wave`]). Values are the process-wide counting
/// allocator's `live`/`peak` at that instant, so the sequence shows
/// how the working set moves as the schedule advances wave by wave.
#[derive(Clone, Copy, Debug)]
pub struct WaveMem {
    /// Wave index in the scheduled dependency graph.
    pub wave: usize,
    /// Nanoseconds since the profiler epoch.
    pub t_ns: u64,
    /// Live (allocated − freed) bytes at the sample.
    pub live_bytes: i64,
    /// Peak live bytes so far (monotone across samples).
    pub peak_bytes: i64,
}

/// Everything a profiled run captured: one timeline per worker, the
/// wall time, and the run's recorder snapshot.
#[derive(Clone, Debug)]
pub struct TimelineSnapshot {
    /// Wall nanoseconds between [`Profiler::new`] and
    /// [`Profiler::finish`].
    pub wall_ns: u64,
    /// Per-worker timelines, sorted by worker id.
    pub workers: Vec<WorkerTimeline>,
    /// Per-wave memory watermarks, sorted by wave (empty when memory
    /// accounting was off for the run).
    pub wave_mem: Vec<WaveMem>,
    /// The run's trace: one span per job on track `worker + 1`, and
    /// the recorder's markers, named tracks, `lock.wait.*` sites and
    /// `mem.*` counter samples.
    pub trace: Snapshot,
}

impl TimelineSnapshot {
    /// Per-worker utilization against the run's wall clock.
    pub fn utilization(&self) -> Vec<WorkerUtil> {
        self.workers
            .iter()
            .map(|w| WorkerUtil {
                worker: w.worker,
                jobs: w.jobs.len(),
                steals: w.steals,
                busy_ns: w.busy_ns,
                idle_ns: w.idle_ns,
                search_ns: w.search_ns,
                lock_wait_ns: w.lock_wait_ns,
                wall_ns: self.wall_ns,
            })
            .collect()
    }

    /// The workers' allocator deltas merged (how the run's totals are
    /// reconstructed from per-thread slots at join).
    pub fn mem_merged(&self) -> MemDelta {
        let mut total = MemDelta::default();
        for w in &self.workers {
            total.merge(&w.mem);
        }
        total
    }
}

/// Anchors one profiled run on the calling thread's current recorder:
/// turns its lock profiling on until the profiler drops, and fixes the
/// run's start.
pub struct Profiler {
    recorder: Recorder,
    locks_were_on: bool,
    start: Instant,
    timelines: Mutex<Vec<WorkerTimeline>>,
    /// Highest wave index any worker has started (see
    /// [`Profiler::first_of_wave`]).
    wave_seen: AtomicU64,
    /// Per-wave memory samples (see [`Profiler::note_wave_mem`]).
    wave_mem: Mutex<Vec<WaveMem>>,
}

impl Profiler {
    /// Starts a profiled run on the calling thread's recorder.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Profiler {
        let recorder = Recorder::current();
        let locks_were_on = recorder.set(LOCKS, true);
        Profiler {
            recorder,
            locks_were_on,
            start: Instant::now(),
            timelines: Mutex::new(Vec::new()),
            wave_seen: AtomicU64::new(0),
            wave_mem: Mutex::new(Vec::new()),
        }
    }

    /// A live timeline for worker `worker`, on the recorder's clock.
    pub fn worker(&self, worker: u32) -> WorkerTimeline {
        WorkerTimeline::new(worker, self.recorder.epoch(), true)
    }

    /// Hands a finished worker timeline back to the profiler.
    pub fn submit(&self, timeline: WorkerTimeline) {
        self.timelines.lock().unwrap().push(timeline);
    }

    /// True exactly once per wave index: the calling worker is the
    /// first to start a job of wave `wave` (or any later wave). Used
    /// to place wave-boundary instant markers without a barrier.
    pub fn first_of_wave(&self, wave: usize) -> bool {
        let w = wave as u64 + 1;
        self.wave_seen.fetch_max(w, Ordering::Relaxed) < w
    }

    /// Records a per-wave memory watermark sample, also as
    /// `mem.live_bytes` / `mem.peak_bytes` counter samples on the
    /// calling worker's recorder. Schedulers call this (with the
    /// allocator's current `live`/`peak`) from the worker that won
    /// [`Profiler::first_of_wave`], so each wave gets exactly one
    /// sample.
    pub fn note_wave_mem(&self, sample: WaveMem) {
        collector::record_sample("mem.live_bytes", sample.t_ns, sample.live_bytes);
        collector::record_sample("mem.peak_bytes", sample.t_ns, sample.peak_bytes);
        self.wave_mem.lock().unwrap().push(sample);
    }

    /// Ends the run: collects the submitted timelines (sorted by
    /// worker) and builds the trace from their job records and the
    /// recorder's markers. Call it on the thread that created the
    /// profiler, after the workers have left the recorder.
    pub fn finish(&self) -> TimelineSnapshot {
        let mut workers: Vec<WorkerTimeline> = std::mem::take(&mut *self.timelines.lock().unwrap());
        workers.sort_by_key(|t| t.worker);
        let mut wave_mem = std::mem::take(&mut *self.wave_mem.lock().unwrap());
        wave_mem.sort_by_key(|s| s.wave);
        let mut trace = self.recorder.markers();
        for (w, j) in workers
            .iter()
            .flat_map(|w| w.jobs.iter().map(move |j| (w, j)))
        {
            for (ts_ns, kind) in [(j.start_ns, EventKind::Begin), (j.end_ns, EventKind::End)] {
                let (name, tid) = (j.label.clone(), w.worker + 1);
                let span = SpanEvent {
                    name,
                    tid,
                    ts_ns,
                    kind,
                };
                trace.events.push(span);
            }
        }
        // Stable, so each job's begin stays before its end.
        trace.events.sort_by_key(|e| e.ts_ns);
        TimelineSnapshot {
            wall_ns: self.start.elapsed().as_nanos() as u64,
            workers,
            wave_mem,
            trace,
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.recorder.set(LOCKS, self.locks_were_on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timeline_is_inert() {
        let mut tl = WorkerTimeline::disabled();
        tl.instant_with(|| panic!("name must not be rendered when disabled"));
        tl.note_steal();
        let mark = tl.mark();
        assert!(mark.is_none());
        tl.charge_busy(mark);
        assert!(crate::snapshot().events.is_empty());
        assert_eq!(tl.busy_ns, 0);
        assert_eq!(tl.steals, 0);
        assert_eq!(tl.now_ns(), 0);
    }

    #[test]
    fn spans_balance_and_time_accumulates() {
        let profiler = Profiler::new();
        let mut tl = profiler.worker(3);
        let start_ns = tl.now_ns();
        tl.instant("cache-hit");
        tl.push_job(JobRecord {
            job: 0,
            label: "job a".into(),
            start_ns,
            end_ns: tl.now_ns(),
            cached: true,
            phases: Vec::new(),
        });
        let mark = tl.mark();
        std::thread::sleep(std::time::Duration::from_millis(2));
        tl.charge_busy(mark);
        assert!(tl.busy_ns >= 1_000_000, "busy time recorded");
        profiler.submit(tl);
        let snap = profiler.finish();
        let events = &snap.trace.events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].name, "job a", "End carries the span name");
        assert!(events.iter().all(|e| e.tid == 4), "worker 3 is track 4");
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert_eq!(snap.trace.instants.len(), 1);
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.workers[0].worker(), 3);
        assert!(snap.wall_ns >= snap.workers[0].busy_ns);
    }

    #[test]
    fn utilization_buckets_fit_in_wall() {
        let profiler = Profiler::new();
        let mut tl = profiler.worker(0);
        let m = tl.mark();
        std::thread::sleep(std::time::Duration::from_millis(1));
        tl.charge_idle(m);
        let m = tl.mark();
        tl.charge_search(m);
        profiler.submit(tl);
        let snap = profiler.finish();
        let util = snap.utilization();
        assert_eq!(util.len(), 1);
        let u = &util[0];
        let sum = u.busy_pct() + u.idle_pct() + u.search_pct() + u.lock_wait_pct();
        assert!(sum <= 100.5, "buckets exceed wall: {sum}");
        assert!(u.idle_pct() > 0.0);
        assert!(u.other_pct() >= 0.0);
    }

    #[test]
    fn wave_markers_fire_once_per_wave() {
        let profiler = Profiler::new();
        assert!(profiler.first_of_wave(0));
        assert!(!profiler.first_of_wave(0));
        assert!(profiler.first_of_wave(2), "skipping ahead still fires");
        assert!(!profiler.first_of_wave(1), "earlier waves never re-fire");
    }

    #[test]
    fn job_records_become_spans_on_worker_tracks() {
        let profiler = Profiler::new();
        let mut a = profiler.worker(1);
        a.push_job(JobRecord {
            job: 2,
            label: "b".into(),
            start_ns: 10,
            end_ns: 30,
            cached: false,
            phases: vec![("unify", 5)],
        });
        let mut b = profiler.worker(0);
        b.push_job(JobRecord {
            job: 0,
            label: "a".into(),
            start_ns: 0,
            end_ns: 7,
            cached: true,
            phases: Vec::new(),
        });
        profiler.submit(a);
        profiler.submit(b);
        // One span per job on track `worker + 1`, in time order.
        let spans = profiler.finish().trace.events;
        let at = |e: &SpanEvent| (e.name.clone(), e.tid, e.ts_ns);
        let expect = [("a", 1, 0), ("a", 1, 7), ("b", 2, 10), ("b", 2, 30)];
        let expect = expect.map(|(n, tid, ts)| (n.to_string(), tid, ts));
        assert_eq!(spans.iter().map(at).collect::<Vec<_>>(), expect);
    }
}
