//! The recorder: one scoped sink for everything the workspace measures.
//!
//! Spans, counters, lock waits ([`crate::contention`]), memory-site
//! bytes ([`crate::mem`]) and worker tracks ([`crate::timeline`]) all
//! record into the calling thread's current [`Recorder`]. Nothing is
//! process-global: a thread that installed no recorder records nothing,
//! and two threads with different recorders never see each other's
//! numbers. So concurrent tests, batch workers and sibling runs in one
//! process stay apart.
//!
//! Three switches decide what a recorder keeps: spans and metrics
//! ([`enable`]/[`disable`], `ROWPOLY_TRACE`), allocator accounting
//! ([`crate::mem::accounting_session`], `ROWPOLY_MEM`) and lock
//! profiling (a [`crate::Profiler`]). The current thread's switches are
//! cached in a const-initialised thread-local byte with no destructor.
//! The counting allocator reads it too, so a disabled instrumentation
//! point costs one thread-local load.
//!
//! Each thread buffers what it records privately and hands the buffer
//! to its recorder when it leaves it ([`Entered`]'s drop), when it
//! takes a [`snapshot`], or every few thousand span edges. So recording
//! takes a lock only at those points. A thread that first
//! switches something on gets a recorder of its own (track 0). Batch
//! pools install their caller's recorder on every worker with
//! [`Recorder::enter_worker`], so the workers' spans land on tracks
//! `w + 1` of the same recorder and the run inherits the caller's
//! switches. [`Recorder::child`] starts a fresh recorder for one run;
//! [`Recorder::absorb`] folds it back into its parent afterwards.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::contention::LockWaitStats;
use crate::mem::MemSiteStats;
use crate::metrics::MetricsRegistry;

/// Environment variable naming the Chrome trace output path. When set,
/// sessions enable recording on their thread and write a trace on
/// completion.
pub const TRACE_ENV: &str = "ROWPOLY_TRACE";

/// Switch: spans, counters, maxima and histograms.
pub(crate) const SPANS: u8 = 1;
/// Switch: counting-allocator accounting and memory sites.
pub(crate) const MEM: u8 = 2;
/// Switch: instrumented-lock wait accounting.
pub(crate) const LOCKS: u8 = 4;

/// A thread hands its buffered span edges to its recorder once it holds
/// this many, so no thread keeps a second copy of a long trace.
const FLUSH_EVENTS: usize = 4096;

/// Whether a [`SpanEvent`] opens or closes a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Begin,
    End,
}

/// One recorded span edge. Timestamps are nanoseconds since the
/// recorder's epoch and are non-decreasing in snapshot order.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    pub name: String,
    /// Track: 0 for the thread that owns the recorder, `w + 1` for
    /// batch worker `w`.
    pub tid: u32,
    pub ts_ns: u64,
    pub kind: EventKind,
}

/// A point-in-time marker on one track (steal, cache hit, wave
/// boundary).
#[derive(Clone, Debug)]
pub struct InstantEvent {
    pub name: String,
    pub tid: u32,
    pub ts_ns: u64,
}

/// One value of a counter track (`mem.live_bytes` at a wave boundary).
#[derive(Clone, Debug)]
pub struct CounterSample {
    pub name: &'static str,
    pub ts_ns: u64,
    pub value: i64,
}

/// Everything a recorder holds. Snapshots are sorted: events, instants
/// and samples by timestamp, lock and memory sites by name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub events: Vec<SpanEvent>,
    pub metrics: MetricsRegistry,
    pub instants: Vec<InstantEvent>,
    pub samples: Vec<CounterSample>,
    /// Named tracks: `(w + 1, "worker w")` for every batch worker.
    pub threads: Vec<(u32, String)>,
    /// Instrumented-lock waits (`lock.wait.<site>`).
    pub locks: Vec<LockWaitStats>,
    /// Memory attribution sites (`mem.site.<name>`).
    pub sites: Vec<MemSiteStats>,
}

impl Snapshot {
    /// Folds `other` in, shifting its timestamps by `shift_ns` and
    /// keeping only the kinds of data `keep` switches on (timeline
    /// tracks travel with spans).
    fn merge(&mut self, mut other: Snapshot, shift_ns: u64, keep: u8) {
        if keep & SPANS != 0 {
            other.events.iter_mut().for_each(|e| e.ts_ns += shift_ns);
            other.instants.iter_mut().for_each(|e| e.ts_ns += shift_ns);
            other.samples.iter_mut().for_each(|s| s.ts_ns += shift_ns);
            self.events.append(&mut other.events);
            self.instants.append(&mut other.instants);
            self.samples.append(&mut other.samples);
            self.threads.append(&mut other.threads);
            self.metrics.merge(&other.metrics);
        }
        if keep & LOCKS != 0 {
            for l in &other.locks {
                lock_site(&mut self.locks, l.name).merge(l);
            }
        }
        if keep & MEM != 0 {
            for s in &other.sites {
                mem_site(&mut self.sites, s.name).merge(s);
            }
        }
    }

    /// Sorts in place. Stable, so each track keeps its order; and
    /// skipped when already sorted, which a recorder's data usually is
    /// (only workers' handed-over buffers interleave).
    fn sort(&mut self) {
        fn by<T, K: Ord>(v: &mut [T], key: impl Fn(&T) -> K) {
            if !v.is_sorted_by_key(&key) {
                v.sort_by_key(key);
            }
        }
        by(&mut self.events, |e| e.ts_ns);
        by(&mut self.instants, |e| e.ts_ns);
        by(&mut self.samples, |s| s.ts_ns);
        by(&mut self.threads, |t| t.0);
        // Runs folded into one recorder name their workers alike.
        self.threads.dedup_by_key(|t| t.0);
        by(&mut self.locks, |l| l.name);
        by(&mut self.sites, |s| s.name);
    }
}

/// The entry of `v` that `is` picks, created by `new` on first use.
fn entry<T>(v: &mut Vec<T>, is: impl Fn(&T) -> bool, new: impl FnOnce() -> T) -> &mut T {
    let i = v.iter().position(is).unwrap_or_else(|| {
        v.push(new());
        v.len() - 1
    });
    &mut v[i]
}

/// The entry for lock site `name`.
pub(crate) fn lock_site<'a>(
    v: &'a mut Vec<LockWaitStats>,
    name: &'static str,
) -> &'a mut LockWaitStats {
    entry(v, |l| l.name == name, || LockWaitStats::new(name))
}

/// The entry for memory site `name`.
pub(crate) fn mem_site<'a>(
    v: &'a mut Vec<MemSiteStats>,
    name: &'static str,
) -> &'a mut MemSiteStats {
    let new = || MemSiteStats {
        name,
        ..MemSiteStats::default()
    };
    entry(v, |s| s.name == name, new)
}

struct Shared {
    epoch: Instant,
    switches: AtomicU8,
    data: Mutex<Snapshot>,
}

/// A scoped sink for spans, metrics, lock waits, memory sites and
/// worker tracks. Cheap to clone (a shared handle). See the module
/// docs.
#[derive(Clone)]
pub struct Recorder(Arc<Shared>);

impl Recorder {
    /// A fresh recorder with every switch off.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Recorder {
        Recorder::with_switches(0)
    }

    fn with_switches(switches: u8) -> Recorder {
        Recorder(Arc::new(Shared {
            epoch: Instant::now(),
            switches: AtomicU8::new(switches),
            data: Mutex::new(Snapshot::default()),
        }))
    }

    /// The calling thread's current recorder. A thread that has none
    /// gets one of its own, installed for the rest of its life.
    pub fn current() -> Recorder {
        with_local(|l| l.track().rec.clone()).unwrap_or_else(Recorder::new)
    }

    /// A fresh recorder for one run, with the calling thread's current
    /// switches. Fold it back with [`Recorder::absorb`].
    pub fn child() -> Recorder {
        Recorder::with_switches(Recorder::current().switches())
    }

    /// The instant every timestamp of this recorder counts from.
    pub(crate) fn epoch(&self) -> Instant {
        self.0.epoch
    }

    fn switches(&self) -> u8 {
        self.0.switches.load(Ordering::Relaxed)
    }

    /// Turns `switch` on or off and returns its previous state. The
    /// calling thread sees the change at once; other threads see it
    /// when they next install this recorder.
    pub(crate) fn set(&self, switch: u8, on: bool) -> bool {
        let before = if on {
            self.0.switches.fetch_or(switch, Ordering::Relaxed)
        } else {
            self.0.switches.fetch_and(!switch, Ordering::Relaxed)
        };
        if with_local(|l| l.is(self)) == Some(true) {
            GATE.with(|g| g.set(self.switches()));
        }
        before & switch != 0
    }

    /// Installs this recorder on the calling thread (track 0) until the
    /// guard drops.
    pub fn enter(&self) -> Entered {
        self.install(0, None)
    }

    /// Installs this recorder on a batch worker thread: its records go
    /// to track `worker + 1`, named `worker <worker>`.
    pub fn enter_worker(&self, worker: u32) -> Entered {
        self.install(worker + 1, Some(format!("worker {worker}")))
    }

    fn install(&self, tid: u32, name: Option<String>) -> Entered {
        let track = Track {
            rec: self.clone(),
            tid,
            open: Vec::new(),
        };
        let prev = with_local(|l| {
            l.flush();
            l.buf.threads.extend(name.map(|name| (tid, name)));
            l.track.replace(track)
        });
        GATE.with(|g| g.set(self.switches()));
        Entered {
            prev,
            _thread: PhantomData,
        }
    }

    /// Copies out everything handed to this recorder so far — every
    /// thread hands over its records when it leaves — plus the calling
    /// thread's own (its still-open spans closed at the current
    /// instant).
    pub fn snapshot(&self) -> Snapshot {
        let open: Vec<SpanEvent> = with_local(|l| {
            if !l.is(self) {
                return Vec::new();
            }
            l.flush();
            let t = l.track();
            let ts_ns = t.now_ns();
            let close = |name: &String| t.event(name.clone(), ts_ns, EventKind::End);
            t.open.iter().rev().map(close).collect()
        })
        .unwrap_or_default();
        let mut snap = self.copy(true);
        // The still-open spans close now, after every recorded edge.
        snap.events.extend(open);
        snap
    }

    /// Like [`Recorder::snapshot`], without the span events: the
    /// markers, samples, named tracks, metrics, lock waits and memory
    /// sites (what a profile keeps of its run).
    pub(crate) fn markers(&self) -> Snapshot {
        with_local(|l| l.is(self).then(|| l.flush()));
        self.copy(false)
    }

    fn copy(&self, with_events: bool) -> Snapshot {
        let mut data = self.data();
        data.sort();
        if with_events {
            return data.clone();
        }
        let events = std::mem::take(&mut data.events);
        let snap = data.clone();
        data.events = events;
        snap
    }

    /// Moves everything handed to this recorder so far out, plus the
    /// calling thread's own records, leaving the recorder empty.
    pub fn take(&self) -> Snapshot {
        with_local(|l| l.is(self).then(|| l.flush()));
        let mut snap = std::mem::take(&mut *self.data());
        snap.sort();
        snap
    }

    /// Folds a child's snapshot in (see [`Recorder::child`]), keeping
    /// only what this recorder's switches record: spans and tracks with
    /// spans on, lock waits with lock profiling on, memory sites with
    /// accounting on.
    pub fn absorb(&self, child: &Recorder, data: Snapshot) {
        let shift = child.0.epoch.checked_duration_since(self.0.epoch);
        let shift_ns = shift.map_or(0, |d| d.as_nanos() as u64);
        self.data().merge(data, shift_ns, self.switches());
    }

    /// Clears everything recorded so far (switches are untouched).
    fn reset(&self) {
        with_local(|l| {
            if l.is(self) {
                l.buf = Snapshot::default();
                l.track().open.clear();
            }
        });
        *self.data() = Snapshot::default();
    }

    fn data(&self) -> std::sync::MutexGuard<'_, Snapshot> {
        // Only ever held to merge or copy a buffer, never across user
        // code, so a poisoned lock still guards sound data.
        self.0.data.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Guard returned by [`Recorder::enter`]: hands the thread's records to
/// the recorder and reinstalls the previous one when dropped.
#[must_use = "dropping the guard leaves the recorder"]
pub struct Entered {
    prev: Option<Option<Track>>,
    /// Installation is per thread, so the guard must not move.
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let Some(prev) = self.prev.take() else {
            return;
        };
        let switches = prev.as_ref().map_or(0, |t| t.rec.switches());
        with_local(|l| {
            l.flush();
            l.track = prev;
        });
        let _ = GATE.try_with(|g| g.set(switches));
    }
}

/// Where a thread records: its recorder, its track in it, and the
/// names of its open spans (innermost last).
struct Track {
    rec: Recorder,
    tid: u32,
    open: Vec<String>,
}

impl Track {
    fn now_ns(&self) -> u64 {
        self.rec.0.epoch.elapsed().as_nanos() as u64
    }

    fn event(&self, name: String, ts_ns: u64, kind: EventKind) -> SpanEvent {
        let tid = self.tid;
        SpanEvent {
            name,
            tid,
            ts_ns,
            kind,
        }
    }
}

/// One thread's recording state: its current track and the records not
/// yet handed to the track's recorder.
struct Local {
    track: Option<Track>,
    buf: Snapshot,
}

impl Local {
    /// The current track; a thread without one gets a recorder of its
    /// own (track 0).
    fn track(&mut self) -> &mut Track {
        self.track.get_or_insert_with(|| Track {
            rec: Recorder::new(),
            tid: 0,
            open: Vec::new(),
        })
    }

    fn is(&self, rec: &Recorder) -> bool {
        self.track
            .as_ref()
            .is_some_and(|t| Arc::ptr_eq(&t.rec.0, &rec.0))
    }

    /// Hands the buffered records to the current recorder, keeping the
    /// span buffer's capacity for the next batch.
    fn flush(&mut self) {
        if let Some(t) = &self.track {
            let mut events = std::mem::take(&mut self.buf.events);
            let mut data = t.rec.data();
            data.events.append(&mut events);
            data.merge(std::mem::take(&mut self.buf), 0, SPANS | MEM | LOCKS);
            self.buf.events = events;
        }
    }

    fn push(&mut self, event: SpanEvent) {
        self.buf.events.push(event);
        if self.buf.events.len() >= FLUSH_EVENTS {
            self.flush();
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
        let _ = GATE.try_with(|g| g.set(0));
    }
}

thread_local! {
    /// The current recorder's switches. Const-initialised and without
    /// a destructor, so the counting allocator may read it at any
    /// point of a thread's life.
    static GATE: Cell<u8> = const { Cell::new(0) };
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        track: None,
        buf: Snapshot::default(),
    });
}

/// The calling thread's switches: one thread-local load.
#[inline]
pub(crate) fn gate() -> u8 {
    GATE.with(Cell::get)
}

/// Runs `f` on the calling thread's recording state; `None` during
/// thread teardown or a re-entrant call.
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    LOCAL
        .try_with(|l| l.try_borrow_mut().ok().map(|mut l| f(&mut l)))
        .ok()
        .flatten()
}

/// Runs `f` on the calling thread's record buffer (creating the
/// thread's own recorder if it has none).
pub(crate) fn with_buf<R>(f: impl FnOnce(&mut Snapshot) -> R) -> Option<R> {
    with_local(|l| {
        l.track();
        f(&mut l.buf)
    })
}

/// Opens a span on the calling thread's track.
fn record_begin(name: String) {
    with_local(|l| {
        let t = l.track();
        let event = t.event(name.clone(), t.now_ns(), EventKind::Begin);
        t.open.push(name);
        l.push(event);
    });
}

/// Closes the calling thread's innermost open span. A stray call with
/// no open span is ignored.
fn record_end() {
    with_local(|l| {
        let t = l.track();
        if let Some(name) = t.open.pop() {
            let event = t.event(name, t.now_ns(), EventKind::End);
            l.push(event);
        }
    });
}

/// Records an instant marker on the calling thread's track.
pub(crate) fn record_instant(name: String) {
    with_local(|l| {
        let t = l.track();
        let (tid, ts_ns) = (t.tid, t.now_ns());
        l.buf.instants.push(InstantEvent { name, tid, ts_ns });
    });
}

/// Records one value of counter track `name` at `ts_ns`.
pub(crate) fn record_sample(name: &'static str, ts_ns: u64, value: i64) {
    with_buf(|b| b.samples.push(CounterSample { name, ts_ns, value }));
}

/// Whether the calling thread records spans and metrics.
#[inline]
pub fn enabled() -> bool {
    gate() & SPANS != 0
}

/// Turns span and metric recording on for the calling thread's
/// recorder (and the workers it later spawns).
pub fn enable() {
    Recorder::current().set(SPANS, true);
}

/// Turns span and metric recording off (recorded data is kept).
pub fn disable() {
    Recorder::current().set(SPANS, false);
}

/// Clears the calling thread's recorder.
pub fn reset() {
    Recorder::current().reset();
}

/// Snapshots the calling thread's recorder.
pub fn snapshot() -> Snapshot {
    Recorder::current().snapshot()
}

/// Reads [`TRACE_ENV`] once per process; if it names a path, enables
/// recording on the calling thread and returns the path. Sessions call
/// this on startup and export to the returned path when they finish.
pub fn init_from_env() -> Option<&'static str> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    let path = PATH
        .get_or_init(|| std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty()))
        .as_deref();
    if path.is_some() {
        enable();
    }
    path
}

/// RAII guard closing a span on drop. Inert (no work on drop) when
/// recording was off at construction time.
#[must_use = "a span guard closes its span when dropped"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            record_end();
        }
    }
}

/// Opens a span on the calling thread's recorder. The name conversion
/// only happens when recording, so passing `&'static str` from hot
/// paths costs one thread-local load when off.
pub fn span(name: &str) -> SpanGuard {
    span_lazy(|| name.to_string())
}

/// Like [`span`], but the name is computed lazily — use this when the
/// name needs a `format!` (e.g. per-definition spans).
pub fn span_lazy(name: impl FnOnce() -> String) -> SpanGuard {
    let active = enabled();
    if active {
        record_begin(name());
    }
    SpanGuard { active }
}

/// Adds to a counter.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        with_buf(|b| b.metrics.add(name, n));
    }
}

/// Raises a maximum.
#[inline]
pub fn counter_max(name: &str, value: u64) {
    if enabled() {
        with_buf(|b| b.metrics.raise_max(name, value));
    }
}

/// Records into a histogram.
#[inline]
pub fn hist_record(name: &str, value: u64) {
    if enabled() {
        with_buf(|b| b.metrics.record(name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // libtest runs every test on a thread of its own, so each test
    // starts without a recorder.

    #[test]
    fn disabled_recorder_records_nothing() {
        let _s = span("x");
        counter_add("n", 5);
        let snap = snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.metrics.is_empty());
    }

    #[test]
    fn spans_balance_and_snapshot_closes_open_spans() {
        enable();
        let outer = span("outer");
        drop(span("inner"));
        let snap = snapshot();
        assert!(snap.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let edges: Vec<(&str, EventKind)> = snap
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.kind))
            .collect();
        use EventKind::{Begin, End};
        // The still-open outer span is closed in the snapshot only.
        assert_eq!(
            edges,
            [
                ("outer", Begin),
                ("inner", Begin),
                ("inner", End),
                ("outer", End)
            ]
        );
        drop(outer);
        assert_eq!(snapshot().events.len(), 4);
    }

    #[test]
    fn workers_record_into_the_recorder_they_enter() {
        let rec = Recorder::new();
        rec.set(SPANS, true);
        std::thread::scope(|s| {
            for w in 0..8u32 {
                let rec = &rec;
                s.spawn(move || {
                    let _in = rec.enter_worker(w);
                    let _job = span("job");
                    counter_add("hits", 1000);
                    counter_max("peak", 17);
                    hist_record("sizes", 3);
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.metrics.counter("hits"), 8000);
        assert_eq!(snap.metrics.maximum("peak"), 17);
        assert_eq!(snap.metrics.histogram("sizes").unwrap().count(), 8);
        let tids: std::collections::BTreeSet<u32> = snap.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, (1..=8).collect());
        assert_eq!(snap.threads.len(), 8);
        assert_eq!(snap.threads[0], (1, "worker 0".to_string()));
        // The spawning thread's own recorder saw none of it.
        assert!(snapshot().metrics.is_empty());
    }

    #[test]
    fn switches_follow_the_installed_recorder() {
        enable();
        let quiet = Recorder::new();
        {
            let _in = quiet.enter();
            assert!(!enabled(), "a fresh recorder starts with spans off");
            counter_add("lost", 1);
        }
        assert!(enabled(), "leaving restores the outer recorder's switches");
        assert!(quiet.snapshot().metrics.is_empty());
    }

    #[test]
    fn absorb_rebases_a_child_and_keeps_only_what_the_parent_records() {
        enable();
        let parent = Recorder::current();
        let _before = span("before");
        let child = Recorder::child();
        {
            let _in = child.enter();
            let _s = span("in child");
            counter_add("child.n", 2);
            with_buf(|b| lock_site(&mut b.locks, "child.lock").record(None));
        }
        parent.absorb(&child, child.take());
        assert!(child.snapshot().metrics.is_empty(), "take leaves it empty");
        let snap = snapshot();
        assert_eq!(snap.metrics.counter("child.n"), 2);
        assert!(snap.locks.is_empty(), "the parent does not profile locks");
        let names: Vec<&str> = snap.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["before", "in child", "in child", "before"]);
    }
}
