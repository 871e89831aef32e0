//! Lock-contention accounting: who waited, on which lock, for how long.
//!
//! A parallel pipeline that shows no speedup is usually *waiting*
//! somewhere invisible — a queue mutex, a shared interner, a cache
//! lock. This module makes that waiting measurable without perturbing
//! it: each instrumented lock site declares a `static` [`LockTimer`],
//! and acquisitions go through [`LockTimer::lock`], which
//!
//! * is a plain `Mutex::lock` behind one thread-local load while the
//!   calling thread's recorder does not profile locks (the default) —
//!   no timestamps, no counters;
//! * while it does (a [`crate::Profiler`] is live on the recorder),
//!   tries `try_lock` first and only reaches for the clock on
//!   *contended* acquisitions, recording the wait (count, total, max,
//!   log₂ buckets) into the thread's private buffer of its current
//!   [`crate::Recorder`], plus a thread-local tally so schedulers can
//!   attribute wait time to the worker that suffered it.
//!
//! Each run reads its `lock.wait.<site>` numbers straight from its own
//! recorder, so they cover that run only — `max_wait_ns` included. The
//! deliberate design constraint: recording contention must not
//! *create* contention, so there is no shared lock on the record path.

use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

use crate::collector::{self, LOCKS};
use crate::json::Json;
use crate::metrics::{bucket_index, bucket_percentile, nonzero_buckets};

/// Log₂ wait-time buckets: bucket 0 holds 0 ns, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)` ns; 40 buckets cover waits up to ~9 minutes.
pub const WAIT_BUCKETS: usize = 40;

/// Whether the calling thread profiles locks. One thread-local load.
#[inline]
pub fn profiling() -> bool {
    collector::gate() & LOCKS != 0
}

thread_local! {
    static THREAD_WAIT_NS: Cell<u64> = const { Cell::new(0) };
}

/// Drains this thread's accumulated lock-wait nanoseconds since the
/// last call. Schedulers call this at bucket boundaries to attribute
/// waits to the code region that suffered them.
pub fn take_thread_wait_ns() -> u64 {
    THREAD_WAIT_NS.with(|c| c.replace(0))
}

/// A named, statically-allocated lock instrumentation site.
///
/// ```
/// use std::sync::Mutex;
/// use rowpoly_obs::contention::LockTimer;
///
/// static QUEUE_LOCK: LockTimer = LockTimer::new("pool.queue");
/// let m = Mutex::new(0u32);
/// *QUEUE_LOCK.lock(&m) += 1;
/// ```
pub struct LockTimer {
    name: &'static str,
}

impl LockTimer {
    /// A timer for the lock site `name` (reported as `lock.wait.<name>`).
    pub const fn new(name: &'static str) -> LockTimer {
        LockTimer { name }
    }

    /// The site name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Locks `m`, timing the wait when the thread profiles locks.
    /// Poisoned mutexes are recovered (`into_inner`): instrumented
    /// locks guard data that stays structurally sound across a
    /// panicking holder.
    pub fn lock<'a, T>(&'static self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        if !profiling() {
            return m.lock().unwrap_or_else(PoisonError::into_inner);
        }
        let (guard, wait) = match m.try_lock() {
            Ok(guard) => (guard, None),
            Err(TryLockError::Poisoned(p)) => (p.into_inner(), None),
            Err(TryLockError::WouldBlock) => {
                let start = Instant::now();
                let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
                let ns = start.elapsed().as_nanos() as u64;
                THREAD_WAIT_NS.with(|c| c.set(c.get() + ns));
                (guard, Some(ns))
            }
        };
        collector::with_buf(|b| collector::lock_site(&mut b.locks, self.name).record(wait));
        guard
    }
}

/// One lock site's waits as recorded by one recorder.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockWaitStats {
    /// Site name (reported as `lock.wait.<name>`).
    pub name: &'static str,
    /// Acquisitions while profiling was on.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Total nanoseconds spent waiting.
    pub wait_ns: u64,
    /// Longest single wait.
    pub max_wait_ns: u64,
    /// Raw log₂ wait buckets (`WAIT_BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl LockWaitStats {
    /// An empty entry for site `name`.
    pub fn new(name: &'static str) -> LockWaitStats {
        LockWaitStats {
            name,
            buckets: vec![0; WAIT_BUCKETS],
            ..LockWaitStats::default()
        }
    }

    /// Counts one acquisition; `wait` is `Some(ns)` when it had to wait.
    pub fn record(&mut self, wait: Option<u64>) {
        self.acquisitions += 1;
        if let Some(ns) = wait {
            self.contended += 1;
            self.wait_ns += ns;
            self.max_wait_ns = self.max_wait_ns.max(ns);
            self.buckets[bucket_index(ns).min(WAIT_BUCKETS - 1)] += 1;
        }
    }

    /// Adds `other`'s waits (same site) to this entry.
    pub fn merge(&mut self, other: &LockWaitStats) {
        self.acquisitions += other.acquisitions;
        self.contended += other.contended;
        self.wait_ns += other.wait_ns;
        self.max_wait_ns = self.max_wait_ns.max(other.max_wait_ns);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Estimated `p`-th percentile of the contended waits, using the
    /// shared [`crate::metrics::percentile_from_buckets`] estimator so lock-wait
    /// percentiles agree with every other histogram surface. The site
    /// tracks no exact minimum, so the lowest non-empty bucket's
    /// lower bound stands in; the maximum is `max_wait_ns` clamped to
    /// the highest non-empty bucket.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        bucket_percentile(&self.buckets, self.max_wait_ns, p)
    }

    /// Non-empty wait buckets as `(lower_bound_ns, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        nonzero_buckets(&self.buckets)
    }

    /// Renders the per-site stats (the `lock.wait.<name>` object).
    /// The percentile fields use [`LockWaitStats::percentile`] — the
    /// same estimator the text report prints, verified by a parity
    /// test in `crates/batch/src/profile.rs`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("acquisitions", Json::Int(self.acquisitions as i64)),
            ("contended", Json::Int(self.contended as i64)),
            ("wait_ns", Json::Int(self.wait_ns as i64)),
            ("max_wait_ns", Json::Int(self.max_wait_ns as i64)),
        ];
        for (key, p) in [("p50_ns", 50.0), ("p90_ns", 90.0), ("p99_ns", 99.0)] {
            let v = self.percentile(p);
            fields.push((key, v.map_or(Json::Null, |v| Json::Int(v as i64))));
        }
        let hist = self.nonzero_buckets().into_iter();
        let pair = |(lo, n): (u64, u64)| Json::Arr(vec![Json::Int(lo as i64), Json::Int(n as i64)]);
        fields.push(("wait_hist", Json::Arr(hist.map(pair).collect())));
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::Arc;

    static TEST_LOCK: LockTimer = LockTimer::new("test.contended");
    static IDLE_LOCK: LockTimer = LockTimer::new("test.idle");

    /// One profiled run on a fresh recorder: `holder` runs on a second
    /// thread that entered the run's recorder, then this thread takes
    /// `TEST_LOCK` on `m`. Returns the run's stats for the site.
    fn profiled_run(m: &Arc<Mutex<u32>>, hold_ms: u64) -> LockWaitStats {
        let run = Recorder::new();
        let _in = run.enter();
        let _profiling = crate::Profiler::new();
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let holder = {
            let (m, run) = (m.clone(), run.clone());
            std::thread::spawn(move || {
                let _in = run.enter_worker(0);
                let guard = TEST_LOCK.lock(&m);
                locked_tx.send(()).expect("the test thread waits for it");
                std::thread::sleep(std::time::Duration::from_millis(hold_ms));
                drop(guard);
            })
        };
        // Contend only once the holder has the lock.
        locked_rx.recv().expect("the holder took the lock");
        take_thread_wait_ns(); // clear any residue
        drop(TEST_LOCK.lock(m));
        holder.join().unwrap();
        let snap = run.snapshot();
        snap.locks
            .into_iter()
            .find(|s| s.name == "test.contended")
            .expect("site recorded")
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        // This thread profiles nothing: the site must not be recorded.
        let m = Mutex::new(0);
        let _g = IDLE_LOCK.lock(&m);
        let snap = Recorder::current().snapshot();
        assert!(!snap.locks.iter().any(|s| s.name == "test.idle"));
    }

    #[test]
    fn contended_waits_are_counted_and_attributed() {
        let site = profiled_run(&Arc::new(Mutex::new(0)), 20);
        assert!(site.acquisitions >= 2);
        assert!(site.contended >= 1, "the second lock must have waited");
        assert!(site.wait_ns > 0);
        assert!(site.max_wait_ns >= site.wait_ns / site.acquisitions.max(1));
        assert!(!site.nonzero_buckets().is_empty());
        // The waiting thread (us) saw its wait in TLS.
        assert!(take_thread_wait_ns() > 0);
    }

    #[test]
    fn max_wait_covers_only_its_own_run() {
        let m = Arc::new(Mutex::new(0u32));
        let first = profiled_run(&m, 20);
        assert!(first.max_wait_ns >= 5_000_000, "{first:?}");
        // Second run: the holder releases at once, so any wait is short.
        let second = profiled_run(&m, 0);
        assert!(
            second.max_wait_ns <= second.wait_ns,
            "a run's longest wait cannot exceed its total wait: {second:?}"
        );
    }

    #[test]
    fn merge_adds_counters_and_keeps_the_longer_wait() {
        let mut a = LockWaitStats::new("x");
        a.record(None);
        a.record(Some(3));
        let mut b = LockWaitStats::new("x");
        b.record(Some(900));
        a.merge(&b);
        assert_eq!(a.acquisitions, 3);
        assert_eq!(a.contended, 2);
        assert_eq!(a.wait_ns, 903);
        assert_eq!(a.max_wait_ns, 900);
        assert_eq!(a.nonzero_buckets(), vec![(2, 1), (512, 1)]);
    }
}
