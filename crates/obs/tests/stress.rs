//! Concurrency stress tests for the observability layer: metric
//! recording from many threads into one recorder must lose nothing,
//! and per-thread timelines must merge into a well-formed multi-track
//! Chrome trace. Every thread records into the recorder it entered, so
//! these tests run alongside each other without sharing any data.

use std::sync::atomic::{AtomicU64, Ordering};

use rowpoly_obs as obs;
use rowpoly_obs::contention::LockTimer;
use rowpoly_obs::json::Json;
use rowpoly_obs::timeline::{JobRecord, Profiler};
use rowpoly_obs::{EventKind, Recorder};

const THREADS: usize = 8;
const INCREMENTS: u64 = 10_000;

/// Hammering one counter from many threads loses no increments: the
/// final value is exactly `THREADS * INCREMENTS`, and a histogram fed
/// the same traffic accounts for every sample.
#[test]
fn concurrent_counter_increments_are_never_lost() {
    let recorder = Recorder::new();
    {
        let _in = recorder.enter();
        obs::enable();
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let recorder = &recorder;
            scope.spawn(move || {
                let _in = recorder.enter_worker(t as u32);
                for i in 0..INCREMENTS {
                    obs::counter_add("stress.counter", 1);
                    obs::counter_max("stress.max", t as u64 * INCREMENTS + i);
                    obs::hist_record("stress.hist", i);
                }
            });
        }
    });
    let snap = recorder.snapshot();
    assert_eq!(
        snap.metrics.counter("stress.counter"),
        THREADS as u64 * INCREMENTS,
        "increments lost under contention"
    );
    assert_eq!(
        snap.metrics.maximum("stress.max"),
        THREADS as u64 * INCREMENTS - 1,
        "counter_max lost the global maximum"
    );
    let hist = snap.metrics.histogram("stress.hist").expect("histogram");
    assert_eq!(
        hist.count(),
        THREADS as u64 * INCREMENTS,
        "histogram samples lost under contention"
    );
}

/// A contended instrumented lock counts every acquisition exactly once
/// across threads, and the guarded increments themselves all land.
#[test]
fn contended_lock_timer_accounts_every_acquisition() {
    static STRESS_LOCK: LockTimer = LockTimer::new("stress.lock");
    let recorder = Recorder::new();
    let _in = recorder.enter();
    let _profiling = Profiler::new();
    let shared = std::sync::Mutex::new(0u64);
    let rounds = 2_000u64;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (shared, recorder) = (&shared, &recorder);
            scope.spawn(move || {
                let _in = recorder.enter_worker(t as u32);
                for _ in 0..rounds {
                    *STRESS_LOCK.lock(shared) += 1;
                }
            });
        }
    });
    assert_eq!(*shared.lock().unwrap(), THREADS as u64 * rounds);
    let snap = recorder.snapshot();
    let stats = snap
        .locks
        .iter()
        .find(|l| l.name == "stress.lock")
        .expect("stress lock registered");
    assert_eq!(
        stats.acquisitions,
        THREADS as u64 * rounds,
        "acquisitions lost under contention"
    );
    assert!(stats.contended <= stats.acquisitions);
}

/// Concurrent per-thread timelines merge into a Chrome trace that is
/// globally timestamp-ordered, balanced per track, and whose spans
/// never overlap within one worker's track (per-track events are
/// sequential by construction — this asserts the exporter keeps them
/// that way).
#[test]
fn concurrent_timelines_merge_into_a_well_formed_trace() {
    let recorder = Recorder::new();
    let profiler = {
        let _in = recorder.enter();
        Profiler::new()
    };
    let spans_per_thread = 500usize;
    let total_spans = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let (profiler, recorder) = (&profiler, &recorder);
            let total_spans = &total_spans;
            scope.spawn(move || {
                let _in = recorder.enter_worker(w as u32);
                let mut tl = profiler.worker(w as u32);
                for i in 0..spans_per_thread {
                    let start_ns = tl.now_ns();
                    if i % 7 == 0 {
                        tl.instant("steal");
                    }
                    tl.push_job(JobRecord {
                        job: w * spans_per_thread + i,
                        label: format!("w{w} job {i}"),
                        start_ns,
                        end_ns: tl.now_ns(),
                        cached: false,
                        phases: Vec::new(),
                    });
                    total_spans.fetch_add(1, Ordering::Relaxed);
                }
                profiler.submit(tl);
            });
        }
    });
    let snap = profiler.finish();
    assert_eq!(snap.workers.len(), THREADS);
    let recorded = snap
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .count();
    assert_eq!(
        recorded as u64,
        total_spans.load(Ordering::Relaxed),
        "span events lost across threads"
    );

    let text = obs::chrome::chrome_trace_json(&snap.trace);
    let doc = obs::json::parse(&text).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
    let tid = |e: &Json| e.get("tid").and_then(Json::as_i64).unwrap();

    // Global monotonicity, and per-track: monotone, balanced, and
    // non-overlapping (depth never exceeds 1 — each worker closes a
    // span before opening the next).
    let mut last_global = f64::MIN;
    let mut track_state: std::collections::BTreeMap<i64, (f64, i64)> = Default::default();
    for e in events.iter().filter(|e| ph(e) != "M") {
        let ts = e.get("ts").and_then(Json::as_f64).unwrap();
        assert!(ts >= last_global, "global ts order violated");
        last_global = ts;
        let (last, depth) = track_state.entry(tid(e)).or_insert((f64::MIN, 0));
        assert!(ts >= *last, "per-track ts order violated on tid {}", tid(e));
        *last = ts;
        match ph(e).as_str() {
            "B" => {
                *depth += 1;
                assert!(
                    *depth <= 1,
                    "overlapping spans within one track (tid {})",
                    tid(e)
                );
            }
            "E" => {
                *depth -= 1;
                assert!(*depth >= 0);
            }
            _ => {}
        }
    }
    assert_eq!(track_state.len(), THREADS, "a worker track went missing");
    for (t, (_, depth)) in &track_state {
        assert_eq!(*depth, 0, "unbalanced track tid {t}");
    }
}
