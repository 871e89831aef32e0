//! End-to-end observability: a real inference session drives the
//! recorder, and the exporters produce well-formed artifacts.
//!
//! Every test records into its own thread's recorder, so they run
//! concurrently without sharing any data.

use std::time::Instant;

use rowpoly::batch::{check_sources, BatchOptions, FileInput};
use rowpoly::core::Session;
use rowpoly::lang::parse_program;
use rowpoly::obs;
use rowpoly::obs::json::Json;
use rowpoly::obs::{EventKind, Recorder};

fn state_monad_source() -> String {
    std::fs::read_to_string(format!(
        "{}/programs/state_monad.rp",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("programs/state_monad.rp ships with the repository")
}

/// Runs the state-monad sample with recording on and returns the
/// snapshot of everything it recorded.
fn traced_state_monad_snapshot() -> obs::Snapshot {
    obs::reset();
    obs::enable();
    let program = parse_program(&state_monad_source()).expect("parses");
    Session::default().infer_program(&program).expect("checks");
    let snap = obs::snapshot();
    obs::disable();
    obs::reset();
    snap
}

/// Golden test for the Chrome trace exporter over a real session: the
/// document parses as JSON, opens with a metadata record, keeps
/// timestamps monotone, and balances every `B` with an `E`.
#[test]
fn chrome_trace_of_session_is_well_formed() {
    let snap = traced_state_monad_snapshot();

    let dir = std::env::temp_dir();
    let path = dir.join(format!("rowpoly-trace-test-{}.json", std::process::id()));
    obs::chrome::write_chrome_trace(&snap, &path).expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();

    let doc = obs::json::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(ph(&events[0]), "M", "metadata record first");

    // Duration events: monotone timestamps, balanced begin/end.
    let mut last_ts = f64::MIN;
    let mut depth: i64 = 0;
    let mut names = std::collections::BTreeSet::new();
    for e in events
        .iter()
        .filter(|e| matches!(ph(e).as_str(), "B" | "E"))
    {
        let ts = e.get("ts").and_then(Json::as_f64).expect("numeric ts");
        assert!(ts >= last_ts, "timestamps must be non-decreasing");
        last_ts = ts;
        match ph(e).as_str() {
            "B" => {
                depth += 1;
                names.insert(e.get("name").and_then(Json::as_str).unwrap().to_string());
            }
            _ => {
                depth -= 1;
                assert!(depth >= 0, "E without matching B");
            }
        }
    }
    assert_eq!(depth, 0, "every B balanced by an E");

    // The session's structure is visible: the driver span, one span per
    // definition, and all four paper phases.
    assert!(names.contains("session"), "missing session span: {names:?}");
    assert!(names.contains("def f") && names.contains("def main"));
    for phase in ["unify", "applys", "project", "sat"] {
        assert!(names.contains(phase), "missing {phase} span: {names:?}");
    }
}

/// The text report over a session run names all four paper phases and
/// the flushed structural counters.
#[test]
fn session_report_names_all_four_phases() {
    let snap = traced_state_monad_snapshot();
    let report = obs::report::text_report(&snap);
    for phase in ["unify", "applys", "project", "sat"] {
        assert!(report.contains(phase), "report lacks {phase}:\n{report}");
    }
    for counter in ["unify.calls", "applys.calls", "sat.checks"] {
        assert!(
            report.contains(counter),
            "report lacks {counter}:\n{report}"
        );
    }

    // And the JSON form round-trips through the strict parser.
    let doc = obs::json::parse(&obs::report::json_report(&snap)).expect("valid JSON");
    let spans = doc.get("spans").expect("spans object");
    for phase in ["unify", "applys", "project", "sat"] {
        let span = spans
            .get(phase)
            .unwrap_or_else(|| panic!("no {phase} span"));
        assert!(span.get("count").and_then(Json::as_i64).unwrap() > 0);
    }
}

/// Phase buckets are exclusive: their sum never exceeds the recorded
/// wall time, even though projection runs nested inside `applyS` and
/// SAT checks run inside definition finishing.
#[test]
fn phase_buckets_sum_to_at_most_wall() {
    let program = parse_program(&state_monad_source()).expect("parses");
    let start = Instant::now();
    let report = Session::default().infer_program(&program).expect("checks");
    let measured = start.elapsed();

    let s = &report.stats;
    let buckets = s.unify + s.applys + s.project + s.sat;
    assert!(
        buckets <= s.wall,
        "exclusive buckets {buckets:?} exceed recorded wall {s:?}"
    );
    assert!(
        s.wall <= measured,
        "recorded wall longer than enclosing timer"
    );
    assert!(s.unify_calls > 0 && s.applys_calls > 0 && s.sat_calls > 0);
}

/// The projection engine reports its elimination work through the
/// `project.*` counters, and on an ordinary record-heavy program every
/// elimination stays on the binary-implication fast path.
#[test]
fn projection_engine_counters_are_recorded() {
    let snap = traced_state_monad_snapshot();
    let fastpath = snap.metrics.counter("project.elim.fastpath");
    let fallback = snap.metrics.counter("project.elim.fallback");
    assert!(
        fastpath > 0,
        "a record-heavy session must splice pivots on the fast path"
    );
    assert_eq!(
        fastpath + fallback,
        snap.metrics.counter("project.resolutions"),
        "fast path + fallback must account for every elimination"
    );
    // The subsumption filter's bookkeeping is consistent: nothing is
    // rejected by signature without having been checked.
    assert!(
        snap.metrics.counter("project.sig.pruned") <= snap.metrics.counter("project.sig.checks")
    );
}

/// Golden test for the per-worker Chrome-trace track layout produced by
/// a profiled batch run: stable tids (worker `w` → tid `w + 1`), one
/// `thread_name` metadata record per worker track, balanced spans per
/// track with per-track monotone timestamps, and thread-scoped instant
/// events for wave boundaries (plus steals/cache hits when they occur).
#[test]
fn profiled_batch_trace_has_stable_worker_tracks() {
    // Two files over a dependency chain each, so the run has several
    // groups and more than one wave.
    let inputs = vec![
        FileInput {
            path: "a.rp".to_string(),
            source: "def base = {x = 1}\ndef mid = #x base\ndef top = mid + 1".to_string(),
        },
        FileInput {
            path: "b.rp".to_string(),
            source: state_monad_source(),
        },
    ];
    let mut options = BatchOptions::in_memory(2);
    options.profile = true;
    let report = check_sources(inputs, &options);
    assert!(report.ok());
    let profile = report.profile.as_ref().expect("profile requested");

    let text = obs::chrome::chrome_trace_json(&profile.snapshot.trace);
    let doc = obs::json::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
    let tid = |e: &Json| e.get("tid").and_then(Json::as_i64).unwrap();

    // Metadata: process_name on tid 0 first, then one named track per
    // worker with tid = worker + 1, in worker order.
    assert_eq!(ph(&events[0]), "M");
    let thread_names: Vec<(i64, String)> = events
        .iter()
        .filter(|e| ph(e) == "M" && e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .map(|e| {
            (
                tid(e),
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        thread_names.len(),
        profile.workers.len(),
        "one named track per worker"
    );
    for (i, (t, name)) in thread_names.iter().enumerate() {
        assert_eq!(*t, i as i64 + 1, "worker {i} must sit on tid {}", i + 1);
        assert_eq!(name, &format!("worker {i}"));
    }

    // Per track: timestamps monotone, B/E balanced, instants
    // thread-scoped. Globally: the document is ts-ordered.
    let mut global_last = f64::MIN;
    let mut per_track: std::collections::BTreeMap<i64, (f64, i64)> = Default::default();
    let mut instant_names = std::collections::BTreeSet::new();
    for e in events.iter().filter(|e| ph(e) != "M") {
        let ts = e.get("ts").and_then(Json::as_f64).expect("numeric ts");
        assert!(ts >= global_last, "document not globally ts-ordered");
        global_last = ts;
        let track = per_track.entry(tid(e)).or_insert((f64::MIN, 0));
        assert!(ts >= track.0, "track {} not monotone", tid(e));
        track.0 = ts;
        match ph(e).as_str() {
            "B" => track.1 += 1,
            "E" => {
                track.1 -= 1;
                assert!(track.1 >= 0, "E without B on tid {}", tid(e));
            }
            "i" => {
                assert_eq!(
                    e.get("s").and_then(Json::as_str),
                    Some("t"),
                    "instants must be thread-scoped"
                );
                instant_names.insert(e.get("name").and_then(Json::as_str).unwrap().to_string());
            }
            // Counter samples (allocator live/peak bytes) appear when
            // memory accounting is on during a profiled run.
            "C" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (t, (_, depth)) in &per_track {
        assert_eq!(*depth, 0, "unbalanced spans on tid {t}");
    }
    assert!(
        instant_names.iter().any(|n| n.starts_with("wave ")),
        "wave boundary markers missing: {instant_names:?}"
    );
    // Job spans carry the file:def labels on worker tracks.
    assert!(
        events.iter().any(|e| ph(e) == "B"
            && e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("a.rp:"))),
        "job spans must be labeled file:def"
    );
}

/// With collection disabled (the default), inference leaves no events or
/// metrics behind.
#[test]
fn disabled_collection_records_nothing() {
    obs::disable();
    obs::reset();
    let program = parse_program(&state_monad_source()).expect("parses");
    Session::default().infer_program(&program).expect("checks");
    let snap = obs::snapshot();
    assert!(snap.events.is_empty(), "events recorded while disabled");
    assert!(snap.metrics.is_empty(), "metrics recorded while disabled");
}

/// Two threads check the same program at once, one recording and one
/// not: the silent thread's recorder stays empty, and the recording
/// thread's counters are exactly its own session's statistics.
#[test]
fn concurrent_sessions_record_only_into_their_own_recorder() {
    let program = parse_program(&state_monad_source()).expect("parses");
    let barrier = std::sync::Barrier::new(2);
    let (silent, (traced, stats)) = std::thread::scope(|s| {
        let silent = s.spawn(|| {
            barrier.wait();
            Session::default().infer_program(&program).expect("checks");
            obs::snapshot()
        });
        let traced = s.spawn(|| {
            obs::enable();
            barrier.wait();
            let report = Session::default().infer_program(&program).expect("checks");
            (obs::snapshot(), report.stats)
        });
        (silent.join().unwrap(), traced.join().unwrap())
    });
    assert!(silent.events.is_empty(), "silent thread recorded spans");
    assert!(silent.metrics.is_empty(), "silent thread recorded metrics");
    assert!(!traced.events.is_empty());
    assert_eq!(
        traced.metrics.counter("unify.calls"),
        stats.unify_calls as u64,
        "the recording thread saw another session's unify calls"
    );
}

fn batch_inputs() -> Vec<FileInput> {
    vec![
        FileInput {
            path: "a.rp".to_string(),
            source: "def base = {x = 1}\ndef mid = #x base\ndef top = mid + 1".to_string(),
        },
        FileInput {
            path: "b.rp".to_string(),
            source: state_monad_source(),
        },
    ]
}

/// Batch workers inherit the caller's recorder: under recording,
/// `--jobs 2` puts `def <name>` spans on worker tracks (tid `w + 1`),
/// and its inference counters equal a `--jobs 1` run's in a fresh
/// recorder.
#[test]
fn batch_workers_inherit_the_recorder() {
    let counters = |jobs: usize| {
        let recorder = Recorder::new();
        let _in = recorder.enter();
        obs::enable();
        assert!(check_sources(batch_inputs(), &BatchOptions::in_memory(jobs)).ok());
        recorder.snapshot()
    };
    let parallel = counters(2);
    let serial = counters(1);

    let def_tids: std::collections::BTreeSet<u32> = parallel
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name.starts_with("def "))
        .map(|e| e.tid)
        .collect();
    assert!(!def_tids.is_empty(), "no def spans recorded");
    assert!(
        def_tids.iter().all(|t| (1..=2).contains(t)),
        "def spans must sit on worker tracks: {def_tids:?}"
    );
    for name in ["unify.calls", "sat.checks", "project.resolutions"] {
        assert!(serial.metrics.counter(name) > 0, "{name} not recorded");
        assert_eq!(
            parallel.metrics.counter(name),
            serial.metrics.counter(name),
            "{name} differs between --jobs 2 and --jobs 1"
        );
    }
}
