//! Chrome trace-event export.
//!
//! Produces the JSON Object Format understood by `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev) from a recorder
//! [`Snapshot`]: a `traceEvents` array opening with process metadata
//! and one `thread_name` record per named track (batch worker `w` is
//! tid `w + 1`, named `worker w`), then duration events (`"ph":
//! "B"`/`"E"`), thread-scoped instant markers (`"ph": "i"`, `"s":
//! "t"`) and counter samples (`"ph": "C"` on tid 0, e.g. the per-wave
//! `mem.*` tracks) in one timestamp-ordered stream, with microsecond
//! timestamps. The metrics registry's counters close the document as
//! counter samples so the viewer can chart them alongside the spans.

use std::io::Write;
use std::path::Path;

use crate::collector::{EventKind, Snapshot};
use crate::json::Json;

fn record(name: &str, ph: &str, tid: u32, ts_ns: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::Str(name.to_string())),
        ("cat", Json::Str("rowpoly".to_string())),
        ("ph", Json::Str(ph.to_string())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(tid as i64)),
        // Microseconds with nanosecond precision kept in the
        // fraction, as the trace-event spec allows.
        ("ts", Json::Float(ts_ns as f64 / 1000.0)),
    ]
}

fn metadata(name: &str, tid: u32, value: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(tid as i64)),
        ("ts", Json::Int(0)),
        (
            "args",
            Json::obj(vec![("name", Json::Str(value.to_string()))]),
        ),
    ])
}

fn counter(name: &str, ts_ns: u64, value: i64) -> Json {
    let mut fields = record(name, "C", 0, ts_ns);
    fields.push((
        "args",
        Json::Obj(vec![("value".to_string(), Json::Int(value))]),
    ));
    Json::obj(fields)
}

/// Renders a snapshot as a Chrome trace-event JSON document.
pub fn chrome_trace_json(snap: &Snapshot) -> String {
    let mut events: Vec<Json> = vec![metadata("process_name", 0, "rowpoly")];
    for (tid, name) in &snap.threads {
        events.push(metadata("thread_name", *tid, name));
    }

    // Each track is already non-decreasing, so a stable sort by
    // timestamp keeps every track's B/E nesting.
    let mut timed: Vec<(u64, Json)> =
        Vec::with_capacity(snap.events.len() + snap.instants.len() + snap.samples.len());
    for e in &snap.events {
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
        };
        timed.push((e.ts_ns, Json::obj(record(&e.name, ph, e.tid, e.ts_ns))));
    }
    for e in &snap.instants {
        let mut fields = record(&e.name, "i", e.tid, e.ts_ns);
        fields.push(("s", Json::Str("t".to_string())));
        timed.push((e.ts_ns, Json::obj(fields)));
    }
    for s in &snap.samples {
        timed.push((s.ts_ns, counter(s.name, s.ts_ns, s.value)));
    }
    timed.sort_by_key(|(ts, _)| *ts);

    // Counter totals land after the last timed record so `ts` stays
    // monotone over the whole document.
    let last_ts = timed.last().map_or(0, |(ts, _)| *ts);
    events.extend(timed.into_iter().map(|(_, e)| e));
    for (name, value) in snap.metrics.counters() {
        events.push(counter(name, last_ts, value as i64));
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
    .render()
}

/// Writes the Chrome trace for `snap` to `path`.
pub fn write_chrome_trace(snap: &Snapshot, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(chrome_trace_json(snap).as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Recorder;
    use crate::json;

    fn parse(snap: &Snapshot) -> Vec<Json> {
        let doc = json::parse(&chrome_trace_json(snap)).expect("valid JSON");
        doc.get("traceEvents").unwrap().as_arr().unwrap().to_vec()
    }

    #[test]
    fn exported_trace_parses_and_orders() {
        let rec = Recorder::new();
        let _in = rec.enter();
        crate::enable();
        {
            let _session = crate::span("session");
            let _unify = crate::span("unify");
        }
        crate::counter_add("flow.unify.calls", 3);
        let events = parse(&rec.snapshot());
        // metadata + 4 span edges + 1 counter
        assert_eq!(events.len(), 6);
        let ts: Vec<f64> = events
            .iter()
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts monotone: {ts:?}");
    }

    #[test]
    fn worker_tracks_are_named_and_instants_thread_scoped() {
        let rec = Recorder::new();
        let profiler = {
            let _in = rec.enter();
            crate::timeline::Profiler::new()
        };
        std::thread::scope(|s| {
            for w in [1u32, 0] {
                let (rec, profiler) = (&rec, &profiler);
                s.spawn(move || {
                    let _in = rec.enter_worker(w);
                    let mut tl = profiler.worker(w);
                    tl.note_steal();
                    let start_ns = tl.now_ns();
                    tl.instant("cache-hit");
                    tl.push_job(crate::JobRecord {
                        job: w as usize,
                        label: format!("job {w}"),
                        start_ns,
                        end_ns: tl.now_ns(),
                        cached: true,
                        phases: Vec::new(),
                    });
                    profiler.submit(tl);
                });
            }
        });
        let events = parse(&profiler.finish().trace);
        let ph = |e: &Json| e.get("ph").unwrap().as_str().unwrap().to_string();
        let tid = |e: &Json| e.get("tid").unwrap().as_i64().unwrap();

        // process_name + two thread_name records, workers sorted.
        let meta: Vec<&Json> = events.iter().filter(|e| ph(e) == "M").collect();
        assert_eq!(meta.len(), 3);
        assert_eq!(tid(meta[1]), 1, "worker 0 is tid 1");
        assert_eq!(tid(meta[2]), 2, "worker 1 is tid 2");
        assert_eq!(
            meta[1].get("args").unwrap().get("name").unwrap().as_str(),
            Some("worker 0")
        );

        // Instants are thread-scoped; span edges balance per track.
        let instants: Vec<&Json> = events.iter().filter(|e| ph(e) == "i").collect();
        assert_eq!(instants.len(), 4, "two steals and two cache hits");
        for e in instants {
            assert_eq!(e.get("s").unwrap().as_str(), Some("t"));
        }
        for t in [1, 2] {
            let depth: i64 = events
                .iter()
                .filter(|e| tid(e) == t)
                .map(|e| match ph(e).as_str() {
                    "B" => 1,
                    "E" => -1,
                    _ => 0,
                })
                .sum();
            assert_eq!(depth, 0, "unbalanced spans on tid {t}");
        }
    }
}
