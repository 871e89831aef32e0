//! Human-readable and JSON reports over a [`Snapshot`].
//!
//! Span aggregation walks each thread's event stream with a stack,
//! accumulating per-name *total* (inclusive) and *self* (exclusive)
//! time — the same exclusive-attribution discipline as
//! [`crate::PhaseClock`], applied post hoc to recorded spans.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write;

use crate::collector::{EventKind, Snapshot};
use crate::json::Json;

/// Aggregated statistics for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Inclusive nanoseconds (children included).
    pub total_ns: u64,
    /// Exclusive nanoseconds (children subtracted).
    pub self_ns: u64,
}

/// Aggregates balanced span events into per-name totals.
pub fn aggregate_spans(snap: &Snapshot) -> BTreeMap<String, SpanStats> {
    let mut stats: BTreeMap<String, SpanStats> = BTreeMap::new();
    // Per-thread stack of (name, start_ns, child_ns).
    let mut stacks: HashMap<u32, Vec<(String, u64, u64)>> = HashMap::new();
    for event in &snap.events {
        let stack = stacks.entry(event.tid).or_default();
        match event.kind {
            EventKind::Begin => stack.push((event.name.clone(), event.ts_ns, 0)),
            EventKind::End => {
                let Some((name, start_ns, child_ns)) = stack.pop() else {
                    continue; // unbalanced input: skip the stray edge
                };
                let total_ns = event.ts_ns.saturating_sub(start_ns);
                let entry = stats.entry(name).or_default();
                entry.count += 1;
                entry.total_ns += total_ns;
                entry.self_ns += total_ns.saturating_sub(child_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += total_ns;
                }
            }
        }
    }
    stats
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a plain-text report: spans (self/total/count), counters,
/// maxima, and histograms.
pub fn text_report(snap: &Snapshot) -> String {
    let mut out = String::new();
    let spans = aggregate_spans(snap);
    if !spans.is_empty() {
        out.push_str("spans (self / total / count):\n");
        let mut rows: Vec<(&String, &SpanStats)> = spans.iter().collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
        for (name, s) in rows {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>10} {:>8}",
                name,
                fmt_ns(s.self_ns),
                fmt_ns(s.total_ns),
                s.count
            );
        }
    }
    let counters: Vec<_> = snap.metrics.counters().collect();
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in counters {
            let _ = writeln!(out, "  {name:<36} {value:>12}");
        }
    }
    let maxima: Vec<_> = snap.metrics.maxima().collect();
    if !maxima.is_empty() {
        out.push_str("maxima:\n");
        for (name, value) in maxima {
            let _ = writeln!(out, "  {name:<36} {value:>12}");
        }
    }
    let hists: Vec<_> = snap.metrics.histograms().collect();
    if !hists.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in hists {
            let _ = writeln!(
                out,
                "  {:<28} n={} mean={:.1} min={} max={} p50={} p90={} p99={}",
                name,
                h.count(),
                h.mean(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.percentile(50.0).unwrap_or(0),
                h.percentile(90.0).unwrap_or(0),
                h.percentile(99.0).unwrap_or(0)
            );
            for (lo, n) in h.nonzero_buckets() {
                let _ = writeln!(out, "    >= {lo:<12} {n}");
            }
        }
    }
    if out.is_empty() {
        out.push_str("(no observability data collected)\n");
    }
    out
}

/// Renders the snapshot as a JSON document mirroring [`text_report`].
pub fn json_report(snap: &Snapshot) -> String {
    let spans = aggregate_spans(snap);
    Json::obj(vec![
        (
            "spans",
            Json::Obj(
                spans
                    .into_iter()
                    .map(|(name, s)| {
                        (
                            name,
                            Json::obj(vec![
                                ("count", Json::Int(s.count as i64)),
                                ("total_ns", Json::Int(s.total_ns as i64)),
                                ("self_ns", Json::Int(s.self_ns as i64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("metrics", snap.metrics.to_json()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::SpanEvent;

    fn ev(name: &str, ts_ns: u64, kind: EventKind) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            tid: 0,
            ts_ns,
            kind,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let snap = Snapshot {
            events: vec![
                ev("outer", 0, EventKind::Begin),
                ev("inner", 10, EventKind::Begin),
                ev("inner", 40, EventKind::End),
                ev("outer", 100, EventKind::End),
            ],
            ..Snapshot::default()
        };
        let stats = aggregate_spans(&snap);
        assert_eq!(stats["outer"].total_ns, 100);
        assert_eq!(stats["outer"].self_ns, 70);
        assert_eq!(stats["inner"].total_ns, 30);
        assert_eq!(stats["inner"].self_ns, 30);
    }

    #[test]
    fn reports_render_without_panicking() {
        let mut snap = Snapshot::default();
        assert!(text_report(&snap).contains("no observability data"));
        snap.metrics.add("flow.unify.calls", 2);
        snap.metrics.record("beta.clauses.live", 8);
        snap.metrics.record("beta.clauses.live", 32);
        snap.events.push(ev("sat", 5, EventKind::Begin));
        snap.events.push(ev("sat", 9, EventKind::End));
        let text = text_report(&snap);
        assert!(text.contains("flow.unify.calls"));
        assert!(text.contains("sat"));
        assert!(text.contains("p50=8"), "percentiles on hist line: {text}");
        assert!(text.contains("p99=32"), "percentiles on hist line: {text}");
        let doc = crate::json::parse(&json_report(&snap)).unwrap();
        assert_eq!(
            doc.get("spans")
                .unwrap()
                .get("sat")
                .unwrap()
                .get("total_ns"),
            Some(&Json::Int(4))
        );
    }
}
