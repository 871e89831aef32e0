//! Zero-dependency observability layer for the rowpoly workspace.
//!
//! The paper's empirical story (Section 6, Fig. 9) is about *where time
//! goes* inside row-polymorphic inference: unification, substitution
//! application, stale-flag projection, and satisfiability checks. This
//! crate provides the plumbing to answer that question at any
//! granularity without pulling in a single external crate:
//!
//! - [`Recorder`]: the one scoped sink every instrument below records
//!   into. A thread records into its current recorder only, and batch
//!   workers install their caller's, so concurrent tests, batch
//!   workers and sibling runs never see each other's numbers.
//! - [`span`] / [`span_lazy`]: hierarchical RAII spans with monotonic
//!   timestamps.
//! - [`metrics::MetricsRegistry`]: named counters, maxima, and log-scale
//!   histograms (unify calls, SAT checks per class, β clause growth,
//!   projection resolutions, env-meet version-tag hits/misses, ...).
//! - [`chrome`]: the Chrome trace-event exporter (`chrome://tracing`,
//!   Perfetto) for any [`Snapshot`]: `ROWPOLY_TRACE` session traces and
//!   `check --profile` worker traces.
//! - [`report`]: human text and JSON reports over a [`Snapshot`].
//! - [`phase::PhaseClock`]: exclusive (self-time) attribution of wall
//!   time to the four paper phases, so nested phases are never
//!   double-counted.
//! - [`rng::SplitMix64`]: a seeded PRNG so generators and property
//!   tests need no `rand` dependency.
//! - [`json`]: a minimal JSON value type with an encoder and a strict
//!   parser, shared by the exporters and their golden tests.
//! - [`timeline`] / [`contention`]: the concurrency profiler — private
//!   per-worker timelines, instrumented-lock wait accounting, and
//!   exclusive busy/idle/steal-search/lock-wait attribution for
//!   parallel runs.
//! - [`mem`]: memory accounting — a counting `#[global_allocator]`
//!   (wrapping `System`) with per-thread delta slots, live/peak
//!   watermarks, log₂ allocation-size histograms, and static
//!   [`mem::MemSite`] attribution scopes; [`PhaseClock`] samples it so
//!   the four paper phases get byte attribution too.
//!
//! While a recorder switch is off, every instrumentation point it
//! guards (allocator hooks included) costs one thread-local load.

pub mod chrome;
pub mod collector;
pub mod contention;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod phase;
pub mod report;
pub mod rng;
pub mod timeline;

pub use collector::{
    counter_add, counter_max, disable, enable, enabled, hist_record, init_from_env, reset,
    snapshot, span, span_lazy, CounterSample, Entered, EventKind, InstantEvent, Recorder, Snapshot,
    SpanEvent, SpanGuard, TRACE_ENV,
};
pub use contention::{LockTimer, LockWaitStats};
pub use mem::{AccountingSession, CountingAlloc, MemDelta, MemSite, MemSiteStats, MemSnapshot};
pub use metrics::{Histogram, MetricsRegistry};
pub use phase::{Phase, PhaseClock};
pub use timeline::{JobRecord, Profiler, TimelineSnapshot, WaveMem, WorkerTimeline, WorkerUtil};

/// Number of property-test cases to run for a given default; the
/// non-default `exhaustive` feature multiplies sampling effort the way
/// the old `proptest` dependency's case count used to.
pub fn cases(default_cases: usize) -> usize {
    if cfg!(feature = "exhaustive") {
        default_cases * 8
    } else {
        default_cases
    }
}
