//! End-to-end counting-allocator tests.
//!
//! This test binary installs [`CountingAlloc`] as its global
//! allocator, so the hooks genuinely fire — unlike the crate's unit
//! tests, which only exercise the bookkeeping. Tests here run
//! concurrently in one process, and each counts only on the threads of
//! its own recorder, but the process ledger still sums every slot, so
//! every assertion is phrased over *thread-local* deltas, floors, or
//! the test thread's own recorder; process-global
//! exact-equality invariants live in `crates/batch/tests/mem_stress.rs`,
//! whose binary runs a single test.

use std::hint::black_box;

use rowpoly_obs::mem::{self, CountingAlloc, MemSite};
use rowpoly_obs::{Phase, PhaseClock, Recorder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn allocator_counts_thread_deltas_exactly() {
    let _session = mem::accounting_session();
    assert!(mem::installed());

    let mark = mem::thread_mark();
    let v = black_box(vec![0u8; 4096]);
    let d = mem::thread_delta_since(&mark);
    assert!(d.alloc_bytes >= 4096, "alloc not counted: {d:?}");
    assert!(d.allocs >= 1);
    assert_eq!(d.deallocs, 0, "nothing freed yet: {d:?}");

    drop(black_box(v));
    let d = mem::thread_delta_since(&mark);
    assert!(d.freed_bytes >= 4096, "free not counted: {d:?}");
    assert!(d.deallocs >= 1);
    assert_eq!(d.net_bytes(), 0, "balanced window: {d:?}");
}

#[test]
fn reallocs_count_both_halves() {
    let _session = mem::accounting_session();
    let mark = mem::thread_mark();
    let mut v: Vec<u64> = Vec::with_capacity(4);
    for i in 0..1024u64 {
        v.push(i);
    }
    let d = mem::thread_delta_since(&mark);
    // Growing 4 → 1024 capacity reallocs several times; each one is
    // an alloc plus a dealloc of the old block.
    assert!(d.allocs >= 3, "{d:?}");
    assert!(d.deallocs >= 2, "{d:?}");
    assert!(d.alloc_bytes >= 1024 * 8, "{d:?}");
    drop(black_box(v));
}

#[test]
fn global_ledger_observes_this_thread() {
    let _session = mem::accounting_session();
    let before = mem::snapshot();
    let v = black_box(vec![0u8; 1 << 20]);
    let after = mem::snapshot();
    let d = after.delta_since(&before);
    // Other tests only ever add, so our megabyte is a floor.
    assert!(d.alloc_bytes >= 1 << 20, "{d:?}");
    assert!(after.peak_bytes >= before.peak_bytes, "peak is monotone");
    assert!(
        after.size_hist.iter().sum::<u64>() > before.size_hist.iter().sum::<u64>(),
        "size histogram advanced"
    );
    drop(black_box(v));
}

static OUTER: MemSite = MemSite::new("test.scope.outer");
static INNER: MemSite = MemSite::new("test.scope.inner");

#[test]
fn scopes_attribute_bytes_exclusively() {
    let _session = mem::accounting_session();
    {
        let _o = OUTER.scope();
        let a = black_box(vec![0u8; 10_000]);
        {
            let _i = INNER.scope();
            let b = black_box(vec![0u8; 20_000]);
            drop(black_box(b));
        }
        drop(black_box(a));
    }
    let sites = rowpoly_obs::snapshot().sites;
    let outer = sites.iter().find(|s| s.name == "test.scope.outer").unwrap();
    let inner = sites.iter().find(|s| s.name == "test.scope.inner").unwrap();
    assert!(
        (10_000..15_000).contains(&outer.delta.alloc_bytes),
        "outer must get its own 10k but not the nested 20k: {outer:?}"
    );
    assert!(
        (20_000..25_000).contains(&inner.delta.alloc_bytes),
        "inner gets exactly the nested allocation: {inner:?}"
    );
    assert!(outer.delta.freed_bytes >= 10_000, "{outer:?}");
    assert!(inner.delta.freed_bytes >= 20_000, "{inner:?}");
    assert_eq!(outer.enters, 1);
    assert_eq!(inner.enters, 1);
}

#[test]
fn phase_clock_attributes_bytes_exclusively() {
    let _session = mem::accounting_session();
    let mut clock = PhaseClock::new();
    clock.enter(Phase::ApplyS);
    let a = black_box(vec![0u8; 50_000]);
    clock.enter(Phase::Project);
    let b = black_box(vec![0u8; 70_000]);
    clock.exit();
    clock.exit();
    assert!(
        (50_000..60_000).contains(&clock.alloc_bytes(Phase::ApplyS)),
        "applys gets its own 50k, not the nested 70k: {}",
        clock.alloc_bytes(Phase::ApplyS)
    );
    assert!(
        (70_000..80_000).contains(&clock.alloc_bytes(Phase::Project)),
        "project gets exactly the nested allocation: {}",
        clock.alloc_bytes(Phase::Project)
    );
    assert_eq!(clock.alloc_bytes(Phase::Unify), 0);
    drop(black_box((a, b)));
}

#[test]
fn worker_slots_survive_their_threads() {
    let _session = mem::accounting_session();
    let recorder = Recorder::current();
    let before = mem::slots_snapshot();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let recorder = recorder.clone();
            std::thread::spawn(move || {
                // Workers count while they are in a recorder that
                // accounts, as batch workers are.
                let _in = recorder.enter_worker(i);
                let v = black_box(vec![i as u8; 100_000]);
                drop(black_box(v));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let after = mem::slots_snapshot();
    assert!(
        after.len() >= before.len(),
        "slots are never dropped from the registry"
    );
    let merged = mem::slots_delta(&after, &before);
    // Each worker allocated at least 100k on its own (new) slot.
    assert!(merged.alloc_bytes >= 400_000, "{merged:?}");
    assert!(merged.freed_bytes >= 400_000, "{merged:?}");
}
