//! A revision's memory accounting covers the workers that re-infer its
//! groups, not only the calling thread.
//!
//! This binary installs the counting `#[global_allocator]` and holds one
//! test, so no other test allocates while it measures.

use rowpoly_obs::mem;
use rowpoly_obs::CountingAlloc;
use rowpoly_serve::{ServeConfig, ServeEngine};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A helper shared by 24 independent groups, which `main` reads.
fn doc(helper: &str) -> String {
    let mut text = format!("def mk x = {helper}\n");
    for k in 0..24 {
        text.push_str(&format!("def use{k} = #a (mk {k}) + #a {{a = {k}}}\n"));
    }
    let uses: Vec<String> = (0..24).map(|k| format!("use{k}")).collect();
    text.push_str(&format!("def main = {}\n", uses.join(" + ")));
    text
}

#[test]
fn a_cascade_counts_the_allocations_of_every_worker() {
    assert!(mem::installed(), "counting allocator must be installed");
    let _session = mem::accounting_session();
    let mut allocs = Vec::new();
    for workers in [1, 4] {
        let mut engine = ServeEngine::new(ServeConfig::default());
        engine.set_workers(workers);
        engine.open("a.rp", doc("{a = x}"), 1);
        let edit = engine
            .change_full("a.rp", doc("@{b = x} {a = x}"), 2)
            .expect("document open");
        assert!(edit.ok);
        assert_eq!(edit.stats.verdict_recomputed, 25, "{:?}", edit.stats);
        allocs.push(edit.stats.mem.allocs);
    }
    let (one, four) = (allocs[0] as f64, allocs[1] as f64);
    assert!(one > 0.0, "accounting recorded nothing");
    assert!(
        (four - one).abs() <= 0.25 * one,
        "1 worker counted {one} allocations, 4 workers {four}"
    );
}
