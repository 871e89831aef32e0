//! The hot in-memory memo layer of the query graph.
//!
//! Every memoized query result is keyed by a 64-bit content
//! fingerprint (the same [`rowpoly_batch::cache::Cache::key`]
//! derivation the persistent cache uses), so the store needs no
//! explicit invalidation: an edit re-keys exactly the queries whose
//! *meaning-relevant* inputs changed, and a stale entry is simply a
//! key nobody asks for any more. What the store does need is
//! *eviction* — a long-lived daemon would otherwise accumulate one
//! entry per historical revision of every definition — so entries
//! carry the revision that last touched them and [`Memo::prune`]
//! drops the least-recently-used half once a cap is exceeded.
//!
//! The memo is bounded two ways: an entry-count cap and an optional
//! *byte* bound. Each entry carries a deterministic size estimate
//! (struct sizes plus the canonical-JSON length of its schemes — the
//! same rendering the cache keys already use), accumulated into
//! [`Memo::live_bytes`], so the bound holds identically whether or not
//! the counting allocator is enabled. Real allocator attribution runs
//! alongside: memo mutations execute under the `serve.memo`
//! [`MemSite`], so `rowpoly serve` memory reports show the memo's
//! measured net bytes next to this estimate.

use std::collections::HashMap;

use rowpoly_batch::codec;
use rowpoly_core::DefReport;
use rowpoly_obs::MemSite;

/// Attribution site for the memo table's allocations (see
/// `rowpoly-obs::mem`). Lookup and insert both run under it.
static MEMO_MEM: MemSite = MemSite::new("serve.memo");

/// One memoized verdict-query result: the closed per-definition
/// outcomes of a fully-successful group (the serve layer, like the
/// persistent cache, never memoizes failures — they are cheap to
/// reproduce and their diagnostics carry spans that go stale with the
/// next keystroke).
#[derive(Debug)]
struct Entry {
    defs: Vec<DefReport>,
    last_used: u64,
    /// Deterministic size estimate of this entry (see [`entry_bytes`]).
    bytes: u64,
}

/// A bounded, revision-stamped memo table.
#[derive(Debug)]
pub struct Memo {
    entries: HashMap<u64, Entry>,
    /// Entry cap; pruning kicks in above it.
    cap: usize,
    /// Optional byte bound over the summed entry estimates; pruning
    /// also kicks in above it.
    max_bytes: Option<u64>,
    /// Sum of the live entries' size estimates.
    live_bytes: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by pruning.
    pub evicted: u64,
}

/// Deterministic size estimate of one memo entry: fixed struct sizes
/// plus the canonical-JSON length of each scheme — the same rendering
/// [`rowpoly_batch::cache::Cache::key`] hashes, so the estimate tracks
/// the scheme's real complexity without depending on allocator state.
fn entry_bytes(defs: &[DefReport]) -> u64 {
    let fixed = std::mem::size_of::<Entry>() + std::mem::size_of_val(defs);
    let schemes: usize = defs
        .iter()
        .map(|d| codec::scheme_to_json(&d.scheme).render().len())
        .sum();
    (fixed + schemes) as u64
}

impl Memo {
    /// A memo bounded to `cap` entries (no byte bound).
    pub fn new(cap: usize) -> Memo {
        Memo::with_bounds(cap, None)
    }

    /// A memo bounded to `cap` entries and, when given, `max_bytes` of
    /// estimated entry weight.
    pub fn with_bounds(cap: usize, max_bytes: Option<u64>) -> Memo {
        Memo {
            entries: HashMap::new(),
            cap: cap.max(2),
            max_bytes,
            live_bytes: 0,
            hits: 0,
            misses: 0,
            evicted: 0,
        }
    }

    /// Looks up `key`, stamping the entry with `revision` and counting
    /// the hit or miss.
    pub fn lookup(&mut self, key: u64, revision: u64) -> Option<&[DefReport]> {
        let _mem = MEMO_MEM.scope();
        match self.entries.get_mut(&key) {
            Some(entry) => {
                self.hits += 1;
                entry.last_used = revision;
                Some(&entry.defs)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a group outcome under `key`.
    pub fn insert(&mut self, key: u64, defs: Vec<DefReport>, revision: u64) {
        let _mem = MEMO_MEM.scope();
        let bytes = entry_bytes(&defs);
        let old = self.entries.insert(
            key,
            Entry {
                defs,
                last_used: revision,
                bytes,
            },
        );
        self.live_bytes += bytes;
        if let Some(old) = old {
            self.live_bytes -= old.bytes;
        }
        self.prune();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed size estimate of the live entries.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// The configured byte bound, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Drops least-recently-used halves of the entries while either
    /// bound (entry cap or byte bound) is exceeded. Amortized O(1) per
    /// insert for the cap: pruning halves the table, so it runs at most
    /// once per cap/2 inserts. The byte bound iterates because one
    /// halving may not shed enough weight; every pass removes at least
    /// one entry, so it terminates (an over-bound *single* entry is
    /// kept — the memo never evicts below one entry).
    fn prune(&mut self) {
        loop {
            let over_cap = self.entries.len() > self.cap;
            let over_bytes = self.max_bytes.is_some_and(|mb| self.live_bytes > mb);
            if !(over_cap || over_bytes) || self.entries.len() <= 1 {
                return;
            }
            let mut stamps: Vec<u64> = self.entries.values().map(|e| e.last_used).collect();
            stamps.sort_unstable();
            let cutoff = stamps[stamps.len() / 2];
            let before = self.entries.len();
            // Keep entries used strictly after the median stamp, plus
            // enough at the median to stay near half occupancy.
            let mut freed = 0u64;
            self.entries.retain(|_, e| {
                let keep = e.last_used > cutoff;
                if !keep {
                    freed += e.bytes;
                }
                keep
            });
            self.live_bytes -= freed;
            let dropped = before - self.entries.len();
            self.evicted += dropped as u64;
            if dropped == 0 {
                // Every entry shares the newest stamp; nothing more to
                // distinguish by recency.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_boolfun::SatClass;
    use rowpoly_lang::Symbol;
    use rowpoly_types::{Scheme, Ty};

    fn defs(tag: &str) -> Vec<DefReport> {
        vec![DefReport {
            name: Symbol::intern(tag),
            scheme: Scheme::new(vec![], Ty::Int),
            sat_class: SatClass::Trivial,
        }]
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut m = Memo::new(16);
        assert!(m.lookup(1, 0).is_none());
        m.insert(1, defs("a"), 0);
        assert!(m.lookup(1, 1).is_some());
        assert_eq!((m.hits, m.misses), (1, 1));
    }

    #[test]
    fn pruning_keeps_recently_used_entries() {
        let mut m = Memo::new(8);
        for key in 0..8u64 {
            m.insert(key, defs("old"), key);
        }
        // Refresh key 7 at a late revision, then overflow the cap.
        assert!(m.lookup(7, 100).is_some());
        m.insert(99, defs("new"), 101);
        assert!(m.len() <= 8, "pruned below cap, got {}", m.len());
        assert!(m.evicted > 0);
        assert!(m.lookup(7, 102).is_some(), "recently-used entry survived");
        assert!(m.lookup(99, 102).is_some(), "new entry survived");
    }
}
