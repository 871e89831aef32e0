//! Interned identifiers, sharded for parallel inference.
//!
//! The interner is the one piece of state every inference worker
//! touches constantly: `Symbol` ordering compares *spellings* (so
//! sorted field rows print deterministically), which means every
//! `BTreeMap<Symbol, _>` probe resolves symbols to strings. With the
//! original single `Mutex<Interner>`, four workers spent most of a
//! "busy" run convoying on that mutex. The design here makes the hot
//! paths (`as_str`, repeat `intern`) lock-free:
//!
//! * **Sharding** — a fixed power-of-two array of [`SHARDS`] shards,
//!   routed by the top bits of the spelling's hash. A symbol id packs
//!   its shard in the low [`SHARD_BITS`] bits and its per-shard index
//!   above them, so resolution never consults a global map.
//! * **Append-only string table** — each shard stores resolved
//!   spellings in chunked, never-moving storage: chunk `c` holds
//!   `1024 << c` cells, allocated on demand and published with a
//!   `Release` store, so readers index it without locks and without
//!   ever observing a half-built reallocation.
//! * **Lock-free probe table** — lookups linear-probe a table of
//!   `AtomicU64` slots packing `(hash tag << 32) | (index + 1)`.
//!   Slots are published with `Release` after the spelling cell is
//!   written, so an `Acquire` probe hit always sees the string.
//! * **Write lock only on first intern** — a miss takes the shard's
//!   writer mutex (instrumented as `lang.interner.s0`…`s15` so the
//!   profiler can still see it), **re-probes under the lock**, and
//!   only then leaks the spelling. Racing threads interning the same
//!   new name agree on one id and never double-leak.
//!
//! Probe tables grow under the writer lock at 7/8 occupancy; the old
//! table is leaked because concurrent readers may still hold it (the
//! interner leaks by design — it lives for the process).

use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;

use rowpoly_obs::contention::LockTimer;
use rowpoly_obs::MemSite;

/// Shard count is `1 << SHARD_BITS`; the shard id lives in the low
/// bits of a [`Symbol`]'s representation.
const SHARD_BITS: u32 = 4;
/// Number of interner shards (16). Plenty for the worker counts the
/// batch pool runs; the profiler shows per-shard contention if not.
const SHARDS: usize = 1 << SHARD_BITS;
const SHARD_MASK: u32 = (SHARDS as u32) - 1;

/// Chunk 0 holds `1 << CHUNK_BASE_LOG2` spellings; each subsequent
/// chunk doubles, so [`CHUNKS`] chunks cover ~67M symbols per shard.
const CHUNK_BASE_LOG2: u32 = 10;
const CHUNKS: usize = 16;

/// Wait-time accounting for the per-shard writer locks
/// (`lock.wait.lang.interner.s0`…`s15` in profile reports). Only the
/// *first* intern of a new spelling takes one of these; steady-state
/// interning and all `as_str` resolution are lock-free, so sustained
/// waits here mean the workload is minting new symbols concurrently.
static SHARD_LOCKS: [LockTimer; SHARDS] = [
    LockTimer::new("lang.interner.s0"),
    LockTimer::new("lang.interner.s1"),
    LockTimer::new("lang.interner.s2"),
    LockTimer::new("lang.interner.s3"),
    LockTimer::new("lang.interner.s4"),
    LockTimer::new("lang.interner.s5"),
    LockTimer::new("lang.interner.s6"),
    LockTimer::new("lang.interner.s7"),
    LockTimer::new("lang.interner.s8"),
    LockTimer::new("lang.interner.s9"),
    LockTimer::new("lang.interner.s10"),
    LockTimer::new("lang.interner.s11"),
    LockTimer::new("lang.interner.s12"),
    LockTimer::new("lang.interner.s13"),
    LockTimer::new("lang.interner.s14"),
    LockTimer::new("lang.interner.s15"),
];

static SHARD_TABLE: [Shard; SHARDS] = [const { Shard::new() }; SHARDS];

/// Attribution site for the interner's (deliberately leaked) spelling
/// storage and probe tables. Only the first-intern slow path allocates,
/// so steady-state interning charges nothing here.
static INTERNER_MEM: MemSite = MemSite::new("lang.interner");

/// An interned identifier (program variable or record field name).
///
/// Symbols are process-global: the same spelling always interns to the same
/// `Symbol`, so equality is a single integer comparison. Ordering compares
/// the *spelling*, not the interning order, so that sorted field rows print
/// deterministically regardless of parse order.
///
/// Interned strings are leaked (the interner lives for the process), which
/// is the usual trade-off for compiler identifiers.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// The lock-free probe table of one shard: linear probing over slots
/// packing `(spelling-hash tag << 32) | (shard index + 1)`; 0 = empty.
/// Never more than 7/8 full, so reader probes always terminate.
struct Table {
    mask: u64,
    slots: Box<[AtomicU64]>,
}

struct WriterState {
    /// Number of spellings this shard has interned (= next index).
    len: u32,
}

struct Shard {
    /// Chunked append-only spelling storage. Each cell holds a leaked
    /// `*mut &'static str` (a stable allocation for the fat pointer,
    /// so it can be published atomically); null = not yet interned.
    chunks: [AtomicPtr<AtomicPtr<&'static str>>; CHUNKS],
    /// Current probe table; replaced (and the old one leaked) on
    /// growth. Null until the shard's first intern.
    table: AtomicPtr<Table>,
    /// Serializes first-intern writes and table growth.
    writer: Mutex<WriterState>,
}

/// `(chunk, offset)` for a shard-local index. Chunk `c` starts at
/// index `((1 << c) - 1) << CHUNK_BASE_LOG2` and holds
/// `1 << (CHUNK_BASE_LOG2 + c)` cells.
fn chunk_pos(idx: u32) -> (usize, usize) {
    let t = (idx >> CHUNK_BASE_LOG2) + 1;
    let c = 31 - t.leading_zeros();
    let base = ((1u32 << c) - 1) << CHUNK_BASE_LOG2;
    (c as usize, (idx - base) as usize)
}

/// FxHash over the spelling. Collisions are harmless (probe hits
/// compare the actual strings); the top bits route the shard and the
/// low 32 become the slot tag, so the two never alias.
fn hash_spelling(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h.rotate_left(5) ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(SEED);
    }
    let mut tail = bytes.len() as u64;
    for &b in chunks.remainder() {
        tail = (tail << 8) | b as u64;
    }
    (h.rotate_left(5) ^ tail).wrapping_mul(SEED)
}

impl Shard {
    const fn new() -> Shard {
        Shard {
            chunks: [const { AtomicPtr::new(ptr::null_mut()) }; CHUNKS],
            table: AtomicPtr::new(ptr::null_mut()),
            writer: Mutex::new(WriterState { len: 0 }),
        }
    }

    /// The spelling at shard index `idx`. Lock-free: the cell was
    /// `Release`-published before any id naming it became visible.
    fn resolve(&self, idx: u32) -> &'static str {
        let (c, off) = chunk_pos(idx);
        let chunk = self.chunks[c].load(Ordering::Acquire);
        assert!(!chunk.is_null(), "symbol id was never interned");
        // In-bounds: chunk `c` was allocated with its full capacity and
        // `off < 1 << (CHUNK_BASE_LOG2 + c)` by construction.
        let cell = unsafe { &*chunk.add(off) };
        let p = cell.load(Ordering::Acquire);
        assert!(!p.is_null(), "symbol id was never interned");
        unsafe { *p }
    }

    /// Lock-free lookup of `name` (with hash `h`) in the current probe
    /// table. A miss is *not* authoritative during a concurrent first
    /// intern — the slow path re-probes under the writer lock.
    fn lookup(&self, name: &str, h: u64) -> Option<u32> {
        let table = self.table.load(Ordering::Acquire);
        if table.is_null() {
            return None;
        }
        let table = unsafe { &*table };
        let tag = (h as u32 as u64) << 32;
        let mut i = (h >> 32) & table.mask;
        loop {
            let slot = table.slots[i as usize].load(Ordering::Acquire);
            if slot == 0 {
                return None;
            }
            if slot & 0xFFFF_FFFF_0000_0000 == tag {
                let idx = (slot as u32) - 1;
                if self.resolve(idx) == name {
                    return Some(idx);
                }
            }
            i = (i + 1) & table.mask;
        }
    }

    /// First-intern path: takes the shard writer lock, re-probes (a
    /// racing thread may have won), and only then leaks the spelling
    /// and publishes it — cell first, probe slot second, both
    /// `Release`, so readers that see the slot see the string.
    fn intern_slow(&'static self, name: &str, h: u64, site: &'static LockTimer) -> u32 {
        let _mem = INTERNER_MEM.scope();
        let mut state = site.lock(&self.writer);
        // Dedup before leaking: under the lock a miss is authoritative
        // because every insert serializes on this mutex.
        if let Some(idx) = self.lookup(name, h) {
            return idx;
        }
        let idx = state.len;
        self.ensure_table(idx);

        let (c, off) = chunk_pos(idx);
        let mut chunk = self.chunks[c].load(Ordering::Relaxed);
        if chunk.is_null() {
            let cap = 1usize << (CHUNK_BASE_LOG2 + c as u32);
            let cells: Box<[AtomicPtr<&'static str>]> =
                (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
            chunk = Box::leak(cells).as_mut_ptr();
            self.chunks[c].store(chunk, Ordering::Release);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let cell_val: *mut &'static str = Box::leak(Box::new(leaked));
        unsafe { (*chunk.add(off)).store(cell_val, Ordering::Release) };

        let table = unsafe { &*self.table.load(Ordering::Relaxed) };
        let slot_val = ((h as u32 as u64) << 32) | (idx as u64 + 1);
        let mut i = (h >> 32) & table.mask;
        loop {
            let slot = &table.slots[i as usize];
            if slot.load(Ordering::Relaxed) == 0 {
                slot.store(slot_val, Ordering::Release);
                break;
            }
            i = (i + 1) & table.mask;
        }
        state.len = idx + 1;
        idx
    }

    /// Guarantees the probe table can take one more entry while
    /// staying under 7/8 occupancy; grows and republishes it if not.
    /// Caller holds the writer lock. The old table is leaked because
    /// lock-free readers may still be probing it.
    fn ensure_table(&self, len: u32) {
        let old = self.table.load(Ordering::Relaxed);
        let old_cap = if old.is_null() {
            0
        } else {
            unsafe { (*old).mask as usize + 1 }
        };
        if old_cap > 0 && (len as usize + 1) * 8 <= old_cap * 7 {
            return;
        }
        let mut cap = (old_cap * 2).max(64);
        while (len as usize + 1) * 8 > cap * 7 {
            cap *= 2;
        }
        let table = Table {
            mask: cap as u64 - 1,
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        };
        for idx in 0..len {
            let h = hash_spelling(self.resolve(idx).as_bytes());
            let slot_val = ((h as u32 as u64) << 32) | (idx as u64 + 1);
            let mut i = (h >> 32) & table.mask;
            loop {
                let slot = &table.slots[i as usize];
                if slot.load(Ordering::Relaxed) == 0 {
                    slot.store(slot_val, Ordering::Relaxed);
                    break;
                }
                i = (i + 1) & table.mask;
            }
        }
        self.table
            .store(Box::leak(Box::new(table)), Ordering::Release);
    }
}

impl Symbol {
    /// Interns `name`, returning its unique symbol. Lock-free for
    /// spellings already interned; a miss takes one shard's writer
    /// lock (visible as `lock.wait.lang.interner.s*` in profiles).
    pub fn intern(name: &str) -> Symbol {
        let h = hash_spelling(name.as_bytes());
        let shard = (h >> (64 - SHARD_BITS)) as usize;
        let s = &SHARD_TABLE[shard];
        let idx = match s.lookup(name, h) {
            Some(idx) => idx,
            None => s.intern_slow(name, h, &SHARD_LOCKS[shard]),
        };
        Symbol((idx << SHARD_BITS) | shard as u32)
    }

    /// The spelling of this symbol. Lock-free.
    pub fn as_str(self) -> &'static str {
        SHARD_TABLE[(self.0 & SHARD_MASK) as usize].resolve(self.0 >> SHARD_BITS)
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::intern("foo"), Symbol::intern("foo"));
        assert_ne!(Symbol::intern("foo"), Symbol::intern("bar"));
        assert_eq!(Symbol::intern("foo").as_str(), "foo");
    }

    #[test]
    fn ordering_is_by_spelling() {
        // Intern in reverse lexicographic order; Ord must still be textual.
        let z = Symbol::intern("zzz_order");
        let a = Symbol::intern("aaa_order");
        assert!(a < z);
    }

    #[test]
    fn chunk_positions_tile_the_index_space() {
        assert_eq!(chunk_pos(0), (0, 0));
        assert_eq!(chunk_pos(1023), (0, 1023));
        assert_eq!(chunk_pos(1024), (1, 0));
        assert_eq!(chunk_pos(3071), (1, 2047));
        assert_eq!(chunk_pos(3072), (2, 0));
        assert_eq!(chunk_pos(3072 + 4095), (2, 4095));
        assert_eq!(chunk_pos(7168), (3, 0));
    }

    #[test]
    fn growth_survives_many_unique_spellings() {
        // Enough unique names to grow every shard's probe table
        // several times and spill shard storage past chunk 0.
        let syms: Vec<Symbol> = (0..20_000)
            .map(|i| Symbol::intern(&format!("growth_test_sym_{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("growth_test_sym_{i}"));
            assert_eq!(Symbol::intern(&format!("growth_test_sym_{i}")), *s);
        }
    }

    #[test]
    fn concurrent_interning_of_the_same_set_agrees_on_ids() {
        // N threads race to intern the same spellings in different
        // orders; everyone must end up with identical Symbol ids, and
        // the spellings must round-trip (no duplicate leaks winning).
        let names: Vec<String> = (0..512).map(|i| format!("race_same_{i}")).collect();
        let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            (0..8usize)
                .map(|t| {
                    let names = &names;
                    scope.spawn(move || {
                        let mut out = vec![Symbol::intern("race_same_placeholder"); names.len()];
                        for k in 0..names.len() {
                            let i = (k + t * 67) % names.len();
                            out[i] = Symbol::intern(&names[i]);
                        }
                        out
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for got in &per_thread[1..] {
            assert_eq!(got, &per_thread[0]);
        }
        for (i, s) in per_thread[0].iter().enumerate() {
            assert_eq!(s.as_str(), names[i]);
        }
    }

    #[test]
    fn concurrent_interning_of_disjoint_sets_stays_disjoint() {
        let all: Vec<Symbol> = std::thread::scope(|scope| {
            (0..8usize)
                .map(|t| {
                    scope.spawn(move || {
                        (0..256)
                            .map(|i| Symbol::intern(&format!("race_disjoint_{t}_{i}")))
                            .collect::<Vec<Symbol>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut ids: Vec<Symbol> = all.clone();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "disjoint spellings got equal ids");
        // Re-interning after the race must not mint new ids.
        for s in &all {
            assert_eq!(Symbol::intern(s.as_str()), *s);
        }
    }
}
