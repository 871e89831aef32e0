//! The content-addressed inference cache.
//!
//! A cache entry maps the *meaning-relevant content* of a definition
//! group to the closed schemes it produced. The key hashes, in order:
//!
//! 1. the cache format version,
//! 2. a fingerprint of the inference options (anything that changes
//!    verdicts or schemes),
//! 3. the group's definitions, pretty-printed (so whitespace and
//!    comments never invalidate),
//! 4. each dependency's name and *closed scheme*, sorted by name.
//!
//! Point 4 gives incremental builds early cutoff for free: editing a
//! definition re-keys it, but its dependents only miss if the edit
//! actually changed the closed scheme they consume. There is no
//! explicit invalidation anywhere — a stale entry is simply a key
//! nobody computes any more.
//!
//! Only fully-successful groups are stored. Errors and timeouts are
//! re-inferred every run: they are cheap to reproduce (inference stops
//! at the first failure) and their diagnostics carry spans that would
//! go stale the moment the file is edited.
//!
//! Persistence is one mini-JSON document per cache directory. Loading
//! tolerates anything — a missing, truncated, corrupted, or
//! wrong-version file is an empty cache, never an error. Saving writes
//! only the entries this run touched (hit or inserted), so entries for
//! deleted code age out instead of accumulating.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rowpoly_core::DefReport;
use rowpoly_lang::Symbol;
use rowpoly_obs::contention::LockTimer;
use rowpoly_obs::json::{self, Json};
use rowpoly_obs::MemSite;

use crate::codec;

/// Bump when the key derivation or entry layout changes.
const FORMAT: &str = "rowpoly-batch-cache-v1";

/// File name inside the cache directory.
pub const CACHE_FILE: &str = "cache.json";

/// An in-memory view of the persistent cache.
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<u64, Vec<DefReport>>,
    touched: BTreeSet<u64>,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing (or an undecodable entry).
    pub misses: u64,
}

impl Cache {
    /// Loads the cache from `dir`, treating every failure mode —
    /// missing directory, unreadable file, corrupt JSON, wrong format
    /// version — as an empty cache.
    pub fn load(dir: &Path) -> Cache {
        let mut cache = Cache::default();
        let Ok(text) = std::fs::read_to_string(dir.join(CACHE_FILE)) else {
            return cache;
        };
        let Ok(doc) = json::parse(&text) else {
            return cache;
        };
        if doc.get("version").and_then(Json::as_str) != Some(FORMAT) {
            return cache;
        }
        let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
            return cache;
        };
        for entry in entries {
            let Some(defs) = decode_entry(entry) else {
                continue; // one bad entry must not poison the rest
            };
            if let Some(key) = entry
                .get("key")
                .and_then(Json::as_str)
                .and_then(|k| u64::from_str_radix(k, 16).ok())
            {
                cache.entries.insert(key, defs);
            }
        }
        cache
    }

    /// Computes a group's cache key from its pretty-printed members
    /// and its dependencies' closed schemes, already rendered to their
    /// canonical JSON (each dependency renders once, however many
    /// dependents key on it).
    pub fn key(options_fingerprint: &str, group_source: &str, deps: &[(Symbol, &str)]) -> u64 {
        let mut h = FxHash64::default();
        h.write(FORMAT.as_bytes());
        h.write(options_fingerprint.as_bytes());
        h.write(group_source.as_bytes());
        for (name, scheme_json) in deps {
            h.write(name.as_str().as_bytes());
            h.write(scheme_json.as_bytes());
        }
        h.finish()
    }

    /// Looks up a key, counting the hit or miss.
    pub fn lookup(&mut self, key: u64) -> Option<Vec<DefReport>> {
        match self.entries.get(&key) {
            Some(defs) => {
                self.hits += 1;
                self.touched.insert(key);
                Some(defs.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a fully-successful group outcome.
    pub fn insert(&mut self, key: u64, defs: Vec<DefReport>) {
        self.touched.insert(key);
        self.entries.insert(key, defs);
    }

    /// Writes the entries touched this run to `dir`, creating it if
    /// needed. Best-effort: IO failures are reported, not fatal.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut entries = Vec::new();
        for &key in &self.touched {
            let Some(defs) = self.entries.get(&key) else {
                continue;
            };
            entries.push(encode_entry(key, defs));
        }
        let doc = Json::obj(vec![
            ("version", Json::Str(FORMAT.to_string())),
            ("entries", Json::Arr(entries)),
        ]);
        // Write-then-rename so a crashed run leaves either the old
        // cache or the new one, never a torn file.
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        let target = dir.join(CACHE_FILE);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(doc.render().as_bytes())?;
            f.write_all(b"\n")?;
        }
        std::fs::rename(&tmp, &target)
    }

    /// Number of entries currently loaded or inserted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The default cache directory under a workspace root.
pub fn default_dir() -> PathBuf {
    PathBuf::from(".rowpoly-cache")
}

/// Number of [`Sharded`] stripes. A power of two so stripe selection is
/// a mask over the (already well-mixed) content fingerprint.
pub const STRIPES: usize = 8;

/// Per-stripe wait-time accounting. Each stripe is its own static
/// site (`lock.wait.batch.cache.s0` … `.s7`), so a profile shows not
/// just that cache waiting went down after sharding but how evenly the
/// fingerprints spread across stripes.
/// Attribution site for the bytes the in-memory cache holds and clones:
/// loading `cache.json`, hit clones, and inserted entries all land here
/// (see `rowpoly-obs::mem`).
static CACHE_MEM: MemSite = MemSite::new("batch.cache");

static STRIPE_LOCKS: [LockTimer; STRIPES] = [
    LockTimer::new("batch.cache.s0"),
    LockTimer::new("batch.cache.s1"),
    LockTimer::new("batch.cache.s2"),
    LockTimer::new("batch.cache.s3"),
    LockTimer::new("batch.cache.s4"),
    LockTimer::new("batch.cache.s5"),
    LockTimer::new("batch.cache.s6"),
    LockTimer::new("batch.cache.s7"),
];

/// The inference cache sharded into [`STRIPES`] independently locked
/// stripes, routed by definition-group fingerprint. Workers touching
/// different groups almost never contend: with one global mutex the
/// PR 5 profile showed `batch.cache` lock-wait reaching ~12% of worker
/// time at 8 workers, and every acquisition serialised the whole pool.
///
/// Persistence stays a single `cache.json` — [`Sharded::load`] deals
/// the entries out by fingerprint and [`Sharded::save`] merges the
/// touched entries back, so the on-disk format (and its corruption
/// tolerance) is exactly the unsharded [`Cache`]'s.
#[derive(Debug)]
pub struct Sharded {
    stripes: Vec<Mutex<Cache>>,
}

impl Sharded {
    /// An empty sharded cache (no persistence yet).
    pub fn new() -> Sharded {
        Sharded {
            stripes: (0..STRIPES).map(|_| Mutex::new(Cache::default())).collect(),
        }
    }

    /// Loads `dir` (tolerating every failure mode, like [`Cache::load`])
    /// and deals the entries out across the stripes.
    pub fn load(dir: &Path) -> Sharded {
        let _mem = CACHE_MEM.scope();
        let whole = Cache::load(dir);
        let sharded = Sharded::new();
        for (key, defs) in whole.entries {
            sharded.stripes[stripe_of(key)]
                .lock()
                .unwrap()
                .entries
                .insert(key, defs);
        }
        sharded
    }

    fn stripe(&self, key: u64) -> std::sync::MutexGuard<'_, Cache> {
        let i = stripe_of(key);
        STRIPE_LOCKS[i].lock(&self.stripes[i])
    }

    /// Looks up a key in its stripe, counting the hit or miss there.
    pub fn lookup(&self, key: u64) -> Option<Vec<DefReport>> {
        let _mem = CACHE_MEM.scope();
        self.stripe(key).lookup(key)
    }

    /// Stores a fully-successful group outcome in the key's stripe.
    pub fn insert(&self, key: u64, defs: Vec<DefReport>) {
        let _mem = CACHE_MEM.scope();
        self.stripe(key).insert(key, defs);
    }

    /// Total hits across stripes.
    pub fn hits(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().unwrap().hits).sum()
    }

    /// Total misses across stripes.
    pub fn misses(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().unwrap().misses).sum()
    }

    /// Merges every stripe's touched entries and writes one
    /// `cache.json`, with [`Cache::save`]'s write-then-rename safety.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut merged = Cache::default();
        for stripe in &self.stripes {
            let cache = stripe.lock().unwrap();
            for &key in &cache.touched {
                if let Some(defs) = cache.entries.get(&key) {
                    merged.insert(key, defs.clone());
                }
            }
        }
        merged.save(dir)
    }
}

impl Default for Sharded {
    fn default() -> Sharded {
        Sharded::new()
    }
}

fn stripe_of(key: u64) -> usize {
    // The fingerprint already went through FxHash64's multiply, so the
    // high bits are the best-mixed ones.
    (key >> (64 - STRIPES.trailing_zeros())) as usize
}

fn encode_entry(key: u64, defs: &[DefReport]) -> Json {
    Json::obj(vec![
        ("key", Json::Str(format!("{key:016x}"))),
        (
            "defs",
            Json::Arr(
                defs.iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("name", Json::Str(d.name.to_string())),
                            ("class", codec::sat_class_to_json(d.sat_class)),
                            ("scheme", codec::scheme_to_json(&d.scheme)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_entry(entry: &Json) -> Option<Vec<DefReport>> {
    let defs = entry.get("defs")?.as_arr()?;
    let mut out = Vec::with_capacity(defs.len());
    for d in defs {
        let name = Symbol::intern(d.get("name")?.as_str()?);
        let sat_class = codec::sat_class_from_json(d.get("class")?).ok()?;
        let scheme = codec::scheme_from_json(d.get("scheme")?).ok()?;
        out.push(DefReport {
            name,
            scheme,
            sat_class,
        });
    }
    Some(out)
}

/// The 64-bit Fx hash (the FxHasher folding step over byte blocks):
/// fast, deterministic across runs and platforms, and entirely
/// dependency-free. Not cryptographic — a cache key, not a defence.
#[derive(Default)]
pub struct FxHash64 {
    hash: u64,
}

impl FxHash64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    /// Folds bytes into the state, 8 at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().unwrap());
            self.add(word);
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= (b as u64) << (8 * i);
        }
        // Always fold the tail (even when empty) so "ab"+"" and
        // "a"+"b" reach different states than plain "ab" would not.
        self.add(tail ^ (bytes.len() as u64));
    }

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_boolfun::SatClass;
    use rowpoly_types::{Scheme, Ty};

    fn defs() -> Vec<DefReport> {
        vec![DefReport {
            name: Symbol::intern("one"),
            scheme: Scheme::new(vec![], Ty::Int),
            sat_class: SatClass::Trivial,
        }]
    }

    #[test]
    fn keys_separate_source_options_and_deps() {
        let json = |ty| codec::scheme_to_json(&Scheme::new(vec![], ty)).render();
        let (int, string) = (json(Ty::Int), json(Ty::Str));
        let dep = [(Symbol::intern("d"), int.as_str())];
        let dep2 = [(Symbol::intern("d"), string.as_str())];
        let base = Cache::key("fp", "def a = 1", &dep);
        assert_ne!(base, Cache::key("fp", "def a = 2", &dep));
        assert_ne!(base, Cache::key("fp2", "def a = 1", &dep));
        assert_ne!(base, Cache::key("fp", "def a = 1", &dep2));
        assert_ne!(base, Cache::key("fp", "def a = 1", &[]));
    }

    #[test]
    fn roundtrips_through_disk_and_counts_hits() {
        let dir = std::env::temp_dir().join(format!("rowpoly-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = Cache::default();
        cache.insert(42, defs());
        cache.save(&dir).expect("saves");

        let mut back = Cache::load(&dir);
        assert_eq!(back.len(), 1);
        let got = back.lookup(42).expect("hit");
        assert_eq!(got[0].name, Symbol::intern("one"));
        assert_eq!(back.hits, 1);
        assert!(back.lookup(7).is_none());
        assert_eq!(back.misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_or_alien_files_load_as_empty() {
        let dir =
            std::env::temp_dir().join(format!("rowpoly-cache-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for bad in [
            "",
            "not json",
            "{\"version\":\"other\",\"entries\":[]}",
            "[1,2]",
        ] {
            std::fs::write(dir.join(CACHE_FILE), bad).unwrap();
            assert!(Cache::load(&dir).is_empty(), "loaded entries from {bad:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_prunes_untouched_entries() {
        let dir =
            std::env::temp_dir().join(format!("rowpoly-cache-prune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = Cache::default();
        cache.insert(1, defs());
        cache.insert(2, defs());
        cache.save(&dir).expect("saves");

        let mut second = Cache::load(&dir);
        assert_eq!(second.len(), 2);
        let _ = second.lookup(1);
        second.save(&dir).expect("saves");

        let third = Cache::load(&dir);
        assert_eq!(third.len(), 1, "untouched entry survived the save");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
