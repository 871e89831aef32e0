//! The content-addressed verdict store, shared by `rowpoly check` and
//! `rowpoly serve`.
//!
//! A cache entry maps the *meaning-relevant content* of a definition
//! group to the closed schemes it produced. The key hashes, in order:
//!
//! 1. the cache format version,
//! 2. a fingerprint of the inference options (anything that changes
//!    verdicts or schemes),
//! 3. one digest per group member ([`def_digest`]: the Fx hash of the
//!    pretty-printed definition, so whitespace and comments never
//!    invalidate),
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
//! Persistence is one mini-JSON document per cache directory,
//! `{"version": …, "entries": [ … ]}`, written with its header on the
//! first line and each entry on a line of its own. Loading reads it
//! line by line and tolerates anything: a missing, truncated,
//! corrupted, or wrong-version file is an empty cache, never an error,
//! and an entry line that fails to parse or decode (say, a scheme nested
//! past the JSON parser's bound) drops only its own entry. What saving
//! writes follows from whether the store is bounded (see [`Cache`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use rowpoly_core::DefReport;
use rowpoly_lang::{Def, Symbol};
use rowpoly_obs::contention::LockTimer;
use rowpoly_obs::json::{self, Json};
use rowpoly_obs::MemSite;

use crate::codec;
use crate::step::Answer;

/// Bump when the key derivation or entry layout changes.
const FORMAT: &str = "rowpoly-batch-cache-v3";

/// File name inside the cache directory.
pub const CACHE_FILE: &str = "cache.json";

/// Entry cap of a bounded store: above it, pruning kicks in.
pub const BOUNDED_CAP: usize = 4096;

/// Attribution site for the bytes the store holds and clones: loading
/// `cache.json`, hit clones, and inserted entries all land here (see
/// `rowpoly-obs::mem`).
static CACHE_MEM: MemSite = MemSite::new("batch.cache");

/// The closed per-definition reports of the members of a group that
/// checked, with each member's canonical scheme JSON (what dependents
/// key on) and rendered scheme (what reports show), each made at most
/// once. A store entry is one of these behind an [`Arc`], shared by
/// every result that replays it: a hit neither copies nor re-renders.
#[derive(Debug)]
pub struct Checked {
    /// The reports, in group order.
    pub defs: Vec<DefReport>,
    json: Vec<OnceLock<String>>,
    rendered: Vec<OnceLock<String>>,
}

impl Checked {
    /// Wraps reports whose derived strings are not made yet.
    pub fn new(defs: Vec<DefReport>) -> Checked {
        Checked {
            json: defs.iter().map(|_| OnceLock::new()).collect(),
            rendered: defs.iter().map(|_| OnceLock::new()).collect(),
            defs,
        }
    }

    /// Canonical JSON of member `k`'s closed scheme.
    pub fn scheme_json(&self, k: usize) -> &str {
        self.json[k].get_or_init(|| codec::scheme_to_json(&self.defs[k].scheme).render())
    }

    /// Member `k`'s scheme rendered without flags.
    pub fn rendered(&self, k: usize) -> &str {
        self.rendered[k].get_or_init(|| self.defs[k].render(false))
    }
}

/// One stored group outcome: a fully-successful group's reports.
#[derive(Debug)]
struct Entry {
    checked: Arc<Checked>,
    /// Stamp of the last use: 0 for an entry loaded from disk and not
    /// used since, otherwise the caller's stamp at its last lookup or
    /// insert.
    last_used: u64,
    /// Deterministic size estimate (see [`entry_bytes`]); 0 in an
    /// unbounded store, which never computes one.
    bytes: u64,
}

/// The keyed store of closed group outcomes, in memory.
///
/// A store is either *bounded* ([`Cache::bounded`], the serve daemon's)
/// or unbounded ([`Cache::default`], one `check` run's). A bounded store
/// keeps at most [`BOUNDED_CAP`] entries and a byte bound over the
/// entries' deterministic size estimates — struct sizes plus the
/// canonical-JSON length of each scheme, so the bound holds identically
/// whether or not the counting allocator is enabled. Above either bound
/// [`Cache::insert`] prunes the least-recently-used half.
///
/// The bound also decides what [`Cache::save`] writes: a bounded store
/// writes every entry it holds, since the bound already limits it; an
/// unbounded store writes only the entries this process used or
/// inserted, so entries for deleted code age out of `cache.json`.
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<u64, Entry>,
    /// `(entry cap, byte bound)`; `None` for an unbounded store.
    bound: Option<(usize, u64)>,
    /// Sum of the entries' size estimates.
    live_bytes: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by pruning.
    pub evicted: u64,
}

/// Deterministic size estimate of one entry: fixed struct sizes plus
/// the canonical-JSON length of each scheme — the same rendering
/// [`Cache::key`] hashes, so the estimate tracks the scheme's real
/// complexity without depending on allocator state. The JSON is kept
/// in the entry for the dependents that key on it.
fn entry_bytes(checked: &Checked) -> u64 {
    let fixed = std::mem::size_of::<Entry>() + std::mem::size_of_val(checked.defs.as_slice());
    let schemes: usize = (0..checked.defs.len())
        .map(|k| checked.scheme_json(k).len())
        .sum();
    (fixed + schemes) as u64
}

/// The content digest of one definition: the Fx hash of its
/// pretty-printed form. A group's key folds one per member, so a caller
/// that keeps a definition's AST (the serve daemon) keeps its digest.
pub fn def_digest(def: &Def) -> u64 {
    let mut h = FxHash64::default();
    h.write(rowpoly_lang::pretty_def(def).as_bytes());
    h.finish()
}

impl Cache {
    /// An empty store bounded to [`BOUNDED_CAP`] entries and
    /// `max_bytes` of estimated entry weight.
    pub fn bounded(max_bytes: u64) -> Cache {
        Cache {
            bound: Some((BOUNDED_CAP, max_bytes)),
            ..Cache::default()
        }
    }

    /// Adds the entries of `dir`'s cache file at stamp 0, treating
    /// every failure mode — missing directory, unreadable file, corrupt
    /// JSON, wrong format version — as an empty file.
    pub fn load(&mut self, dir: &Path) {
        let _mem = CACHE_MEM.scope();
        for (key, defs) in read(dir) {
            self.put(key, Arc::new(Checked::new(defs)), 0);
        }
    }

    /// Computes a group's cache key from its members' digests
    /// ([`def_digest`], in group order) and its dependencies' closed
    /// schemes, already rendered to their canonical JSON (each
    /// dependency renders once, however many dependents key on it).
    pub fn key(options_fingerprint: &str, members: &[u64], deps: &[(Symbol, &str)]) -> u64 {
        let mut h = FxHash64::default();
        h.write(FORMAT.as_bytes());
        h.write(options_fingerprint.as_bytes());
        for digest in members {
            h.add(*digest);
        }
        h.add(members.len() as u64);
        for (name, scheme_json) in deps {
            h.write(name.as_str().as_bytes());
            h.write(scheme_json.as_bytes());
        }
        h.finish()
    }

    /// Looks up a key, counting the hit or miss and stamping the entry
    /// with `stamp` (which must be above 0). A hit on an entry still at
    /// stamp 0 — loaded from disk, unused since — is [`Answer::Disk`];
    /// any other hit is [`Answer::Memo`].
    pub fn lookup(&mut self, key: u64, stamp: u64) -> Option<(Answer, Arc<Checked>)> {
        let _mem = CACHE_MEM.scope();
        match self.entries.get_mut(&key) {
            Some(entry) => {
                self.hits += 1;
                let answer = if entry.last_used == 0 {
                    Answer::Disk
                } else {
                    Answer::Memo
                };
                entry.last_used = stamp;
                Some((answer, Arc::clone(&entry.checked)))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a fully-successful group outcome under `key`, stamped
    /// `stamp`, then prunes a bounded store back under its bounds.
    pub fn insert(&mut self, key: u64, checked: Arc<Checked>, stamp: u64) {
        let _mem = CACHE_MEM.scope();
        self.put(key, checked, stamp);
        self.prune();
    }

    fn put(&mut self, key: u64, checked: Arc<Checked>, last_used: u64) {
        let bytes = if self.bound.is_some() {
            entry_bytes(&checked)
        } else {
            0
        };
        let entry = Entry {
            checked,
            last_used,
            bytes,
        };
        self.live_bytes += bytes;
        if let Some(old) = self.entries.insert(key, entry) {
            self.live_bytes -= old.bytes;
        }
    }

    /// Drops least-recently-used halves of the entries while either
    /// bound (entry cap or byte bound) is exceeded; a no-op in an
    /// unbounded store. Amortized O(1) per insert for the cap: pruning
    /// halves the table, so it runs at most once per cap/2 inserts. The
    /// byte bound iterates because one halving may not shed enough
    /// weight; every pass removes at least one entry, so it terminates
    /// (an over-bound *single* entry is kept — the store never evicts
    /// below one entry).
    fn prune(&mut self) {
        let Some((cap, max_bytes)) = self.bound else {
            return;
        };
        loop {
            let over = self.entries.len() > cap || self.live_bytes > max_bytes;
            if !over || self.entries.len() <= 1 {
                return;
            }
            let mut stamps: Vec<u64> = self.entries.values().map(|e| e.last_used).collect();
            stamps.sort_unstable();
            let cutoff = stamps[stamps.len() / 2];
            let before = self.entries.len();
            // Keep entries used strictly after the median stamp.
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
                return;
            }
        }
    }

    /// Writes the store to `dir` (see [`Cache`] for which entries),
    /// creating it if needed.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        write(dir, self.saved())
    }

    /// The entries [`Cache::save`] writes, in key order.
    fn saved(&self) -> impl Iterator<Item = (u64, &[DefReport])> {
        self.entries
            .iter()
            .filter(|(_, e)| self.bound.is_some() || e.last_used > 0)
            .map(|(&key, e)| (key, e.checked.defs.as_slice()))
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed size estimate of the entries (0 in an unbounded store).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// The byte bound of a bounded store.
    pub fn max_bytes(&self) -> Option<u64> {
        self.bound.map(|(_, max_bytes)| max_bytes)
    }
}

/// The first line of a cache file: the document up to its first entry.
fn header() -> String {
    format!("{{\"version\":\"{FORMAT}\",\"entries\":[")
}

/// The last line of a cache file.
const TRAILER: &str = "]}";

/// Reads the entries of `dir`'s cache file. A file that is missing or
/// whose first line is not this format's header reads as none; an entry
/// line that does not parse or decode reads as no entry.
fn read(dir: &Path) -> Vec<(u64, Vec<DefReport>)> {
    let Ok(text) = std::fs::read_to_string(dir.join(CACHE_FILE)) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    if lines.next() != Some(header().as_str()) {
        return Vec::new();
    }
    lines
        .take_while(|&line| line != TRAILER)
        .filter_map(|line| {
            // One bad entry must not poison the rest.
            let entry = json::parse(line.strip_suffix(',').unwrap_or(line)).ok()?;
            let defs = decode_entry(&entry)?;
            let key = entry.get("key")?.as_str()?;
            Some((u64::from_str_radix(key, 16).ok()?, defs))
        })
        .collect()
}

/// Writes `entries`, in key order, as `dir`'s cache file: the header
/// line, one line per entry, and the closing line.
fn write<'a>(
    dir: &Path,
    entries: impl Iterator<Item = (u64, &'a [DefReport])>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Write-then-rename so a crashed run leaves either the old
    // cache or the new one, never a torn file.
    let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
    let target = dir.join(CACHE_FILE);
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        writeln!(f, "{}", header())?;
        for (i, (key, defs)) in entries.enumerate() {
            if i > 0 {
                writeln!(f, ",")?;
            }
            write!(f, "{}", encode_entry(key, defs).render())?;
        }
        writeln!(f, "\n{TRAILER}")?;
        f.flush()?;
    }
    std::fs::rename(&tmp, &target)
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
        let sharded = Sharded::new();
        for (key, defs) in read(dir) {
            sharded.stripes[stripe_of(key)]
                .lock()
                .expect("no other thread holds the stripes yet")
                .put(key, Arc::new(Checked::new(defs)), 0);
        }
        sharded
    }

    fn stripe(&self, key: u64) -> std::sync::MutexGuard<'_, Cache> {
        let i = stripe_of(key);
        STRIPE_LOCKS[i].lock(&self.stripes[i])
    }

    /// Looks up a key in its stripe, counting the hit or miss there. A
    /// `check` run is one revision: every use stamps 1.
    pub fn lookup(&self, key: u64) -> Option<(Answer, Arc<Checked>)> {
        self.stripe(key).lookup(key, 1)
    }

    /// Stores a fully-successful group outcome in the key's stripe.
    pub fn insert(&self, key: u64, checked: Arc<Checked>) {
        self.stripe(key).insert(key, checked, 1);
    }

    /// Total hits across stripes.
    pub fn hits(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().unwrap().hits).sum()
    }

    /// Total misses across stripes.
    pub fn misses(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().unwrap().misses).sum()
    }

    /// Writes every stripe's used or inserted entries as one
    /// `cache.json`, with [`Cache::save`]'s write-then-rename safety.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let stripes: Vec<_> = self
            .stripes
            .iter()
            .map(|s| s.lock().expect("a worker panicked holding a cache stripe"))
            .collect();
        // Stripes split the keys by their top bits, so walking the
        // stripes in order walks the keys in order.
        write(dir, stripes.iter().flat_map(|cache| cache.saved()))
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

    fn defs(tag: &str) -> Arc<Checked> {
        Arc::new(Checked::new(vec![DefReport {
            name: Symbol::intern(tag),
            scheme: Scheme::new(vec![], Ty::Int),
            sat_class: SatClass::Trivial,
        }]))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rowpoly-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn loaded(dir: &Path) -> Cache {
        let mut cache = Cache::default();
        cache.load(dir);
        cache
    }

    #[test]
    fn keys_separate_source_options_and_deps() {
        let json = |ty| codec::scheme_to_json(&Scheme::new(vec![], ty)).render();
        let (int, string) = (json(Ty::Int), json(Ty::Str));
        let dep = [(Symbol::intern("d"), int.as_str())];
        let dep2 = [(Symbol::intern("d"), string.as_str())];
        let digest = |src: &str| def_digest(&rowpoly_lang::parse_program(src).unwrap().defs[0]);
        let (one, two) = (digest("def a = 1"), digest("def a = 2"));
        assert_eq!(one, digest("def   a =\n 1 -- a comment"));
        let base = Cache::key("fp", &[one], &dep);
        assert_ne!(base, Cache::key("fp", &[two], &dep));
        assert_ne!(base, Cache::key("fp", &[one, two], &dep));
        assert_ne!(base, Cache::key("fp2", &[one], &dep));
        assert_ne!(base, Cache::key("fp", &[one], &dep2));
        assert_ne!(base, Cache::key("fp", &[one], &[]));
    }

    #[test]
    fn roundtrips_through_disk_and_counts_hits() {
        let dir = temp_dir("roundtrip");
        let mut cache = Cache::default();
        cache.insert(42, defs("one"), 1);
        cache.save(&dir).expect("saves");

        let mut back = loaded(&dir);
        assert_eq!(back.len(), 1);
        let (answer, got) = back.lookup(42, 1).expect("hit");
        assert_eq!(
            (answer, got.defs[0].name),
            (Answer::Disk, Symbol::intern("one"))
        );
        let (answer, _) = back.lookup(42, 2).expect("hit");
        assert_eq!(answer, Answer::Memo, "a used entry is no longer a disk hit");
        assert_eq!(back.hits, 2);
        assert!(back.lookup(7, 2).is_none());
        assert_eq!(back.misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_or_alien_files_load_as_empty() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        // Nesting far past the JSON parser's bound, which a recursive
        // parse would overflow the stack on.
        let deep = "[".repeat(200_000);
        for bad in [
            deep.as_str(),
            "",
            "not json",
            "{\"version\":\"other\",\"entries\":[]}",
            // The format before per-member digests keyed differently.
            "{\"version\":\"rowpoly-batch-cache-v1\",\"entries\":[{\"key\":\"2a\",\"defs\":[]}]}",
            // The single-document format before one entry per line.
            "{\"version\":\"rowpoly-batch-cache-v2\",\"entries\":[{\"key\":\"2a\",\"defs\":[]}]}",
            "[1,2]",
        ] {
            std::fs::write(dir.join(CACHE_FILE), bad).unwrap();
            assert!(loaded(&dir).is_empty(), "loaded entries from {bad:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bad_line_drops_only_its_own_entry() {
        let dir = temp_dir("bad-line");
        let mut cache = Cache::default();
        for (key, tag) in [(1, "a"), (2, "b"), (3, "c")] {
            cache.insert(key, defs(tag), 1);
        }
        cache.save(&dir).expect("saves");
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 5, "a header, one line per entry, a trailer");
        assert!(json::parse(&text).is_ok(), "the file is one JSON document");
        // Nesting past the JSON parser's bound, then a line that parses
        // but does not decode.
        lines[1] = format!("{}{},", "[".repeat(600), "]".repeat(600));
        lines[2] = "{\"key\":\"2\",\"defs\":[{\"name\":\"b\"}]},".to_string();
        std::fs::write(dir.join(CACHE_FILE), lines.join("\n")).unwrap();
        let mut back = loaded(&dir);
        assert_eq!(back.len(), 1);
        assert!(back.lookup(3, 1).is_some(), "the intact entry survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_save_drops_unused_entries() {
        let dir = temp_dir("unbounded");
        let mut cache = Cache::default();
        cache.insert(1, defs("a"), 1);
        cache.insert(2, defs("b"), 1);
        cache.save(&dir).expect("saves");

        let mut second = loaded(&dir);
        assert_eq!(second.len(), 2);
        let _ = second.lookup(1, 1);
        second.save(&dir).expect("saves");
        assert_eq!(loaded(&dir).len(), 1, "unused entry survived the save");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_save_keeps_every_entry_it_holds() {
        let dir = temp_dir("bounded");
        let mut cache = Cache::default();
        cache.insert(1, defs("a"), 1);
        cache.insert(2, defs("b"), 1);
        cache.save(&dir).expect("saves");

        let mut second = Cache::bounded(u64::MAX);
        second.load(&dir);
        second.insert(3, defs("c"), 1);
        second.save(&dir).expect("saves");
        assert_eq!(loaded(&dir).len(), 3, "an unused loaded entry was dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut m = Cache::bounded(u64::MAX);
        assert!(m.lookup(1, 1).is_none());
        m.insert(1, defs("a"), 1);
        assert!(m.lookup(1, 2).is_some());
        assert_eq!((m.hits, m.misses), (1, 1));
    }

    #[test]
    fn pruning_keeps_recently_used_entries() {
        let mut m = Cache {
            bound: Some((8, u64::MAX)),
            ..Cache::default()
        };
        for key in 0..8u64 {
            m.insert(key, defs("old"), key + 1);
        }
        // Refresh key 7 at a late stamp, then overflow the cap.
        assert!(m.lookup(7, 100).is_some());
        m.insert(99, defs("new"), 101);
        assert!(m.len() <= 8, "pruned below cap, got {}", m.len());
        assert!(m.evicted > 0);
        assert!(m.lookup(7, 102).is_some(), "recently-used entry survived");
        assert!(m.lookup(99, 102).is_some(), "new entry survived");
    }

    #[test]
    fn byte_bound_holds_after_every_insert() {
        let mut m = Cache::bounded(4 * entry_bytes(&defs("x")));
        for key in 0..50u64 {
            m.insert(key, defs("x"), key + 1);
            assert!(m.live_bytes() <= m.max_bytes().unwrap(), "over at {key}");
        }
        assert!(m.lookup(49, 51).is_some(), "newest entry survived");
    }
}
