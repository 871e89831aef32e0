//! The content-addressed verdict store, shared by `rowpoly check` and
//! `rowpoly serve`.
//!
//! A cache entry maps the *meaning-relevant content* of a definition
//! group to the closed schemes it produced. The key hashes, in order:
//!
//! 1. the cache format version,
//! 2. a fingerprint of the inference options (anything that changes
//!    verdicts or schemes),
//! 3. one digest per group member ([`def_digest`]: an Fx hash of the
//!    definition's syntax tree without spans, so whitespace and comments
//!    never invalidate),
//! 4. each dependency's name and *scheme digest* (the Fx hash of its
//!    closed scheme's canonical JSON, [`Checked::scheme_digest`]), sorted
//!    by name.
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
//! Beside the group entries the store keeps *file records*: a
//! [`FileRecord`] names, for a file whose every definition checked, each
//! definition's group entry and member, so a warm `check` serves an
//! unchanged file without parsing it. A record is keyed by
//! [`Cache::file_key`] (format, options fingerprint and the file's
//! text, not its path).
//!
//! Persistence is one mini-JSON document per cache directory,
//! `{"version": …, "entries": [ … ], "files": [ … ]}`, written with its
//! header on the first line and each entry, then each record, on a line
//! of its own, in key order (the `files` array only when there are
//! records):
//!
//! ```text
//! {"key":"<16 hex>","sum":"<16 hex>","defs":[{"name":…,"class":…,"digest":"<16 hex>","rendered":…,"scheme":{…}},…]}
//! {"key":"<16 hex>","sum":"<16 hex>","waves":N,"defs":[["<group key>",<member>],…]}
//! ```
//!
//! A member stores what a hit needs without re-deriving it: the rendered
//! scheme a report prints, the scheme digest dependents key on, and the
//! scheme JSON inference reads. `sum` is the Fx hash of the key and the
//! rest of the line, so a damaged line is caught when it loads, not when
//! it is used. Loading reads the file line by line and tolerates
//! anything: a missing, truncated, corrupted, or wrong-version file is
//! an empty cache, never an error, and a line that fails its sum, to
//! parse or to decode (say, a scheme nested past the JSON parser's
//! bound) drops only its own entry or record. What saving writes
//! follows from whether the store is bounded (see [`Cache`]): a record
//! is written exactly when every group it names is. A `check` run that
//! changed nothing writes nothing at all (see [`Sharded::save`]).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use rowpoly_core::DefReport;
use rowpoly_lang::{Def, Expr, ExprKind, Symbol};
use rowpoly_obs::contention::LockTimer;
use rowpoly_obs::json;
use rowpoly_obs::MemSite;

use crate::codec;
use crate::step::Answer;

/// Bump when the key derivation, the entry layout or the grouping that
/// records name changes.
const FORMAT: &str = "rowpoly-batch-cache-v6";

/// File name inside the cache directory.
pub const CACHE_FILE: &str = "cache.json";

/// Entry cap of a bounded store: above it, pruning kicks in.
pub const BOUNDED_CAP: usize = 4096;

/// Attribution site for the bytes the store holds and clones: loading
/// `cache.json`, hit clones, and inserted entries all land here (see
/// `rowpoly-obs::mem`).
static CACHE_MEM: MemSite = MemSite::new("batch.cache");

/// The closed per-definition reports of the members of a group that
/// checked, with what each member's scheme derives to: its digest (what
/// dependents key on) and its rendering (what reports show), each made
/// at most once, and its canonical JSON, kept only once a bounded
/// store's size estimate asks for it. An entry loaded from disk has its
/// digests and renderings from its line already. A store entry is one
/// of these behind an [`Arc`], shared by every result that replays it:
/// a hit neither copies, re-encodes nor re-renders.
#[derive(Debug)]
pub struct Checked {
    /// The reports, in group order.
    pub defs: Vec<DefReport>,
    derived: Vec<Derived>,
}

/// What one member's scheme derives to, made on first use.
#[derive(Debug, Default)]
struct Derived {
    json: OnceLock<String>,
    digest: OnceLock<u64>,
    rendered: OnceLock<String>,
}

impl Checked {
    /// Wraps reports whose derived strings are not made yet.
    pub fn new(defs: Vec<DefReport>) -> Checked {
        Checked {
            derived: defs.iter().map(|_| Derived::default()).collect(),
            defs,
        }
    }

    /// Canonical JSON of member `k`'s closed scheme, kept once made.
    pub fn scheme_json(&self, k: usize) -> &str {
        self.derived[k]
            .json
            .get_or_init(|| codec::scheme_to_json(&self.defs[k].scheme))
    }

    /// Member `k`'s canonical scheme JSON: the kept one, if
    /// [`Checked::scheme_json`] made it, or a fresh encoding that is not
    /// kept (a `check` run's entries need it only to digest and save).
    fn scheme_text(&self, k: usize) -> Cow<'_, str> {
        match self.derived[k].json.get() {
            Some(json) => Cow::Borrowed(json),
            None => Cow::Owned(codec::scheme_to_json(&self.defs[k].scheme)),
        }
    }

    /// Member `k`'s scheme digest: the Fx hash of its canonical JSON.
    pub fn scheme_digest(&self, k: usize) -> u64 {
        *self.derived[k]
            .digest
            .get_or_init(|| digest_of(&self.scheme_text(k)))
    }

    /// Member `k`'s scheme rendered without flags.
    pub fn rendered(&self, k: usize) -> &str {
        self.derived[k]
            .rendered
            .get_or_init(|| self.defs[k].render(false))
    }

    /// Appends the entry's cache line under `key` (without a separating
    /// comma). A loaded entry encodes to the line it was loaded from.
    fn write_line(&self, key: u64, out: &mut String) {
        let mut defs = String::from("[");
        for (k, d) in self.defs.iter().enumerate() {
            if k > 0 {
                defs.push(',');
            }
            defs.push_str("{\"name\":");
            json::write_escaped(d.name.as_str(), &mut defs);
            defs.push_str(",\"class\":");
            json::write_escaped(d.sat_class.name(), &mut defs);
            let json = self.scheme_text(k);
            let digest = *self.derived[k].digest.get_or_init(|| digest_of(&json));
            let _ = write!(defs, ",\"digest\":\"{digest:016x}\"");
            defs.push_str(",\"rendered\":");
            json::write_escaped(self.rendered(k), &mut defs);
            defs.push_str(",\"scheme\":");
            defs.push_str(&json);
            defs.push('}');
        }
        defs.push(']');
        write_checked_line(key, &format!("\"defs\":{defs}"), out);
    }
}

/// Appends `{"key":…,"sum":…,<body>}`, the sum taken over `body`.
fn write_checked_line(key: u64, body: &str, out: &mut String) {
    let _ = write!(
        out,
        "{{\"key\":\"{key:016x}\",\"sum\":\"{:016x}\",{body}}}",
        line_sum(key, body)
    );
}

/// A scheme digest: the Fx hash of the scheme's canonical JSON.
fn digest_of(scheme_json: &str) -> u64 {
    let mut h = FxHash64::default();
    h.write(scheme_json.as_bytes());
    h.finish()
}

/// The checksum of a line: the Fx hash of its key and the text after
/// its sum.
fn line_sum(key: u64, body: &str) -> u64 {
    let mut h = FxHash64::default();
    h.add(key);
    h.write(body.as_bytes());
    h.finish()
}

/// Splits a line into its key and the text its sum covers, `tag`
/// included. `None` unless the line reads `{"key":…,"sum":…,<tag>…}`
/// and the sum matches.
fn checked_line<'l>(line: &'l str, tag: &str) -> Option<(u64, &'l str)> {
    let (key, rest) = hex16(line.strip_prefix("{\"key\":\"")?)?;
    let (sum, rest) = hex16(rest.strip_prefix("\",\"sum\":\"")?)?;
    let body = rest.strip_prefix("\",")?.strip_suffix('}')?;
    (body.starts_with(tag) && line_sum(key, body) == sum).then_some((key, body))
}

/// Decodes one entry line (without its separating comma) straight from
/// its text. `None` unless the line has the layout
/// [`Checked::write_line`] writes, its sum matches and every member
/// decodes.
fn parse_entry_line(line: &str) -> Option<(u64, Checked)> {
    let (key, body) = checked_line(line, "\"defs\":")?;
    let defs_text = &body["\"defs\":".len()..];
    let mut r = codec::Reader::new(defs_text);
    let members = r
        .list(|r| {
            r.lit("{\"name\":")?;
            let name = Symbol::intern(&r.string()?);
            r.lit(",\"class\":")?;
            let sat_class = codec::sat_class_from_name(&r.string()?)?;
            r.lit(",\"digest\":")?;
            let digest = match hex16(&r.string()?) {
                Some((digest, "")) => digest,
                _ => return Err("digest: not 16 hex digits".to_string()),
            };
            r.lit(",\"rendered\":")?;
            let rendered = r.string()?;
            r.lit(",\"scheme\":")?;
            let scheme = r.scheme()?;
            r.lit("}")?;
            let report = DefReport {
                name,
                scheme,
                sat_class,
            };
            let derived = Derived {
                digest: OnceLock::from(digest),
                rendered: OnceLock::from(rendered),
                ..Derived::default()
            };
            Ok((report, derived))
        })
        .ok()?;
    r.end().ok()?;
    let (defs, derived) = members.into_iter().unzip();
    Some((key, Checked { defs, derived }))
}

/// Splits 16 lowercase hex digits off the front of `s`, as the line
/// writer prints a `u64`.
fn hex16(s: &str) -> Option<(u64, &str)> {
    let digits = s.get(..16)?;
    if !digits
        .bytes()
        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    {
        return None;
    }
    Some((u64::from_str_radix(digits, 16).ok()?, &s[16..]))
}

/// A file a warm `check` serves without parsing: per definition, in
/// source order, the key of its group's entry and its index among the
/// group's members, and the file's dependency waves. Stored only for a
/// file whose every definition checked, so no diagnostic ever comes
/// from the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileRecord {
    /// Per definition: its group's key and member index. A group's
    /// members are consecutive, numbered from 0.
    pub defs: Vec<(u64, usize)>,
    /// The file's topological waves ([`rowpoly_core::graph::ProgramGraph::waves`]).
    pub waves: usize,
}

impl FileRecord {
    /// The keys of the groups the record names, once per group (at its
    /// first member), in source order.
    pub fn groups(&self) -> impl Iterator<Item = u64> + '_ {
        self.defs
            .iter()
            .filter(|&&(_, k)| k == 0)
            .map(|&(key, _)| key)
    }

    /// Whether the members are numbered as groups number them: from 0,
    /// each next member of a group one up under the same key.
    fn well_formed(&self) -> bool {
        !self.defs.is_empty()
            && self.defs[0].1 == 0
            && self
                .defs
                .windows(2)
                .all(|w| w[1].1 == 0 || w[1] == (w[0].0, w[0].1 + 1))
    }

    /// Appends the record's line under `key` (without a separating
    /// comma).
    fn write_line(&self, key: u64, out: &mut String) {
        let mut body = format!("\"waves\":{},\"defs\":[", self.waves);
        for (i, (group, k)) in self.defs.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "[\"{group:016x}\",{k}]");
        }
        body.push(']');
        write_checked_line(key, &body, out);
    }
}

/// Decodes one record line (without its separating comma). `None`
/// unless the line has the layout [`FileRecord::write_line`] writes,
/// its sum matches and its members are well formed.
fn parse_record_line(line: &str) -> Option<(u64, FileRecord)> {
    let (key, body) = checked_line(line, "\"waves\":")?;
    let mut r = codec::Reader::new(body);
    r.lit("\"waves\":").ok()?;
    let waves = r.u32("waves").ok()? as usize;
    r.lit(",\"defs\":").ok()?;
    let defs = r
        .list(|r| {
            r.lit("[")?;
            let group = match hex16(&r.string()?) {
                Some((group, "")) => group,
                _ => return Err("group: not 16 hex digits".to_string()),
            };
            r.lit(",")?;
            let k = r.u32("member")? as usize;
            r.lit("]")?;
            Ok((group, k))
        })
        .ok()?;
    r.end().ok()?;
    let record = FileRecord { defs, waves };
    record.well_formed().then_some((key, record))
}

/// What a warm `check` reads for a file served from its record
/// ([`Sharded::serve_file`]): per definition, its group's entry and
/// member index, and the file's waves.
#[derive(Debug)]
pub struct ServedFile {
    /// Per definition, in source order: the entry and member index.
    pub defs: Vec<(Arc<Checked>, usize)>,
    /// The file's topological waves.
    pub waves: usize,
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
/// inserted, so entries for deleted code age out of `cache.json`. The
/// file records loaded with the entries are kept as they are and
/// written exactly when every group they name is.
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<u64, Entry>,
    files: BTreeMap<u64, FileRecord>,
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
    /// Entries stored by [`Cache::insert`].
    inserted: u64,
}

/// Deterministic size estimate of one entry: fixed struct sizes plus
/// the canonical-JSON length of each scheme, so the estimate tracks the
/// scheme's real complexity without depending on allocator state. The
/// JSON is kept in the entry for the line a save encodes.
fn entry_bytes(checked: &Checked) -> u64 {
    let fixed = std::mem::size_of::<Entry>() + std::mem::size_of_val(checked.defs.as_slice());
    let schemes: usize = (0..checked.defs.len())
        .map(|k| checked.scheme_json(k).len())
        .sum();
    (fixed + schemes) as u64
}

/// The content digest of one definition: the Fx hash of its name and
/// syntax tree, spans left out. Two definitions digest alike exactly
/// when they pretty-print alike ([`rowpoly_lang::pretty_def`]), without
/// printing either. A group's key folds one per member, so a caller
/// that keeps a definition's AST (the serve daemon) keeps its digest.
pub fn def_digest(def: &Def) -> u64 {
    let mut h = FxHash64::default();
    h.write(def.name.as_str().as_bytes());
    hash_expr(&def.body, &mut h);
    h.finish()
}

/// Folds one node into `h`: a tag word for its form, its payload
/// (symbols by spelling, so digests are stable across processes), then
/// its children in order. Every form has a fixed arity except lists,
/// which fold their length, so distinct trees fold distinct word
/// sequences.
fn hash_expr(e: &Expr, h: &mut FxHash64) {
    let sym = |h: &mut FxHash64, s: &Symbol| h.write(s.as_str().as_bytes());
    match &e.kind {
        ExprKind::Var(x) => {
            h.add(0);
            sym(h, x);
        }
        ExprKind::Int(n) => {
            h.add(1);
            h.add(*n as u64);
        }
        ExprKind::Str(s) => {
            h.add(2);
            h.write(s.as_bytes());
        }
        ExprKind::List(items) => {
            h.add(3);
            h.add(items.len() as u64);
        }
        ExprKind::Lam(x, _) => {
            h.add(4);
            sym(h, x);
        }
        ExprKind::App(..) => h.add(5),
        ExprKind::Let { name, .. } => {
            h.add(6);
            sym(h, name);
        }
        ExprKind::If(..) => h.add(7),
        ExprKind::Empty => h.add(8),
        ExprKind::Select(n) => {
            h.add(9);
            sym(h, n);
        }
        ExprKind::Update(n, _) => {
            h.add(10);
            sym(h, n);
        }
        ExprKind::Remove(n) => {
            h.add(11);
            sym(h, n);
        }
        ExprKind::Rename(from, to) => {
            h.add(12);
            sym(h, from);
            sym(h, to);
        }
        ExprKind::Concat(..) => h.add(13),
        ExprKind::SymConcat(..) => h.add(14),
        ExprKind::When { field, subject, .. } => {
            h.add(15);
            sym(h, field);
            sym(h, subject);
        }
        ExprKind::BinOp(op, ..) => {
            h.add(16);
            h.add(*op as u64);
        }
    }
    e.for_each_child(|c| hash_expr(c, h));
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
        let loaded = read(dir);
        for (key, checked) in loaded.entries {
            self.put(key, Arc::new(checked), 0);
        }
        self.files.extend(loaded.files);
    }

    /// The key of a file's record: the Fx hash of the format, the
    /// options fingerprint and the file's text. The path is left out,
    /// so files with equal text share a record.
    pub fn file_key(options_fingerprint: &str, source: &str) -> u64 {
        let mut h = FxHash64::default();
        h.write(FORMAT.as_bytes());
        h.write(options_fingerprint.as_bytes());
        h.write(source.as_bytes());
        h.finish()
    }

    /// Computes a group's cache key from its members' digests
    /// ([`def_digest`], in group order) and its dependencies' names and
    /// scheme digests ([`Checked::scheme_digest`]).
    pub fn key(options_fingerprint: &str, members: &[u64], deps: &[(Symbol, u64)]) -> u64 {
        let mut h = FxHash64::default();
        h.write(FORMAT.as_bytes());
        h.write(options_fingerprint.as_bytes());
        for digest in members {
            h.add(*digest);
        }
        h.add(members.len() as u64);
        for (name, scheme_digest) in deps {
            h.write(name.as_str().as_bytes());
            h.add(*scheme_digest);
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
        self.inserted += 1;
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
        write(
            dir,
            self.saved(),
            written_files(&self.files, |key| self.writes(key)),
        )
    }

    /// Whether [`Cache::save`] writes the entry under `key`.
    fn writes(&self, key: u64) -> bool {
        self.entries
            .get(&key)
            .is_some_and(|e| self.bound.is_some() || e.last_used > 0)
    }

    /// The entries [`Cache::save`] writes, in key order.
    fn saved(&self) -> impl Iterator<Item = (u64, &Checked)> {
        self.entries
            .iter()
            .filter(|(_, e)| self.bound.is_some() || e.last_used > 0)
            .map(|(&key, e)| (key, e.checked.as_ref()))
    }

    /// The entry under `key`, neither counted nor stamped.
    fn peek(&self, key: u64) -> Option<&Arc<Checked>> {
        self.entries.get(&key).map(|e| &e.checked)
    }

    /// Whether [`Cache::save`] would write back exactly the entries
    /// loaded: nothing was inserted and, in an unbounded store, every
    /// entry was used.
    fn unchanged(&self) -> bool {
        self.inserted == 0
            && (self.bound.is_some() || self.entries.values().all(|e| e.last_used > 0))
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

/// The records a save writes, in key order: those whose every group
/// `writes`.
fn written_files(
    files: &BTreeMap<u64, FileRecord>,
    writes: impl Fn(u64) -> bool,
) -> impl Iterator<Item = (u64, &FileRecord)> {
    files
        .iter()
        .filter(move |(_, record)| record.groups().all(&writes))
        .map(|(&key, record)| (key, record))
}

/// The first line of a cache file: the document up to its first entry.
fn header() -> String {
    format!("{{\"version\":\"{FORMAT}\",\"entries\":[")
}

/// The line between the entries and the file records, when there are
/// records.
const FILES: &str = "],\"files\":[";

/// The last line of a cache file.
const TRAILER: &str = "]}";

/// What [`read`] found in a cache file.
#[derive(Default)]
struct Loaded {
    /// The entries that loaded, in file order.
    entries: Vec<(u64, Checked)>,
    /// The file records that loaded, in file order.
    files: Vec<(u64, FileRecord)>,
    /// Whether [`write`] of every entry and record would reproduce the
    /// file byte for byte: each line loaded, keys ascend, every group a
    /// record names loaded, and the separators and trailer are the
    /// writer's.
    pristine: bool,
}

/// Reads the entries and file records of `dir`'s cache file, one line
/// at a time. A file that is missing or whose first line is not this
/// format's header reads as none; a line that fails its sum or does not
/// decode reads as no entry or record.
fn read(dir: &Path) -> Loaded {
    let Ok(file) = std::fs::File::open(dir.join(CACHE_FILE)) else {
        return Loaded::default();
    };
    let mut reader = std::io::BufReader::new(file);
    let mut line = String::new();
    // Reads the next line, with its line break if it has one. False at
    // the end of the file and at text that does not read (not UTF-8,
    // say), which also sets `failed`.
    let mut failed = false;
    let mut next = |line: &mut String| {
        line.clear();
        match reader.read_line(line) {
            Ok(n) => n > 0,
            Err(_) => {
                failed = true;
                false
            }
        }
    };
    if !next(&mut line) || line.strip_suffix('\n') != Some(header().as_str()) {
        return Loaded::default();
    }
    let mut loaded = Loaded {
        entries: Vec::new(),
        files: Vec::new(),
        pristine: true,
    };
    // Whether the last line of the current array ended in a comma;
    // `None` before its first one.
    let mut comma = None;
    let mut in_files = false;
    let mut closed = false;
    while next(&mut line) {
        let text = line.strip_suffix('\n');
        loaded.pristine &= text.is_some() && !closed;
        let text = text.unwrap_or(&line);
        if closed {
            break;
        }
        if text == TRAILER || (text == FILES && !in_files) {
            // The writer opens `files` only for a record and ends each
            // array without a comma.
            loaded.pristine &= comma == Some(false) || (comma.is_none() && !in_files);
            closed = text == TRAILER;
            in_files = true;
            comma = None;
            continue;
        }
        loaded.pristine &= comma != Some(false);
        let body = text.strip_suffix(',');
        comma = Some(body.is_some());
        let body = body.unwrap_or(text);
        // One bad line must not poison the rest.
        loaded.pristine &= if in_files {
            push_ascending(&mut loaded.files, parse_record_line(body))
        } else {
            push_ascending(&mut loaded.entries, parse_entry_line(body))
        };
    }
    loaded.pristine &= closed && !failed;
    // Entry keys ascend in a pristine file, so a search finds them.
    loaded.pristine = loaded.pristine
        && loaded.files.iter().all(|(_, record)| {
            record.groups().all(|group| {
                loaded
                    .entries
                    .binary_search_by_key(&group, |&(key, _)| key)
                    .is_ok()
            })
        });
    loaded
}

/// Appends a decoded line to `list`. False when it did not decode or its
/// key does not ascend.
fn push_ascending<T>(list: &mut Vec<(u64, T)>, line: Option<(u64, T)>) -> bool {
    let Some((key, value)) = line else {
        return false;
    };
    let ascends = list.last().is_none_or(|&(last, _)| last < key);
    list.push((key, value));
    ascends
}

/// Writes `entries` and then `files`, each in key order, as `dir`'s
/// cache file: the header line, one line per entry, the line opening the
/// records and one line per record when there are any, and the closing
/// line.
fn write<'a>(
    dir: &Path,
    entries: impl Iterator<Item = (u64, &'a Checked)>,
    files: impl Iterator<Item = (u64, &'a FileRecord)>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Write-then-rename so a crashed run leaves either the old
    // cache or the new one, never a torn file.
    let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
    let target = dir.join(CACHE_FILE);
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        writeln!(f, "{}", header())?;
        let mut line = String::new();
        let mut entries = entries.peekable();
        while let Some((key, checked)) = entries.next() {
            line.clear();
            checked.write_line(key, &mut line);
            line.push_str(if entries.peek().is_some() {
                ",\n"
            } else {
                "\n"
            });
            f.write_all(line.as_bytes())?;
        }
        let mut files = files.peekable();
        if files.peek().is_some() {
            writeln!(f, "{FILES}")?;
        }
        while let Some((key, record)) = files.next() {
            line.clear();
            record.write_line(key, &mut line);
            line.push_str(if files.peek().is_some() { ",\n" } else { "\n" });
            f.write_all(line.as_bytes())?;
        }
        writeln!(f, "{TRAILER}")?;
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
/// tolerance) is exactly the unsharded [`Cache`]'s. The file records
/// sit beside the stripes: a `check` run reads them before its workers
/// start and adds to them after they finish.
#[derive(Debug)]
pub struct Sharded {
    stripes: Vec<Mutex<Cache>>,
    files: Mutex<Files>,
    /// The directory [`Sharded::load`] read, when writing back every
    /// entry it loaded would reproduce its file byte for byte.
    pristine: Option<PathBuf>,
}

impl Sharded {
    /// An empty sharded cache (no persistence yet).
    pub fn new() -> Sharded {
        Sharded {
            stripes: (0..STRIPES).map(|_| Mutex::new(Cache::default())).collect(),
            files: Mutex::default(),
            pristine: None,
        }
    }

    /// Loads `dir` (tolerating every failure mode, like [`Cache::load`])
    /// and deals the entries out across the stripes.
    pub fn load(dir: &Path) -> Sharded {
        let _mem = CACHE_MEM.scope();
        let mut sharded = Sharded::new();
        let loaded = read(dir);
        for (key, checked) in loaded.entries {
            sharded.stripes[stripe_of(key)]
                .get_mut()
                .expect("no other thread holds the stripes yet")
                .put(key, Arc::new(checked), 0);
        }
        sharded
            .files
            .get_mut()
            .expect("no other thread holds the records yet")
            .records
            .extend(loaded.files);
        sharded.pristine = loaded.pristine.then(|| dir.to_path_buf());
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

    /// Serves a file from its record under `key` ([`Cache::file_key`]).
    /// `None` unless there is one and every group it names is held,
    /// with as many members as the record gives it. Each group is then
    /// looked up once, through [`Sharded::lookup`], so it counts a hit
    /// and is marked used just as the file's own groups would be.
    pub fn serve_file(&self, key: u64) -> Option<ServedFile> {
        let record = self.files.lock().unwrap().records.get(&key)?.clone();
        let mut defs = Vec::with_capacity(record.defs.len());
        let mut entry: Option<Arc<Checked>> = None;
        for (i, &(group, k)) in record.defs.iter().enumerate() {
            if k == 0 {
                let checked = Arc::clone(self.stripe(group).peek(group)?);
                let rest = &record.defs[i + 1..];
                let members = 1 + rest.iter().take_while(|&&(_, j)| j != 0).count();
                if checked.defs.len() != members {
                    return None;
                }
                entry = Some(checked);
            }
            defs.push((Arc::clone(entry.as_ref()?), k));
        }
        for group in record.groups() {
            self.lookup(group);
        }
        Some(ServedFile {
            defs,
            waves: record.waves,
        })
    }

    /// Stores a file's record under `key` ([`Cache::file_key`]).
    pub fn insert_file(&self, key: u64, record: FileRecord) {
        let mut files = self.files.lock().unwrap();
        if files.records.get(&key) != Some(&record) {
            files.records.insert(key, record);
            files.added = true;
        }
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
    /// `cache.json`, then the records whose every group that writes,
    /// with [`Cache::save`]'s write-then-rename safety. Saving into the
    /// directory the cache was loaded from writes nothing when the file
    /// would come out byte-identical: no line was dropped at load,
    /// nothing was inserted, and every loaded entry was used.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let stripes: Vec<_> = self
            .stripes
            .iter()
            .map(|s| s.lock().expect("a worker panicked holding a cache stripe"))
            .collect();
        let files = self.files.lock().unwrap();
        if self.pristine.as_deref() == Some(dir)
            && !files.added
            && stripes.iter().all(|c| c.unchanged())
        {
            return Ok(());
        }
        // Stripes split the keys by their top bits, so walking the
        // stripes in order walks the keys in order.
        write(
            dir,
            stripes.iter().flat_map(|cache| cache.saved()),
            written_files(&files.records, |key| stripes[stripe_of(key)].writes(key)),
        )
    }
}

/// [`Sharded`]'s file records.
#[derive(Debug, Default)]
struct Files {
    records: BTreeMap<u64, FileRecord>,
    /// Whether a record was added or changed since the load.
    added: bool,
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
        let digest_of = |ty| {
            Checked::new(vec![DefReport {
                name: Symbol::intern("d"),
                scheme: Scheme::new(vec![], ty),
                sat_class: SatClass::Trivial,
            }])
            .scheme_digest(0)
        };
        let dep = [(Symbol::intern("d"), digest_of(Ty::Int))];
        let dep2 = [(Symbol::intern("d"), digest_of(Ty::Str))];
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
            // One entry per line, before stored renderings and digests.
            "{\"version\":\"rowpoly-batch-cache-v3\",\"entries\":[\n\
             {\"key\":\"000000000000002a\",\"defs\":[{\"name\":\"a\",\"class\":\"trivial\",\
             \"scheme\":{\"vars\":[],\"ty\":\"Int\",\"flow\":[]}}]}\n]}\n",
            // Per-member renderings and digests, before file records.
            "{\"version\":\"rowpoly-batch-cache-v4\",\"entries\":[\n]}\n",
            // File records cut before an ambient reader's dependents
            // joined its group: their verdicts may be the split ones.
            "{\"version\":\"rowpoly-batch-cache-v5\",\"entries\":[\n]}\n",
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
        for (key, tag) in [(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e")] {
            cache.insert(key, defs(tag), 1);
        }
        cache.save(&dir).expect("saves");
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 7, "a header, one line per entry, a trailer");
        assert!(json::parse(&text).is_ok(), "the file is one JSON document");
        // Nesting past the JSON parser's bound, then a line that parses
        // but does not decode.
        lines[1] = format!("{}{},", "[".repeat(600), "]".repeat(600));
        lines[2] = "{\"key\":\"2\",\"defs\":[{\"name\":\"b\"}]},".to_string();
        // A damaged rendering that still parses and decodes: the sum
        // drops it.
        assert!(lines[3].contains("\"rendered\":\"Int\""));
        lines[3] = lines[3].replace("\"rendered\":\"Int\"", "\"rendered\":\"Ind\"");
        // A line with a good sum whose defs nest past the parser's bound.
        let deep = format!("{}{}", "[".repeat(600), "]".repeat(600));
        lines[4] = format!(
            "{{\"key\":\"{:016x}\",\"sum\":\"{:016x}\",\"defs\":{deep}}},",
            4,
            line_sum(4, &deep)
        );
        std::fs::write(dir.join(CACHE_FILE), lines.join("\n")).unwrap();
        let mut back = loaded(&dir);
        assert_eq!(back.len(), 1);
        assert!(back.lookup(5, 1).is_some(), "the intact entry survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_cache_is_one_document_and_stays_unwritten() {
        let dir = temp_dir("empty");
        Cache::default().save(&dir).expect("saves");
        let file = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&file).unwrap();
        assert_eq!(text, format!("{}\n{TRAILER}\n", header()));
        assert!(json::parse(&text).is_ok(), "the file is one JSON document");
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        std::fs::File::options()
            .write(true)
            .open(&file)
            .and_then(|f| f.set_modified(stamp))
            .expect("sets mtime");
        Sharded::load(&dir).save(&dir).expect("saves");
        let modified = std::fs::metadata(&file).and_then(|m| m.modified()).unwrap();
        assert_eq!(modified, stamp, "an empty cache was rewritten");
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
    fn a_record_is_written_exactly_when_its_groups_are() {
        let dir = temp_dir("records");
        let sharded = Sharded::new();
        for (key, tag) in [(1, "a"), (2, "b"), (3, "c")] {
            sharded.insert(key, defs(tag));
        }
        let record = |groups: &[u64]| FileRecord {
            defs: groups.iter().map(|&g| (g, 0)).collect(),
            waves: groups.len(),
        };
        sharded.insert_file(10, record(&[1, 2]));
        sharded.insert_file(11, record(&[3]));
        sharded.save(&dir).expect("saves");
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        assert_eq!(
            text.lines().count(),
            8,
            "header, 3 entries, files, 2 records, trailer"
        );
        let doc = json::parse(&text).expect("the file is one JSON document");
        let entries = doc.get("entries").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(entries.len(), 3, "group lines alone in `entries`");

        // A record is served through its groups' lookups, and one whose
        // group is gone is not served at all.
        let back = Sharded::load(&dir);
        let served = back.serve_file(10).expect("served");
        assert_eq!((served.defs.len(), served.waves), (2, 2));
        assert_eq!((back.hits(), back.misses()), (2, 0));
        assert!(back.serve_file(12).is_none());

        // Bounded: every entry is written, so every record is.
        let mut bounded = Cache::bounded(u64::MAX);
        bounded.load(&dir);
        let other = temp_dir("records-bounded");
        bounded.save(&other).expect("saves");
        assert_eq!(
            std::fs::read_to_string(other.join(CACHE_FILE)).unwrap(),
            text
        );

        // Unbounded: only the used groups are written, and with them
        // only the records all of whose groups are.
        let mut unbounded = loaded(&dir);
        assert!(unbounded.lookup(3, 1).is_some());
        unbounded.save(&other).expect("saves");
        let mut back = loaded(&other);
        assert_eq!(back.len(), 1);
        assert_eq!(back.files.keys().copied().collect::<Vec<_>>(), [11]);
        assert!(back.lookup(3, 1).is_some());

        // A record naming a group the file lacks loads but is never
        // served, and it leaves the file unpristine: a save of every
        // entry rewrites the file without it.
        let mut line = String::new();
        record(&[9]).write_line(12, &mut line);
        let orphan = text.replace("\n]}\n", &format!(",\n{line}\n]}}\n"));
        std::fs::write(dir.join(CACHE_FILE), orphan).unwrap();
        let back = Sharded::load(&dir);
        assert!(back.serve_file(12).is_none());
        for key in [1, 2, 3] {
            assert!(back.lookup(key).is_some());
        }
        back.save(&dir).expect("saves");
        assert_eq!(std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
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
