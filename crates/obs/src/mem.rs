//! Memory accounting: a counting global allocator with attribution.
//!
//! Every other instrument in this crate measures *time*; this module
//! measures *bytes*, with the same design constraints: zero
//! dependencies, one thread-local load when accounting is off, and
//! no locks anywhere on the hot path. Binaries opt in by installing
//! [`CountingAlloc`] as their `#[global_allocator]`:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rowpoly_obs::mem::CountingAlloc = rowpoly_obs::mem::CountingAlloc;
//! ```
//!
//! Counting is a switch of the calling thread's [`crate::Recorder`]
//! ([`accounting_session`], [`enable`], `ROWPOLY_MEM`): the allocator
//! reads the thread's recorder switches from a const-initialised
//! thread-local, and batch workers inherit their caller's recorder, so
//! accounting covers exactly the threads of the runs that asked for it.
//! While it is on, every allocation and free is recorded into the
//! calling thread's **slot** — a small leaked counter block,
//! registered in a global list the first time the thread allocates.
//! Slots outlive their thread, so an orchestrator can read a worker's
//! exact totals *after* joining it — including allocations made
//! during thread teardown. The slot is the *only* per-allocation
//! write target, and the writing thread is its only writer, so the
//! updates are plain load/store pairs on thread-private cache lines
//! rather than `lock`-prefixed read-modify-writes; that is what keeps
//! the fig9 accounting overhead inside its < 5% wall budget.
//!
//! The **process-wide ledger** ([`snapshot`]) is derived on demand by
//! summing every slot, so `sum over slot deltas == global delta`
//! holds by construction over any quiesced window — the pool stress
//! test asserts byte equality. The only global state maintained near
//! the hot path is the live-bytes gauge behind the peak watermark,
//! and even that is batched: a thread publishes its pending net-live
//! change only once it exceeds [`LIVE_FLUSH_BYTES`], bounding the
//! watermark's under-estimate to `threads * LIVE_FLUSH_BYTES` (exact
//! reads via [`live_bytes`] and [`snapshot`] fold back into the
//! watermark, so `peak >= live` at every observation point).
//!
//! Attribution to *owners* uses static [`MemSite`]s (the
//! [`crate::contention::LockTimer`] pattern): a scoped
//! [`MemSite::scope`] guard charges the bytes its thread allocates to
//! the innermost open site in the thread's current recorder
//! (`Snapshot::sites`), exclusively — entering a nested site
//! first banks the delta to the outer one, the same stack discipline
//! [`crate::PhaseClock`] uses for time. [`PhaseClock`] itself reads
//! [`thread_alloc_bytes`] at every phase transition, so the four
//! paper phases get byte attribution for free.
//!
//! [`PhaseClock`]: crate::PhaseClock

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::collector::{self, Recorder, MEM};
use crate::json::Json;
use crate::metrics::{bucket_index, bucket_percentile, nonzero_buckets};

/// Log₂ allocation-size buckets: bucket 0 holds 0-byte requests,
/// bucket `i ≥ 1` holds sizes in `[2^(i-1), 2^i)`; 48 buckets cover
/// any allocation the address space can hold.
pub const SIZE_BUCKETS: usize = 48;

/// Whether the calling thread counts allocations. One thread-local
/// load — this is the entire cost of an allocation while accounting
/// is off.
#[inline]
pub fn tracking() -> bool {
    collector::gate() & MEM != 0
}

/// RAII handle keeping allocation accounting on for the calling
/// thread's recorder; sessions nest.
#[must_use = "dropping the session turns memory accounting back off"]
pub struct AccountingSession {
    recorder: Recorder,
    was_on: bool,
    /// The switch belongs to the thread's recorder of the moment.
    _thread: PhantomData<*const ()>,
}

/// Turns allocation accounting on for the calling thread's recorder
/// (and the batch workers it spawns) for the lifetime of the handle.
pub fn accounting_session() -> AccountingSession {
    let recorder = Recorder::current();
    let was_on = recorder.set(MEM, true);
    AccountingSession {
        recorder,
        was_on,
        _thread: PhantomData,
    }
}

impl Drop for AccountingSession {
    fn drop(&mut self) {
        self.recorder.set(MEM, self.was_on);
    }
}

/// Turns accounting on for the calling thread's recorder for good.
pub fn enable() {
    Recorder::current().set(MEM, true);
}

/// Enables accounting when `ROWPOLY_MEM` is set to anything but `0`.
pub fn init_from_env() {
    if std::env::var_os("ROWPOLY_MEM").is_some_and(|v| v != "0") {
        enable();
    }
}

// ---------------------------------------------------------------------------
// Process-wide ledger (the batched live gauge; everything else is
// derived from the slots).

/// Live bytes gauge; `i64` because frees of memory allocated before
/// accounting was enabled legitimately drive it negative. Fed by
/// batched flushes of per-thread pending nets, so it may lag the
/// exact `sum(alloc - freed)` by up to [`LIVE_FLUSH_BYTES`] per
/// thread; it exists only to keep [`PEAK`] current between exact
/// reads.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Batched live-gauge granularity: a thread publishes its pending
/// net-live change to the global gauge once it exceeds this many
/// bytes in either direction. Bounds the peak watermark's
/// under-estimate to `threads * LIVE_FLUSH_BYTES` while keeping the
/// per-allocation cost to thread-private stores.
pub const LIVE_FLUSH_BYTES: u64 = 32 * 1024;

// ---------------------------------------------------------------------------
// Per-thread slots.

/// One thread's monotone allocation counters. Heap-allocated and
/// leaked on the thread's first tracked allocation so the block
/// outlives the thread; readers use relaxed loads.
///
/// The owning thread is the only writer (except [`ORPHAN`], which is
/// shared by TLS-torn-down threads and takes the atomic-RMW path), so
/// counter updates are relaxed load/store pairs — plain moves on
/// every mainstream ISA — not `fetch_add`s.
pub struct ThreadSlot {
    alloc_bytes: AtomicU64,
    freed_bytes: AtomicU64,
    allocs: AtomicU64,
    deallocs: AtomicU64,
    size_hist: [AtomicU64; SIZE_BUCKETS],
    /// Net live-bytes change not yet flushed to [`LIVE`].
    pending_net: AtomicI64,
}

/// Bumps one slot counter: a single-writer load/store pair normally,
/// a real RMW for the shared [`ORPHAN`] slot.
#[inline]
fn bump(counter: &AtomicU64, v: u64, shared: bool) {
    if shared {
        counter.fetch_add(v, Ordering::Relaxed);
    } else {
        counter.store(counter.load(Ordering::Relaxed) + v, Ordering::Relaxed);
    }
}

impl ThreadSlot {
    const fn new() -> ThreadSlot {
        ThreadSlot {
            alloc_bytes: AtomicU64::new(0),
            freed_bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            size_hist: [const { AtomicU64::new(0) }; SIZE_BUCKETS],
            pending_net: AtomicI64::new(0),
        }
    }

    fn counts(&self) -> MemDelta {
        MemDelta {
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed),
            freed_bytes: self.freed_bytes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
        }
    }

    /// Accumulates `d` into the pending net and flushes it to the
    /// global gauge once it crosses the batching granularity (always,
    /// for the multi-writer orphan slot).
    #[inline]
    fn shift_live(&self, d: i64, shared: bool) {
        if shared {
            let live = LIVE.fetch_add(d, Ordering::Relaxed) + d;
            PEAK.fetch_max(live, Ordering::Relaxed);
            return;
        }
        let net = self.pending_net.load(Ordering::Relaxed) + d;
        if net.unsigned_abs() >= LIVE_FLUSH_BYTES {
            self.pending_net.store(0, Ordering::Relaxed);
            let live = LIVE.fetch_add(net, Ordering::Relaxed) + net;
            if live > PEAK.load(Ordering::Relaxed) {
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
        } else {
            self.pending_net.store(net, Ordering::Relaxed);
        }
    }

    /// Forces any batched pending net into the global gauge and the
    /// peak watermark. Called on attribution-scope exit: a scope whose
    /// allocations never crossed [`LIVE_FLUSH_BYTES`] would otherwise
    /// leave the peak blind to its bytes — if they are freed after the
    /// scope (and before the next exact read), the section's residency
    /// never appears in [`peak_bytes`].
    fn flush_pending(&self) {
        let net = self.pending_net.swap(0, Ordering::Relaxed);
        if net != 0 {
            let live = LIVE.fetch_add(net, Ordering::Relaxed) + net;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

/// Catch-all slot for allocations on threads whose TLS is already
/// torn down (late thread-exit frees land here, keeping the slot sum
/// equal to the global ledger).
static ORPHAN: ThreadSlot = ThreadSlot::new();

fn slot_registry() -> &'static Mutex<Vec<&'static ThreadSlot>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static ThreadSlot>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Pointer to this thread's slot; null until first tracked
    /// allocation, [`ORPHAN`] while the slot itself is being created
    /// (slot creation allocates — the sentinel breaks the recursion).
    static SLOT: Cell<*const ThreadSlot> = const { Cell::new(std::ptr::null()) };
}

/// This thread's slot, creating and registering it on first use.
#[inline]
fn thread_slot() -> &'static ThreadSlot {
    #[cold]
    fn create(s: &Cell<*const ThreadSlot>) -> *const ThreadSlot {
        // Park on the orphan slot while allocating the real one:
        // the Box and registry push below re-enter the allocator.
        s.set(&ORPHAN as *const ThreadSlot);
        let slot: &'static ThreadSlot = Box::leak(Box::new(ThreadSlot::new()));
        slot_registry().lock().unwrap().push(slot);
        s.set(slot as *const ThreadSlot);
        slot as *const ThreadSlot
    }
    let p = SLOT
        .try_with(|s| {
            let p = s.get();
            if !p.is_null() {
                return p;
            }
            create(s)
        })
        .unwrap_or(&ORPHAN as *const ThreadSlot);
    // SAFETY: the pointer is either a leaked 'static Box or &ORPHAN.
    unsafe { &*p }
}

#[inline]
fn note_alloc(size: usize) {
    if !tracking() {
        return;
    }
    let slot = thread_slot();
    let shared = std::ptr::eq(slot, &ORPHAN);
    let sz = size as u64;
    bump(&slot.alloc_bytes, sz, shared);
    bump(&slot.allocs, 1, shared);
    bump(
        &slot.size_hist[bucket_index(sz).min(SIZE_BUCKETS - 1)],
        1,
        shared,
    );
    slot.shift_live(size as i64, shared);
}

#[inline]
fn note_dealloc(size: usize) {
    if !tracking() {
        return;
    }
    let slot = thread_slot();
    let shared = std::ptr::eq(slot, &ORPHAN);
    let sz = size as u64;
    bump(&slot.freed_bytes, sz, shared);
    bump(&slot.deallocs, 1, shared);
    slot.shift_live(-(size as i64), shared);
}

/// A counting allocator wrapping [`System`]. Install it with
/// `#[global_allocator]`; recording is gated on [`tracking`], so an
/// installed-but-idle allocator costs one relaxed load per call.
pub struct CountingAlloc;

// SAFETY: defers every allocation to `System` and only adds counter
// updates; sizes and pointers are passed through unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size());
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Whether a [`CountingAlloc`] is actually installed in this binary:
/// probes with a real allocation under a temporary session. Memoised —
/// installation is a property of the binary, not of time.
pub fn installed() -> bool {
    static PROBE: OnceLock<bool> = OnceLock::new();
    *PROBE.get_or_init(|| {
        let _session = accounting_session();
        let before = thread_mark().allocs;
        let b = std::hint::black_box(vec![0u8; 64]);
        drop(std::hint::black_box(b));
        thread_mark().allocs != before
    })
}

// ---------------------------------------------------------------------------
// Snapshots and deltas.

/// A point-in-time copy of the process-wide ledger. All fields except
/// the gauges are monotone while accounting stays on; subtract two
/// snapshots with [`MemSnapshot::delta_since`] for a per-run view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Total bytes requested from the allocator.
    pub alloc_bytes: u64,
    /// Total bytes returned to the allocator.
    pub freed_bytes: u64,
    /// Allocation calls (including the alloc half of reallocs).
    pub allocs: u64,
    /// Deallocation calls (including the free half of reallocs).
    pub deallocs: u64,
    /// Live-bytes gauge (may be negative if accounting was enabled
    /// after some of the freed memory was allocated).
    pub live_bytes: i64,
    /// High-water mark of the live gauge (see [`reset_peak`]).
    pub peak_bytes: i64,
    /// Log₂ allocation-size histogram (counts per bucket).
    pub size_hist: Vec<u64>,
}

impl MemSnapshot {
    /// This snapshot minus an earlier `baseline`; gauges keep the
    /// later (absolute) values.
    pub fn delta_since(&self, baseline: &MemSnapshot) -> MemDelta {
        MemDelta {
            alloc_bytes: self.alloc_bytes.saturating_sub(baseline.alloc_bytes),
            freed_bytes: self.freed_bytes.saturating_sub(baseline.freed_bytes),
            allocs: self.allocs.saturating_sub(baseline.allocs),
            deallocs: self.deallocs.saturating_sub(baseline.deallocs),
        }
    }

    /// Allocation-size histogram buckets minus `baseline`'s.
    fn size_hist_since(&self, baseline: &MemSnapshot) -> Vec<u64> {
        let then = baseline.size_hist.iter().chain(std::iter::repeat(&0));
        let delta = self.size_hist.iter().zip(then);
        delta.map(|(now, then)| now.saturating_sub(*then)).collect()
    }
}

/// Every slot ever registered, plus the orphan slot. Materialises the
/// caller's slot *before* taking the registry lock: allocating while
/// holding it would re-enter slot creation and self-deadlock.
fn all_slots() -> Vec<&'static ThreadSlot> {
    let _ = thread_slot();
    let guard = slot_registry().lock().unwrap();
    let mut v = Vec::with_capacity(guard.len() + 1);
    v.extend(guard.iter().copied());
    drop(guard);
    v.push(&ORPHAN);
    v
}

/// Reads the process-wide ledger: the sum of every thread's slot, so
/// the global view and the per-slot view agree by construction. The
/// exact live gauge is folded into the peak watermark, so
/// `peak_bytes >= live_bytes` at every snapshot.
pub fn snapshot() -> MemSnapshot {
    let mut snap = MemSnapshot {
        size_hist: vec![0; SIZE_BUCKETS],
        ..MemSnapshot::default()
    };
    for slot in all_slots() {
        snap.alloc_bytes += slot.alloc_bytes.load(Ordering::Relaxed);
        snap.freed_bytes += slot.freed_bytes.load(Ordering::Relaxed);
        snap.allocs += slot.allocs.load(Ordering::Relaxed);
        snap.deallocs += slot.deallocs.load(Ordering::Relaxed);
        for (total, bucket) in snap.size_hist.iter_mut().zip(slot.size_hist.iter()) {
            *total += bucket.load(Ordering::Relaxed);
        }
    }
    snap.live_bytes = snap.alloc_bytes as i64 - snap.freed_bytes as i64;
    PEAK.fetch_max(snap.live_bytes, Ordering::Relaxed);
    snap.peak_bytes = PEAK.load(Ordering::Relaxed);
    snap
}

/// Current live-bytes gauge, exact: sums `alloc - freed` over every
/// slot (no allocation — safe to call with the registry briefly
/// locked), and folds the reading into the peak watermark so a
/// subsequent [`peak_bytes`] is never below it.
pub fn live_bytes() -> i64 {
    let _ = thread_slot();
    let guard = slot_registry().lock().unwrap();
    let mut live = ORPHAN.alloc_bytes.load(Ordering::Relaxed) as i64
        - ORPHAN.freed_bytes.load(Ordering::Relaxed) as i64;
    for slot in guard.iter() {
        live += slot.alloc_bytes.load(Ordering::Relaxed) as i64
            - slot.freed_bytes.load(Ordering::Relaxed) as i64;
    }
    drop(guard);
    PEAK.fetch_max(live, Ordering::Relaxed);
    live
}

/// Current peak watermark. Maintained from batched live-gauge
/// flushes plus every exact [`live_bytes`]/[`snapshot`] reading, so
/// between observation points it may under-estimate the true peak by
/// up to `threads * LIVE_FLUSH_BYTES`.
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the peak watermark from the current live gauge, so the
/// next [`peak_bytes`] reading is a per-run high-water mark rather
/// than a process-lifetime one.
pub fn reset_peak() {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
}

/// Bytes/calls accrued over some window, on one thread, one site, or
/// the whole process. Merging workers' deltas is field-wise addition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Bytes requested.
    pub alloc_bytes: u64,
    /// Bytes returned.
    pub freed_bytes: u64,
    /// Allocation calls.
    pub allocs: u64,
    /// Deallocation calls.
    pub deallocs: u64,
}

impl MemDelta {
    /// Bytes still held at the end of the window (negative when the
    /// window freed more than it allocated).
    pub fn net_bytes(&self) -> i64 {
        self.alloc_bytes as i64 - self.freed_bytes as i64
    }

    /// This window's counters minus an earlier window's.
    pub(crate) fn since(&self, earlier: &MemDelta) -> MemDelta {
        MemDelta {
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            freed_bytes: self.freed_bytes.saturating_sub(earlier.freed_bytes),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            deallocs: self.deallocs.saturating_sub(earlier.deallocs),
        }
    }

    /// Field-wise accumulation (how per-worker deltas merge at join).
    pub fn merge(&mut self, other: &MemDelta) {
        self.alloc_bytes += other.alloc_bytes;
        self.freed_bytes += other.freed_bytes;
        self.allocs += other.allocs;
        self.deallocs += other.deallocs;
    }

    /// Renders the delta as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("alloc_bytes", Json::Int(self.alloc_bytes as i64)),
            ("freed_bytes", Json::Int(self.freed_bytes as i64)),
            ("allocs", Json::Int(self.allocs as i64)),
            ("deallocs", Json::Int(self.deallocs as i64)),
            ("net_bytes", Json::Int(self.net_bytes())),
        ])
    }
}

/// This thread's monotone counters (its slot, plus nothing else).
/// Subtract two marks for an exact per-thread window.
pub fn thread_mark() -> MemDelta {
    thread_slot().counts()
}

/// This thread's counters minus an earlier [`thread_mark`].
pub fn thread_delta_since(mark: &MemDelta) -> MemDelta {
    thread_mark().since(mark)
}

/// Monotone bytes this thread has allocated so far (what
/// [`crate::PhaseClock`] samples at phase transitions). Reads the
/// slot without creating one — 0 until this thread's first tracked
/// allocation, and stable (not resetting) across session boundaries,
/// so deltas bracketing a session toggle stay correct.
#[inline]
pub fn thread_alloc_bytes() -> u64 {
    SLOT.try_with(|s| {
        let p = s.get();
        if p.is_null() {
            0
        } else {
            // SAFETY: non-null slot pointers are leaked 'static blocks.
            unsafe { (*p).alloc_bytes.load(Ordering::Relaxed) }
        }
    })
    .unwrap_or(0)
}

/// Counters of every per-thread slot ever registered (plus the orphan
/// slot), keyed by a stable opaque id. Slots outlive their threads,
/// so reading after a join observes the joined workers' full totals.
pub fn slots_snapshot() -> Vec<(usize, MemDelta)> {
    let mut out: Vec<(usize, MemDelta)> = all_slots()
        .into_iter()
        .map(|s| (s as *const ThreadSlot as usize, s.counts()))
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

/// Sums `now - baseline` across all slots, matching slots by id (new
/// slots count in full). The result must equal the global
/// [`MemSnapshot::delta_since`] over the same quiesced window — the
/// two ledgers are written by the same allocator hooks.
pub fn slots_delta(now: &[(usize, MemDelta)], baseline: &[(usize, MemDelta)]) -> MemDelta {
    let mut merged = MemDelta::default();
    for (id, counts) in now {
        let base = baseline
            .iter()
            .find(|(bid, _)| bid == id)
            .map(|(_, c)| *c)
            .unwrap_or_default();
        merged.merge(&counts.since(&base));
    }
    merged
}

// ---------------------------------------------------------------------------
// Attribution sites.

/// A named, static owner that bytes can be attributed to — the memory
/// analogue of [`crate::contention::LockTimer`].
///
/// ```
/// use rowpoly_obs::mem::MemSite;
///
/// static CACHE_MEM: MemSite = MemSite::new("batch.cache");
/// let _guard = CACHE_MEM.scope();
/// // ... allocations on this thread are now charged to batch.cache
/// ```
pub struct MemSite {
    name: &'static str,
}

impl MemSite {
    /// A site named `name` (reported as `mem.site.<name>`).
    pub const fn new(name: &'static str) -> MemSite {
        MemSite { name }
    }

    /// The site name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Opens an attribution scope: until the guard drops, bytes this
    /// thread allocates are charged to this site — exclusively, so a
    /// nested scope suspends the outer one (the [`crate::PhaseClock`]
    /// stack discipline applied to bytes). A no-op while accounting
    /// is off.
    pub fn scope(&'static self) -> MemScope {
        if !tracking() {
            return MemScope { active: false };
        }
        collector::with_buf(|b| collector::mem_site(&mut b.sites, self.name).enters += 1);
        SCOPES.with(|stack| {
            let mut stack = stack.borrow_mut();
            let now = thread_mark();
            if let Some(top) = stack.sites.last() {
                top.charge(&now.since(&stack.last));
            }
            stack.sites.push(self);
            // Re-read after the push: growing the scope vector itself
            // allocates, and those bytes belong to no site.
            stack.last = thread_mark();
        });
        MemScope { active: true }
    }

    fn charge(&self, d: &MemDelta) {
        collector::with_buf(|b| collector::mem_site(&mut b.sites, self.name).delta.merge(d));
    }
}

struct ScopeStack {
    sites: Vec<&'static MemSite>,
    last: MemDelta,
}

thread_local! {
    static SCOPES: RefCell<ScopeStack> = RefCell::new(ScopeStack {
        sites: Vec::new(),
        last: MemDelta::default(),
    });
}

/// RAII guard returned by [`MemSite::scope`].
#[must_use = "dropping the guard closes the attribution scope"]
pub struct MemScope {
    active: bool,
}

impl Drop for MemScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _ = SCOPES.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            let now = thread_mark();
            if let Some(site) = stack.sites.pop() {
                site.charge(&now.since(&stack.last));
            }
            stack.last = thread_mark();
        });
        // Fold this thread's un-flushed live bytes into the gauge so
        // the peak watermark covers the scope's residency even when it
        // stayed under the batching threshold.
        let _ = SLOT.try_with(|s| {
            let p = s.get();
            if !p.is_null() {
                unsafe { &*p }.flush_pending();
            }
        });
    }
}

/// One site's bytes as recorded by one recorder.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSiteStats {
    /// Site name (reported as `mem.site.<name>`).
    pub name: &'static str,
    /// Scope entries.
    pub enters: u64,
    /// Accumulated bytes/calls.
    pub delta: MemDelta,
}

impl MemSiteStats {
    /// Adds `other`'s bytes (same site) to this entry.
    pub fn merge(&mut self, other: &MemSiteStats) {
        self.enters += other.enters;
        self.delta.merge(&other.delta);
    }

    /// Renders the per-site stats (the `mem.site.<name>` object).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("enters".to_string(), Json::Int(self.enters as i64))];
        match self.delta.to_json() {
            Json::Obj(inner) => fields.extend(inner),
            _ => unreachable!("MemDelta::to_json returns an object"),
        }
        Json::Obj(fields)
    }
}

// ---------------------------------------------------------------------------
// Host / process facts (Linux procfs; `None` elsewhere).

fn proc_kib_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let kib: u64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

/// Peak resident-set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_kib_field("/proc/self/status", "VmHWM")
}

/// Current resident-set size of this process (`VmRSS`), in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    proc_kib_field("/proc/self/status", "VmRSS")
}

/// Total physical memory of the host (`MemTotal`), in bytes.
pub fn host_mem_bytes() -> Option<u64> {
    proc_kib_field("/proc/meminfo", "MemTotal")
}

// ---------------------------------------------------------------------------
// Reporting.

/// The standard `mem` JSON block shared by every report surface:
/// global deltas, watermarks, RSS, per-def ratios, the size
/// histogram, and per-site attribution. `defs` scales the per-def
/// ratios; pass 0 to omit them.
///
/// `enabled` records whether the block carries real measurements —
/// the allocator is installed and the delta saw allocations — rather
/// than whether a session happens to be active at render time, so
/// surfaces that track via scoped sessions (the fig9 overhead legs)
/// report truthfully.
pub fn report_json(
    delta: &MemDelta,
    baseline: &MemSnapshot,
    now: &MemSnapshot,
    sites: &[MemSiteStats],
    defs: u64,
) -> Json {
    let mut fields = vec![
        ("enabled", Json::Bool(installed() && delta.allocs > 0)),
        ("alloc_bytes", Json::Int(delta.alloc_bytes as i64)),
        ("freed_bytes", Json::Int(delta.freed_bytes as i64)),
        ("allocs", Json::Int(delta.allocs as i64)),
        ("deallocs", Json::Int(delta.deallocs as i64)),
        ("net_bytes", Json::Int(delta.net_bytes())),
        ("live_bytes", Json::Int(now.live_bytes)),
        ("peak_bytes", Json::Int(now.peak_bytes)),
        (
            "peak_rss_bytes",
            peak_rss_bytes().map_or(Json::Null, |v| Json::Int(v as i64)),
        ),
    ];
    if defs > 0 {
        fields.push((
            "bytes_per_def",
            Json::Float(delta.alloc_bytes as f64 / defs as f64),
        ));
        fields.push((
            "allocs_per_def",
            Json::Float(delta.allocs as f64 / defs as f64),
        ));
    }
    // Sizes use the same bucket-walk estimator as
    // [`crate::Histogram::percentile`].
    let sizes = now.size_hist_since(baseline);
    for (key, p) in [("size_p50", 50.0), ("size_p90", 90.0), ("size_p99", 99.0)] {
        let v = bucket_percentile(&sizes, u64::MAX, p);
        fields.push((key, v.map_or(Json::Null, |v| Json::Int(v as i64))));
    }
    fields.push((
        "size_hist",
        Json::Arr(
            nonzero_buckets(&sizes)
                .into_iter()
                .map(|(lo, n)| Json::Arr(vec![Json::Int(lo as i64), Json::Int(n as i64)]))
                .collect(),
        ),
    ));
    fields.push((
        "sites",
        Json::Obj(
            sites
                .iter()
                .map(|s| (s.name.to_string(), s.to_json()))
                .collect(),
        ),
    ));
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: unit tests run without a `#[global_allocator]` install,
    // so the allocator hooks never fire here; these tests cover the
    // pure bookkeeping. The end-to-end counting paths are exercised
    // by `crates/obs/tests/mem.rs` and
    // `crates/batch/tests/mem_stress.rs`, which install the
    // allocator in their own test binaries.

    #[test]
    fn deltas_merge_and_subtract() {
        let a = MemDelta {
            alloc_bytes: 100,
            freed_bytes: 40,
            allocs: 3,
            deallocs: 2,
        };
        let mut b = MemDelta {
            alloc_bytes: 10,
            freed_bytes: 70,
            allocs: 1,
            deallocs: 4,
        };
        b.merge(&a);
        assert_eq!(b.alloc_bytes, 110);
        assert_eq!(b.net_bytes(), 0);
        let d = b.since(&a);
        assert_eq!(d.alloc_bytes, 10);
        assert_eq!(d.deallocs, 4);
    }

    #[test]
    fn snapshot_delta_and_hist() {
        let base = MemSnapshot {
            alloc_bytes: 100,
            freed_bytes: 50,
            allocs: 10,
            deallocs: 5,
            live_bytes: 50,
            peak_bytes: 80,
            size_hist: vec![0, 2, 1],
        };
        let now = MemSnapshot {
            alloc_bytes: 300,
            freed_bytes: 60,
            allocs: 14,
            deallocs: 6,
            live_bytes: 240,
            peak_bytes: 250,
            size_hist: vec![1, 2, 3, 4],
        };
        let d = now.delta_since(&base);
        assert_eq!(d.alloc_bytes, 200);
        assert_eq!(d.allocs, 4);
        assert_eq!(d.net_bytes(), 190);
        let sizes = now.size_hist_since(&base);
        assert_eq!(nonzero_buckets(&sizes), vec![(0, 1), (2, 2), (4, 4)]);
    }

    #[test]
    fn slots_delta_counts_new_slots_in_full() {
        let before = vec![(
            1usize,
            MemDelta {
                alloc_bytes: 10,
                freed_bytes: 0,
                allocs: 1,
                deallocs: 0,
            },
        )];
        let after = vec![
            (
                1usize,
                MemDelta {
                    alloc_bytes: 30,
                    freed_bytes: 5,
                    allocs: 3,
                    deallocs: 1,
                },
            ),
            (
                2usize,
                MemDelta {
                    alloc_bytes: 100,
                    freed_bytes: 0,
                    allocs: 7,
                    deallocs: 0,
                },
            ),
        ];
        let d = slots_delta(&after, &before);
        assert_eq!(d.alloc_bytes, 120);
        assert_eq!(d.allocs, 9);
        assert_eq!(d.deallocs, 1);
    }

    #[test]
    fn site_stats_json_shape() {
        let s = MemSiteStats {
            name: "test.site",
            enters: 2,
            delta: MemDelta {
                alloc_bytes: 64,
                freed_bytes: 16,
                allocs: 2,
                deallocs: 1,
            },
        };
        let j = s.to_json();
        assert_eq!(j.get("enters").unwrap().as_i64(), Some(2));
        assert_eq!(j.get("alloc_bytes").unwrap().as_i64(), Some(64));
        assert_eq!(j.get("net_bytes").unwrap().as_i64(), Some(48));
    }

    #[test]
    fn inactive_scopes_are_inert() {
        // Accounting is off on this thread, so scopes are no-ops and
        // the stack stays balanced.
        static SITE: MemSite = MemSite::new("test.inert");
        {
            let _g = SITE.scope();
            let _h = SITE.scope();
        }
        assert!(crate::snapshot().sites.is_empty());
        assert!(SCOPES.with(|s| s.borrow().sites.is_empty()));
    }

    #[test]
    fn host_facts_are_plausible_on_linux() {
        if let Some(total) = host_mem_bytes() {
            assert!(total > 1 << 20, "host has at least a megabyte");
        }
        if let (Some(cur), Some(peak)) = (current_rss_bytes(), peak_rss_bytes()) {
            assert!(peak >= cur / 2, "peak RSS roughly bounds current");
        }
    }
}
