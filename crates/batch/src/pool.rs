//! A std-only work-stealing pool for dependency graphs of jobs.
//!
//! The batch engine needs to run a DAG of inference jobs on N OS
//! threads with nothing but the standard library. Each worker owns a
//! deque; finishing a job pushes the dependents it unblocked onto the
//! finishing worker's own deque (they share the job's inputs, so
//! locality is worth keeping), and idle workers steal from the front of
//! their peers' deques. A seed queue ("injector") spreads the initially
//! ready jobs.
//!
//! Two things keep the scheduler itself off the profile:
//!
//! * **Worker-local state.** [`run_graph`] takes a `mk_worker` factory
//!   and threads one `&mut S` through every job a worker executes, so
//!   engines can reuse scratch buffers (arenas, dep-scheme vectors,
//!   pretty-printing strings) across jobs instead of reallocating per
//!   definition — the pool owns the only safe place to keep such state
//!   without cross-worker sharing.
//! * **Eventcount wakeups.** A push bumps an atomic version counter
//!   and only touches the condvar mutex when a sleeper is actually
//!   parked (`sleepers > 0`), so the saturated steady state — every
//!   worker busy — publishes work with one atomic increment instead of
//!   a mutex acquisition per job. Sleepers re-check the version under
//!   the mutex before parking (with a bounded timeout as backstop), so
//!   wakeups cannot be lost.
//!
//! Worker 0 runs on the calling thread, which would otherwise only wait
//! for the others, so a drain with `n` workers spawns `n - 1` threads.
//! Every worker installs the caller's [`Recorder`] as track `w + 1`, so
//! jobs record into the caller's run under its switches. The queue
//! locks remain instrumented [`LockTimer`] sites
//! (`lock.wait.pool.queue`, `lock.wait.pool.wake`), and when a
//! [`Profiler`] is supplied each worker keeps a private
//! [`WorkerTimeline`] with exclusive busy / idle / steal-search /
//! lock-wait accounting plus steal instant markers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use rowpoly_obs::contention::LockTimer;
use rowpoly_obs::mem::MemDelta;
use rowpoly_obs::timeline::{Profiler, WorkerTimeline};
use rowpoly_obs::Recorder;

/// Wait-time accounting for the per-worker deque locks.
static QUEUE_LOCK: LockTimer = LockTimer::new("pool.queue");
/// Wait-time accounting for the condvar wake lock (only taken when a
/// sleeper is parked or about to park).
static WAKE_LOCK: LockTimer = LockTimer::new("pool.wake");

/// What the pool observed while draining a graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Jobs taken from another worker's deque.
    pub steals: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Allocator delta of the threads the pool spawned, over their
    /// drains (all zeros when accounting is off). Worker 0 runs on the
    /// calling thread, so its share is in the caller's own delta.
    pub spawned_mem: MemDelta,
}

/// Runs `n_jobs` jobs respecting `deps` (for each job, the indices it
/// must wait for) on `threads` workers; jobs share no worker state.
/// Convenience wrapper over [`run_graph_with`] for callers that don't
/// need per-worker scratch.
pub fn run_graph<R, F>(
    n_jobs: usize,
    deps: &[Vec<usize>],
    threads: usize,
    profiler: Option<&Profiler>,
    run: F,
) -> (Vec<R>, PoolStats)
where
    R: Send,
    F: Fn(usize, &mut WorkerTimeline) -> R + Sync,
{
    run_graph_with(
        n_jobs,
        deps,
        threads,
        profiler,
        |_| (),
        |i, (), tl| run(i, tl),
    )
}

/// Runs `n_jobs` jobs respecting `deps` on `threads` workers, with
/// per-worker state. `mk_worker(w)` builds worker `w`'s state once at
/// thread start; `run(i, state, tl)` executes job `i` with exclusive
/// access to its worker's state and may record onto the worker's
/// timeline `tl` (inert unless `profiler` is supplied). Results are
/// collected in job order. Panics if `deps` contains a cycle (the pool
/// would deadlock, so it asserts instead).
pub fn run_graph_with<R, S, I, F>(
    n_jobs: usize,
    deps: &[Vec<usize>],
    threads: usize,
    profiler: Option<&Profiler>,
    mk_worker: I,
    run: F,
) -> (Vec<R>, PoolStats)
where
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, &mut S, &mut WorkerTimeline) -> R + Sync,
{
    assert_eq!(deps.len(), n_jobs);
    let threads = threads.max(1).min(n_jobs.max(1));

    // Static shape: dependents and initial indegrees.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_jobs];
    let mut indegree_init: Vec<usize> = vec![0; n_jobs];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            assert!(d < n_jobs, "dependency {d} out of range");
            dependents[d].push(i);
            indegree_init[i] += 1;
        }
    }

    let shared = Shared {
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        indegree: indegree_init.into_iter().map(AtomicUsize::new).collect(),
        remaining: AtomicUsize::new(n_jobs),
        steals: AtomicU64::new(0),
        version: AtomicU64::new(0),
        sleepers: AtomicUsize::new(0),
        wake: Mutex::new(()),
        bell: Condvar::new(),
    };

    // Seed: round-robin the initially ready jobs across workers.
    {
        let mut next = 0usize;
        for i in 0..n_jobs {
            if shared.indegree[i].load(Ordering::Relaxed) == 0 {
                shared.queues[next % threads].lock().unwrap().push_back(i);
                next += 1;
            }
        }
        assert!(
            n_jobs == 0 || next > 0,
            "dependency graph has no ready job (cycle)"
        );
    }

    let results: Vec<Mutex<Option<R>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let recorder = Recorder::current();
    // One worker's life: returns its allocator delta over the drain.
    let drain = |w: usize| {
        let _recording = recorder.enter_worker(w as u32);
        let mut tl = match profiler {
            Some(p) => p.worker(w as u32),
            None => WorkerTimeline::disabled(),
        };
        // All zeros when accounting is off. The mark also materializes
        // the thread's slot, so the orchestrator's slot registry sees
        // every worker.
        let mem_mark = rowpoly_obs::mem::thread_mark();
        let mut state = mk_worker(w);
        worker(w, &shared, &dependents, &results, &run, &mut state, &mut tl);
        tl.mem = rowpoly_obs::mem::thread_delta_since(&mem_mark);
        let mem = tl.mem;
        if let Some(p) = profiler {
            p.submit(tl);
        }
        mem
    };
    let mut spawned_mem = MemDelta::default();
    std::thread::scope(|scope| {
        let drain = &drain;
        let spawned: Vec<_> = (1..threads)
            .map(|w| scope.spawn(move || drain(w)))
            .collect();
        drain(0);
        for handle in spawned {
            spawned_mem.merge(&handle.join().expect("pool worker panicked"));
        }
    });

    let executed: Vec<R> = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("graph drained but a job never ran (cycle in deps)")
        })
        .collect();
    let stats = PoolStats {
        steals: shared.steals.load(Ordering::Relaxed),
        workers: threads,
        spawned_mem,
    };
    (executed, stats)
}

struct Shared {
    queues: Vec<Mutex<VecDeque<usize>>>,
    indegree: Vec<AtomicUsize>,
    remaining: AtomicUsize,
    steals: AtomicU64,
    /// Eventcount version: bumped on every push (and at drain) so
    /// sleepers can detect work that arrived between their scan and
    /// their park. `SeqCst` pairs it with `sleepers` below.
    version: AtomicU64,
    /// Workers currently parked (or committed to parking) on the bell.
    /// Pushers skip the condvar mutex entirely when this is zero.
    sleepers: AtomicUsize,
    wake: Mutex<()>,
    bell: Condvar,
}

impl Shared {
    fn push(&self, worker: usize, job: usize) {
        QUEUE_LOCK.lock(&self.queues[worker]).push_back(job);
        self.version.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // One job, one worker: a single wakeup suffices. The
            // sleeper re-checks the version under this mutex before
            // parking, so the notify cannot be lost.
            drop(WAKE_LOCK.lock(&self.wake));
            self.bell.notify_one();
        }
    }

    fn announce_drain(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        drop(WAKE_LOCK.lock(&self.wake));
        self.bell.notify_all();
    }
}

#[allow(clippy::too_many_arguments)]
fn worker<R, S, F>(
    me: usize,
    shared: &Shared,
    dependents: &[Vec<usize>],
    results: &[Mutex<Option<R>>],
    run: &F,
    state: &mut S,
    tl: &mut WorkerTimeline,
) where
    R: Send,
    F: Fn(usize, &mut S, &mut WorkerTimeline) -> R + Sync,
{
    loop {
        if shared.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let search = tl.mark();
        let seen = shared.version.load(Ordering::SeqCst);
        let job = pop_local(shared, me).or_else(|| steal(shared, me, tl));
        tl.charge_search(search);
        let Some(job) = job else {
            if shared.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            // Park unless a push happened since we read `seen`.
            let idle = tl.mark();
            shared.sleepers.fetch_add(1, Ordering::SeqCst);
            if shared.version.load(Ordering::SeqCst) == seen {
                let guard = WAKE_LOCK.lock(&shared.wake);
                if shared.version.load(Ordering::SeqCst) == seen {
                    // Timed wait: a bounded backstop keeps shutdown
                    // robust even if a wakeup is somehow missed.
                    let _ = shared
                        .bell
                        .wait_timeout(guard, std::time::Duration::from_millis(50))
                        .unwrap();
                }
            }
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            tl.charge_idle(idle);
            continue;
        };

        let busy = tl.mark();
        let result = run(job, state, tl);
        *results[job].lock().unwrap() = Some(result);
        for &d in &dependents[job] {
            if shared.indegree[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                shared.push(me, d);
            }
        }
        tl.charge_busy(busy);
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last job: wake everyone so they observe remaining == 0.
            shared.announce_drain();
        }
    }
}

fn pop_local(shared: &Shared, me: usize) -> Option<usize> {
    QUEUE_LOCK.lock(&shared.queues[me]).pop_back()
}

fn steal(shared: &Shared, me: usize, tl: &mut WorkerTimeline) -> Option<usize> {
    let n = shared.queues.len();
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(job) = QUEUE_LOCK.lock(&shared.queues[victim]).pop_front() {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            tl.note_steal();
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_job_once_and_respects_dependencies() {
        // Chain 0 -> 1 -> 2 plus independents; record finish order.
        let deps = vec![vec![], vec![0], vec![1], vec![], vec![]];
        let order = Mutex::new(Vec::new());
        let (results, stats) = run_graph(5, &deps, 4, None, |i, _| {
            order.lock().unwrap().push(i);
            i * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
        assert_eq!(stats.workers, 4);
        let order = order.into_inner().unwrap();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2));
    }

    #[test]
    fn wide_graphs_use_parallel_workers() {
        let n = 64;
        let deps = vec![Vec::new(); n];
        let live = AtomicU32::new(0);
        let peak = AtomicU32::new(0);
        let (_, stats) = run_graph(n, &deps, 4, None, |i, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(stats.workers, 4);
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "no two jobs ever overlapped"
        );
    }

    #[test]
    fn empty_graph_is_fine() {
        let (results, _) = run_graph(0, &[], 8, None, |i: usize, _| i);
        assert!(results.is_empty());
    }

    #[test]
    fn single_thread_drains_the_whole_graph() {
        let deps = vec![vec![], vec![], vec![0, 1]];
        let order = Mutex::new(Vec::new());
        let (_, stats) = run_graph(3, &deps, 1, None, |i, _| order.lock().unwrap().push(i));
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 3);
        assert_eq!(order[2], 2, "dependent ran before its inputs");
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn worker_state_is_exclusive_and_reused_across_jobs() {
        // Each worker carries a private job counter; every job reports
        // the counter *after* incrementing. If the pool rebuilt state
        // per job every result would be 1; if two workers shared state
        // the borrow checker would have refused to compile this.
        let n = 200;
        let deps = vec![Vec::new(); n];
        let (counts, stats) = run_graph_with(
            n,
            &deps,
            4,
            None,
            |_| 0usize,
            |_, seen: &mut usize, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(stats.workers, 4);
        assert_eq!(counts.len(), n);
        let max_seen = counts.iter().copied().max().unwrap();
        assert!(
            max_seen > 1,
            "worker state was not reused across jobs (max count {max_seen})"
        );
        // The per-worker sequences 1..=k partition the job set.
        let total_ones = counts.iter().filter(|&&c| c == 1).count();
        assert!(total_ones <= 4, "more first-jobs than workers");
    }

    #[test]
    fn deep_diamond_results_are_independent_of_worker_count() {
        // A stack of diamonds: 0 fans out to (1,2), both join at 3,
        // which fans out to (4,5), joining at 6, ... Each node's value
        // folds its dependencies' values, so any scheduling error
        // (missed dependency, double run, lost result) changes the
        // final value. The whole graph must produce identical results
        // for every worker count.
        let layers = 64;
        let n = 1 + 3 * layers;
        let mut deps: Vec<Vec<usize>> = vec![vec![]];
        for l in 0..layers {
            let join = 3 * l; // previous join node (0 for the first)
            deps.push(vec![join]); // left
            deps.push(vec![join]); // right
            deps.push(vec![3 * l + 1, 3 * l + 2]); // next join
        }
        assert_eq!(deps.len(), n);
        let run_once = |threads: usize| -> (Vec<u64>, PoolStats) {
            let results: Mutex<Vec<u64>> = Mutex::new(vec![0; n]);
            let (out, stats) = run_graph(n, &deps, threads, None, |i, _| {
                let r = results.lock().unwrap();
                let folded: u64 = deps[i].iter().fold(0u64, |a, &d| a.wrapping_add(r[d]));
                drop(r);
                let v = folded.wrapping_mul(31).wrapping_add(i as u64 + 1);
                results.lock().unwrap()[i] = v;
                v
            });
            (out, stats)
        };
        let (base, base_stats) = run_once(1);
        assert_eq!(base_stats.steals, 0);
        for threads in [2, 4, 8] {
            let (got, stats) = run_once(threads);
            assert_eq!(got, base, "results diverged at {threads} workers");
            assert_eq!(stats.workers, threads.min(n));
        }
    }

    #[test]
    fn profiled_run_captures_every_worker_and_job() {
        let n = 16;
        let deps = vec![Vec::new(); n];
        let profiler = Profiler::new();
        let (_, stats) = run_graph(n, &deps, 4, Some(&profiler), |i, tl| {
            tl.instant_with(|| format!("job {i}"));
            std::thread::sleep(std::time::Duration::from_micros(200));
            i
        });
        let snap = profiler.finish();
        assert_eq!(snap.workers.len(), 4, "one timeline per worker");
        let marked = snap
            .trace
            .instants
            .iter()
            .filter(|e| (1..=4).contains(&e.tid));
        assert_eq!(
            marked.count() as u64,
            n as u64 + stats.steals,
            "jobs and steals marked"
        );
        assert_eq!(snap.trace.threads.len(), 4, "one named track per worker");
        let steals: u64 = snap.workers.iter().map(|w| w.steals).sum();
        assert_eq!(steals, stats.steals, "timelines agree with pool stats");
        let busy: u64 = snap.workers.iter().map(|w| w.busy_ns).sum();
        assert!(busy > 0, "busy time attributed");
        for u in snap.utilization() {
            let sum = u.busy_pct() + u.idle_pct() + u.search_pct() + u.lock_wait_pct();
            assert!(
                sum <= 100.5,
                "worker {} buckets exceed wall: {sum}",
                u.worker
            );
        }
    }
}
