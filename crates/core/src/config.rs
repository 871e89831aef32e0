//! Inference configuration and phase statistics.

use rowpoly_boolfun::{ProjectStats, SatClass};
use std::time::Duration;

/// The number of [`SatClass`] variants (for per-class count arrays).
pub const SAT_CLASS_COUNT: usize = 6;

/// All [`SatClass`] variants in ascending difficulty order, for
/// iterating per-class counters.
pub const SAT_CLASSES: [SatClass; SAT_CLASS_COUNT] = [
    SatClass::Trivial,
    SatClass::Unsat,
    SatClass::TwoSat,
    SatClass::Horn,
    SatClass::DualHorn,
    SatClass::General,
];

/// When to project stale flags out of the Boolean function β.
///
/// Section 6 of the paper notes that stale flags must be removed for the
/// correctness of expansion ("is applied aggressively"); the safe default
/// projects at the end of every rule that drops structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compaction {
    /// Project at the end of every structural rule (safe default).
    Aggressive,
    /// No per-rule pass: `applyS` projects the flags it replaces in the
    /// κ type at once, and the rest wait until the top-level definition
    /// finishes (`FlowInfer::finish_def`). Faster, but an expansion may
    /// alias copies through a stale flag (the Section 6 bug); exposed
    /// for the ablation benchmark.
    PerDef,
}

/// Options controlling the flow inference.
#[derive(Clone, Debug)]
pub struct Options {
    /// Stale-flag projection strategy.
    pub compaction: Compaction,
    /// Iteration bound for the Milner–Mycroft fixpoint.
    pub max_letrec_iters: usize,
    /// Whether to track field flows at all. With `false` the engine
    /// reproduces the paper's "w/o fields" configuration used as the
    /// baseline column of Fig. 9: the same traversal and unifications, but
    /// no Boolean function is built.
    pub track_fields: bool,
    /// Whether the environment meet short-circuits when both sides carry
    /// the same version tag (the Section 6 optimisation). Disabled only
    /// by the `gci_versioning` ablation benchmark.
    pub env_versions: bool,
    /// CDCL step budget per SAT check (`None` = unlimited). An accepted
    /// definition is checked once, so this bounds the search it may
    /// spend: only the general-CNF class — the one symmetric
    /// concatenation `@@` and `when` generate — can blow up, and
    /// exceeding the budget surfaces as
    /// [`crate::TypeErrorKind::SatGaveUp`] instead of a hang.
    pub sat_budget: Option<u64>,
    /// Cooperative cancellation flag shared with a batch scheduler;
    /// raising it stops the next CDCL solve.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            compaction: Compaction::Aggressive,
            max_letrec_iters: 50,
            track_fields: true,
            env_versions: true,
            sat_budget: None,
            cancel: None,
        }
    }
}

impl Options {
    /// A stable digest of every option that can change schemes or
    /// verdicts. This is the shared prefix of every content-addressed
    /// inference key — the batch cache and the serve daemon's query
    /// memos both start from it, so results computed under one
    /// configuration are never replayed under another. The cancellation
    /// flag is excluded (it changes *whether* a result is produced,
    /// never which).
    pub fn fingerprint(&self) -> String {
        format!(
            "compaction={:?};letrec={};track={};envv={};budget={:?}",
            self.compaction,
            self.max_letrec_iters,
            self.track_fields,
            self.env_versions,
            self.sat_budget,
        )
    }
}

/// Wall-clock time spent per inference phase, mirroring the paper's
/// Section 6 observation that "the 2-SAT solver is not the biggest
/// bottleneck but applying substitutions is equally expensive".
///
/// Phase durations are *exclusive* (self-time): the engine attributes
/// each instant to the innermost open phase, so a stale-flag projection
/// performed in the middle of `applyS` counts towards [`Stats::project`]
/// only, never both buckets. Consequently the four phase durations sum
/// to at most [`Stats::wall`].
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Time in unification (`mgu`).
    pub unify: Duration,
    /// Time applying substitutions with flow transport (`applyS`).
    pub applys: Duration,
    /// Time in SAT solving.
    pub sat: Duration,
    /// Time projecting stale flags (resolution).
    pub project: Duration,
    /// Total wall-clock time of the run the phases were carved out of.
    pub wall: Duration,
    /// Bytes allocated while unification was the innermost open phase
    /// (0 unless memory accounting is on; exclusive, like the durations).
    pub unify_alloc_bytes: u64,
    /// Bytes allocated during substitution application.
    pub applys_alloc_bytes: u64,
    /// Bytes allocated during SAT solving.
    pub sat_alloc_bytes: u64,
    /// Bytes allocated during stale-flag projection.
    pub project_alloc_bytes: u64,
    /// Number of `mgu` calls.
    pub unify_calls: usize,
    /// Number of `applyS` calls.
    pub applys_calls: usize,
    /// Number of SAT checks.
    pub sat_calls: usize,
    /// Peak clause count of β.
    pub peak_clauses: usize,
    /// Number of flags eliminated by resolution (stale-flag projection).
    pub project_resolutions: usize,
    /// Flag eliminations that took the binary-implication fast path
    /// (all clauses touching the pivot were binary or unit).
    pub project_fastpath: usize,
    /// Flag eliminations that fell back to general Davis–Putnam
    /// resolution (wide clauses from symmetric concat / `when`).
    pub project_fallback: usize,
    /// Non-tautological resolvents generated by projection.
    pub project_resolvents: usize,
    /// Clauses discarded by subsumption during projection.
    pub project_subsumed: usize,
    /// Environment meets short-circuited by matching version tags
    /// (the Section 6 optimisation taking effect).
    pub env_meet_hits: usize,
    /// Environment meets that fell back to point-wise equations.
    pub env_meet_misses: usize,
    /// SAT checks per clause class of β at check time, indexed by
    /// `SatClass as usize` (see [`SAT_CLASSES`]).
    pub sat_checks_by_class: [usize; SAT_CLASS_COUNT],
}

impl Stats {
    /// Records one SAT check of a β in class `class`.
    pub fn note_sat_class(&mut self, class: SatClass) {
        self.sat_checks_by_class[class as usize] += 1;
    }

    /// Number of SAT checks that ran on a β of class `class`.
    pub fn sat_checks_for(&self, class: SatClass) -> usize {
        self.sat_checks_by_class[class as usize]
    }

    /// Folds one projection call's counters into the totals.
    pub fn note_projection(&mut self, p: &ProjectStats) {
        self.project_resolutions += p.eliminated;
        self.project_fastpath += p.fastpath;
        self.project_fallback += p.fallback;
        self.project_resolvents += p.resolvents;
        self.project_subsumed += p.subsumed;
    }

    /// The four paper phases as `(name, nanoseconds)` pairs, in the
    /// pipeline's canonical order. This is the per-job phase breakdown
    /// the batch profiler attaches to each scheduled group, so a
    /// parallel profile can say not just *which worker ran which job
    /// when* but where inside inference that job's time went.
    pub fn phase_durations(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("unify", self.unify.as_nanos() as u64),
            ("applys", self.applys.as_nanos() as u64),
            ("project", self.project.as_nanos() as u64),
            ("sat", self.sat.as_nanos() as u64),
        ]
    }

    /// The four paper phases as `(name, allocated bytes)` pairs, in the
    /// same canonical order as [`Stats::phase_durations`]. All zeros
    /// unless memory accounting was on for the run.
    pub fn phase_alloc_bytes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("unify", self.unify_alloc_bytes),
            ("applys", self.applys_alloc_bytes),
            ("project", self.project_alloc_bytes),
            ("sat", self.sat_alloc_bytes),
        ]
    }

    /// Adds another stats record into this one.
    pub fn merge(&mut self, other: &Stats) {
        self.unify += other.unify;
        self.applys += other.applys;
        self.sat += other.sat;
        self.project += other.project;
        self.wall += other.wall;
        self.unify_alloc_bytes += other.unify_alloc_bytes;
        self.applys_alloc_bytes += other.applys_alloc_bytes;
        self.sat_alloc_bytes += other.sat_alloc_bytes;
        self.project_alloc_bytes += other.project_alloc_bytes;
        self.unify_calls += other.unify_calls;
        self.applys_calls += other.applys_calls;
        self.sat_calls += other.sat_calls;
        self.peak_clauses = self.peak_clauses.max(other.peak_clauses);
        self.project_resolutions += other.project_resolutions;
        self.project_fastpath += other.project_fastpath;
        self.project_fallback += other.project_fallback;
        self.project_resolvents += other.project_resolvents;
        self.project_subsumed += other.project_subsumed;
        self.env_meet_hits += other.env_meet_hits;
        self.env_meet_misses += other.env_meet_misses;
        for (mine, theirs) in self
            .sat_checks_by_class
            .iter_mut()
            .zip(other.sat_checks_by_class.iter())
        {
            *mine += theirs;
        }
    }
}
