//! The group step: how one definition group gets its verdicts.
//!
//! The paper's per-definition inference (Fig. 3) runs as one step per
//! definition group ([`run_group_spec`], which `Session` takes in
//! order). The batch checker's workers and the serve daemon's revision
//! loop wrap it in exactly this step, so all three agree byte for byte:
//!
//! 1. gather the closed schemes of the group's dependencies from their
//!    already-published results, by reference — a failed dependency
//!    poisons the whole group to `Skipped { after }`;
//! 2. key the group by its content ([`Cache::key`]: options
//!    fingerprint, the members' digests, and each dependency's scheme
//!    digest, which a replayed dependency read from its stored line and
//!    a recomputed one derives once, on first use);
//! 3. replay a stored verdict when the caller's store has one that
//!    lines up with the group's members — the result shares the
//!    store's entry, so a hit copies nothing;
//! 4. otherwise run inference ([`run_group_spec`]) and hand back the
//!    entry to store when every member checked.
//!
//! [`GroupStep::run`] takes the four back to back, which is what a
//! batch worker does. Each is also a method of its own
//! ([`GroupStep::slice`], [`GroupStep::replay`], [`GroupStep::infer`]),
//! so the serve daemon can slice and replay a whole wave of groups on
//! its own thread and hand only the misses, keyed once, to workers.
//!
//! What the step does not do is count or store: the caller owns its
//! store (a [`Cache`]: sharded for batch, bounded for serve) and its
//! counters, and reads [`GroupResult::answer`] to keep them.

use std::sync::Arc;

use rowpoly_core::graph::ProgramGraph;
use rowpoly_core::{run_group_spec, DefReport, DefVerdict, EngineScratch, GroupSpec, Options};
use rowpoly_lang::{Program, Symbol};
use rowpoly_types::Scheme;

use crate::cache::{Cache, Checked};

/// How a group got its verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A dependency failed; every member is `Skipped`.
    Skipped,
    /// Replayed from an entry this process already used or inserted.
    Memo,
    /// Replayed from an entry loaded from disk and not used before.
    Disk,
    /// Inference ran.
    Recomputed,
}

impl Answer {
    /// Whether a store answered the group.
    pub fn is_hit(self) -> bool {
        matches!(self, Answer::Memo | Answer::Disk)
    }
}

/// One group's published outcome, read by its dependents' steps.
///
/// Inference stops a group at its first failure, so its members are the
/// ones that checked, then (if it failed) the failure and the members
/// it shadowed.
#[derive(Debug)]
pub struct GroupResult {
    /// How the group was answered.
    pub answer: Answer,
    /// The group's key, when it was keyed and not skipped.
    pub key: Option<u64>,
    /// Index of the first member (a group is a contiguous interval).
    first: usize,
    /// The leading members that checked: every member unless the group
    /// failed. A replayed group shares the store's entry, scheme
    /// digests included; a recomputed member's digest is made by the
    /// first dependent that keys on it, so no scheme is encoded twice
    /// however many dependents it has.
    checked: Arc<Checked>,
    /// Verdicts of the members after those: the failure, then `Skipped`.
    failed: Vec<DefVerdict>,
}

impl GroupResult {
    fn new(
        first: usize,
        checked: Arc<Checked>,
        failed: Vec<DefVerdict>,
        answer: Answer,
        key: Option<u64>,
    ) -> Self {
        GroupResult {
            answer,
            key,
            first,
            checked,
            failed,
        }
    }

    /// Member `def_idx`: the checked members' reports and its position
    /// among them, or the verdict of a member that did not check.
    pub fn verdict(&self, def_idx: usize) -> Result<(&Checked, usize), &DefVerdict> {
        let k = def_idx - self.first;
        match k.checked_sub(self.checked.defs.len()) {
            None => Ok((&self.checked, k)),
            Some(j) => Err(&self.failed[j]),
        }
    }
}

/// A store lookup: given a key and a check that an entry lines up with
/// the group's members, returns how the store answered and the entry.
/// An entry failing the check (a hash collision or a stale decode) is
/// not an answer.
pub type Lookup<'a> =
    dyn FnMut(u64, &dyn Fn(&[DefReport]) -> bool) -> Option<(Answer, Arc<Checked>)> + 'a;

/// What one step produced.
#[derive(Debug)]
pub struct StepOutcome {
    /// The result to publish for dependents.
    pub result: GroupResult,
    /// Dependency schemes gathered from groups a store answered.
    pub dep_hits: u64,
    /// The key and entry to store: set when the group was recomputed
    /// under a lookup and every member checked.
    pub store: Option<(u64, Arc<Checked>)>,
    /// Inference-phase split of a recomputation (empty otherwise).
    pub phases: Vec<(&'static str, u64)>,
}

impl StepOutcome {
    /// An outcome that ran no inference.
    fn answered(result: GroupResult, dep_hits: u64) -> StepOutcome {
        StepOutcome {
            result,
            dep_hits,
            store: None,
            phases: Vec::new(),
        }
    }
}

/// What a group's outcome depends on, gathered from its dependencies'
/// published results: their closed schemes, by reference, and the
/// group's key when it was keyed.
#[derive(Debug)]
pub struct Slice<'r> {
    deps: Vec<(Symbol, &'r Scheme)>,
    /// The group's key ([`Cache::key`]); `None` when not keyed.
    pub key: Option<u64>,
    dep_hits: u64,
}

/// One group of one program, with the options it is checked under.
#[derive(Clone, Copy, Debug)]
pub struct GroupStep<'a> {
    /// The parsed program.
    pub program: &'a Program,
    /// Its dependency graph.
    pub graph: &'a ProgramGraph,
    /// Index of the group in `graph.groups`.
    pub group: usize,
    /// Inference options.
    pub opts: &'a Options,
    /// `opts.fingerprint()`, computed once by the caller.
    pub fingerprint: &'a str,
    /// The members' digests ([`crate::cache::def_digest`]), in group
    /// order; read only to key the group, so empty without a lookup.
    pub digests: &'a [u64],
}

impl GroupStep<'_> {
    /// Takes the step: [`GroupStep::slice`], then [`GroupStep::replay`]
    /// when there is a lookup, then [`GroupStep::infer`] when nothing
    /// answered. `published(d)` is the result of group `d` of the same
    /// graph (every dependency has published); `lookup` is the caller's
    /// store, or `None` to skip keying altogether.
    pub fn run<'r>(
        &self,
        published: impl Fn(usize) -> &'r GroupResult,
        lookup: Option<&mut Lookup<'_>>,
        scratch: &mut EngineScratch,
    ) -> StepOutcome {
        let slice = match self.slice(published, lookup.is_some()) {
            Ok(slice) => slice,
            Err(skipped) => return skipped,
        };
        lookup
            .and_then(|lookup| self.replay(&slice, lookup))
            .unwrap_or_else(|| self.infer(&slice, scratch))
    }

    /// Steps 1 and 2: gathers the dependency schemes and, when `keyed`,
    /// the key. A failed dependency is the `Skipped` outcome instead.
    pub fn slice<'r>(
        &self,
        published: impl Fn(usize) -> &'r GroupResult,
        keyed: bool,
    ) -> Result<Slice<'r>, StepOutcome> {
        let group = &self.graph.groups[self.group];
        let mut dep_hits = 0;
        let mut deps: Vec<(Symbol, &Scheme)> = Vec::with_capacity(group.deps.len());
        let mut dep_digests: Vec<(Symbol, u64)> =
            Vec::with_capacity(if keyed { group.deps.len() } else { 0 });
        for (&name, &def_idx) in &group.deps {
            let dep = published(self.graph.group_of[def_idx]);
            let Ok((checked, k)) = dep.verdict(def_idx) else {
                let failed = group
                    .def_indices
                    .iter()
                    .map(|_| DefVerdict::Skipped { after: name })
                    .collect();
                let checked = Arc::new(Checked::new(Vec::new()));
                let result =
                    GroupResult::new(group.def_indices[0], checked, failed, Answer::Skipped, None);
                return Err(StepOutcome::answered(result, dep_hits));
            };
            if dep.answer.is_hit() {
                dep_hits += 1;
            }
            deps.push((name, &checked.defs[k].scheme));
            if keyed {
                dep_digests.push((name, checked.scheme_digest(k)));
            }
        }
        let key = keyed.then(|| Cache::key(self.fingerprint, self.digests, &dep_digests));
        Ok(Slice {
            deps,
            key,
            dep_hits,
        })
    }

    /// Step 3: replays the entry `lookup` holds under the slice's key,
    /// if it lines up with the group's members. `None` for an unkeyed
    /// slice.
    pub fn replay(&self, slice: &Slice<'_>, lookup: &mut Lookup<'_>) -> Option<StepOutcome> {
        let group = &self.graph.groups[self.group];
        let fits = |defs: &[DefReport]| {
            defs.len() == group.def_indices.len()
                && group
                    .def_indices
                    .iter()
                    .zip(defs)
                    .all(|(&i, d)| self.program.defs[i].name == d.name)
        };
        let (answer, checked) = lookup(slice.key?, &fits)?;
        let result = GroupResult::new(group.def_indices[0], checked, Vec::new(), answer, slice.key);
        Some(StepOutcome::answered(result, slice.dep_hits))
    }

    /// Step 4: runs inference over the slice. The outcome carries the
    /// slice's key to store under when every member checked.
    pub fn infer(&self, slice: &Slice<'_>, scratch: &mut EngineScratch) -> StepOutcome {
        let group = &self.graph.groups[self.group];
        let spec = GroupSpec {
            opts: self.opts,
            program: self.program,
            def_indices: &group.def_indices,
            deps: &slice.deps,
            free_names: &group.free_names,
        };
        let outcome = run_group_spec(&spec, scratch);
        let phases = outcome.stats.phase_durations();
        let mut defs = Vec::with_capacity(outcome.items.len());
        let mut failed = Vec::new();
        for (_, verdict) in outcome.items {
            match verdict {
                DefVerdict::Ok(report) if failed.is_empty() => defs.push(report),
                verdict => failed.push(verdict),
            }
        }
        let checked = Arc::new(Checked::new(defs));
        let store = slice
            .key
            .filter(|_| failed.is_empty())
            .map(|key| (key, Arc::clone(&checked)));
        StepOutcome {
            result: GroupResult::new(
                group.def_indices[0],
                checked,
                failed,
                Answer::Recomputed,
                slice.key,
            ),
            dep_hits: slice.dep_hits,
            store,
            phases,
        }
    }
}
