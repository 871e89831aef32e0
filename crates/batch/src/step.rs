//! The group step: how one definition group gets its verdicts.
//!
//! The paper's per-definition inference (Fig. 3) runs, outside the
//! serial driver, as one step per definition group. Both the batch
//! checker's workers and the serve daemon's revision loop take exactly
//! this step, so they agree byte for byte:
//!
//! 1. gather the closed schemes of the group's dependencies from their
//!    already-published results, by reference — a failed dependency
//!    poisons the whole group to `Skipped { after }`;
//! 2. key the group by its content ([`Cache::key`]: options
//!    fingerprint, the members' digests, dependency schemes as the
//!    canonical JSON each dependency renders once, on first use);
//! 3. replay a stored verdict when the caller's store has one that
//!    lines up with the group's members — the result shares the
//!    store's entry, so a hit copies nothing;
//! 4. otherwise run inference ([`run_group_spec`]) and hand back the
//!    entry to store when every member checked.
//!
//! What the step does not do is count or store: the caller owns its
//! store (a [`Cache`]: sharded for batch, bounded for serve) and its
//! counters, and reads [`GroupResult::answer`] to keep them.

use std::sync::Arc;

use rowpoly_core::{run_group_spec, DefReport, DefVerdict, EngineScratch, GroupSpec, Options};
use rowpoly_lang::{Program, Symbol};
use rowpoly_types::Scheme;

use crate::cache::{Cache, Checked};
use crate::graph::ProgramGraph;

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
    /// Index of the first member (a group is a contiguous interval).
    first: usize,
    /// The leading members that checked: every member unless the group
    /// failed. A replayed group shares the store's entry; the canonical
    /// JSON of a scheme is made by the first dependent that keys on it,
    /// so a group nobody depends on never renders, and no scheme
    /// renders twice however many dependents it has.
    checked: Arc<Checked>,
    /// Verdicts of the members after those: the failure, then `Skipped`.
    failed: Vec<DefVerdict>,
}

impl GroupResult {
    fn new(first: usize, checked: Arc<Checked>, failed: Vec<DefVerdict>, answer: Answer) -> Self {
        GroupResult {
            answer,
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
    /// Takes the step. `published(d)` is the result of group `d` of the
    /// same graph (every dependency has published); `lookup` is the
    /// caller's store, or `None` to skip keying altogether.
    pub fn run<'r>(
        &self,
        published: impl Fn(usize) -> &'r GroupResult,
        lookup: Option<&mut Lookup<'_>>,
        scratch: &mut EngineScratch,
    ) -> StepOutcome {
        let group = &self.graph.groups[self.group];
        let first = group.def_indices[0];
        let keyed = lookup.is_some();
        let mut dep_hits = 0;
        let mut deps: Vec<(Symbol, &Scheme)> = Vec::with_capacity(group.deps.len());
        let mut dep_json: Vec<(Symbol, &str)> =
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
                let result = GroupResult::new(first, checked, failed, Answer::Skipped);
                return StepOutcome::answered(result, dep_hits);
            };
            if dep.answer.is_hit() {
                dep_hits += 1;
            }
            deps.push((name, &checked.defs[k].scheme));
            if keyed {
                dep_json.push((name, checked.scheme_json(k)));
            }
        }

        let mut key = None;
        if let Some(lookup) = lookup {
            let k = Cache::key(self.fingerprint, self.digests, &dep_json);
            let fits = |defs: &[DefReport]| {
                defs.len() == group.def_indices.len()
                    && group
                        .def_indices
                        .iter()
                        .zip(defs)
                        .all(|(&i, d)| self.program.defs[i].name == d.name)
            };
            if let Some((answer, checked)) = lookup(k, &fits) {
                let result = GroupResult::new(first, checked, Vec::new(), answer);
                return StepOutcome::answered(result, dep_hits);
            }
            key = Some(k);
        }

        let spec = GroupSpec {
            opts: self.opts,
            program: self.program,
            def_indices: &group.def_indices,
            deps: &deps,
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
        let store = key
            .filter(|_| failed.is_empty())
            .map(|key| (key, Arc::clone(&checked)));
        StepOutcome {
            result: GroupResult::new(first, checked, failed, Answer::Recomputed),
            dep_hits,
            store,
            phases,
        }
    }
}
