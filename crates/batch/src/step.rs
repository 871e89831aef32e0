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
//!    fingerprint, pretty-printed members, dependency schemes as the
//!    canonical JSON each dependency renders once, on first use);
//! 3. replay a stored verdict when the caller's store has one that
//!    lines up with the group's members;
//! 4. otherwise run inference ([`run_group_spec`]) and hand back the
//!    entry to store when every member checked.
//!
//! What the step does not do is count or store: the caller owns its
//! store (a [`Cache`]: sharded for batch, bounded for serve) and its
//! counters, and reads [`GroupResult::answer`] to keep them.

use std::sync::OnceLock;

use rowpoly_core::{run_group_spec, DefReport, DefVerdict, EngineScratch, GroupSpec, Options};
use rowpoly_lang::{Program, Symbol};
use rowpoly_types::Scheme;

use crate::cache::Cache;
use crate::codec;
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
#[derive(Debug)]
pub struct GroupResult {
    /// `(def index, verdict)` per member, in group order.
    pub items: Vec<(usize, DefVerdict)>,
    /// How the group was answered.
    pub answer: Answer,
    /// Canonical JSON of each member's closed scheme, aligned with
    /// `items`: rendered by the first dependent that keys on it, so a
    /// group nobody depends on never renders, and no scheme renders
    /// twice however many dependents it has.
    scheme_json: Vec<OnceLock<String>>,
}

impl GroupResult {
    fn new(items: Vec<(usize, DefVerdict)>, answer: Answer) -> GroupResult {
        let scheme_json = items.iter().map(|_| OnceLock::new()).collect();
        GroupResult {
            items,
            answer,
            scheme_json,
        }
    }

    /// Position of definition `def_idx` among the members.
    fn position(&self, def_idx: usize) -> usize {
        self.items
            .iter()
            .position(|(i, _)| *i == def_idx)
            .expect("definition missing from its group")
    }

    /// The verdict of member `def_idx`.
    pub fn verdict(&self, def_idx: usize) -> &DefVerdict {
        &self.items[self.position(def_idx)].1
    }
}

/// A store lookup: given a key and a check that an entry lines up with
/// the group's members, returns how the store answered and the entry.
/// An entry failing the check (a hash collision or a stale decode) is
/// not an answer.
pub type Lookup<'a> =
    dyn FnMut(u64, &dyn Fn(&[DefReport]) -> bool) -> Option<(Answer, Vec<DefReport>)> + 'a;

/// Reusable per-caller scratch: engine allocations plus the buffer the
/// content key is printed into. Nothing in here affects results.
#[derive(Debug, Default)]
pub struct StepScratch {
    /// Recycled engine allocations (and the incremental SAT session).
    pub engine: EngineScratch,
    /// Buffer for the pretty-printed group members.
    content: String,
}

/// What one step produced.
#[derive(Debug)]
pub struct StepOutcome {
    /// The result to publish for dependents.
    pub result: GroupResult,
    /// Dependency schemes gathered from groups a store answered.
    pub dep_hits: u64,
    /// The key and entry to store: set when the group was recomputed
    /// under a lookup and every member checked.
    pub store: Option<(u64, Vec<DefReport>)>,
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
}

impl GroupStep<'_> {
    /// Takes the step. `published(d)` is the result of group `d` of the
    /// same graph (every dependency has published); `lookup` is the
    /// caller's store, or `None` to skip keying altogether.
    pub fn run<'r>(
        &self,
        published: impl Fn(usize) -> &'r GroupResult,
        lookup: Option<&mut Lookup<'_>>,
        scratch: &mut StepScratch,
    ) -> StepOutcome {
        let group = &self.graph.groups[self.group];
        let keyed = lookup.is_some();
        let mut dep_hits = 0;
        let mut deps: Vec<(Symbol, &Scheme)> = Vec::with_capacity(group.deps.len());
        let mut dep_json: Vec<(Symbol, &str)> =
            Vec::with_capacity(if keyed { group.deps.len() } else { 0 });
        for (&name, &def_idx) in &group.deps {
            let dep = published(self.graph.group_of[def_idx]);
            let pos = dep.position(def_idx);
            let DefVerdict::Ok(report) = &dep.items[pos].1 else {
                let items = group
                    .def_indices
                    .iter()
                    .map(|&i| (i, DefVerdict::Skipped { after: name }))
                    .collect();
                let result = GroupResult::new(items, Answer::Skipped);
                return StepOutcome::answered(result, dep_hits);
            };
            if dep.answer.is_hit() {
                dep_hits += 1;
            }
            deps.push((name, &report.scheme));
            if keyed {
                let json = dep.scheme_json[pos]
                    .get_or_init(|| codec::scheme_to_json(&report.scheme).render());
                dep_json.push((name, json));
            }
        }

        let mut key = None;
        if let Some(lookup) = lookup {
            print_members(&mut scratch.content, self.program, &group.def_indices);
            let k = Cache::key(self.fingerprint, &scratch.content, &dep_json);
            let fits = |defs: &[DefReport]| {
                defs.len() == group.def_indices.len()
                    && group
                        .def_indices
                        .iter()
                        .zip(defs)
                        .all(|(&i, d)| self.program.defs[i].name == d.name)
            };
            if let Some((answer, defs)) = lookup(k, &fits) {
                let items = group
                    .def_indices
                    .iter()
                    .zip(defs)
                    .map(|(&i, d)| (i, DefVerdict::Ok(d)))
                    .collect();
                return StepOutcome::answered(GroupResult::new(items, answer), dep_hits);
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
        let outcome = run_group_spec(&spec, &mut scratch.engine);
        let store = key.filter(|_| outcome.all_ok()).map(|key| {
            let defs = outcome
                .items
                .iter()
                .filter_map(|(_, v)| v.report().cloned())
                .collect();
            (key, defs)
        });
        StepOutcome {
            result: GroupResult::new(outcome.items, Answer::Recomputed),
            dep_hits,
            store,
            phases: outcome.stats.phase_durations(),
        }
    }
}

/// Prints a group's members in index order, one per line — the
/// content part of its key. Whitespace and comments in the source
/// never change it. Clears `out` first.
fn print_members(out: &mut String, program: &Program, def_indices: &[usize]) {
    out.clear();
    for (k, &i) in def_indices.iter().enumerate() {
        if k > 0 {
            out.push('\n');
        }
        out.push_str(&rowpoly_lang::pretty_def(&program.defs[i]));
    }
}
