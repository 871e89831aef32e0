//! The group step: per-definition inference as a reusable, `Send`
//! unit of work.
//!
//! The paper moves each top-level definition's flow into its own
//! scheme, so a *group* of contiguous definitions ([`GroupSpec`], cut
//! by [`crate::graph`]) can be inferred against the closed schemes of
//! the definitions it depends on. Every entry point infers this way:
//! [`crate::Session`] runs the groups in order, the batch checker and
//! the serve daemon schedule them on a pool.
//!
//! * Every group runs in its own engine, so flag/variable numbering —
//!   and hence rendered schemes — depend only on the group's inputs,
//!   never on scheduling order or entry point.
//! * A group receives its dependencies' schemes *closed*
//!   ([`FlowInfer::close_scheme`]): the stored flow is projected onto
//!   the flags of the scheme's own type, so instantiation renames every
//!   literal into the consuming engine and no clause can leak a foreign
//!   engine's flag numbering. Resolution keeps every entailment over
//!   the type's flags; what closing drops are correlations with
//!   engine-internal flags (list built-ins, ambient variables) and the
//!   provenance of the flags it eliminates.
//! * Definitions correlated through an *ambient* free variable (one
//!   bound to a fresh monomorphic type rather than to another
//!   definition) — its readers and their dependents — ride in the same
//!   group, which runs its members serially through one engine.

use std::collections::BTreeSet;

use rowpoly_boolfun::{classify, Clause, Cnf, SatClass};
use rowpoly_lang::{Program, Symbol};
use rowpoly_obs as obs;
use rowpoly_types::Scheme;

use crate::config::{Options, Stats, SAT_CLASSES};
use crate::driver::{initial_env, DefReport};
use crate::error::TypeError;
use crate::flow::FlowInfer;

/// The outcome of one definition within a group run.
#[derive(Clone, Debug)]
pub enum DefVerdict {
    /// Inference succeeded. The report's scheme is *closed* (see
    /// [`FlowInfer::close_scheme`]), ready for dependent groups.
    Ok(DefReport),
    /// Inference rejected the definition.
    Error(TypeError),
    /// A budgeted SAT check gave up — the step budget ran out or the
    /// run was cancelled. Not a typing verdict.
    Timeout(TypeError),
    /// Not attempted: an earlier member of the same group stopped.
    Skipped {
        /// The group member whose failure shadowed this definition.
        after: Symbol,
    },
}

/// Result of running one group: a verdict per group member (in
/// group order, tagged with the member's index into `program.defs`)
/// plus the engine's phase statistics.
#[derive(Clone, Debug)]
pub struct GroupOutcome {
    /// `(index into program.defs, verdict)` per group member.
    pub items: Vec<(usize, DefVerdict)>,
    /// Phase statistics of the group's engine run.
    pub stats: Stats,
    /// The hardest satisfiability class the group's β reached (see
    /// [`crate::ProgramReport::sat_class`]).
    pub sat_class: SatClass,
}

/// Reusable per-worker engine scratch. Each group still runs in a
/// *fresh* engine (flag and variable numbering must depend only on the
/// group's inputs — that is what makes batch output deterministic),
/// but the engine's backing allocations need not be fresh: this holds
/// the recyclable pieces a worker threads through consecutive groups.
#[derive(Default)]
pub struct EngineScratch {
    /// Clause storage for the engine's β, recycled between groups.
    beta: Vec<Clause>,
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("beta_clauses", &self.beta.len())
            .finish()
    }
}

/// A borrowed description of one group inference: nothing is cloned
/// into it, so a scheduler can describe a group by reference.
#[derive(Clone, Copy, Debug)]
pub struct GroupSpec<'a> {
    /// Inference options (may carry a SAT budget and a cancellation
    /// flag).
    pub opts: &'a Options,
    /// The parsed program the group belongs to.
    pub program: &'a Program,
    /// Indices into `program.defs`, ascending and contiguous in
    /// dependency order.
    pub def_indices: &'a [usize],
    /// Closed schemes of out-of-group definitions the group
    /// references, sorted by name.
    pub deps: &'a [(Symbol, &'a Scheme)],
    /// The free names of the members' let-chain, sorted: the built-ins,
    /// dependencies and ambient variables the group's environment
    /// supplies, forward references to later members included
    /// ([`crate::graph::Group::free_names`]).
    pub free_names: &'a [Symbol],
}

/// Runs one definition group per [`GroupSpec`]: builds the environment
/// (built-ins, dependency schemes, fresh monomorphic ambient
/// variables), then infers each member serially through one engine.
/// The first error or timeout stops the group; later members are
/// `Skipped`. `scratch` carries reusable engine allocations between
/// calls; results are identical whether or not it is reused.
pub fn run_group_spec(spec: &GroupSpec<'_>, scratch: &mut EngineScratch) -> GroupOutcome {
    let _span = obs_span(spec.program, spec.def_indices);
    let mut engine = FlowInfer::new(spec.opts.clone());
    engine.beta = Cnf::top_reusing(std::mem::take(&mut scratch.beta));
    let needed: BTreeSet<Symbol> = spec.free_names.iter().copied().collect();
    let mut env = initial_env(&mut engine, &needed, spec.deps);

    let mut items: Vec<(usize, DefVerdict)> = Vec::with_capacity(spec.def_indices.len());
    let mut stopped_at: Option<Symbol> = None;
    for &i in spec.def_indices {
        let def = &spec.program.defs[i];
        if let Some(after) = stopped_at {
            items.push((i, DefVerdict::Skipped { after }));
            continue;
        }
        let _def_span = obs::span_lazy(|| format!("def {}", def.name));
        match engine.fold_def(&mut env, def) {
            Ok(mut scheme) => {
                // Later members saw the scheme unclosed, as bound in
                // `env`; the published report carries the closed copy.
                engine.close_scheme(&mut scheme);
                let sat_class = classify(&scheme.flow);
                let report = DefReport {
                    name: def.name,
                    scheme,
                    sat_class,
                };
                items.push((i, DefVerdict::Ok(report)));
            }
            Err(e) => {
                stopped_at = Some(def.name);
                let verdict = if e.is_timeout() {
                    DefVerdict::Timeout(e)
                } else {
                    DefVerdict::Error(e)
                };
                items.push((i, verdict));
            }
        }
    }
    let stats = engine.stats();
    flush_stats_metrics(&stats);
    let sat_class = classify(&engine.beta).max(engine.worst_class);
    scratch.beta = std::mem::take(&mut engine.beta).into_storage();
    GroupOutcome {
        items,
        stats,
        sat_class,
    }
}

/// Pushes a group's [`Stats`] into the calling thread's recorder
/// (no-ops when recording is off). Counters accumulate across groups;
/// maxima keep the largest.
fn flush_stats_metrics(stats: &Stats) {
    if !obs::enabled() {
        return;
    }
    obs::counter_add("unify.calls", stats.unify_calls as u64);
    obs::counter_add("applys.calls", stats.applys_calls as u64);
    obs::counter_add("sat.checks", stats.sat_calls as u64);
    for class in SAT_CLASSES {
        let n = stats.sat_checks_for(class);
        if n > 0 {
            obs::counter_add(&format!("sat.checks.{}", class.name()), n as u64);
        }
    }
    obs::counter_add("project.resolutions", stats.project_resolutions as u64);
    obs::counter_add("envmeet.version_hits", stats.env_meet_hits as u64);
    obs::counter_add("envmeet.version_misses", stats.env_meet_misses as u64);
    obs::counter_max("beta.clauses.peak", stats.peak_clauses as u64);
}

fn obs_span(program: &Program, def_indices: &[usize]) -> Option<obs::SpanGuard> {
    if !obs::enabled() {
        return None;
    }
    Some(obs::span_lazy(|| {
        let names: Vec<String> = def_indices
            .iter()
            .map(|&i| program.defs[i].name.to_string())
            .collect();
        format!("job {}", names.join("+"))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_boolfun::FlagSet;
    use rowpoly_lang::parse_program;

    /// Runs `indices` of `src` as one group over `deps`, with the free
    /// names of the members' let-chain.
    fn run(src: &str, indices: &[usize], deps: &[(Symbol, &Scheme)]) -> GroupOutcome {
        let program = parse_program(src).expect("parses");
        let mut defined = BTreeSet::new();
        let mut free = BTreeSet::new();
        for &i in indices {
            defined.insert(program.defs[i].name);
            free.extend(program.defs[i].body.free_vars().difference(&defined));
        }
        let free_names: Vec<Symbol> = free.into_iter().collect();
        let spec = GroupSpec {
            opts: &Options::default(),
            program: &program,
            def_indices: indices,
            deps,
            free_names: &free_names,
        };
        run_group_spec(&spec, &mut EngineScratch::default())
    }

    /// The report of a checked member.
    fn ok(verdict: &DefVerdict) -> &DefReport {
        match verdict {
            DefVerdict::Ok(report) => report,
            other => panic!("not checked: {other:?}"),
        }
    }

    #[test]
    fn single_def_matches_session() {
        let out = run("def inc x = x + 1", &[0], &[]);
        let report = ok(&out.items[0].1);
        assert_eq!(report.render(false), "Int -> Int");
    }

    #[test]
    fn dependency_scheme_feeds_the_group() {
        let src = "def inc x = x + 1\ndef use = inc 41";
        let first = run(src, &[0], &[]);
        let inc = ok(&first.items[0].1);
        let second = run(src, &[1], &[(inc.name, &inc.scheme)]);
        let report = ok(&second.items[0].1);
        assert_eq!(report.render(false), "Int");
    }

    #[test]
    fn closed_scheme_mentions_only_its_own_flags() {
        let out = run("def mk = @{foo = 1} {}\ndef use = #foo mk", &[0, 1], &[]);
        for (_, v) in &out.items {
            let scheme = &ok(v).scheme;
            let own: FlagSet = scheme.ty.flags().into_iter().collect();
            for f in scheme.flow.flags() {
                assert!(own.contains(&f), "closed flow leaks flag {f:?}");
            }
        }
    }

    #[test]
    fn group_stops_after_first_error() {
        let out = run("def bad = #foo {}\ndef fine = 1", &[0, 1], &[]);
        assert!(matches!(out.items[0].1, DefVerdict::Error(_)));
        assert!(matches!(out.items[1].1, DefVerdict::Skipped { .. }));
    }
}
