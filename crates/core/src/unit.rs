//! Per-definition inference as a reusable, `Send` unit of work.
//!
//! [`crate::Session`] threads one engine and one environment through a
//! whole program, which is the paper's presentation but pins checking
//! to a single thread. This module carves the same work into
//! *groups* of contiguous top-level definitions ([`GroupSpec`]) that a
//! scheduler (see the `rowpoly-batch` crate) can run concurrently:
//!
//! * Every group runs in its own engine, so flag/variable numbering —
//!   and hence rendered schemes — depend only on the group's inputs,
//!   never on scheduling order. This is what makes batch output
//!   deterministic.
//! * A group receives the schemes of the definitions it depends on in
//!   *closed* form ([`close_scheme`]): the stored flow is projected
//!   onto the flags of the scheme's own type, so instantiation renames
//!   every literal into the consuming engine and no clause can leak a
//!   foreign engine's flag numbering.
//! * Definitions that share an *ambient* free variable (one bound to a
//!   fresh monomorphic type rather than to another definition) are
//!   correlated through the environment in the serial driver, so they
//!   must ride in the same group; the group runs its members serially
//!   through one engine, exactly like [`crate::Session`].
//!
//! Closing a scheme is an interface projection: resolution-based flag
//! elimination preserves satisfiability and every entailment over the
//! remaining flags, so a dependent sees the full field-flow contract
//! of the definition's type. What it drops are correlations between a
//! definition's flow and engine-internal flags (list built-ins, other
//! globals) — the price of checking definitions in isolation.

use std::collections::BTreeSet;

use rowpoly_boolfun::{classify, Clause, Cnf, FlagSet, ProjectStats};
use rowpoly_lang::{Program, Symbol};
use rowpoly_types::{import_scheme, Binding, Scheme};

use crate::config::{Options, Stats};
use crate::driver::{bind_free_vars, builtin_env, flush_stats_metrics, DefReport};
use crate::error::TypeError;
use crate::flow::FlowInfer;

/// Closes a definition's published interface: projects the scheme's
/// stored flow onto the flags of its own type. The result mentions no
/// engine-internal flags, so it can be instantiated by any engine (and
/// serialised to the batch cache). Returns the elimination engine's
/// work counters so callers can fold them into their phase stats.
pub fn close_scheme(scheme: &mut Scheme) -> ProjectStats {
    let keep: FlagSet = scheme.ty.flags().into_iter().collect();
    let outcome = scheme.flow.project_unless(|f| keep.contains(&f));
    scheme.flow.normalize();
    outcome
}

/// The outcome of one definition within a group run.
#[derive(Clone, Debug)]
pub enum DefVerdict {
    /// Inference succeeded. The report's scheme is *closed* (see
    /// [`close_scheme`]), ready for dependent groups.
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

impl DefVerdict {
    /// Whether the definition checked successfully.
    pub fn is_ok(&self) -> bool {
        matches!(self, DefVerdict::Ok(_))
    }

    /// The closed scheme, when the definition checked.
    pub fn report(&self) -> Option<&DefReport> {
        match self {
            DefVerdict::Ok(r) => Some(r),
            _ => None,
        }
    }
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
}

impl GroupOutcome {
    /// Whether every member checked successfully.
    pub fn all_ok(&self) -> bool {
        self.items.iter().all(|(_, v)| v.is_ok())
    }
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
    /// The free names of the members' let-chain, sorted: what the
    /// serial driver's environment supplies to them, forward
    /// references to later members included (the batch graph computes
    /// it during dependency resolution).
    pub free_names: &'a [Symbol],
}

/// Runs one definition group per [`GroupSpec`]: builds the environment
/// (built-ins, dependency schemes, fresh monomorphic ambient
/// variables), then infers each member serially exactly like the
/// whole-program driver. The first error or timeout stops the group;
/// later members are `Skipped`. `scratch` carries reusable engine
/// allocations between calls; results are identical whether or not it
/// is reused.
pub fn run_group_spec(spec: &GroupSpec<'_>, scratch: &mut EngineScratch) -> GroupOutcome {
    let _span = obs_span(spec.program, spec.def_indices);
    let mut engine = FlowInfer::new(spec.opts.clone());
    engine.beta = Cnf::top_reusing(std::mem::take(&mut scratch.beta));
    let needed: BTreeSet<Symbol> = spec.free_names.iter().copied().collect();
    let mut env = builtin_env(&mut engine, &needed);
    // Dependency schemes come from other engines; rename them into
    // this engine's variable and flag spaces before binding (see
    // `import_scheme` — foreign numbering would otherwise capture
    // local constraints at instantiation).
    for &(name, scheme) in spec.deps {
        let imported = import_scheme(scheme, &mut engine.vars, &mut engine.flags);
        env.insert(name, Binding::Poly(imported));
    }
    // Ambient free variables (neither built-in nor dependency) get
    // fresh monomorphic types, like the serial driver's treatment of
    // open programs; a member referenced before its definition is one.
    bind_free_vars(&mut engine, &mut env, &needed);
    env.freeze();

    let mut items: Vec<(usize, DefVerdict)> = Vec::with_capacity(spec.def_indices.len());
    let mut stopped_at: Option<Symbol> = None;
    for &i in spec.def_indices {
        let def = &spec.program.defs[i];
        if let Some(after) = stopped_at {
            items.push((i, DefVerdict::Skipped { after }));
            continue;
        }
        let _def_span = rowpoly_obs::span_lazy(|| format!("def {}", def.name));
        let step = (|| -> Result<DefReport, TypeError> {
            // Group members see the scheme as the serial driver
            // would; the published report carries the closed copy.
            let mut scheme = engine.fold_def(&mut env, def)?;
            let closed = close_scheme(&mut scheme);
            engine.note_projection(&closed);
            let sat_class = classify(&scheme.flow);
            Ok(DefReport {
                name: def.name,
                scheme,
                sat_class,
            })
        })();
        match step {
            Ok(report) => items.push((i, DefVerdict::Ok(report))),
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
    scratch.beta = std::mem::take(&mut engine.beta).into_storage();
    GroupOutcome { items, stats }
}

fn obs_span(program: &Program, def_indices: &[usize]) -> Option<rowpoly_obs::SpanGuard> {
    if !rowpoly_obs::enabled() {
        return None;
    }
    Some(rowpoly_obs::span_lazy(|| {
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

    #[test]
    fn single_def_matches_session() {
        let out = run("def inc x = x + 1", &[0], &[]);
        assert!(out.all_ok());
        let report = out.items[0].1.report().expect("ok");
        assert_eq!(report.render(false), "Int -> Int");
    }

    #[test]
    fn dependency_scheme_feeds_the_group() {
        let src = "def inc x = x + 1\ndef use = inc 41";
        let first = run(src, &[0], &[]);
        let inc = first.items[0].1.report().expect("ok");
        let second = run(src, &[1], &[(inc.name, &inc.scheme)]);
        let report = second.items[0].1.report().expect("ok");
        assert_eq!(report.render(false), "Int");
    }

    #[test]
    fn closed_scheme_mentions_only_its_own_flags() {
        let out = run("def mk = @{foo = 1} {}\ndef use = #foo mk", &[0, 1], &[]);
        assert!(out.all_ok());
        for (_, v) in &out.items {
            let scheme = &v.report().expect("ok").scheme;
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
