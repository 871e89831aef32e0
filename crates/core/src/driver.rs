//! High-level inference sessions over whole programs.

use std::collections::BTreeSet;
use std::time::Instant;

use rowpoly_boolfun::{Lit, SatClass};
use rowpoly_lang::{parse_program, Diag, Expr, Program, Symbol};
use rowpoly_obs as obs;
use rowpoly_types::{import_scheme, render_scheme, Binding, Scheme, Ty, TyEnv};

use crate::config::{Options, Stats};
use crate::error::TypeError;
use crate::flow::FlowInfer;
use crate::graph::ProgramGraph;
use crate::unit::{run_group_spec, DefVerdict, EngineScratch, GroupSpec};

/// Errors from a whole-session run (parsing or typing).
#[derive(Clone, Debug)]
pub enum SessionError {
    /// Lexing/parsing failed.
    Parse(Diag),
    /// Type inference rejected the program.
    Type(TypeError),
}

impl SessionError {
    /// Renders the error against the source it came from.
    pub fn render(&self, source: &str) -> String {
        match self {
            SessionError::Parse(d) => d.render(source),
            SessionError::Type(e) => e.to_diag().render(source),
        }
    }

    /// [`SessionError::render`] with the proof-evidence summary note
    /// appended to type errors (`rowpoly explain` / `--explain`).
    pub fn render_explained(&self, source: &str) -> String {
        match self {
            SessionError::Parse(d) => d.render(source),
            SessionError::Type(e) => e.to_diag_explained().render(source),
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Parse(d) => write!(f, "parse error: {d}"),
            SessionError::Type(e) => write!(f, "type error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<TypeError> for SessionError {
    fn from(e: TypeError) -> SessionError {
        SessionError::Type(e)
    }
}

impl From<Diag> for SessionError {
    fn from(d: Diag) -> SessionError {
        SessionError::Parse(d)
    }
}

/// The inferred scheme of one top-level definition.
#[derive(Clone, Debug)]
pub struct DefReport {
    /// Definition name.
    pub name: Symbol,
    /// Inferred scheme (a `PR` term; flags intact).
    pub scheme: Scheme,
    /// Satisfiability class of the definition's stored flow — which
    /// solver its clauses need on re-instantiation (Section 5's
    /// per-operation classification, observed per definition).
    pub sat_class: SatClass,
}

impl DefReport {
    /// Renders the scheme, optionally with flags.
    pub fn render(&self, show_flags: bool) -> String {
        render_scheme(&self.scheme, show_flags)
    }

    /// Renders the scheme together with its flow, in the paper's
    /// `type | flow` style (e.g. `… | f3 -> f1, f4 -> f2`).
    pub fn render_with_flow(&self) -> String {
        rowpoly_types::render_scheme_with_flow(&self.scheme)
    }
}

/// Result of type-checking a program.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Per-definition schemes, in source order.
    pub defs: Vec<DefReport>,
    /// Phase statistics summed over the groups; `wall` is the call's.
    pub stats: Stats,
    /// The hardest satisfiability class any group's β reached —
    /// `TwoSat` for select/update programs, `Horn`/`DualHorn` when
    /// asymmetric concatenation is used, `General` for symmetric
    /// concatenation or `when` (Section 5's classification).
    pub sat_class: SatClass,
}

/// An inference session: options plus entry points.
///
/// # Example
///
/// ```
/// use rowpoly_core::Session;
///
/// let report = Session::default()
///     .infer_source("def inc x = x + 1\ndef use = inc 41")?;
/// assert_eq!(report.defs[1].render(false), "Int");
/// # Ok::<(), rowpoly_core::SessionError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Session {
    opts: Options,
}

impl Session {
    /// A session with the given options.
    pub fn new(opts: Options) -> Session {
        Session { opts }
    }

    /// The options in use.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Parses and type-checks a whole program.
    pub fn infer_source(&self, source: &str) -> Result<ProgramReport, SessionError> {
        let program = parse_program(source)?;
        self.infer_program(&program).map_err(SessionError::from)
    }

    /// Type-checks a parsed program.
    ///
    /// When `ROWPOLY_TRACE` names a path, global collection is enabled
    /// and a Chrome trace of everything collected so far is (re)written
    /// there on completion, success or failure.
    pub fn infer_program(&self, program: &Program) -> Result<ProgramReport, TypeError> {
        let trace_path = obs::init_from_env();
        let result = {
            let _session = obs::span("session");
            self.infer_program_impl(program)
        };
        if let Some(path) = trace_path {
            let snap = obs::snapshot();
            if let Err(e) = obs::chrome::write_chrome_trace(&snap, std::path::Path::new(path)) {
                eprintln!(
                    "rowpoly: failed to write {TRACE}={path}: {e}",
                    TRACE = obs::TRACE_ENV
                );
            }
        }
        result
    }

    /// Infers the program group by group ([`ProgramGraph`]), each
    /// group against the closed schemes of the groups before it. Groups
    /// are ascending intervals, so the first failure met is the first
    /// in source order.
    fn infer_program_impl(&self, program: &Program) -> Result<ProgramReport, TypeError> {
        let wall_start = Instant::now();
        let graph = ProgramGraph::build(program);
        let mut scratch = EngineScratch::default();
        let mut defs: Vec<DefReport> = Vec::with_capacity(program.defs.len());
        let mut stats = Stats::default();
        let mut sat_class = SatClass::Trivial;
        for group in &graph.groups {
            // Every earlier definition checked, so `defs[j]` is
            // definition `j`.
            let deps: Vec<(Symbol, &Scheme)> = group
                .deps
                .iter()
                .map(|(&name, &j)| (name, &defs[j].scheme))
                .collect();
            let spec = GroupSpec {
                opts: &self.opts,
                program,
                def_indices: &group.def_indices,
                deps: &deps,
                free_names: &group.free_names,
            };
            let outcome = run_group_spec(&spec, &mut scratch);
            stats.merge(&outcome.stats);
            sat_class = sat_class.max(outcome.sat_class);
            for (_, verdict) in outcome.items {
                match verdict {
                    DefVerdict::Ok(report) => defs.push(report),
                    DefVerdict::Error(e) | DefVerdict::Timeout(e) => return Err(e),
                    DefVerdict::Skipped { .. } => {
                        unreachable!("a group skips only after a failure")
                    }
                }
            }
        }
        stats.wall = wall_start.elapsed();
        Ok(ProgramReport {
            defs,
            stats,
            sat_class,
        })
    }

    /// Parses and type-checks a single expression, returning its rendered
    /// type.
    pub fn infer_expr_source(&self, source: &str) -> Result<String, SessionError> {
        let expr = rowpoly_lang::parse_expr(source)?;
        let (ty, _) = self.infer_expr(&expr)?;
        Ok(rowpoly_types::render_ty(&ty, false))
    }

    /// Type-checks a single expression under the built-in environment
    /// (free variables are bound to fresh monomorphic types first).
    pub fn infer_expr(&self, expr: &Expr) -> Result<(Ty, TyEnv), TypeError> {
        let mut engine = FlowInfer::new(self.opts.clone());
        let env = initial_env(&mut engine, &expr.free_vars(), &[]);
        engine.infer_checked(expr.span, |e| e.infer(&env, expr))
    }
}

/// The frozen environment a group or an expression is inferred in:
/// the list primitives among `needed`, the dependency schemes `deps`,
/// and a fresh monomorphic type for every other name in `needed` (an
/// ambient variable, so that open programs like the paper's
/// `some_condition` check).
pub(crate) fn initial_env(
    engine: &mut FlowInfer,
    needed: &BTreeSet<Symbol>,
    deps: &[(Symbol, &Scheme)],
) -> TyEnv {
    let mut env = builtin_env(engine, needed);
    // Dependency schemes come from other engines; rename them into
    // this engine's variable and flag spaces before binding (see
    // `import_scheme` — foreign numbering would otherwise capture
    // local constraints at instantiation).
    for &(name, scheme) in deps {
        let imported = import_scheme(scheme, &mut engine.vars, &mut engine.flags);
        env.insert(name, Binding::Poly(imported));
    }
    for &x in needed {
        if !env.contains(x) {
            let v = engine.vars.fresh();
            let f = engine.flag();
            env.insert(x, Binding::Mono(Ty::Var(v, f)));
        }
    }
    env.freeze();
    env
}

/// Names bound by the built-in environment: the list primitives.
pub(crate) const BUILTINS: [&str; 4] = ["null", "head", "tail", "cons"];

/// The initial environment: list primitives with simple element flows.
/// Only the primitives in `needed` are bound (and their flow clauses
/// added), so programs that never touch lists keep β in the exact clause
/// class their record operations generate.
fn builtin_env(engine: &mut FlowInfer, needed: &BTreeSet<Symbol>) -> TyEnv {
    let mut env = TyEnv::new();
    for name in BUILTINS {
        let sym = Symbol::intern(name);
        if !needed.contains(&sym) {
            continue;
        }
        let a = engine.vars.fresh();
        let mut flag = || engine.flag();
        let elem = |f| Ty::Var(a, f);
        let (ty, clause) = match name {
            // null : ∀a . [a] → Int
            "null" => (Ty::fun(Ty::list(elem(flag())), Ty::Int), vec![]),
            // head : ∀a . [a.f1] → a.f2 with f2 → f1 (fields of the
            // element were in the list).
            "head" => {
                let (f1, f2) = (flag(), flag());
                let ty = Ty::fun(Ty::list(elem(f1)), elem(f2));
                (ty, vec![Lit::neg(f2), Lit::pos(f1)])
            }
            // tail : ∀a . [a.f1] → [a.f2] with f2 → f1.
            "tail" => {
                let (f1, f2) = (flag(), flag());
                let ty = Ty::fun(Ty::list(elem(f1)), Ty::list(elem(f2)));
                (ty, vec![Lit::neg(f2), Lit::pos(f1)])
            }
            // cons : ∀a . a.f1 → [a.f2] → [a.f3] with f3 → f1 ∨ f2.
            "cons" => {
                let (f1, f2, f3) = (flag(), flag(), flag());
                let ty = Ty::fun(elem(f1), Ty::fun(Ty::list(elem(f2)), Ty::list(elem(f3))));
                (ty, vec![Lit::neg(f3), Lit::pos(f1), Lit::pos(f2)])
            }
            _ => unreachable!("every built-in has a type"),
        };
        if engine.tracking() && !clause.is_empty() {
            engine.beta.add_lits(clause);
        }
        env.insert(sym, Binding::Poly(Scheme::new(vec![a], ty)));
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TypeErrorKind;

    #[test]
    fn the_earlier_of_two_independent_failures_is_returned() {
        // Two singleton groups, each rejected on its own field.
        let src = "def first = #foo {}\ndef second = #bar {}";
        let program = parse_program(src).expect("parses");
        assert_eq!(ProgramGraph::build(&program).groups.len(), 2);
        let e = Session::default()
            .infer_program(&program)
            .expect_err("rejected");
        let TypeErrorKind::FieldMissing { field: Some(field) } = &e.kind else {
            panic!("not a missing field: {e:?}");
        };
        assert_eq!(field.as_str(), "foo");
        assert!(e.span.end <= program.defs[1].span.start, "{e:?}");
    }

    #[test]
    fn report_stats_and_class_combine_the_groups() {
        // Independent definitions: each is a one-definition group, and
        // alone a one-definition program, so the program's counters are
        // the sum of the single-definition runs and its class the max.
        let defs = [
            "def inc x = x + 1",
            "def use = #foo (@{foo = 1} {})",
            "def both = {a = 1} @@ {b = 2}",
        ];
        let session = Session::default();
        let report = session.infer_source(&defs.join("\n")).expect("checks");
        let parts: Vec<ProgramReport> = defs
            .iter()
            .map(|src| session.infer_source(src).expect("checks"))
            .collect();
        let sum = |count: fn(&Stats) -> usize| parts.iter().map(|p| count(&p.stats)).sum::<usize>();
        assert_eq!(report.stats.unify_calls, sum(|s| s.unify_calls));
        assert_eq!(report.stats.sat_calls, sum(|s| s.sat_calls));
        assert_eq!(
            report.stats.project_resolutions,
            sum(|s| s.project_resolutions)
        );
        assert!(parts.iter().all(|p| p.stats.unify_calls > 0));
        assert!(sum(|s| s.sat_calls) > 0 && sum(|s| s.project_resolutions) > 0);
        let classes: Vec<SatClass> = parts.iter().map(|p| p.sat_class).collect();
        assert_eq!(report.sat_class, SatClass::General, "{classes:?}");
        assert_eq!(classes.iter().copied().max(), Some(SatClass::General));
        assert!(
            classes.iter().any(|&c| c < SatClass::General),
            "{classes:?}"
        );
    }
}
