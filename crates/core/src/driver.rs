//! High-level inference sessions over whole programs.

use rowpoly_boolfun::{classify, Lit, SatClass};
use rowpoly_lang::{parse_program, Diag, Expr, Program, Symbol};
use rowpoly_obs as obs;
use rowpoly_types::{render_scheme, Binding, Scheme, Ty, TyEnv};
use std::time::Instant;

use crate::config::{Options, Stats, SAT_CLASSES};
use crate::error::TypeError;
use crate::flow::FlowInfer;

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
    /// Phase statistics.
    pub stats: Stats,
    /// The hardest satisfiability class β reached during checking —
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

    fn infer_program_impl(&self, program: &Program) -> Result<ProgramReport, TypeError> {
        let wall_start = Instant::now();
        let mut engine = FlowInfer::new(self.opts.clone());
        let needed = program.free_vars();
        let mut env = builtin_env(&mut engine, &needed);
        bind_free_vars(&mut engine, &mut env, &needed);
        env.freeze();

        let mut defs = Vec::new();
        for def in &program.defs {
            let _def_span = obs::span_lazy(|| format!("def {}", def.name));
            let scheme = engine.fold_def(&mut env, def)?;
            let def_class = classify(&scheme.flow);
            defs.push(DefReport {
                name: def.name,
                scheme,
                sat_class: def_class,
            });
        }
        let sat_class = classify(&engine.beta).max(engine.worst_class);
        let mut stats = engine.stats();
        stats.wall = wall_start.elapsed();
        flush_stats_metrics(&stats);
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
        let needed = expr.free_vars();
        let mut env = builtin_env(&mut engine, &needed);
        bind_free_vars(&mut engine, &mut env, &needed);
        env.freeze();
        engine.infer_checked(expr.span, |e| e.infer(&env, expr))
    }
}

impl FlowInfer {
    /// Allocates a flag respecting the `track_fields` option (driver
    /// helper).
    pub fn fresh_flag_public(&mut self) -> rowpoly_boolfun::Flag {
        if self.tracking() {
            self.flags.fresh()
        } else {
            rowpoly_types::NO_FLAG
        }
    }
}

/// Pushes a run's aggregate [`Stats`] into the calling thread's
/// recorder (no-ops when recording is off). Counters accumulate across
/// runs; maxima keep the largest run.
pub(crate) fn flush_stats_metrics(stats: &Stats) {
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

/// Binds every free variable of the program or expression (`needed`)
/// not already bound to a fresh monomorphic type, so that open programs
/// (like the paper's `some_condition`) check.
pub(crate) fn bind_free_vars(
    engine: &mut FlowInfer,
    env: &mut TyEnv,
    needed: &std::collections::BTreeSet<Symbol>,
) {
    for &x in needed {
        if !env.contains(x) {
            let v = engine.vars.fresh();
            let f = engine.fresh_flag_public();
            env.insert(x, Binding::Mono(Ty::Var(v, f)));
        }
    }
}

/// Names bound by the built-in environment: the list primitives.
pub const BUILTINS: [&str; 4] = ["null", "head", "tail", "cons"];

/// The initial environment: list primitives with simple element flows.
/// Only the primitives in `needed` are bound (and their flow clauses
/// added), so programs that never touch lists keep β in the exact clause
/// class their record operations generate.
pub(crate) fn builtin_env(
    engine: &mut FlowInfer,
    needed: &std::collections::BTreeSet<Symbol>,
) -> TyEnv {
    let mut env = TyEnv::new();
    for name in BUILTINS {
        let sym = Symbol::intern(name);
        if !needed.contains(&sym) {
            continue;
        }
        let a = engine.vars.fresh();
        let mut flag = || engine.fresh_flag_public();
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
