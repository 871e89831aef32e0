//! The interpreter: concrete (deterministic) evaluation and the
//! path-exploring evaluation that mirrors the paper's abstraction of
//! conditionals to non-deterministic choice.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rowpoly_lang::{BinOp, Expr, ExprKind, FieldName, Program, Symbol};

use crate::value::{Env, Prim, RuntimeError, Value};

/// How conditionals are evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BranchMode {
    /// Evaluate the condition and take the chosen branch.
    Concrete,
    /// Ignore the condition; take the branch selected by the oracle bits.
    Oracle,
}

/// Evaluates an expression with the standard semantics.
///
/// `fuel` bounds the number of evaluation steps; exhaustion yields
/// [`RuntimeError::OutOfFuel`] (an unknown result, not a type error).
/// Free variables evaluate to [`RuntimeError::Unbound`].
pub fn eval(expr: &Expr, fuel: u64) -> Result<Value, RuntimeError> {
    let mut interp = Interp {
        fuel,
        mode: BranchMode::Concrete,
        oracle: 0,
        oracle_used: 0,
    };
    interp.eval(&builtin_env(), expr)
}

/// Evaluates a whole program (the nested-`let` expansion of its `def`s).
pub fn eval_program(program: &Program, fuel: u64) -> Result<Value, RuntimeError> {
    eval(&program.to_expr(), fuel)
}

/// Outcome of exploring all branch choices.
#[derive(Clone, Debug, Default)]
pub struct PathSummary {
    /// Paths that produced a value.
    pub ok: usize,
    /// Paths that hit a field error (missing field, duplicate field,
    /// rename clash) — the paper's `Ω`.
    pub field_errors: usize,
    /// The fields those paths failed on.
    pub failing_fields: BTreeSet<FieldName>,
    /// Paths that got stuck for any other reason (dynamic type error,
    /// unbound variable, empty list).
    pub other_errors: usize,
    /// Paths that ran out of fuel (unknown outcome).
    pub unknown: usize,
}

impl PathSummary {
    /// Whether some fully-explored path hit a field error.
    pub fn any_field_error(&self) -> bool {
        self.field_errors > 0
    }
}

/// Explores every combination of conditional-branch choices, mirroring
/// the collecting semantics `C1⟦·⟧` in which `if` is a non-deterministic
/// choice (Section 4.1). Exploration is bounded by `max_paths` oracle
/// assignments and `fuel` steps per path.
///
/// `when`-conditionals stay concrete: Fig. 8's rule retains the tested
/// information, so the abstraction only forgets `if` conditions.
pub fn explore_paths(expr: &Expr, fuel: u64, max_paths: u32) -> PathSummary {
    let env = builtin_env();
    let mut summary = PathSummary::default();
    let mut oracle: u64 = 0;
    let mut width = 0u32;
    loop {
        let mut interp = Interp {
            fuel,
            mode: BranchMode::Oracle,
            oracle,
            oracle_used: 0,
        };
        match interp.eval(&env, expr) {
            Ok(_) => summary.ok += 1,
            Err(RuntimeError::OutOfFuel) => summary.unknown += 1,
            Err(e) => match e.failing_field() {
                Some(n) => {
                    summary.field_errors += 1;
                    summary.failing_fields.insert(n);
                }
                None => summary.other_errors += 1,
            },
        }
        width = width.max(interp.oracle_used.min(63) as u32);
        // Enumerate oracle bit strings of the observed width.
        oracle += 1;
        if width >= 63 || oracle >= (1u64 << width) || oracle >= max_paths as u64 {
            return summary;
        }
    }
}

struct Interp {
    fuel: u64,
    mode: BranchMode,
    /// Bit string selecting branches in oracle mode (bit i = i-th `if`
    /// encountered takes the then-branch).
    oracle: u64,
    oracle_used: u64,
}

impl Interp {
    fn tick(&mut self) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn eval(&mut self, env: &Env, e: &Expr) -> Result<Value, RuntimeError> {
        self.tick()?;
        match &e.kind {
            ExprKind::Var(x) => env.get(x).cloned().ok_or(RuntimeError::Unbound(*x)),
            ExprKind::Int(n) => Ok(Value::Int(*n)),
            ExprKind::Str(s) => Ok(Value::Str(Rc::from(s.as_str()))),
            ExprKind::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(env, item)?);
                }
                Ok(Value::List(Rc::new(out)))
            }
            ExprKind::Lam(x, body) => Ok(Value::Closure {
                me: None,
                param: *x,
                body: Rc::new((**body).clone()),
                env: Rc::new(env.clone()),
            }),
            ExprKind::App(f, a) => {
                let fv = self.eval(env, f)?;
                let av = self.eval(env, a)?;
                self.apply(fv, av)
            }
            ExprKind::Let { name, bound, body } => {
                let recursive = bound.free_vars().contains(name);
                let bv = if recursive {
                    match &bound.kind {
                        ExprKind::Lam(param, lam_body) => Value::Closure {
                            me: Some(*name),
                            param: *param,
                            body: Rc::new((**lam_body).clone()),
                            env: Rc::new(env.clone()),
                        },
                        _ => {
                            return Err(RuntimeError::Stuck(format!(
                                "recursive non-function binding `{name}`"
                            )))
                        }
                    }
                } else {
                    self.eval(env, bound)?
                };
                let mut inner = env.clone();
                inner.insert(*name, bv);
                self.eval(&inner, body)
            }
            ExprKind::If(c, t, f) => {
                let take_then = match self.mode {
                    BranchMode::Concrete => match self.eval(env, c)? {
                        Value::Int(n) => n != 0,
                        other => {
                            return Err(RuntimeError::Stuck(format!(
                                "condition is {}, expected an integer",
                                other.describe()
                            )))
                        }
                    },
                    BranchMode::Oracle => {
                        let bit = if self.oracle_used < 63 {
                            self.oracle >> self.oracle_used & 1 == 1
                        } else {
                            false
                        };
                        self.oracle_used += 1;
                        bit
                    }
                };
                if take_then {
                    self.eval(env, t)
                } else {
                    self.eval(env, f)
                }
            }
            ExprKind::Empty => Ok(Value::Record(Rc::new(BTreeMap::new()))),
            ExprKind::Select(n) => Ok(Value::Prim(Prim::Select(*n), Vec::new())),
            ExprKind::Update(n, value) => {
                let v = self.eval(env, value)?;
                Ok(Value::Prim(Prim::Update(*n), vec![v]))
            }
            ExprKind::Remove(n) => Ok(Value::Prim(Prim::Remove(*n), Vec::new())),
            ExprKind::Rename(m, n) => Ok(Value::Prim(Prim::Rename(*m, *n), Vec::new())),
            ExprKind::Concat(a, b) => {
                let (ra, rb) = (self.eval(env, a)?, self.eval(env, b)?);
                let (ra, rb) = (as_record(&ra)?, as_record(&rb)?);
                // Right-biased union.
                let mut out = (*ra).clone();
                for (k, v) in rb.iter() {
                    out.insert(*k, v.clone());
                }
                Ok(Value::Record(Rc::new(out)))
            }
            ExprKind::SymConcat(a, b) => {
                let (ra, rb) = (self.eval(env, a)?, self.eval(env, b)?);
                let (ra, rb) = (as_record(&ra)?, as_record(&rb)?);
                let mut out = (*ra).clone();
                for (k, v) in rb.iter() {
                    if out.insert(*k, v.clone()).is_some() {
                        return Err(RuntimeError::DuplicateField(*k));
                    }
                }
                Ok(Value::Record(Rc::new(out)))
            }
            ExprKind::When {
                field,
                subject,
                then_branch,
                else_branch,
            } => {
                let v = env
                    .get(subject)
                    .cloned()
                    .ok_or(RuntimeError::Unbound(*subject))?;
                let rec = as_record(&v)?;
                if rec.contains_key(field) {
                    self.eval(env, then_branch)
                } else {
                    self.eval(env, else_branch)
                }
            }
            ExprKind::BinOp(op, a, b) => {
                let av = self.eval(env, a)?;
                let bv = self.eval(env, b)?;
                let (x, y) = match (&av, &bv) {
                    (Value::Int(x), Value::Int(y)) => (*x, *y),
                    _ => {
                        return Err(RuntimeError::Stuck(format!(
                            "`{}` applied to {} and {}",
                            op.symbol(),
                            av.describe(),
                            bv.describe()
                        )))
                    }
                };
                Ok(Value::Int(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Eq => (x == y) as i64,
                    BinOp::Lt => (x < y) as i64,
                    BinOp::Le => (x <= y) as i64,
                    BinOp::And => (x != 0 && y != 0) as i64,
                    BinOp::Or => (x != 0 || y != 0) as i64,
                }))
            }
        }
    }

    fn apply(&mut self, f: Value, a: Value) -> Result<Value, RuntimeError> {
        self.tick()?;
        match f {
            Value::Closure {
                me,
                param,
                body,
                env,
            } => {
                let mut inner = (*env).clone();
                if let Some(name) = me {
                    inner.insert(
                        name,
                        Value::Closure {
                            me: Some(name),
                            param,
                            body: Rc::clone(&body),
                            env: Rc::clone(&env),
                        },
                    );
                }
                inner.insert(param, a);
                self.eval(&inner, &body)
            }
            Value::Prim(p, mut args) => {
                args.push(a);
                if args.len() < p.arity() {
                    return Ok(Value::Prim(p, args));
                }
                self.prim(p, args)
            }
            other => Err(RuntimeError::Stuck(format!(
                "applied {}, expected a function",
                other.describe()
            ))),
        }
    }

    fn prim(&mut self, p: Prim, args: Vec<Value>) -> Result<Value, RuntimeError> {
        match p {
            Prim::Select(n) => {
                let rec = as_record(&args[0])?;
                rec.get(&n).cloned().ok_or(RuntimeError::MissingField(n))
            }
            Prim::Update(n) => {
                let rec = as_record(&args[1])?;
                let mut out = (*rec).clone();
                out.insert(n, args[0].clone());
                Ok(Value::Record(Rc::new(out)))
            }
            Prim::Remove(n) => {
                let rec = as_record(&args[0])?;
                let mut out = (*rec).clone();
                out.remove(&n);
                Ok(Value::Record(Rc::new(out)))
            }
            Prim::Rename(m, n) => {
                let rec = as_record(&args[0])?;
                let mut out = (*rec).clone();
                if let Some(v) = out.remove(&m) {
                    if out.contains_key(&n) {
                        return Err(RuntimeError::RenameClash(n));
                    }
                    out.insert(n, v);
                }
                Ok(Value::Record(Rc::new(out)))
            }
            Prim::Null => {
                let l = as_list(&args[0])?;
                Ok(Value::Int(l.is_empty() as i64))
            }
            Prim::Head => {
                let l = as_list(&args[0])?;
                l.first().cloned().ok_or(RuntimeError::EmptyList)
            }
            Prim::Tail => {
                let l = as_list(&args[0])?;
                if l.is_empty() {
                    return Err(RuntimeError::EmptyList);
                }
                Ok(Value::List(Rc::new(l[1..].to_vec())))
            }
            Prim::Cons => {
                let l = as_list(&args[1])?;
                let mut out = Vec::with_capacity(l.len() + 1);
                out.push(args[0].clone());
                out.extend(l.iter().cloned());
                Ok(Value::List(Rc::new(out)))
            }
        }
    }
}

fn as_record(v: &Value) -> Result<Rc<BTreeMap<rowpoly_lang::FieldName, Value>>, RuntimeError> {
    match v {
        Value::Record(r) => Ok(Rc::clone(r)),
        other => Err(RuntimeError::Stuck(format!(
            "expected a record, got {}",
            other.describe()
        ))),
    }
}

fn as_list(v: &Value) -> Result<Rc<Vec<Value>>, RuntimeError> {
    match v {
        Value::List(l) => Ok(Rc::clone(l)),
        other => Err(RuntimeError::Stuck(format!(
            "expected a list, got {}",
            other.describe()
        ))),
    }
}

/// The interpreter's initial environment: list primitives.
fn builtin_env() -> Env {
    let mut env = Env::new();
    env.insert(Symbol::intern("null"), Value::Prim(Prim::Null, Vec::new()));
    env.insert(Symbol::intern("head"), Value::Prim(Prim::Head, Vec::new()));
    env.insert(Symbol::intern("tail"), Value::Prim(Prim::Tail, Vec::new()));
    env.insert(Symbol::intern("cons"), Value::Prim(Prim::Cons, Vec::new()));
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_lang::parse_expr;

    fn run(src: &str) -> Result<Value, RuntimeError> {
        eval(&parse_expr(src).expect("parses"), 100_000)
    }

    #[test]
    fn arithmetic_and_conditionals() {
        assert!(matches!(run("1 + 2 * 3"), Ok(Value::Int(7))));
        assert!(matches!(run("if 1 then 10 else 20"), Ok(Value::Int(10))));
        assert!(matches!(run("if 0 then 10 else 20"), Ok(Value::Int(20))));
        assert!(matches!(run("3 < 4"), Ok(Value::Int(1))));
    }

    #[test]
    fn records_update_select() {
        assert!(matches!(run("#foo (@{foo = 42} {})"), Ok(Value::Int(42))));
        assert!(matches!(run("#bar {}"), Err(RuntimeError::MissingField(_))));
        assert!(matches!(
            run("#a (%a {a = 1})"),
            Err(RuntimeError::MissingField(_))
        ));
        assert!(matches!(run("#b (^{a -> b} {a = 7})"), Ok(Value::Int(7))));
    }

    #[test]
    fn concat_bias_and_symmetry() {
        assert!(matches!(run("#x ({x = 1} @ {x = 2})"), Ok(Value::Int(2))));
        assert!(matches!(run("#x ({x = 1} @ {y = 2})"), Ok(Value::Int(1))));
        assert!(matches!(
            run("{x = 1} @@ {x = 2}"),
            Err(RuntimeError::DuplicateField(_))
        ));
        assert!(matches!(run("#y ({x = 1} @@ {y = 2})"), Ok(Value::Int(2))));
    }

    #[test]
    fn when_tests_field_presence() {
        assert!(matches!(
            run("let r = {a = 1} in when a in r then #a r else 0"),
            Ok(Value::Int(1))
        ));
        assert!(matches!(
            run("let r = {} in when a in r then #a r else 7"),
            Ok(Value::Int(7))
        ));
    }

    #[test]
    fn recursion_and_fuel() {
        assert!(matches!(
            run("let fact n = if n == 0 then 1 else n * fact (n - 1) in fact 5"),
            Ok(Value::Int(120))
        ));
        // Keep the fuel small: the interpreter is recursive, so fuel also
        // bounds native stack depth.
        let e = parse_expr("let loop x = loop x in loop 1").unwrap();
        assert!(matches!(eval(&e, 300), Err(RuntimeError::OutOfFuel)));
    }

    #[test]
    fn list_primitives() {
        assert!(matches!(run("null []"), Ok(Value::Int(1))));
        assert!(matches!(run("null [1]"), Ok(Value::Int(0))));
        assert!(matches!(run("head [4, 5]"), Ok(Value::Int(4))));
        assert!(matches!(run("head (tail [4, 5])"), Ok(Value::Int(5))));
        assert!(matches!(run("head (cons 9 [])"), Ok(Value::Int(9))));
        assert!(matches!(run("head []"), Err(RuntimeError::EmptyList)));
    }

    #[test]
    fn dynamic_type_errors_are_stuck() {
        assert!(matches!(run("1 + {}"), Err(RuntimeError::Stuck(_))));
        assert!(matches!(run("1 2"), Err(RuntimeError::Stuck(_))));
        assert!(matches!(
            run("if {} then 1 else 2"),
            Err(RuntimeError::Stuck(_))
        ));
    }

    /// The motivating example: `f {}` is safe on *every* path (the
    /// then-branch adds `foo` before selecting it), but `#foo (f {})` has
    /// a failing path — the else-path returns `{}` to the outer selector.
    /// This is exactly the accept/reject split of the flow inference.
    #[test]
    fn motivating_example_paths() {
        // `c` is free — concrete evaluation cannot run it, but the oracle
        // mode never evaluates conditions.
        let safe = parse_expr(
            r"let f = \s . if c then (let s2 = @{foo = 1} s in
                                      let v = #foo s2 in s2) else s
              in f {}",
        )
        .unwrap();
        let summary = explore_paths(&safe, 100_000, 64);
        assert!(summary.ok > 0);
        assert_eq!(summary.field_errors, 0, "f {{}} is safe on both paths");

        let bad = parse_expr(
            r"let f = \s . if c then (let s2 = @{foo = 1} s in
                                      let v = #foo s2 in s2) else s
              in #foo (f {})",
        )
        .unwrap();
        let summary = explore_paths(&bad, 100_000, 64);
        assert!(summary.ok > 0, "the then-path succeeds");
        assert!(
            summary.any_field_error(),
            "the else-path returns {{}} to the outer selector: got {summary:?}"
        );
    }

    #[test]
    fn closures_capture_lexically() {
        assert!(matches!(
            run("let x = 1 in let f = \\y . x + y in let x = 100 in f 10"),
            Ok(Value::Int(11))
        ));
    }
}
