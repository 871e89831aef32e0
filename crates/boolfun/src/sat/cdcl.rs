//! Conflict-driven clause learning for general CNF.
//!
//! Symmetric record concatenation and flag-conditioned conditionals
//! (`when N in x then … else …`) generate clauses outside the Horn
//! fragment, so the paper's classification calls for a generic SAT solver.
//! This is a self-contained CDCL implementation with two-watched-literal
//! propagation, VSIDS-style activities with phase saving, first-UIP clause
//! learning, non-chronological backjumping and Luby restarts. [`solve`]
//! loads one formula into a fresh solver and answers.

use std::collections::HashMap;

use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::lit::{Flag, Lit};
use crate::proof::{DerivationStep, Proof, UnsatProof};
use crate::sat::{BudgetStop, Model, SatBudget, SatResult};

/// A literal over dense variable indices, encoded `var << 1 | neg`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct DLit(u32);

impl DLit {
    fn new(var: usize, neg: bool) -> DLit {
        DLit((var as u32) << 1 | neg as u32)
    }
    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }
    fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }
    fn negate(self) -> DLit {
        DLit(self.0 ^ 1)
    }
    fn code(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Val {
    True,
    False,
    Undef,
}

const NO_REASON: u32 = u32::MAX;

/// Search statistics accumulated locally (no locks on the hot path) and
/// flushed to the observability layer once per solve.
#[derive(Clone, Copy, Default)]
struct SearchStats {
    decisions: u64,
    propagations: u64,
    learned: u64,
    restarts: u64,
}

struct Solver {
    nvars: usize,
    /// Clause database: input clauses of two or more literals and learnt
    /// clauses, in insertion order.
    clauses: Vec<Vec<DLit>>,
    /// watches[lit.code()] = clause indices watching `lit`.
    watches: Vec<Vec<u32>>,
    assign: Vec<Val>,
    /// Saved phase for decision heuristics.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<DLit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    unsat: bool,
    search: SearchStats,
    /// Indices into `clauses` of every learnt clause, in learning order
    /// — the raw material for a RUP derivation (see [`solve`]). Unit
    /// learnt clauses are stored too, unwatched.
    learnt: Vec<u32>,
}

impl Solver {
    /// A solver over zero variables and clauses, grown via
    /// [`Solver::new_var`] and [`Solver::add`].
    fn new() -> Solver {
        Solver {
            nvars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            unsat: false,
            search: SearchStats::default(),
            learnt: Vec::new(),
        }
    }

    fn new_var(&mut self) -> usize {
        let v = self.nvars;
        self.nvars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(Val::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        v
    }

    /// Adds an input clause at decision level 0, before any
    /// propagation: a unit clause is enqueued (a complementary unit
    /// makes the solver unsatisfiable), a longer one watches its first
    /// two literals. Literals already false get their watchers visited
    /// when [`Solver::run`] propagates the level-0 trail.
    fn add(&mut self, c: Vec<DLit>) {
        if let [unit] = c[..] {
            if !self.enqueue(unit, NO_REASON) {
                self.unsat = true;
            }
            return;
        }
        let ci = self.clauses.len() as u32;
        self.watches[c[0].negate().code()].push(ci);
        self.watches[c[1].negate().code()].push(ci);
        self.clauses.push(c);
    }

    fn value(&self, l: DLit) -> Val {
        match self.assign[l.var()] {
            Val::Undef => Val::Undef,
            Val::True => {
                if l.is_neg() {
                    Val::False
                } else {
                    Val::True
                }
            }
            Val::False => {
                if l.is_neg() {
                    Val::True
                } else {
                    Val::False
                }
            }
        }
    }

    /// Assigns `l` true with the given reason. Returns false on conflict
    /// with an existing assignment.
    fn enqueue(&mut self, l: DLit, reason: u32) -> bool {
        match self.value(l) {
            Val::True => true,
            Val::False => false,
            Val::Undef => {
                self.assign[l.var()] = if l.is_neg() { Val::False } else { Val::True };
                self.phase[l.var()] = !l.is_neg();
                self.level[l.var()] = self.trail_lim.len() as u32;
                self.reason[l.var()] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.search.propagations += 1;
            // Clauses watching ¬l (i.e. registered under watches[l.code()]
            // with our convention: we store under negate().code() at add
            // time, so the list keyed by l.code() holds clauses where a
            // watched literal just became false).
            let watch_list = std::mem::take(&mut self.watches[l.code()]);
            let mut keep = Vec::with_capacity(watch_list.len());
            let mut conflict: Option<u32> = None;
            for (pos, &ci) in watch_list.iter().enumerate() {
                let false_lit = l.negate();
                {
                    // Normalise: watched literals are clause[0], clause[1].
                    let clause = &mut self.clauses[ci as usize];
                    if clause[0] == false_lit {
                        clause.swap(0, 1);
                    }
                    debug_assert_eq!(clause[1], false_lit);
                }
                // Clause already satisfied by the other watch?
                let first = self.clauses[ci as usize][0];
                if self.value(first) == Val::True {
                    keep.push(ci);
                    continue;
                }
                // Find a new literal to watch.
                let len = self.clauses[ci as usize].len();
                let mut moved = false;
                for k in 2..len {
                    let cand = self.clauses[ci as usize][k];
                    if self.value(cand) != Val::False {
                        self.clauses[ci as usize].swap(1, k);
                        self.watches[cand.negate().code()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // No new watch: clause is unit (or conflicting) on `first`.
                keep.push(ci);
                if !self.enqueue(first, ci) {
                    conflict = Some(ci);
                    keep.extend_from_slice(&watch_list[pos + 1..]);
                    break;
                }
            }
            drop(watch_list);
            let slot = &mut self.watches[l.code()];
            // Clauses added during propagation (new watches) must survive.
            keep.append(slot);
            *slot = keep;
            if conflict.is_some() {
                self.prop_head = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.act_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    ///
    /// Relies on the invariant that a reason clause keeps its propagated
    /// literal at position 0: propagation enqueues `clause[0]`, learnt
    /// clauses are stored with the asserting literal first, and the
    /// watched-literal bookkeeping never moves a *true* literal out of
    /// position 0 while its variable is assigned.
    fn analyze(&mut self, conflict: u32) -> (Vec<DLit>, u32) {
        let current_level = self.trail_lim.len() as u32;
        let mut learnt: Vec<DLit> = Vec::new();
        let mut seen = vec![false; self.nvars];
        let mut open_paths = 0usize;
        let mut trail_pos = self.trail.len();
        let mut clause_idx = conflict;
        let mut pivot: Option<DLit> = None;

        loop {
            // Walk the clause's literals; skip the propagated literal of a
            // reason clause (position 0) since it is the pivot itself.
            let start = pivot.is_some() as usize;
            for j in start..self.clauses[clause_idx as usize].len() {
                let q = self.clauses[clause_idx as usize][j];
                let v = q.var();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current_level {
                        open_paths += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next marked literal on the trail, scanning backwards.
            loop {
                trail_pos -= 1;
                if seen[self.trail[trail_pos].var()] {
                    break;
                }
            }
            let p = self.trail[trail_pos];
            seen[p.var()] = false;
            open_paths -= 1;
            pivot = Some(p);
            if open_paths == 0 {
                break;
            }
            clause_idx = self.reason[p.var()];
            debug_assert_ne!(clause_idx, NO_REASON, "non-UIP literal has a reason");
        }

        let uip = pivot.expect("conflict analysis found a UIP").negate();
        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(uip);
        clause.extend(learnt);
        // Backjump level: highest level among the non-asserting literals.
        let back = clause[1..]
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        // Place a literal of the backjump level second (watch invariant).
        if clause.len() > 1 {
            let k = 1 + clause[1..]
                .iter()
                .position(|l| self.level[l.var()] == back)
                .expect("literal at backjump level");
            clause.swap(1, k);
        }
        (clause, back)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("level to cancel");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail entry");
                self.assign[l.var()] = Val::Undef;
                self.reason[l.var()] = NO_REASON;
            }
        }
        self.prop_head = self.trail.len();
    }

    fn decide(&mut self) -> Option<DLit> {
        let mut best: Option<usize> = None;
        for v in 0..self.nvars {
            if self.assign[v] == Val::Undef
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best.map(|v| DLit::new(v, !self.phase[v]))
    }

    /// Steps spent so far: decisions plus propagated literals.
    fn steps(&self) -> u64 {
        self.search.decisions + self.search.propagations
    }

    fn run(&mut self, budget: &SatBudget) -> Result<Option<Vec<Val>>, BudgetStop> {
        if self.unsat {
            return Ok(None);
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return Ok(None);
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_count = 0u32;
        loop {
            if let Some(max) = budget.max_steps {
                if self.steps() > max {
                    return Err(BudgetStop::Steps(self.steps()));
                }
            }
            if budget.cancelled() {
                return Err(BudgetStop::Cancelled);
            }
            if let Some(conflict) = self.propagate() {
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return Ok(None);
                }
                conflicts_since_restart += 1;
                self.search.learned += 1;
                let (clause, back) = self.analyze(conflict);
                self.cancel_until(back);
                self.act_inc /= 0.95;
                let asserting = clause[0];
                let ci = self.clauses.len() as u32;
                self.learnt.push(ci);
                let reason = if clause.len() == 1 {
                    self.cancel_until(0);
                    NO_REASON
                } else {
                    self.watches[clause[0].negate().code()].push(ci);
                    self.watches[clause[1].negate().code()].push(ci);
                    ci
                };
                self.clauses.push(clause);
                if !self.enqueue(asserting, reason) {
                    self.unsat = true;
                    return Ok(None);
                }
            } else if conflicts_since_restart >= 64 * luby(restart_count) {
                conflicts_since_restart = 0;
                restart_count += 1;
                self.search.restarts += 1;
                self.cancel_until(0);
            } else {
                match self.decide() {
                    None => return Ok(Some(self.assign.clone())),
                    Some(d) => {
                        self.search.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(d, NO_REASON);
                        debug_assert!(ok, "decision on unassigned var cannot conflict");
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence 1,1,2,1,1,2,4,…
fn luby(i: u32) -> u64 {
    let mut k = 1u32;
    while (1u64 << k) - 1 < (i as u64) + 1 {
        k += 1;
    }
    let mut i = i as u64;
    let mut kk = k;
    loop {
        if (1u64 << kk) - 1 == i + 1 {
            return 1u64 << (kk - 1);
        }
        kk -= 1;
        if i + 1 >= 1u64 << kk {
            i -= (1u64 << kk) - 1;
        }
    }
}

/// Decides `cnf` (no empty clause) with a fresh solver. Flags become
/// solver variables in order of first mention. An unsat proof is every
/// learnt clause as a RUP step, in learning order, then `⊥`, with every
/// clause of `cnf` as the core. The budget counts decisions plus
/// propagated literals.
pub(crate) fn solve(
    cnf: &Cnf,
    budget: &SatBudget,
    want_proof: bool,
) -> Result<(SatResult, Option<Proof>), BudgetStop> {
    let mut s = Solver::new();
    let mut var_of: HashMap<Flag, usize> = HashMap::new();
    // Solver variable → flag.
    let mut flags: Vec<Flag> = Vec::new();
    for c in cnf.clauses() {
        let lits = c
            .lits()
            .iter()
            .map(|&l| {
                let var = *var_of.entry(l.flag()).or_insert_with(|| {
                    flags.push(l.flag());
                    s.new_var()
                });
                DLit::new(var, l.is_neg())
            })
            .collect();
        s.add(lits);
    }
    let outcome = s.run(budget);
    if rowpoly_obs::enabled() {
        let d = &s.search;
        rowpoly_obs::counter_add("sat.cdcl.solves", 1);
        rowpoly_obs::counter_add("sat.cdcl.decisions", d.decisions);
        rowpoly_obs::counter_add("sat.cdcl.propagations", d.propagations);
        rowpoly_obs::counter_add("sat.cdcl.learned_clauses", d.learned);
        rowpoly_obs::counter_add("sat.cdcl.restarts", d.restarts);
        if outcome.is_err() {
            rowpoly_obs::counter_add("sat.cdcl.budget_stops", 1);
        }
    }
    Ok(match outcome? {
        Some(assign) => {
            let model: Model = flags
                .iter()
                .enumerate()
                .map(|(v, &f)| (f, assign[v] == Val::True))
                .collect();
            let proof = want_proof.then(|| Proof::Sat(model.clone()));
            (SatResult::Sat(model), proof)
        }
        None => {
            let proof = want_proof.then(|| {
                let mut steps: Vec<DerivationStep> = s
                    .learnt
                    .iter()
                    .map(|&ci| {
                        let lits = s.clauses[ci as usize]
                            .iter()
                            .map(|l| Lit::new(flags[l.var()], l.is_neg()))
                            .collect();
                        DerivationStep::Rup {
                            clause: Clause::new(lits)
                                .expect("learnt clauses carry no complementary pair"),
                        }
                    })
                    .collect();
                steps.push(DerivationStep::Rup {
                    clause: Clause::empty(),
                });
                Proof::Unsat(UnsatProof {
                    core: (0..cnf.len()).collect(),
                    steps,
                })
            });
            (SatResult::Unsat(Vec::new()), proof)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::SatClass;
    use crate::sat::{check_model, solve_as};

    /// Solves `b` with the CDCL engine, whatever its class.
    fn cdcl_budgeted(b: &Cnf, budget: &SatBudget) -> Result<SatResult, BudgetStop> {
        solve_as(b, SatClass::General, budget)
    }

    fn cdcl(b: &Cnf) -> SatResult {
        cdcl_budgeted(b, &SatBudget::unlimited()).expect("unlimited budget")
    }

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn simple_sat_and_unsat() {
        let mut b = Cnf::top();
        b.add_lits(vec![p(0), p(1)]);
        b.add_lits(vec![n(0), p(1)]);
        b.add_lits(vec![p(0), n(1)]);
        match cdcl(&b) {
            SatResult::Sat(m) => assert!(check_model(&b, &m)),
            SatResult::Unsat(_) => panic!("should be sat"),
        }
        b.add_lits(vec![n(0), n(1)]);
        assert!(!cdcl(&b).is_sat());
    }

    /// Pigeonhole PHP(3,2): 3 pigeons into 2 holes is unsat and requires
    /// real search (non-Horn, non-2-SAT after mixing).
    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // var p*2 + h: pigeon p in hole h.
        let v = |pigeon: u32, hole: u32| Flag(pigeon * 2 + hole);
        let mut b = Cnf::top();
        for pigeon in 0..3 {
            b.add_lits(vec![Lit::pos(v(pigeon, 0)), Lit::pos(v(pigeon, 1))]);
        }
        for hole in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    b.add_lits(vec![Lit::neg(v(p1, hole)), Lit::neg(v(p2, hole))]);
                }
            }
        }
        assert!(!cdcl(&b).is_sat());
    }

    #[test]
    fn pigeonhole_3_into_3_is_sat() {
        let v = |pigeon: u32, hole: u32| Flag(pigeon * 3 + hole);
        let mut b = Cnf::top();
        for pigeon in 0..3 {
            b.add_lits(vec![
                Lit::pos(v(pigeon, 0)),
                Lit::pos(v(pigeon, 1)),
                Lit::pos(v(pigeon, 2)),
            ]);
        }
        for hole in 0..3 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    b.add_lits(vec![Lit::neg(v(p1, hole)), Lit::neg(v(p2, hole))]);
                }
            }
        }
        match cdcl(&b) {
            SatResult::Sat(m) => assert!(check_model(&b, &m)),
            SatResult::Unsat(_) => panic!("should be sat"),
        }
    }

    /// Random 3-SAT near the phase transition, cross-checked against brute
    /// force.
    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut state: u64 = 42;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _case in 0..120 {
            let nvars = 4 + rand(5) as u32; // 4..8 vars
            let nclauses = (nvars as f64 * 4.2) as usize;
            let mut b = Cnf::top();
            for _ in 0..nclauses {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let f = Flag(rand(nvars as u64) as u32);
                    lits.push(if rand(2) == 0 {
                        Lit::pos(f)
                    } else {
                        Lit::neg(f)
                    });
                }
                b.add_lits(lits);
            }
            let universe: Vec<Flag> = (0..nvars).map(Flag).collect();
            let brute = !b.models(&universe).is_empty();
            let got = cdcl(&b);
            assert_eq!(got.is_sat(), brute, "cdcl disagrees on {b:?}");
            if let SatResult::Sat(m) = got {
                assert!(check_model(&b, &m));
            }
        }
    }

    /// Pigeonhole PHP(3,2) needs real search, so a tiny step budget
    /// stops it; an ample budget reaches the same verdict as the
    /// unbudgeted solver.
    #[test]
    fn budget_stops_search_and_ample_budget_agrees() {
        let v = |pigeon: u32, hole: u32| Flag(pigeon * 2 + hole);
        let mut b = Cnf::top();
        for pigeon in 0..3 {
            b.add_lits(vec![Lit::pos(v(pigeon, 0)), Lit::pos(v(pigeon, 1))]);
        }
        for hole in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    b.add_lits(vec![Lit::neg(v(p1, hole)), Lit::neg(v(p2, hole))]);
                }
            }
        }
        match cdcl_budgeted(&b, &SatBudget::steps(0)) {
            Err(BudgetStop::Steps(n)) => assert!(n > 0, "stop reports steps spent"),
            other => panic!("budget 0 should stop the search, got {other:?}"),
        }
        match cdcl_budgeted(&b, &SatBudget::steps(1_000_000)) {
            Ok(r) => assert!(!r.is_sat(), "PHP(3,2) is unsat"),
            Err(stop) => panic!("ample budget stopped: {stop}"),
        }
    }

    #[test]
    fn cancellation_flag_stops_search() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut b = Cnf::top();
        b.add_lits(vec![p(0), p(1), p(2)]);
        b.add_lits(vec![n(0), n(1)]);
        let cancel = Arc::new(AtomicBool::new(true));
        let budget = SatBudget {
            max_steps: None,
            cancel: Some(cancel),
        };
        assert_eq!(cdcl_budgeted(&b, &budget), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn unit_clauses_only() {
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.assert_lit(n(1));
        match cdcl(&b) {
            SatResult::Sat(m) => {
                assert!(m[&Flag(0)]);
                assert!(!m[&Flag(1)]);
            }
            SatResult::Unsat(_) => panic!("should be sat"),
        }
    }
}
