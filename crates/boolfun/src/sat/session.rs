//! Solving sessions: the one decision procedure per SAT class.
//!
//! The inference discipline issues hundreds of SAT checks per definition
//! over β formulas that differ by a handful of clauses. A [`Session`]
//! owns persistent solver state across those checks: clauses live in a
//! flat u32-packed arena and are *retracted*, never removed, so each
//! engine can keep whatever warm state survives the delta —
//!
//! - CDCL guards every clause with a selector variable and solves under
//!   assumptions, keeping its learned-clause database, VSIDS activities
//!   and saved phases across checks ([`cdcl::Incremental`]);
//! - 2-SAT caches its SCC decomposition and repairs it on clause
//!   insertion, falling back to a full Tarjan pass only when a new edge
//!   can actually merge components ([`TwoEngine`]);
//! - Horn keeps its unit-propagation watch state and derived facts warm
//!   and only re-propagates from the new clauses ([`HornEngine`]).
//!
//! [`Session::sync`] diffs a [`Cnf`] against the previously synced
//! prefix (O(1) for pure appends via [`Cnf::sync_stamp`]), so callers
//! that rebuild their β each iteration still reuse solver state.
//!
//! A one-shot question is a *cold* session ([`Session::cold`]: one sync,
//! then one solve). Its conflict chains and unsat cores depend only on
//! the clause list, never on solve history, which is what diagnostics
//! and [`crate::minimize_core`] rely on. Proofs from every solve replay
//! under `ROWPOLY_CHECK_PROOFS=1` against the active clause set.

use crate::classify::SatClass;
use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::db::ProjectStats;
use crate::lit::Lit;
use crate::proof::{Proof, ProofChecker, UnsatProof};
use crate::sat::cdcl;
use crate::sat::horn::{self, HornEngine};
use crate::sat::twosat::TwoEngine;
use crate::sat::{check_proofs_enabled, BudgetStop, Model, SatBudget, SatResult};

/// What a [`Session::sync`] call did to reconcile the session with the
/// given formula.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Clauses newly pushed into the session.
    pub appended: usize,
    /// Previously synced clauses retracted because the prefix diverged.
    pub retracted: usize,
    /// Whether the slow path (elementwise prefix diff) ran.
    pub reloaded: bool,
}

/// Aggregate clause-shape counts over the active set, enough to
/// reproduce [`crate::classify`] in O(1) per query.
#[derive(Clone, Copy, Default)]
struct ShapeTally {
    total: usize,
    empty: usize,
    over2: usize,
    non_horn: usize,
    non_dual: usize,
}

#[derive(Clone, Copy)]
struct Shape {
    len: usize,
    pos: usize,
}

impl ShapeTally {
    fn apply(&mut self, s: Shape, sign: isize) {
        let bump = |field: &mut usize, cond: bool| {
            if cond {
                *field = field.wrapping_add_signed(sign);
            }
        };
        bump(&mut self.total, true);
        bump(&mut self.empty, s.len == 0);
        bump(&mut self.over2, s.len > 2);
        bump(&mut self.non_horn, s.pos > 1);
        bump(&mut self.non_dual, s.len - s.pos > 1);
    }

    fn class(&self) -> SatClass {
        if self.total == 0 {
            SatClass::Trivial
        } else if self.empty > 0 {
            SatClass::Unsat
        } else if self.over2 == 0 {
            SatClass::TwoSat
        } else if self.non_horn == 0 {
            SatClass::Horn
        } else if self.non_dual == 0 {
            SatClass::DualHorn
        } else {
            SatClass::General
        }
    }
}

/// The warm engine of the current class. CDCL never rebuilds on
/// retraction, so unlike the linear engines it tracks feeds per slot,
/// not as a prefix.
enum EngineState {
    None,
    Two(TwoEngine),
    Horn(HornEngine),
    Cdcl(cdcl::Incremental),
}

/// Persistent solver state for one stream of related SAT checks — the
/// checks of one definition, or of one open document in the daemon.
///
/// Clauses are pushed into a flat arena of u32-packed literals and
/// retracted by slot id; [`Session::solve`] classifies the active set
/// and dispatches to a warm engine, rebuilding it only when the class
/// changes or a retraction invalidates fed state. [`Session::sync`]
/// reconciles the session with an externally maintained [`Cnf`],
/// reusing the unchanged prefix.
pub struct Session {
    /// Packed literal arena: [`Lit::code`]s, clause spans in `spans`.
    lits: Vec<u32>,
    /// slot → (start, len) into `lits`.
    spans: Vec<(u32, u32)>,
    active: Vec<bool>,
    n_active: usize,
    tally: ShapeTally,
    engine: EngineState,
    /// Slots mirroring the last-synced formula, in clause order.
    sync_slots: Vec<u32>,
    /// [`Cnf::sync_stamp`] observed at the last sync.
    sync_key: Option<(u64, u64)>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    pub fn new() -> Session {
        Session {
            lits: Vec::new(),
            spans: Vec::new(),
            active: Vec::new(),
            n_active: 0,
            tally: ShapeTally::default(),
            engine: EngineState::None,
            sync_slots: Vec::new(),
            sync_key: None,
        }
    }

    /// Clears every slot and all solver state, keeping the arena
    /// allocations. A reset session behaves like [`Session::new`];
    /// per-worker scratch uses this to recycle capacity across
    /// unrelated formula histories without unbounded slot growth.
    pub fn reset(&mut self) {
        self.lits.clear();
        self.spans.clear();
        self.active.clear();
        self.n_active = 0;
        self.tally = ShapeTally::default();
        self.engine = EngineState::None;
        self.sync_slots.clear();
        self.sync_key = None;
    }

    /// Pre-sizes the arena from projection statistics: the clause count
    /// after elimination is bounded by the surviving resolvents, and
    /// projection output is dominated by unit/binary clauses.
    pub fn reserve_from_stats(&mut self, stats: &ProjectStats) {
        let clauses = stats.resolvents.saturating_sub(stats.subsumed) + stats.fastpath + 8;
        self.spans.reserve(clauses);
        self.active.reserve(clauses);
        self.lits.reserve(2 * clauses);
    }

    /// Number of clauses currently active.
    pub fn active_len(&self) -> usize {
        self.n_active
    }

    /// Total slots ever pushed (active or retracted).
    pub fn slot_len(&self) -> usize {
        self.spans.len()
    }

    /// The [`SatClass`] of the active clause set, in O(1). Agrees with
    /// [`crate::classify`] on [`Session::active_cnf`].
    pub fn class(&self) -> SatClass {
        self.tally.class()
    }

    fn shape_at(&self, slot: u32) -> Shape {
        let (start, len) = self.spans[slot as usize];
        let lits = &self.lits[start as usize..(start + len) as usize];
        let pos = lits.iter().filter(|&&c| c & 1 == 0).count();
        Shape {
            len: len as usize,
            pos,
        }
    }

    fn clause_at(&self, slot: u32) -> Clause {
        let (start, len) = self.spans[slot as usize];
        let lits = self.lits[start as usize..(start + len) as usize]
            .iter()
            .map(|&c| Lit::from_code(c as usize))
            .collect();
        Clause::new(lits).expect("session arena holds well-formed clauses")
    }

    /// Adds a clause; returns its slot id (stable for the session's
    /// lifetime, usable with [`Session::retract`]).
    pub fn push(&mut self, c: &Clause) -> u32 {
        let slot = self.spans.len() as u32;
        let start = self.lits.len() as u32;
        for &l in c.lits() {
            self.lits.push(l.code() as u32);
        }
        self.spans.push((start, c.len() as u32));
        self.active.push(true);
        self.n_active += 1;
        self.tally.apply(self.shape_at(slot), 1);
        slot
    }

    /// Deactivates a clause. CDCL retracts by dropping the selector
    /// assumption (free); the linear engines notice the prefix break at
    /// the next solve and rebuild from the active set.
    pub fn retract(&mut self, slot: u32) {
        if !self.active[slot as usize] {
            return;
        }
        self.active[slot as usize] = false;
        self.n_active -= 1;
        self.tally.apply(self.shape_at(slot), -1);
    }

    fn active_slots(&self) -> Vec<u32> {
        (0..self.spans.len() as u32)
            .filter(|&s| self.active[s as usize])
            .collect()
    }

    fn clause_eq(&self, slot: u32, c: &Clause) -> bool {
        let (start, len) = self.spans[slot as usize];
        if len as usize != c.len() {
            return false;
        }
        self.lits[start as usize..(start + len) as usize]
            .iter()
            .zip(c.lits())
            .all(|(&code, &l)| code as usize == l.code())
    }

    /// The active clause set as a [`Cnf`] (clauses in slot order — the
    /// order proofs and cores index by).
    pub fn active_cnf(&self) -> Cnf {
        let mut cnf = Cnf::top();
        for slot in self.active_slots() {
            cnf.add_clause(self.clause_at(slot));
        }
        cnf
    }

    /// Reconciles the session with `cnf`: the unchanged prefix of
    /// previously synced clauses is kept (O(1) when `cnf` has only been
    /// appended to since the last sync, by [`Cnf::sync_stamp`]), the
    /// diverged suffix is retracted, and new clauses are pushed.
    pub fn sync(&mut self, cnf: &Cnf) -> SyncOutcome {
        let stamp = cnf.sync_stamp();
        let clauses = cnf.clauses();
        let mut out = SyncOutcome::default();
        let fast = self.sync_key == Some(stamp) && clauses.len() >= self.sync_slots.len();
        let keep = if fast {
            self.sync_slots.len()
        } else {
            out.reloaded = true;
            let mut k = 0;
            while k < self.sync_slots.len()
                && k < clauses.len()
                && self.clause_eq(self.sync_slots[k], &clauses[k])
            {
                k += 1;
            }
            for i in k..self.sync_slots.len() {
                self.retract(self.sync_slots[i]);
                out.retracted += 1;
            }
            self.sync_slots.truncate(k);
            k
        };
        for c in &clauses[keep..] {
            let slot = self.push(c);
            self.sync_slots.push(slot);
            out.appended += 1;
        }
        self.sync_key = Some(stamp);
        if rowpoly_obs::enabled() {
            if fast {
                rowpoly_obs::counter_add("sat.incr.reuse_hits", 1);
            } else {
                rowpoly_obs::counter_add("sat.incr.sync.reloads", 1);
            }
            rowpoly_obs::counter_add("sat.incr.sync.appended", out.appended as u64);
            rowpoly_obs::counter_add("sat.incr.sync.retracted", out.retracted as u64);
        }
        out
    }

    /// A cold session holding exactly the clauses of `cnf`, in order:
    /// the one-shot path for a single SAT question.
    pub fn cold(cnf: &Cnf) -> Session {
        let mut session = Session::new();
        session.sync(cnf);
        session
    }

    /// Decides satisfiability of the active clause set, reusing solver
    /// state from previous calls.
    pub fn solve(&mut self, budget: &SatBudget) -> Result<SatResult, BudgetStop> {
        self.solve_as(self.class(), budget)
    }

    /// [`Session::solve`] with the decision procedure of `class` forced
    /// instead of the active set's own class — the §5 ablation that
    /// runs, say, CDCL on a 2-SAT formula. An active set that is empty
    /// or holds `⊥` is answered directly whatever the class.
    ///
    /// # Panics
    ///
    /// Panics if the active set lies outside `class`'s fragment (a
    /// 3-literal clause for [`SatClass::TwoSat`], two positive literals
    /// for [`SatClass::Horn`]), or if `class` is [`SatClass::Trivial`]
    /// or [`SatClass::Unsat`] for a set that is neither.
    ///
    /// With `ROWPOLY_CHECK_PROOFS=1` every verdict is proved and replayed
    /// by [`ProofChecker`] here, and a bogus one panics.
    pub fn solve_as(
        &mut self,
        class: SatClass,
        budget: &SatBudget,
    ) -> Result<SatResult, BudgetStop> {
        if !check_proofs_enabled() {
            return self.solve_inner(class, budget, false).map(|(r, _)| r);
        }
        let (res, proof) = self.solve_inner(class, budget, true)?;
        let proof = proof.expect("proof requested from solve_inner");
        let cnf = self.active_cnf();
        let t0 = std::time::Instant::now();
        let checked = ProofChecker::check(&cnf, &proof);
        if rowpoly_obs::enabled() {
            rowpoly_obs::hist_record(
                &format!("proof.check_ns.{}", self.class().name()),
                t0.elapsed().as_nanos() as u64,
            );
            rowpoly_obs::counter_add("proof.checked", 1);
        }
        if let Err(e) = checked {
            rowpoly_obs::counter_add("proof.check_failures", 1);
            let verdict = if res.is_sat() { "SAT" } else { "UNSAT" };
            panic!("ROWPOLY_CHECK_PROOFS: bogus {verdict} verdict ({e})\nformula: {cnf:?}");
        }
        Ok(res)
    }

    /// [`Session::solve`] reduced to the verdict bit.
    pub fn check(&mut self, budget: &SatBudget) -> Result<bool, BudgetStop> {
        self.solve(budget).map(|r| r.is_sat())
    }

    /// [`Session::solve`] with a [`Proof`] witness valid against
    /// [`Session::active_cnf`]: SAT verdicts carry the model found,
    /// UNSAT verdicts an unsat core and a derivation of `⊥`.
    pub fn solve_proved(&mut self, budget: &SatBudget) -> Result<(SatResult, Proof), BudgetStop> {
        let (res, proof) = self.solve_inner(self.class(), budget, true)?;
        let proof = proof.expect("proof requested from solve_inner");
        if rowpoly_obs::enabled() {
            match &proof {
                Proof::Sat(_) => rowpoly_obs::counter_add("proof.emitted.sat", 1),
                Proof::Unsat(p) => {
                    rowpoly_obs::counter_add("proof.emitted.unsat", 1);
                    rowpoly_obs::hist_record("proof.core_size", p.core_size() as u64);
                    rowpoly_obs::hist_record("proof.derivation_len", p.derivation_len() as u64);
                }
            }
        }
        Ok((res, proof))
    }

    fn solve_inner(
        &mut self,
        class: SatClass,
        budget: &SatBudget,
        want_proof: bool,
    ) -> Result<(SatResult, Option<Proof>), BudgetStop> {
        rowpoly_obs::counter_add("sat.incr.solves", 1);
        match self.class() {
            SatClass::Trivial => {
                return Ok((
                    SatResult::Sat(Model::new()),
                    want_proof.then(|| Proof::Sat(Model::new())),
                ));
            }
            SatClass::Unsat => {
                let slots = self.active_slots();
                let idx = slots
                    .iter()
                    .position(|&s| self.spans[s as usize].1 == 0)
                    .expect("Unsat class implies an active empty clause");
                return Ok((
                    SatResult::Unsat(Vec::new()),
                    want_proof.then(|| {
                        Proof::Unsat(UnsatProof {
                            core: vec![idx],
                            steps: Vec::new(),
                        })
                    }),
                ));
            }
            _ => {}
        }
        let slots = self.active_slots();
        let engine = std::mem::replace(&mut self.engine, EngineState::None);
        match class {
            SatClass::TwoSat => {
                let mut e = match engine {
                    EngineState::Two(e) if slots.starts_with(&e.fed_slots) => e,
                    old => {
                        self.note_engine_rebuild(&old);
                        TwoEngine::new()
                    }
                };
                let out = self.solve_two(&mut e, &slots, want_proof);
                self.engine = EngineState::Two(e);
                Ok(out)
            }
            SatClass::Horn | SatClass::DualHorn => {
                let flip = class == SatClass::DualHorn;
                let mut e = match engine {
                    EngineState::Horn(e) if e.flip == flip && slots.starts_with(&e.fed_slots) => e,
                    old => {
                        self.note_engine_rebuild(&old);
                        HornEngine::new(flip)
                    }
                };
                let out = self.solve_horn(&mut e, &slots, want_proof);
                self.engine = EngineState::Horn(e);
                Ok(out)
            }
            SatClass::General => {
                let mut e = match engine {
                    EngineState::Cdcl(e) => e,
                    old => {
                        self.note_engine_rebuild(&old);
                        cdcl::Incremental::new()
                    }
                };
                let out = self.solve_cdcl(&mut e, &slots, want_proof, budget);
                self.engine = EngineState::Cdcl(e);
                out
            }
            SatClass::Trivial | SatClass::Unsat => {
                panic!(
                    "`{class}` names no solver engine for a `{}` clause set",
                    self.class()
                )
            }
        }
    }

    fn note_engine_rebuild(&self, old: &EngineState) {
        if rowpoly_obs::enabled() {
            match old {
                EngineState::None => {}
                EngineState::Cdcl(e) => {
                    rowpoly_obs::counter_add("sat.incr.rebuilds", 1);
                    rowpoly_obs::counter_add("sat.incr.learned.dropped", e.learnt_len() as u64);
                }
                _ => rowpoly_obs::counter_add("sat.incr.rebuilds", 1),
            }
        }
    }

    fn solve_two(
        &self,
        e: &mut TwoEngine,
        slots: &[u32],
        want_proof: bool,
    ) -> (SatResult, Option<Proof>) {
        rowpoly_obs::counter_add("sat.twosat.solves", 1);
        if e.contradiction.is_none() && slots.len() > e.fed_slots.len() {
            let mut inserted = Vec::new();
            for &s in &slots[e.fed_slots.len()..] {
                let ci = e.fed_slots.len() as u32;
                let c = self.clause_at(s);
                e.graph.add_clause_edges(&c, ci, &mut inserted);
                e.fed_slots.push(s);
            }
            if e.repair(&inserted) {
                rowpoly_obs::counter_add("sat.incr.twosat.repairs", 1);
            } else {
                rowpoly_obs::counter_add("sat.incr.twosat.rebuilds", 1);
                e.rebuild_sccs();
            }
        }
        match e.contradiction {
            Some(f) => {
                let chain = e.graph.contradiction_chain(f, &e.comp);
                let proof = want_proof.then(|| {
                    Proof::Unsat(e.graph.contradiction_proof(&self.active_cnf(), f, &e.comp))
                });
                (SatResult::Unsat(chain), proof)
            }
            None => {
                let mut model = Model::new();
                for i in 0..e.graph.nflags {
                    let f = e.graph.flags[i];
                    let po = e.order[e.comp[e.graph.code(Lit::pos(f))] as usize];
                    let no = e.order[e.comp[e.graph.code(Lit::neg(f))] as usize];
                    model.insert(f, po < no);
                }
                let proof = want_proof.then(|| Proof::Sat(model.clone()));
                (SatResult::Sat(model), proof)
            }
        }
    }

    fn solve_horn(
        &self,
        e: &mut HornEngine,
        slots: &[u32],
        want_proof: bool,
    ) -> (SatResult, Option<Proof>) {
        let mut propagations = 0u64;
        if e.conflict.is_none() {
            for &s in &slots[e.fed_slots.len()..] {
                let c = self.clause_at(s);
                e.feed(&c);
                e.fed_slots.push(s);
                if e.conflict.is_some() {
                    break;
                }
            }
            e.drain(&mut propagations);
        }
        if rowpoly_obs::enabled() {
            let (solves, props) = if e.flip {
                ("sat.dual-horn.solves", "sat.dual-horn.propagations")
            } else {
                ("sat.horn.solves", "sat.horn.propagations")
            };
            rowpoly_obs::counter_add(solves, 1);
            rowpoly_obs::counter_add(props, propagations);
        }
        match e.conflict {
            Some(violated) => {
                let cnf = self.active_cnf();
                let chain = horn::conflict_chain(&cnf, violated, &e.reason, &e.derived, e.flip);
                let proof = want_proof.then(|| {
                    Proof::Unsat(horn::conflict_proof(
                        &cnf, violated, &e.reason, &e.derived, e.flip,
                    ))
                });
                (SatResult::Unsat(chain), proof)
            }
            None => {
                let model = e.model();
                let proof = want_proof.then(|| Proof::Sat(model.clone()));
                (SatResult::Sat(model), proof)
            }
        }
    }

    fn solve_cdcl(
        &self,
        e: &mut cdcl::Incremental,
        slots: &[u32],
        want_proof: bool,
        budget: &SatBudget,
    ) -> Result<(SatResult, Option<Proof>), BudgetStop> {
        for &s in slots {
            if !e.is_fed(s) {
                e.add(self.clause_at(s).lits(), s);
            }
        }
        let verdict = e.solve(&self.active, budget)?;
        if rowpoly_obs::enabled() {
            rowpoly_obs::counter_add("sat.incr.learned.kept", e.learnt_len() as u64);
        }
        match verdict {
            Some(model) => {
                let proof = want_proof.then(|| Proof::Sat(model.clone()));
                Ok((SatResult::Sat(model), proof))
            }
            None => {
                // The core is every active clause; the learnt clauses
                // that rest on active clauses only derive `⊥` from it.
                let proof = want_proof.then(|| {
                    Proof::Unsat(UnsatProof {
                        core: (0..slots.len()).collect(),
                        steps: e.unsat_steps(&self.active),
                    })
                });
                Ok((SatResult::Unsat(Vec::new()), proof))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Flag;
    use crate::sat::check_model;

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }
    fn clause(lits: Vec<Lit>) -> Clause {
        Clause::new(lits).expect("test clause")
    }

    /// The warm verdict agrees with brute force and with a cold session
    /// over the same active set.
    fn agree(session: &mut Session) {
        let budget = SatBudget::unlimited();
        let cnf = session.active_cnf();
        let universe: Vec<Flag> = cnf.flags().into_iter().collect();
        let incr = session.solve(&budget).expect("incremental");
        let cold = Session::cold(&cnf).solve(&budget).expect("cold");
        assert_eq!(
            incr.is_sat(),
            !cnf.models(&universe).is_empty(),
            "verdict wrong"
        );
        assert_eq!(incr.is_sat(), cold.is_sat(), "warm and cold diverged");
        if let SatResult::Sat(m) = &incr {
            assert!(check_model(&cnf, m), "model invalid");
        }
    }

    #[test]
    fn class_tracks_pushes_and_retracts() {
        let mut s = Session::new();
        assert_eq!(s.class(), SatClass::Trivial);
        let a = s.push(&clause(vec![p(0), n(1)]));
        assert_eq!(s.class(), SatClass::TwoSat);
        let b = s.push(&clause(vec![p(0), p(1), p(2)]));
        assert_eq!(s.class(), SatClass::DualHorn);
        let c = s.push(&clause(vec![n(0), n(1), n(2)]));
        assert_eq!(s.class(), SatClass::General);
        s.retract(b);
        assert_eq!(s.class(), SatClass::Horn);
        s.retract(c);
        assert_eq!(s.class(), SatClass::TwoSat);
        s.retract(a);
        assert_eq!(s.class(), SatClass::Trivial);
    }

    #[test]
    fn twosat_incremental_matches_cold_across_adds() {
        let mut s = Session::new();
        s.push(&clause(vec![n(0), p(1)]));
        agree(&mut s);
        s.push(&clause(vec![n(1), p(2)]));
        agree(&mut s);
        s.push(&clause(vec![p(0)]));
        agree(&mut s);
        // Close the contradiction cycle: f2 → ¬f0.
        s.push(&clause(vec![n(2), n(0)]));
        agree(&mut s);
        assert!(!s.check(&SatBudget::unlimited()).unwrap());
        // Retraction reopens it.
        s.retract(3);
        agree(&mut s);
        assert!(s.check(&SatBudget::unlimited()).unwrap());
    }

    #[test]
    fn horn_keeps_propagation_warm() {
        let mut s = Session::new();
        s.push(&clause(vec![p(0)]));
        s.push(&clause(vec![n(0), n(1), p(2)]));
        agree(&mut s);
        s.push(&clause(vec![p(1)]));
        agree(&mut s);
        s.push(&clause(vec![n(2)]));
        agree(&mut s);
        assert!(!s.check(&SatBudget::unlimited()).unwrap());
    }

    #[test]
    fn cdcl_retraction_via_assumptions() {
        let mut s = Session::new();
        // Pigeonhole 3→2 plus a side general clause; unsat.
        let v = |pigeon: u32, hole: u32| Flag(pigeon * 2 + hole);
        for pigeon in 0..3 {
            s.push(&clause(vec![
                Lit::pos(v(pigeon, 0)),
                Lit::pos(v(pigeon, 1)),
            ]));
        }
        let mut pair_slots = Vec::new();
        for hole in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    pair_slots
                        .push(s.push(&clause(vec![Lit::neg(v(p1, hole)), Lit::neg(v(p2, hole))])));
                }
            }
        }
        // Keep the instance in the general class throughout.
        s.push(&clause(vec![p(10), p(11), p(12)]));
        s.push(&clause(vec![n(10), n(11), n(12)]));
        agree(&mut s);
        assert!(!s.check(&SatBudget::unlimited()).unwrap());
        // Retract one at-most-one constraint: now satisfiable.
        s.retract(pair_slots[0]);
        agree(&mut s);
        // And make it unsat again with a fresh clause.
        let f = s.push(&clause(vec![Lit::neg(v(0, 0)), Lit::neg(v(1, 0))]));
        agree(&mut s);
        s.retract(f);
        agree(&mut s);
    }

    #[test]
    fn cdcl_unsat_core_names_active_slots_and_proof_replays() {
        let mut s = Session::new();
        s.push(&clause(vec![p(0), p(1), p(2)]));
        s.push(&clause(vec![n(0), n(1), n(2)]));
        s.push(&clause(vec![p(0), n(1)]));
        s.push(&clause(vec![p(1), n(2)]));
        s.push(&clause(vec![p(2), n(0)]));
        s.push(&clause(vec![n(0), p(1)]));
        s.push(&clause(vec![n(1), p(2)]));
        assert_eq!(s.class(), SatClass::General);
        // Force unsat: all-equal via the implications plus the two
        // covering clauses is still sat; pin both polarities down.
        s.push(&clause(vec![p(0), p(1)]));
        s.push(&clause(vec![n(2), n(0)]));
        let budget = SatBudget::unlimited();
        let (res, proof) = s.solve_proved(&budget).expect("solve");
        if !res.is_sat() {
            ProofChecker::check(&s.active_cnf(), &proof).expect("proof replays");
        }
        agree(&mut s);
    }

    #[test]
    fn sync_appends_and_reloads() {
        let mut s = Session::new();
        let mut cnf = Cnf::top();
        cnf.add_lits(vec![p(0), n(1)]);
        cnf.add_lits(vec![p(1)]);
        let o1 = s.sync(&cnf);
        assert_eq!((o1.appended, o1.retracted), (2, 0));
        assert!(o1.reloaded, "first sync has no recorded stamp");
        agree(&mut s);
        // Pure append: fast path.
        cnf.add_lits(vec![n(0), p(2)]);
        let o2 = s.sync(&cnf);
        assert_eq!((o2.appended, o2.retracted, o2.reloaded), (1, 0, false));
        agree(&mut s);
        // Structural change (normalize sorts): slow path, prefix rediff.
        cnf.normalize();
        let o3 = s.sync(&cnf);
        assert!(o3.reloaded);
        agree(&mut s);
        assert_eq!(s.active_len(), cnf.len());
        // A clone gets a fresh identity: divergent edits cannot alias.
        let mut clone = cnf.clone();
        clone.add_lits(vec![n(2)]);
        let o4 = s.sync(&clone);
        assert!(o4.reloaded);
        assert_eq!(o4.appended, 1);
        agree(&mut s);
    }

    #[test]
    fn empty_clause_roundtrip() {
        let mut s = Session::new();
        s.push(&clause(vec![p(0)]));
        let e = s.push(&Clause::empty());
        assert_eq!(s.class(), SatClass::Unsat);
        let (res, proof) = s.solve_proved(&SatBudget::unlimited()).expect("solve");
        assert!(!res.is_sat());
        ProofChecker::check(&s.active_cnf(), &proof).expect("empty-clause core replays");
        s.retract(e);
        agree(&mut s);
        assert!(s.check(&SatBudget::unlimited()).unwrap());
    }
}
