//! Linear-time 2-SAT via strongly connected components.
//!
//! The inference rules for the core record operations (empty record,
//! select, update) generate only atoms and two-variable Horn clauses, so
//! satisfiability of the resulting Boolean function is a 2-SAT instance
//! decidable in linear time (Aspvall–Plass–Tarjan). [`TwoEngine`] keeps
//! the implication graph and its SCC decomposition warm inside a
//! [`crate::Session`]. Beyond the verdict, it extracts the *implication
//! path* witnessing a contradiction, which the type checker turns into
//! the "path from an empty record to a field access" diagnostic promised
//! by the paper's Observation 1.

use std::collections::BTreeMap;

use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::lit::{Flag, Lit};
use crate::proof::{ClauseRef, DerivationStep, UnsatProof};

pub(crate) struct ImplicationGraph {
    pub(crate) nflags: usize,
    /// Dense index → sparse flag.
    pub(crate) flags: Vec<Flag>,
    /// Sparse flag → dense index.
    dense: std::collections::HashMap<Flag, usize>,
    /// Adjacency: edges[dense lit code] = successors (sparse literal,
    /// index of the input clause the edge encodes). The edge `a → b`
    /// stands for the clause `{¬a, b}` (a unit `{l}` yields `¬l → l`),
    /// which is what lets an implication path replay as a chain of
    /// resolutions in [`ImplicationGraph::contradiction_proof`].
    edges: Vec<Vec<(Lit, u32)>>,
}

impl ImplicationGraph {
    /// Dense code of a (sparse) literal.
    pub(crate) fn code(&self, l: Lit) -> usize {
        self.dense[&l.flag()] << 1 | l.is_neg() as usize
    }

    /// A graph over no flags, grown clause by clause via
    /// [`ImplicationGraph::add_clause_edges`].
    fn empty() -> ImplicationGraph {
        ImplicationGraph {
            nflags: 0,
            flags: Vec::new(),
            dense: std::collections::HashMap::new(),
            edges: Vec::new(),
        }
    }

    /// Allocates a node pair for `f` on first mention.
    fn ensure_flag(&mut self, f: Flag) {
        if self.dense.contains_key(&f) {
            return;
        }
        self.dense.insert(f, self.nflags);
        self.nflags += 1;
        self.flags.push(f);
        self.edges.push(Vec::new());
        self.edges.push(Vec::new());
    }

    /// Inserts the implication edges for one clause (allocating nodes
    /// for unseen flags) and reports them as dense `(from, to)` node
    /// pairs so the engine can repair its SCC bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics on the empty clause (the session answers that class
    /// without an engine) and on clauses with more than two literals.
    pub(crate) fn add_clause_edges(
        &mut self,
        c: &Clause,
        ci: u32,
        inserted: &mut Vec<(usize, usize)>,
    ) {
        match *c.lits() {
            [l] => {
                // Unit clause l: edge ¬l → l.
                self.ensure_flag(l.flag());
                let from = self.code(l.negate());
                self.edges[from].push((l, ci));
                inserted.push((from, self.code(l)));
            }
            [a, b] => {
                self.ensure_flag(a.flag());
                self.ensure_flag(b.flag());
                let from_a = self.code(a.negate());
                self.edges[from_a].push((b, ci));
                inserted.push((from_a, self.code(b)));
                let from_b = self.code(b.negate());
                self.edges[from_b].push((a, ci));
                inserted.push((from_b, self.code(a)));
            }
            _ => panic!("2-SAT engine given a clause of {} literals: {c:?}", c.len()),
        }
    }

    /// Iterative Tarjan SCC; returns component ids in completion order
    /// (component 0 completes first, i.e. is a sink).
    pub(crate) fn tarjan(&self) -> Vec<u32> {
        const UNVISITED: u32 = u32::MAX;
        let n = self.edges.len();
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![UNVISITED; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0u32;
        let mut next_comp = 0u32;
        // Explicit DFS stack: (node, next child position).
        let mut call: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != UNVISITED {
                continue;
            }
            call.push((start, 0));
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut child)) = call.last_mut() {
                if *child < self.edges[v].len() {
                    let w = self.code(self.edges[v][*child].0);
                    *child += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                }
            }
        }
        comp
    }

    /// For a flag whose literals share a component, extracts the cyclic
    /// implication chain `f → … → ¬f → … → f` as a literal sequence.
    pub(crate) fn contradiction_chain(&self, f: Flag, comp: &[u32]) -> Vec<Lit> {
        let pos = Lit::pos(f);
        let neg = Lit::neg(f);
        let there = self
            .path_within(pos, neg, comp)
            .map(|p| p.0)
            .unwrap_or_default();
        let back = self
            .path_within(neg, pos, comp)
            .map(|p| p.0)
            .unwrap_or_default();
        let mut chain = there;
        // Avoid repeating the pivot literal between the two halves.
        chain.extend(back.into_iter().skip(1));
        chain
    }

    /// Resolution refutation along the two contradictory implication
    /// paths: the path `f → … → ¬f` chain-resolves its edge clauses into
    /// the unit `{¬f}`, the reverse path into `{f}`, and one final
    /// resolution yields `⊥`. The core is exactly the edge clauses on
    /// the two paths.
    pub(crate) fn contradiction_proof(&self, cnf: &Cnf, f: Flag, comp: &[u32]) -> UnsatProof {
        let pos = Lit::pos(f);
        let neg = Lit::neg(f);
        let (there_nodes, there_clauses) = self
            .path_within(pos, neg, comp)
            .expect("pos and neg share a strongly connected component");
        let (back_nodes, back_clauses) = self
            .path_within(neg, pos, comp)
            .expect("pos and neg share a strongly connected component");
        let mut steps: Vec<DerivationStep> = Vec::new();
        let neg_unit = chain_resolve(cnf, &there_nodes, &there_clauses, &mut steps);
        let pos_unit = chain_resolve(cnf, &back_nodes, &back_clauses, &mut steps);
        steps.push(DerivationStep::Resolve {
            left: pos_unit,
            right: neg_unit,
            pivot: pos,
            resolvent: Clause::empty(),
        });
        let mut core: Vec<usize> = there_clauses
            .iter()
            .chain(&back_clauses)
            .map(|&c| c as usize)
            .collect();
        core.sort_unstable();
        core.dedup();
        UnsatProof { core, steps }
    }

    /// BFS from `from` to `to` restricted to `from`'s component. Returns
    /// the node sequence (length k+1) and the input clause index of each
    /// edge along it (length k).
    fn path_within(&self, from: Lit, to: Lit, comp: &[u32]) -> Option<(Vec<Lit>, Vec<u32>)> {
        let cid = comp[self.code(from)];
        // prev[node] = (predecessor, clause of the edge predecessor→node).
        let mut prev: BTreeMap<usize, (Lit, u32)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        prev.insert(self.code(from), (from, u32::MAX));
        while let Some(v) = queue.pop_front() {
            if v == to {
                let mut path = vec![to];
                let mut clauses = Vec::new();
                let mut cur = to;
                while cur != from {
                    let (pred, ci) = prev[&self.code(cur)];
                    clauses.push(ci);
                    cur = pred;
                    path.push(cur);
                }
                path.reverse();
                clauses.reverse();
                return Some((path, clauses));
            }
            for &(w, ci) in &self.edges[self.code(v)] {
                if comp[self.code(w)] == cid && !prev.contains_key(&self.code(w)) {
                    prev.insert(self.code(w), (v, ci));
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

/// Spacing between topological keys assigned on a rebuild, leaving room
/// for midpoint-free O(1) insertions on either side.
const GAP: u64 = 1 << 32;
/// Keys start here so below-minimum placements have headroom.
const BASE: u64 = 1 << 48;
const UNPLACED: u64 = u64::MAX;

/// Incremental 2-SAT: the persistent implication graph plus a cached
/// SCC decomposition.
///
/// `comp` assigns every literal node its exact SCC id; `order[c]` is a
/// topological key such that every edge `u → v` satisfies
/// `comp[u] == comp[v]` or `order[comp[v]] < order[comp[u]]` (strict;
/// all placed keys are unique). Under that invariant a new edge that
/// also satisfies it cannot create a new SCC — a cycle through it would
/// need a return path along which keys never increase — so insertion is
/// O(1) and a full Tarjan rebuild is needed only when the check fails.
/// New singleton components are keyed outside the current `[min, max]`
/// range, which keeps placements unique without probing.
///
/// The model reads `f ↦ order[comp[f]] < order[comp[¬f]]`, which after
/// a rebuild (keys monotone in comp id) coincides with the
/// Aspvall–Plass–Tarjan rule `comp[f] < comp[¬f]`. A contradiction
/// (`comp[f] == comp[¬f]`) can only appear through a rebuild — repairs
/// never merge components — so once found it is latched and feeding
/// stops; adding clauses cannot un-falsify a formula.
pub(crate) struct TwoEngine {
    pub(crate) graph: ImplicationGraph,
    pub(crate) comp: Vec<u32>,
    pub(crate) order: Vec<u64>,
    /// (min, max) of all placed keys; `None` before the first placement.
    bounds: Option<(u64, u64)>,
    pub(crate) contradiction: Option<Flag>,
    pub(crate) fed_slots: Vec<u32>,
}

impl TwoEngine {
    pub(crate) fn new() -> TwoEngine {
        TwoEngine {
            graph: ImplicationGraph::empty(),
            comp: Vec::new(),
            order: Vec::new(),
            bounds: None,
            contradiction: None,
            fed_slots: Vec::new(),
        }
    }

    fn place_low(&mut self) -> Option<u64> {
        match self.bounds {
            Some((lo, hi)) => {
                let v = lo.checked_sub(GAP)?;
                self.bounds = Some((v, hi));
                Some(v)
            }
            None => {
                self.bounds = Some((BASE, BASE));
                Some(BASE)
            }
        }
    }

    fn place_high(&mut self) -> Option<u64> {
        match self.bounds {
            Some((lo, hi)) => {
                let v = hi.checked_add(GAP)?;
                self.bounds = Some((lo, v));
                Some(v)
            }
            None => {
                self.bounds = Some((BASE, BASE));
                Some(BASE)
            }
        }
    }

    /// Repairs the SCC bookkeeping for freshly inserted edges. Returns
    /// `false` when a full rebuild is required instead.
    pub(crate) fn repair(&mut self, inserted: &[(usize, usize)]) -> bool {
        // New nodes become fresh singleton components, keyed lazily on
        // their first edge.
        let nodes = 2 * self.graph.nflags;
        while self.comp.len() < nodes {
            self.comp.push(self.order.len() as u32);
            self.order.push(UNPLACED);
        }
        for &(u, v) in inserted {
            let (cu, cv) = (self.comp[u] as usize, self.comp[v] as usize);
            if cu == cv {
                continue;
            }
            match (self.order[cu] == UNPLACED, self.order[cv] == UNPLACED) {
                (false, false) => {
                    if self.order[cv] >= self.order[cu] {
                        return false;
                    }
                }
                (true, true) => {
                    let (Some(lo), Some(hi)) = (self.place_low(), self.place_high()) else {
                        return false;
                    };
                    self.order[cv] = lo;
                    self.order[cu] = hi;
                }
                (false, true) => {
                    let Some(lo) = self.place_low() else {
                        return false;
                    };
                    self.order[cv] = lo;
                }
                (true, false) => {
                    let Some(hi) = self.place_high() else {
                        return false;
                    };
                    self.order[cu] = hi;
                }
            }
        }
        true
    }

    /// Full Tarjan pass: exact components, keys monotone in comp id,
    /// contradiction rescan.
    pub(crate) fn rebuild_sccs(&mut self) {
        self.comp = self.graph.tarjan();
        let ncomps = self.comp.iter().copied().max().map_or(0, |m| m as u64 + 1);
        self.order = (0..ncomps).map(|c| BASE + c * GAP).collect();
        self.bounds = (ncomps > 0).then(|| (BASE, BASE + (ncomps - 1) * GAP));
        // Latch the lowest contradictory flag, so the reported chain
        // does not depend on the order flags were first mentioned in.
        self.contradiction = self
            .graph
            .flags
            .iter()
            .copied()
            .filter(|&f| {
                self.comp[self.graph.code(Lit::pos(f))] == self.comp[self.graph.code(Lit::neg(f))]
            })
            .min();
    }
}

/// Chain-resolves the edge clauses of the implication path
/// `nodes[0] → … → nodes[k]` into the unit clause `{¬nodes[0]}`,
/// appending the steps and returning a reference to the final clause.
///
/// Invariant: edge `i` (clause `clauses[i]`) is `{¬nodes[i], nodes[i+1]}`
/// — or the unit `{nodes[i+1]}` when `nodes[i] = ¬nodes[i+1]` — so the
/// running resolvent after edge `i` is `{¬nodes[0], nodes[i+1]}`, which
/// collapses to `{¬nodes[0]}` at the path's end (where
/// `nodes[k] = ¬nodes[0]`) or as soon as a unit edge clause strikes the
/// intermediate literal out.
fn chain_resolve(
    cnf: &Cnf,
    nodes: &[Lit],
    clauses: &[u32],
    steps: &mut Vec<DerivationStep>,
) -> ClauseRef {
    let goal = Clause::unit(nodes[0].negate());
    let first = clauses[0] as usize;
    let mut cur_ref = ClauseRef::Input(first);
    let mut cur = cnf.clauses()[first].clone();
    for i in 1..clauses.len() {
        if cur == goal {
            break;
        }
        let pivot = nodes[i];
        debug_assert!(cur.contains(pivot), "running resolvent carries the pivot");
        let right = clauses[i] as usize;
        let resolvent = cur
            .resolve(&cnf.clauses()[right], pivot)
            .expect("2-SAT path resolution cannot produce a tautology");
        steps.push(DerivationStep::Resolve {
            left: cur_ref,
            right: ClauseRef::Input(right),
            pivot,
            resolvent: resolvent.clone(),
        });
        cur_ref = ClauseRef::Derived(steps.len() - 1);
        cur = resolvent;
    }
    debug_assert_eq!(cur, goal, "path chain resolves to the unit {goal:?}");
    cur_ref
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::SatClass;
    use crate::sat::session::Session;
    use crate::sat::{check_model, SatBudget, SatResult};

    /// Solves `b` with the 2-SAT engine.
    fn two_sat(b: &Cnf) -> SatResult {
        Session::cold(b)
            .solve_as(SatClass::TwoSat, &SatBudget::unlimited())
            .expect("linear engines ignore the budget")
    }

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }

    #[test]
    fn satisfiable_chain() {
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        b.imply(p(1), p(2));
        b.assert_lit(p(0));
        match two_sat(&b) {
            SatResult::Sat(m) => {
                assert!(check_model(&b, &m));
                assert_eq!(m.get(&Flag(0)), Some(&true));
                assert_eq!(m.get(&Flag(2)), Some(&true));
            }
            SatResult::Unsat(_) => panic!("should be sat"),
        }
    }

    #[test]
    fn contradiction_has_chain_through_both_polarities() {
        // f0 → f1, f1 → ¬f0, f0: forces f0 and ¬f0.
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        b.imply(p(1), n(0));
        b.assert_lit(p(0));
        match two_sat(&b) {
            SatResult::Unsat(chain) => {
                assert!(!chain.is_empty());
                let flags: Vec<Flag> = chain.iter().map(|l| l.flag()).collect();
                assert!(flags.contains(&Flag(0)));
            }
            SatResult::Sat(_) => panic!("should be unsat"),
        }
    }

    #[test]
    fn pure_negative_units_are_fine() {
        let mut b = Cnf::top();
        b.assert_lit(n(0));
        b.assert_lit(n(1));
        b.imply(p(0), p(1));
        assert!(two_sat(&b).is_sat());
    }

    #[test]
    fn two_units_conflict() {
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.assert_lit(n(0));
        match two_sat(&b) {
            SatResult::Unsat(chain) => assert!(!chain.is_empty()),
            SatResult::Sat(_) => panic!("should be unsat"),
        }
    }

    #[test]
    fn long_implication_cycle_is_sat() {
        let mut b = Cnf::top();
        for i in 0..100 {
            b.imply(p(i), p((i + 1) % 100));
        }
        assert!(two_sat(&b).is_sat());
    }

    #[test]
    fn model_respects_equivalences() {
        let mut b = Cnf::top();
        b.iff(p(0), p(1));
        b.iff(p(1), n(2));
        b.assert_lit(p(2));
        match two_sat(&b) {
            SatResult::Sat(m) => {
                assert!(check_model(&b, &m));
                assert_eq!(m[&Flag(0)], m[&Flag(1)]);
                assert_eq!(m[&Flag(1)], !m[&Flag(2)]);
                assert!(m[&Flag(2)]);
            }
            SatResult::Unsat(_) => panic!("should be sat"),
        }
    }
}
