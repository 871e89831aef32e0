//! Linear-time 2-SAT via strongly connected components.
//!
//! The inference rules for the core record operations (empty record,
//! select, update) generate only atoms and two-variable Horn clauses, so
//! satisfiability of the resulting Boolean function is a 2-SAT instance
//! decidable in linear time (Aspvall–Plass–Tarjan): [`solve`] builds the
//! implication graph and runs one Tarjan pass. Beyond the verdict, it
//! extracts the *implication path* witnessing a contradiction, which the
//! type checker turns into the "path from an empty record to a field
//! access" diagnostic promised by the paper's Observation 1.

use std::collections::BTreeMap;

use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::lit::{Flag, Lit};
use crate::proof::{ClauseRef, DerivationStep, Proof, UnsatProof};
use crate::sat::{Model, SatResult};

struct ImplicationGraph {
    /// Dense index → sparse flag.
    flags: Vec<Flag>,
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
    /// The implication graph of `cnf`, flags numbered by first mention.
    ///
    /// # Panics
    ///
    /// Panics on clauses with other than one or two literals.
    fn new(cnf: &Cnf) -> ImplicationGraph {
        let mut g = ImplicationGraph {
            flags: Vec::new(),
            dense: std::collections::HashMap::new(),
            edges: Vec::new(),
        };
        for (ci, c) in cnf.clauses().iter().enumerate() {
            let ci = ci as u32;
            match *c.lits() {
                [l] => {
                    // Unit clause l: edge ¬l → l.
                    g.ensure_flag(l.flag());
                    let from = g.code(l.negate());
                    g.edges[from].push((l, ci));
                }
                [a, b] => {
                    g.ensure_flag(a.flag());
                    g.ensure_flag(b.flag());
                    let from_a = g.code(a.negate());
                    g.edges[from_a].push((b, ci));
                    let from_b = g.code(b.negate());
                    g.edges[from_b].push((a, ci));
                }
                _ => panic!("2-SAT engine given a clause of {} literals: {c:?}", c.len()),
            }
        }
        g
    }

    /// Dense code of a (sparse) literal.
    fn code(&self, l: Lit) -> usize {
        self.dense[&l.flag()] << 1 | l.is_neg() as usize
    }

    /// Allocates a node pair for `f` on first mention.
    fn ensure_flag(&mut self, f: Flag) {
        if self.dense.contains_key(&f) {
            return;
        }
        self.dense.insert(f, self.flags.len());
        self.flags.push(f);
        self.edges.push(Vec::new());
        self.edges.push(Vec::new());
    }

    /// Iterative Tarjan SCC; returns component ids in completion order
    /// (component 0 completes first, i.e. is a sink).
    fn tarjan(&self) -> Vec<u32> {
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
    fn contradiction_chain(&self, f: Flag, comp: &[u32]) -> Vec<Lit> {
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
    fn contradiction_proof(&self, cnf: &Cnf, f: Flag, comp: &[u32]) -> UnsatProof {
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

/// Decides a 2-SAT formula (no empty clause, at most two literals per
/// clause). A flag whose two literals share a strongly connected
/// component makes the formula unsatisfiable; the lowest such flag is
/// reported, so the chain does not depend on the order flags were first
/// mentioned in. Otherwise the model is the Aspvall–Plass–Tarjan rule
/// `f ↦ comp[f] < comp[¬f]`.
pub(crate) fn solve(cnf: &Cnf, want_proof: bool) -> (SatResult, Option<Proof>) {
    rowpoly_obs::counter_add("sat.twosat.solves", 1);
    let graph = ImplicationGraph::new(cnf);
    let comp = graph.tarjan();
    let lit_comp = |l: Lit| comp[graph.code(l)];
    let contradiction = graph
        .flags
        .iter()
        .copied()
        .filter(|&f| lit_comp(Lit::pos(f)) == lit_comp(Lit::neg(f)))
        .min();
    match contradiction {
        Some(f) => {
            let chain = graph.contradiction_chain(f, &comp);
            let proof = want_proof.then(|| Proof::Unsat(graph.contradiction_proof(cnf, f, &comp)));
            (SatResult::Unsat(chain), proof)
        }
        None => {
            let model: Model = graph
                .flags
                .iter()
                .map(|&f| (f, lit_comp(Lit::pos(f)) < lit_comp(Lit::neg(f))))
                .collect();
            let proof = want_proof.then(|| Proof::Sat(model.clone()));
            (SatResult::Sat(model), proof)
        }
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
    use crate::sat::{check_model, solve_as, SatBudget};

    /// Solves `b` with the 2-SAT engine.
    fn two_sat(b: &Cnf) -> SatResult {
        solve_as(b, SatClass::TwoSat, &SatBudget::unlimited())
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
