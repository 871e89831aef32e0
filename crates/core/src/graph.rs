//! Per-definition dependency graphs over parsed programs.
//!
//! A program's definitions read as one let-chain, but a definition only
//! *needs* the definitions it references. This module recovers that
//! structure; every entry point infers a program group by group on it:
//!
//! * A reference resolves to the **latest preceding** definition of
//!   that name, as in the let-chain. Forward references (and anything
//!   else unresolved that is not a list built-in) are *ambient*: the
//!   group step binds them to fresh monomorphic types.
//! * Definitions that share an ambient variable are correlated through
//!   the shared monomorphic binding, so they are grouped into one unit
//!   and checked serially inside it — splitting them would give each
//!   its own copy of the variable and could accept programs the
//!   let-chain rejects. A definition depending on one that reads an
//!   ambient name joins its group too: `def f = x` keeps `x`'s type
//!   free, and `def g = f + 1` binds it for every reader of `f`.
//! * Groups are closed to contiguous index intervals. This keeps every
//!   dependency edge pointing at a strictly earlier interval, so the
//!   group graph is acyclic by construction (a group can never need a
//!   scheme produced after its own first member), and running the
//!   groups in index order meets failures in source order.
//!
//! The result is a DAG of [`Group`]s whose topological *waves* bound
//! the parallelism available in the file.

use std::collections::{BTreeMap, BTreeSet};

use rowpoly_lang::{Program, Symbol};

use crate::driver::BUILTINS;

/// One schedulable unit: a contiguous run of definitions checked
/// serially in a single engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// Indices into `program.defs`, ascending and contiguous.
    pub def_indices: Vec<usize>,
    /// For every out-of-group definition the group references: the
    /// referenced name and the index of the definition it resolves to.
    /// Sorted by name, one entry per name.
    pub deps: BTreeMap<Symbol, usize>,
    /// Groups (by index into [`ProgramGraph::groups`]) this group needs
    /// schemes from. Strictly smaller indices.
    pub dep_groups: Vec<usize>,
    /// Topological level: 1 + the maximum wave of any dependency
    /// (wave 0 for independent groups).
    pub wave: usize,
    /// The free names of the members' let-chain, sorted: every name a
    /// member references that no member at or before it defines. These
    /// are exactly the names the let-chain's environment supplies, so a
    /// forward reference to a later member counts. Dependency
    /// resolution already walked every body, so the set is kept here
    /// and handed to [`crate::GroupSpec::free_names`] — jobs must not
    /// re-walk their ASTs on every (re-)run.
    pub free_names: Vec<Symbol>,
}

/// The dependency structure of one parsed program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramGraph {
    /// Groups in ascending interval order (group `g`'s definitions all
    /// precede group `g+1`'s).
    pub groups: Vec<Group>,
    /// For each definition index, the group that owns it.
    pub group_of: Vec<usize>,
    /// Number of topological waves (0 for an empty program).
    pub waves: usize,
}

impl ProgramGraph {
    /// Builds the graph for a parsed program.
    pub fn build(program: &Program) -> ProgramGraph {
        let n = program.defs.len();
        let builtins: BTreeSet<Symbol> = BUILTINS.iter().map(|s| Symbol::intern(s)).collect();

        // Resolve references and find each definition's ambient names,
        // keeping the raw free-variable sets: the groups publish their
        // let-chain's free names so jobs never re-walk the ASTs.
        let mut resolved: Vec<BTreeMap<Symbol, usize>> = Vec::with_capacity(n);
        let mut ambient: Vec<BTreeSet<Symbol>> = Vec::with_capacity(n);
        let mut free_of: Vec<BTreeSet<Symbol>> = Vec::with_capacity(n);
        let mut latest: BTreeMap<Symbol, usize> = BTreeMap::new();
        for (i, def) in program.defs.iter().enumerate() {
            let free = def.body.free_vars();
            let mut deps = BTreeMap::new();
            let mut amb = BTreeSet::new();
            for &name in &free {
                if name == def.name {
                    // Self-recursion, handled by the fixpoint inside
                    // `infer_def`; not a dependency edge.
                    continue;
                }
                if let Some(&j) = latest.get(&name) {
                    deps.insert(name, j);
                } else if !builtins.contains(&name) {
                    amb.insert(name);
                }
            }
            resolved.push(deps);
            ambient.push(amb);
            free_of.push(free);
            latest.insert(def.name, i);
        }

        // Union definitions sharing an ambient name, and each one with
        // every dependency that reads one, directly or through its own
        // dependencies (edges point backwards: one pass settles them).
        // Then close each component to a contiguous interval.
        let mut uf = UnionFind::new(n);
        let mut first_with: BTreeMap<Symbol, usize> = BTreeMap::new();
        let mut reads_ambient = vec![false; n];
        for (i, amb) in ambient.iter().enumerate() {
            for &name in amb {
                uf.union(i, *first_with.entry(name).or_insert(i));
            }
            let mut reads = !amb.is_empty();
            for &j in resolved[i].values().filter(|&&j| reads_ambient[j]) {
                uf.union(i, j);
                reads = true;
            }
            reads_ambient[i] = reads;
        }
        let mut span_of: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for i in 0..n {
            let root = uf.find(i);
            let entry = span_of.entry(root).or_insert((i, i));
            entry.0 = entry.0.min(i);
            entry.1 = entry.1.max(i);
        }
        let mut intervals: Vec<(usize, usize)> = span_of.values().copied().collect();
        intervals.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for (lo, hi) in intervals {
            match merged.last_mut() {
                Some((_, phi)) if lo <= *phi => *phi = (*phi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        // Intervals cover singletons too, so `merged` partitions 0..n.

        let mut group_of = vec![0usize; n];
        let mut groups: Vec<Group> = Vec::with_capacity(merged.len());
        for (g, &(lo, hi)) in merged.iter().enumerate() {
            for slot in &mut group_of[lo..=hi] {
                *slot = g;
            }
            // Free in `let d_lo = e_lo in … let d_hi = e_hi in d_hi`
            // (each `let` is recursive).
            let mut chain_free: BTreeSet<Symbol> = BTreeSet::new();
            let mut defined: BTreeSet<Symbol> = BTreeSet::new();
            for (def, free) in program.defs[lo..=hi].iter().zip(&free_of[lo..=hi]) {
                defined.insert(def.name);
                chain_free.extend(free.difference(&defined));
            }
            groups.push(Group {
                def_indices: (lo..=hi).collect(),
                deps: BTreeMap::new(),
                dep_groups: Vec::new(),
                wave: 0,
                free_names: chain_free.into_iter().collect(),
            });
        }

        // Lift definition dependencies to group edges; in-group
        // references are satisfied by the group's serial environment.
        for (g, group) in groups.iter_mut().enumerate() {
            let mut dep_groups: BTreeSet<usize> = BTreeSet::new();
            let lo = group.def_indices[0];
            for &i in &group.def_indices {
                for (&name, &j) in &resolved[i] {
                    if j >= lo {
                        continue;
                    }
                    group.deps.insert(name, j);
                    dep_groups.insert(group_of[j]);
                }
            }
            debug_assert!(dep_groups.iter().all(|&d| d < g));
            group.dep_groups = dep_groups.into_iter().collect();
        }

        // Waves: groups are already in topological (interval) order.
        let mut waves = 0usize;
        for g in 0..groups.len() {
            let wave = groups[g]
                .dep_groups
                .iter()
                .map(|&d| groups[d].wave + 1)
                .max()
                .unwrap_or(0);
            groups[g].wave = wave;
            waves = waves.max(wave + 1);
        }

        ProgramGraph {
            groups,
            group_of,
            waves,
        }
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_lang::parse_program;

    fn graph(src: &str) -> ProgramGraph {
        ProgramGraph::build(&parse_program(src).expect("parses"))
    }

    #[test]
    fn independent_defs_get_singleton_groups_in_one_wave() {
        let g = graph("def a = 1\ndef b = 2\ndef c = 3");
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.waves, 1);
        assert!(g.groups.iter().all(|gr| gr.dep_groups.is_empty()));
    }

    #[test]
    fn references_create_backward_edges_and_waves() {
        let g = graph("def a = 1\ndef b = a + 1\ndef c = b + a");
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.groups[1].dep_groups, vec![0]);
        assert_eq!(g.groups[2].dep_groups, vec![0, 1]);
        assert_eq!(g.waves, 3);
    }

    #[test]
    fn shadowing_resolves_to_latest_preceding() {
        let g = graph("def a = 1\ndef a = \"s\"\ndef use = a");
        let dep = *g.groups[2].deps.values().next().expect("one dep");
        assert_eq!(dep, 1);
    }

    #[test]
    fn shared_ambient_variable_merges_the_interval() {
        // `a` and `c` share the ambient `mystery`; `b` sits between
        // them, so the whole interval [0, 2] becomes one group.
        let g = graph("def a = mystery\ndef b = 2\ndef c = mystery\ndef d = 4");
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.groups[0].def_indices, vec![0, 1, 2]);
        assert_eq!(g.groups[1].def_indices, vec![3]);
    }

    #[test]
    fn dependents_of_an_ambient_reader_join_its_group() {
        // `g` and `k` read `x` only through `f`, whose type is `x`'s:
        // `g` binds it to `Int` for `k` as well, so all three run in
        // one engine. `c` depends on nothing ambient and stays apart,
        // as does `d`, whose dependency `c` reads no ambient name.
        let g = graph("def f = x\ndef g = f + 1\ndef k = #foo f\ndef c = 1\ndef d = c");
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.groups[0].def_indices, vec![0, 1, 2]);
        assert_eq!(g.groups[0].free_names, vec![Symbol::intern("x")]);
        assert_eq!(g.groups[2].dep_groups, vec![1]);
        // Transitively: `h` reads `x` through `g`, which reads it
        // through `f`.
        let g = graph("def f = x\ndef one = 1\ndef g = f\ndef h = g");
        assert_eq!(g.groups.len(), 1);
    }

    #[test]
    fn builtins_and_self_recursion_are_not_ambient() {
        let g = graph("def f xs = if null xs then 0 else f (tail xs)\ndef g2 = 1");
        assert_eq!(g.groups.len(), 2);
        assert!(g.groups[0].deps.is_empty());
    }
}
