//! Strongly connected components for cycle-collapsed propagation.
//!
//! Assign-cycles in the pointer flow graph (mutually-assigned variables,
//! recursive parameter/return chains) are where a delta-propagating solver
//! burns most of its worklist activity: every member of a cycle eventually
//! holds the same points-to set, yet each delta travels the full cycle.
//! Collapsing each such SCC onto one *representative* pointer makes the
//! cycle cost a single set union.
//!
//! This module provides the algorithmic core, shared by the solver and by
//! the property-test harness:
//!
//! * [`condense`] — an iterative (explicit-stack) Tarjan SCC pass over a
//!   dense adjacency list, assigning component ids in reverse topological
//!   order;
//! * [`UnionFind`] — the representative index. Lookups are read-only (no
//!   path compression on `find`), because the solver reads representatives
//!   from `&self` contexts; instead, [`UnionFind::flatten`] re-canonicalizes
//!   every chain after a batch of merges, which the epoch structure makes
//!   cheap;
//! * [`OnlineScc`] — an online wrapper maintaining the SCC partition under
//!   arbitrary interleavings of edge insertions and queries, by re-running
//!   [`condense`] over the condensed graph whenever a query observes a
//!   dirty state. This is the same epoch pattern the solver uses, exposed
//!   in isolation so the property tests can compare it against an offline
//!   reference model.

/// Sentinel for "not yet visited" / "no component".
const UNVISITED: u32 = u32::MAX;

/// The adaptive condensation-epoch threshold: how many unfiltered copy
/// edges must accumulate, given `edges` PFG edges committed so far,
/// before the next epoch pays for itself. Geometric — the next epoch
/// waits for the edge count to grow by a constant fraction — so total
/// condensation work stays `O((V + E) log E)` however large the graph
/// gets.
///
/// This is a pure function of committed-edge volume, *not* of the
/// propagation schedule.
pub fn epoch_threshold(edges: u64) -> u32 {
    u32::try_from((edges / 2).max(4096)).unwrap_or(u32::MAX)
}

/// The result of [`condense`]: a component id per node, ids dense in
/// `0..num_comps`, assigned in reverse topological order of the
/// condensation (every edge goes from a higher to a lower component id,
/// or stays inside one component).
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Component id per node.
    pub comp: Vec<u32>,
    /// Number of components.
    pub num_comps: u32,
}

impl Condensation {
    /// Groups nodes by component: `groups[c]` lists the members of
    /// component `c` in ascending node order.
    pub fn groups(&self) -> Vec<Vec<u32>> {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); self.num_comps as usize];
        for (u, &c) in self.comp.iter().enumerate() {
            groups[c as usize].push(u as u32);
        }
        groups
    }
}

/// Computes the strongly connected components of the digraph given as a
/// dense adjacency list (`adj[u]` holds the successors of node `u`; every
/// target must be `< adj.len()`). Iterative Tarjan — no recursion, so
/// million-node pointer graphs cannot overflow the thread stack.
pub fn condense(adj: &[Vec<u32>]) -> Condensation {
    let n = adj.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    // (node, next successor position) — the explicit DFS call stack.
    let mut call: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut num_comps = 0u32;

    let visit = |v: u32,
                 index: &mut Vec<u32>,
                 lowlink: &mut Vec<u32>,
                 on_stack: &mut Vec<bool>,
                 stack: &mut Vec<u32>,
                 next_index: &mut u32| {
        index[v as usize] = *next_index;
        lowlink[v as usize] = *next_index;
        *next_index += 1;
        stack.push(v);
        on_stack[v as usize] = true;
    };

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        visit(
            root,
            &mut index,
            &mut lowlink,
            &mut on_stack,
            &mut stack,
            &mut next_index,
        );
        call.push((root, 0));
        while let Some(&(v, pos)) = call.last() {
            if pos < adj[v as usize].len() {
                call.last_mut().expect("frame exists").1 += 1;
                let w = adj[v as usize][pos];
                debug_assert!((w as usize) < n, "edge target out of range");
                if index[w as usize] == UNVISITED {
                    visit(
                        w,
                        &mut index,
                        &mut lowlink,
                        &mut on_stack,
                        &mut stack,
                        &mut next_index,
                    );
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("SCC stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = num_comps;
                        if w == v {
                            break;
                        }
                    }
                    num_comps += 1;
                }
            }
        }
    }
    Condensation { comp, num_comps }
}

/// One condensation epoch's merge plan: groups the live representatives
/// of `uf` by the SCCs of `adj` (canonical adjacency over representatives;
/// entries of non-representatives are ignored) and returns every component
/// with at least two members as an ascending member list — `group[0]` is
/// the elected leader (smallest id). Groups come out in deterministic
/// (reverse topological) component order.
///
/// This is the shared epoch core: both the solver's `collapse_cycles` and
/// [`OnlineScc::recondense`] merge exactly the groups this returns, so the
/// property tests on [`OnlineScc`] exercise the same election logic the
/// solver runs.
pub fn merge_groups(uf: &UnionFind, adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let cond = condense(adj);
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); cond.num_comps as usize];
    for u in 0..adj.len() as u32 {
        if uf.is_rep(u) {
            groups[cond.comp[u as usize] as usize].push(u);
        }
    }
    groups.retain(|g| g.len() >= 2);
    groups
}

/// A union-find over dense `u32` ids with *read-only* lookups.
///
/// `find` walks parent chains without mutating them, so it can be called
/// from shared-reference contexts (the solver's `pt()` accessor). Chains
/// are kept short by construction: merges happen in batches (condensation
/// epochs), each followed by a [`flatten`](UnionFind::flatten) pass that
/// points every node directly at its root.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds one node (its own representative) and returns its id.
    pub fn push(&mut self) -> u32 {
        let id = u32::try_from(self.parent.len()).expect("too many nodes");
        self.parent.push(id);
        id
    }

    /// The representative of `u` (read-only chain walk).
    pub fn find(&self, u: u32) -> u32 {
        let mut r = u;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        r
    }

    /// Whether `u` is its own representative.
    pub fn is_rep(&self, u: u32) -> bool {
        self.parent[u as usize] == u
    }

    /// Points `child` (which must currently be a representative) at `root`.
    pub fn set_parent(&mut self, child: u32, root: u32) {
        debug_assert!(self.parent[child as usize] == child, "child must be a rep");
        debug_assert_ne!(child, root);
        self.parent[child as usize] = root;
    }

    /// Splits a merged component back into singletons: every node of
    /// `component` (its full member list, root included) becomes its own
    /// representative again. Sound only once nothing reads the old shared
    /// root on the members' behalf (the removal reset clears the whole
    /// component first).
    pub fn split(&mut self, component: &[u32]) {
        for &u in component {
            self.parent[u as usize] = u;
        }
    }

    /// Re-canonicalizes every chain so all nodes point directly at their
    /// root. Called once per merge batch.
    pub fn flatten(&mut self) {
        for i in 0..self.parent.len() {
            let root = self.find(i as u32);
            self.parent[i] = root;
        }
    }
}

/// An online SCC index: edges arrive one at a time, queries may interleave
/// arbitrarily, and [`repr`](OnlineScc::repr) always reflects the exact SCC
/// partition of all edges inserted so far.
///
/// Internally this is the solver's epoch scheme run at its finest grain:
/// inserted edges accumulate on the condensed graph, and a query on a dirty
/// index re-runs [`condense`] and merges the discovered cycles in the
/// [`UnionFind`]. The property tests compare this against an offline
/// reachability-closure reference after every interleaving step.
#[derive(Clone, Debug, Default)]
pub struct OnlineScc {
    uf: UnionFind,
    /// Successors per *representative*; targets may be stale (merged away)
    /// and are re-canonicalized at condensation time.
    adj: Vec<Vec<u32>>,
    dirty: bool,
}

impl OnlineScc {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index with `n` pre-allocated nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut s = Self::new();
        if n > 0 {
            s.ensure(n as u32 - 1);
        }
        s
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.uf.len()
    }

    /// Whether no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.uf.is_empty()
    }

    /// Grows the index so node `u` exists.
    pub fn ensure(&mut self, u: u32) {
        while self.uf.len() <= u as usize {
            self.uf.push();
            self.adj.push(Vec::new());
        }
    }

    /// Inserts the edge `u -> v` (self-edges and edges inside an already
    /// collapsed component are no-ops).
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.ensure(u.max(v));
        let (cu, cv) = (self.uf.find(u), self.uf.find(v));
        if cu == cv {
            return;
        }
        self.adj[cu as usize].push(v);
        self.dirty = true;
    }

    /// The representative of `u`'s SCC under all edges inserted so far.
    pub fn repr(&mut self, u: u32) -> u32 {
        self.ensure(u);
        if self.dirty {
            self.recondense();
        }
        self.uf.find(u)
    }

    /// Whether `u` and `v` are in the same SCC.
    pub fn same_component(&mut self, u: u32, v: u32) -> bool {
        self.repr(u) == self.repr(v)
    }

    fn recondense(&mut self) {
        self.dirty = false;
        let n = self.adj.len();
        let mut g: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n as u32 {
            if !self.uf.is_rep(u) {
                continue;
            }
            let mut out: Vec<u32> = Vec::with_capacity(self.adj[u as usize].len());
            for &t in &self.adj[u as usize] {
                let c = self.uf.find(t);
                if c != u {
                    out.push(c);
                }
            }
            g[u as usize] = out;
        }
        for group in merge_groups(&self.uf, &g) {
            let leader = group[0];
            for &m in &group[1..] {
                self.uf.set_parent(m, leader);
                let moved = std::mem::take(&mut self.adj[m as usize]);
                self.adj[leader as usize].extend(moved);
            }
        }
        self.uf.flatten();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condense_simple_cycle_and_tail() {
        // 0 -> 1 -> 2 -> 0, 2 -> 3
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let c = condense(&adj);
        assert_eq!(c.comp[0], c.comp[1]);
        assert_eq!(c.comp[1], c.comp[2]);
        assert_ne!(c.comp[2], c.comp[3]);
        assert_eq!(c.num_comps, 2);
        // Reverse topological: the tail (a sink) gets the smaller id.
        assert!(c.comp[3] < c.comp[0]);
    }

    #[test]
    fn condense_dag_has_singleton_comps() {
        let adj = vec![vec![1, 2], vec![2], vec![]];
        let c = condense(&adj);
        assert_eq!(c.num_comps, 3);
        let g = c.groups();
        assert!(g.iter().all(|grp| grp.len() == 1));
    }

    #[test]
    fn online_matches_two_phase_insertion() {
        let mut s = OnlineScc::new();
        s.add_edge(0, 1);
        s.add_edge(1, 2);
        assert!(!s.same_component(0, 2));
        s.add_edge(2, 0);
        assert!(s.same_component(0, 2));
        assert!(s.same_component(1, 2));
        // Growing the cycle after a collapse works too.
        s.add_edge(2, 3);
        s.add_edge(3, 1);
        assert!(s.same_component(3, 0));
        // Disconnected node stays alone.
        s.ensure(9);
        assert_eq!(s.repr(9), 9);
    }

    #[test]
    fn split_restores_singletons() {
        let mut uf = UnionFind::new();
        for _ in 0..4 {
            uf.push();
        }
        uf.set_parent(2, 0);
        uf.set_parent(3, 0);
        assert_eq!(uf.find(3), 0);
        uf.split(&[0, 2, 3]);
        assert!((0..4).all(|u| uf.is_rep(u)));
    }

    #[test]
    fn representative_is_smallest_member() {
        let mut s = OnlineScc::new();
        s.add_edge(5, 3);
        s.add_edge(3, 7);
        s.add_edge(7, 5);
        assert_eq!(s.repr(5), 3);
        assert_eq!(s.repr(7), 3);
        assert_eq!(s.repr(3), 3);
    }
}
