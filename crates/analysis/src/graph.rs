//! Small digraph utilities shared by the static analyses.
//!
//! The graphs analysed here are tiny (nodes are schema positions or
//! relations), so clarity beats asymptotics: Tarjan SCCs, BFS reachability,
//! and explicit enumeration of simple cycles and simple paths.

use std::collections::BTreeSet;

/// A digraph over nodes `0..n` with identified edges (parallel edges
/// allowed, each carrying its own id).
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    num_nodes: usize,
    /// Edge list: `edges[id] = (from, to)`.
    edges: Vec<(usize, usize)>,
    /// Outgoing edge ids per node.
    out: Vec<Vec<usize>>,
}

impl DiGraph {
    /// A graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            num_nodes: n,
            edges: Vec::new(),
            out: vec![Vec::new(); n],
        }
    }

    /// Add an edge, returning its id.
    pub fn add_edge(&mut self, from: usize, to: usize) -> usize {
        let id = self.edges.len();
        self.edges.push((from, to));
        self.out[from].push(id);
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Endpoints of an edge.
    pub fn edge(&self, id: usize) -> (usize, usize) {
        self.edges[id]
    }

    /// Nodes reachable from `start` (including itself).
    pub fn reachable_from(&self, start: usize) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            if seen.insert(u) {
                for &e in &self.out[u] {
                    stack.push(self.edges[e].1);
                }
            }
        }
        seen
    }

    /// Strongly connected components (each a sorted node list), in reverse
    /// topological order, skipping a set of forbidden edge ids.
    pub fn sccs_without(&self, forbidden: &BTreeSet<usize>) -> Vec<Vec<usize>> {
        // Iterative Tarjan.
        #[derive(Clone, Copy)]
        struct Frame {
            node: usize,
            edge_ix: usize,
        }
        let n = self.num_nodes;
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0;
        let mut out = Vec::new();
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<Frame> = vec![Frame {
                node: root,
                edge_ix: 0,
            }];
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(frame) = call.last_mut() {
                let u = frame.node;
                if frame.edge_ix < self.out[u].len() {
                    let eid = self.out[u][frame.edge_ix];
                    frame.edge_ix += 1;
                    if forbidden.contains(&eid) {
                        continue;
                    }
                    let v = self.edges[eid].1;
                    if index[v] == usize::MAX {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        call.push(Frame {
                            node: v,
                            edge_ix: 0,
                        });
                    } else if on_stack[v] {
                        low[u] = low[u].min(index[v]);
                    }
                } else {
                    call.pop();
                    if let Some(parent) = call.last() {
                        low[parent.node] = low[parent.node].min(low[u]);
                    }
                    if low[u] == index[u] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack nonempty");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == u {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// Strongly connected components.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        self.sccs_without(&BTreeSet::new())
    }

    /// Nodes lying on some cycle, optionally ignoring a set of edges: nodes
    /// in a multi-node SCC or with a (non-forbidden) self-loop.
    pub fn cyclic_nodes_without(&self, forbidden: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for comp in self.sccs_without(forbidden) {
            if comp.len() > 1 {
                out.extend(comp);
            } else {
                let u = comp[0];
                let has_loop = self.out[u]
                    .iter()
                    .any(|&e| !forbidden.contains(&e) && self.edges[e].1 == u);
                if has_loop {
                    out.insert(u);
                }
            }
        }
        out
    }

    /// Enumerate all simple cycles as edge-id sequences (node-simple except
    /// for the repeated start). Exponential in general; the analysed graphs
    /// are small.
    pub fn simple_cycles(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for start in 0..self.num_nodes {
            let mut path_edges = Vec::new();
            let mut visited = BTreeSet::new();
            visited.insert(start);
            self.cycle_dfs(start, start, &mut visited, &mut path_edges, &mut out);
        }
        out
    }

    fn cycle_dfs(
        &self,
        start: usize,
        u: usize,
        visited: &mut BTreeSet<usize>,
        path_edges: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        for &e in &self.out[u] {
            let v = self.edges[e].1;
            if v == start {
                path_edges.push(e);
                out.push(path_edges.clone());
                path_edges.pop();
            } else if v > start && !visited.contains(&v) {
                // Only explore nodes > start so each cycle is produced once
                // (rooted at its minimal node).
                visited.insert(v);
                path_edges.push(e);
                self.cycle_dfs(start, v, visited, path_edges, out);
                path_edges.pop();
                visited.remove(&v);
            }
        }
    }

    /// Enumerate all node-simple paths from `from` to `to` as edge-id
    /// sequences. `from == to` yields the empty path only.
    pub fn simple_paths(&self, from: usize, to: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        if from == to {
            out.push(Vec::new());
            return out;
        }
        let mut visited = BTreeSet::new();
        visited.insert(from);
        let mut path = Vec::new();
        self.path_dfs(from, to, &mut visited, &mut path, &mut out);
        out
    }

    fn path_dfs(
        &self,
        u: usize,
        to: usize,
        visited: &mut BTreeSet<usize>,
        path: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        for &e in &self.out[u] {
            let v = self.edges[e].1;
            if v == to {
                path.push(e);
                out.push(path.clone());
                path.pop();
            } else if !visited.contains(&v) {
                visited.insert(v);
                path.push(e);
                self.path_dfs(v, to, visited, path, out);
                path.pop();
                visited.remove(&v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0 (one big cycle), 1 self-loop.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 3);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        g.add_edge(1, 1);
        g
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert_eq!(g.reachable_from(0).len(), 4);
        let mut h = DiGraph::new(3);
        h.add_edge(0, 1);
        assert_eq!(h.reachable_from(0), [0, 1].into_iter().collect());
        assert_eq!(h.reachable_from(2), [2].into_iter().collect());
    }

    #[test]
    fn sccs_detect_cycles() {
        let g = diamond();
        let sccs = g.sccs();
        // All of 0,1,2,3 in one SCC.
        assert!(sccs.iter().any(|c| c.len() == 4));
        assert_eq!(g.cyclic_nodes_without(&BTreeSet::new()).len(), 4);
    }

    #[test]
    fn forbidden_edges_break_cycles() {
        let g = diamond();
        // Removing edge 3->0 (id 4) leaves only the self-loop on 1.
        let forbidden: BTreeSet<usize> = [4].into_iter().collect();
        assert_eq!(
            g.cyclic_nodes_without(&forbidden),
            [1].into_iter().collect()
        );
    }

    #[test]
    fn simple_cycles_enumeration() {
        let g = diamond();
        let cycles = g.simple_cycles();
        // Two big cycles (via 1 and via 2) + the self-loop on 1.
        assert_eq!(cycles.len(), 3);
        assert!(cycles.iter().any(|c| c.len() == 1));
        assert_eq!(cycles.iter().filter(|c| c.len() == 3).count(), 2);
    }

    #[test]
    fn simple_paths_enumeration() {
        let g = diamond();
        let paths = g.simple_paths(0, 3);
        assert_eq!(paths.len(), 2);
        // 1 → 3 → 0 → 2 is the unique simple path from 1 to 2.
        assert_eq!(g.simple_paths(1, 2).len(), 1);
        assert_eq!(g.simple_paths(2, 2), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn parallel_edges_have_distinct_ids() {
        let mut g = DiGraph::new(1);
        let e1 = g.add_edge(0, 0);
        let e2 = g.add_edge(0, 0);
        assert_ne!(e1, e2);
        assert_eq!(g.simple_cycles().len(), 2);
    }
}
