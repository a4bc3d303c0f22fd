//! Dinic's maximum-flow algorithm on integer capacities.
//!
//! The P-SD dominance check reduces to a max-flow problem (Theorem 12):
//! P-SD(U, V, Q) holds iff the bipartite network built from the `u ⪯_Q v`
//! relation carries a flow of value 1 (the total probability mass).
//! Probabilities are quantised to fixed-point integers by the caller
//! (`osd-core`), so the solver works on exact integer arithmetic and the
//! "flow value = 1" test is exact.

/// Capacity type used by the flow network.
pub type Cap = u64;

/// A directed edge of the residual network.
#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: Cap,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// A flow network for Dinic's algorithm.
///
/// Vertices are dense indices `0..n`. Edges are added with capacities; the
/// reverse (residual) edges are managed internally.
#[derive(Debug, Clone, Default)]
pub struct MaxFlow {
    graph: Vec<Vec<Edge>>,
    /// (vertex, edge index) pairs remembering insertion order, so callers
    /// can read back per-edge flow after the run.
    handles: Vec<(usize, usize)>,
}

impl MaxFlow {
    /// Creates a network with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        MaxFlow {
            graph: vec![Vec::new(); n],
            handles: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.graph.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap`; returns a
    /// handle usable with [`MaxFlow::flow_on`] after solving.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the edge is a self-loop.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: Cap) -> usize {
        assert!(
            from < self.graph.len() && to < self.graph.len(),
            "vertex out of range"
        );
        assert_ne!(from, to, "self-loops are not allowed");
        let rev_from = self.graph[to].len();
        let idx = self.graph[from].len();
        self.graph[from].push(Edge {
            to,
            cap,
            rev: rev_from,
        });
        self.graph[to].push(Edge {
            to: from,
            cap: 0,
            rev: idx,
        });
        self.handles.push((from, idx));
        self.handles.len() - 1
    }

    /// Computes the maximum flow from `s` to `t`, mutating the residual
    /// network in place. Returns the flow value.
    ///
    /// # Panics
    /// Panics if `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> Cap {
        assert_ne!(s, t, "source and sink must differ");
        let n = self.graph.len();
        let mut total: Cap = 0;
        let mut level = vec![-1i32; n];
        let mut iter = vec![0usize; n];
        let mut queue = std::collections::VecDeque::new();
        loop {
            // BFS: build the level graph.
            level.iter_mut().for_each(|l| *l = -1);
            level[s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                for e in &self.graph[v] {
                    if e.cap > 0 && level[e.to] < 0 {
                        level[e.to] = level[v] + 1;
                        queue.push_back(e.to);
                    }
                }
            }
            if level[t] < 0 {
                break;
            }
            // DFS blocking flow.
            iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, Cap::MAX, &level, &mut iter);
                if f == 0 {
                    break;
                }
                total += f;
            }
        }
        total
    }

    fn dfs(&mut self, v: usize, t: usize, limit: Cap, level: &[i32], iter: &mut [usize]) -> Cap {
        if v == t {
            return limit;
        }
        while iter[v] < self.graph[v].len() {
            let i = iter[v];
            let (to, cap, rev) = {
                let e = &self.graph[v][i];
                (e.to, e.cap, e.rev)
            };
            if cap > 0 && level[v] < level[to] {
                let d = self.dfs(to, t, limit.min(cap), level, iter);
                if d > 0 {
                    self.graph[v][i].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            iter[v] += 1;
        }
        0
    }

    /// The flow routed over the edge `handle` after [`MaxFlow::max_flow`]:
    /// the capacity accumulated on its reverse edge.
    pub fn flow_on(&self, handle: usize) -> Cap {
        let (from, idx) = self.handles[handle];
        let e = &self.graph[from][idx];
        self.graph[e.to][e.rev].cap
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn single_edge() {
        let mut g = MaxFlow::new(2);
        let e = g.add_edge(0, 1, 7);
        assert_eq!(g.max_flow(0, 1), 7);
        assert_eq!(g.flow_on(e), 7);
    }

    #[test]
    fn classic_diamond() {
        // s -> a(10), s -> b(10), a -> t(4), b -> t(9), a -> b(6)
        let mut g = MaxFlow::new(4);
        g.add_edge(0, 1, 10);
        g.add_edge(0, 2, 10);
        g.add_edge(1, 3, 4);
        g.add_edge(2, 3, 9);
        g.add_edge(1, 2, 6);
        assert_eq!(g.max_flow(0, 3), 13);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = MaxFlow::new(4);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 3, 5);
        assert_eq!(g.max_flow(0, 3), 0);
    }

    #[test]
    fn bipartite_perfect_matching() {
        // 3 left, 3 right; complete bipartite, unit capacities everywhere.
        let (s, t) = (6, 7);
        let mut g = MaxFlow::new(8);
        for l in 0..3 {
            g.add_edge(s, l, 1);
            g.add_edge(3 + l, t, 1);
        }
        for l in 0..3 {
            for r in 0..3 {
                g.add_edge(l, 3 + r, 1);
            }
        }
        assert_eq!(g.max_flow(s, t), 3);
    }

    #[test]
    fn bipartite_bottleneck() {
        // Two left vertices both only connect to the same right vertex.
        let (s, t) = (4, 5);
        let mut g = MaxFlow::new(6);
        g.add_edge(s, 0, 1);
        g.add_edge(s, 1, 1);
        g.add_edge(2, t, 1);
        g.add_edge(3, t, 1);
        g.add_edge(0, 2, u64::MAX / 2);
        g.add_edge(1, 2, u64::MAX / 2);
        assert_eq!(g.max_flow(s, t), 1);
    }

    #[test]
    fn flow_conservation_via_handles() {
        let mut g = MaxFlow::new(4);
        let e1 = g.add_edge(0, 1, 10);
        let e2 = g.add_edge(1, 2, 5);
        let e3 = g.add_edge(1, 3, 5);
        let e4 = g.add_edge(2, 3, 5);
        let total = g.max_flow(0, 3);
        assert_eq!(total, 10);
        assert_eq!(g.flow_on(e1), 10);
        assert_eq!(g.flow_on(e2), 5);
        assert_eq!(g.flow_on(e3), 5);
        assert_eq!(g.flow_on(e4), 5);
    }
}
