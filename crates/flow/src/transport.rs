//! Exact max-flow on the Theorem-12 transport shape, over bitsets.
//!
//! The P-SD network of Theorem 12 is always the same shape: a source
//! feeding left vertices `uᵢ` (capacity `cap_u[i]`), right vertices `vⱼ`
//! draining into a sink (capacity `cap_v[j]`), and infinite-capacity
//! edges `uᵢ → vⱼ` for the related pairs. [`Transport`] solves exactly that
//! shape without a general residual graph:
//!
//! * adjacency rows are `u64` bitset words (`⌈n_v/64⌉` per left vertex),
//!   so one BFS step expands a whole row with a few word operations;
//! * the flow on every pair lives in a dense row-major matrix, and the
//!   positive-flow pairs are mirrored as column bitsets (`⌈n_u/64⌉` words
//!   per right vertex) — the backward residual edges;
//! * a greedy pass in row order seeds the flow, then BFS shortest
//!   augmenting paths (Edmonds–Karp) finish it.
//!
//! Inner edges have no capacity, so an augmenting path is limited only by
//! the source and sink residuals and by the flow it cancels on backward
//! edges. Max-flow values are unique, so the result equals that of any
//! exact solver — [`crate::MaxFlow`] with inner capacities above the
//! total included. All buffers live on the struct and are only cleared
//! and resized between solves.

use crate::Cap;

/// Marks a BFS root: a left vertex fed straight from the source.
const ROOT: usize = usize::MAX;

/// A reusable max-flow arena for bipartite transport networks.
///
/// ```
/// use osd_flow::Transport;
///
/// let mut t = Transport::default();
/// // u0 reaches v0 and v1, u1 only v0: the greedy seed sends u0's mass
/// // to v0, and an augmenting path reroutes it through v1.
/// let flow = t.solve(&[5, 5], &[5, 5], &[(0, 0), (0, 1), (1, 0)]);
/// assert_eq!(flow, 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Transport {
    /// Words per right-vertex bitset (`⌈n_v/64⌉`).
    wv: usize,
    /// Words per left-vertex bitset (`⌈n_u/64⌉`).
    wu: usize,
    /// Right vertex count, the row stride of `flow`.
    nv: usize,
    /// Adjacency rows: bit `j` of row `i` is set iff `uᵢ → vⱼ` exists.
    adj: Vec<u64>,
    /// Positive-flow columns: bit `i` of column `j` is set iff
    /// `flow[i][j] > 0`, i.e. the residual edge `vⱼ → uᵢ` exists.
    pos: Vec<u64>,
    /// Flow on every pair, row-major `n_u × n_v`.
    flow: Vec<Cap>,
    /// Residual source capacity per left vertex.
    rem_u: Vec<Cap>,
    /// Residual sink capacity per right vertex.
    rem_v: Vec<Cap>,
    /// BFS visited set over left vertices.
    seen_u: Vec<u64>,
    /// BFS visited set over right vertices.
    seen_v: Vec<u64>,
    /// BFS tree: the right vertex a left vertex was reached from, or `ROOT`.
    parent_u: Vec<usize>,
    /// BFS tree: the left vertex a right vertex was reached from.
    parent_v: Vec<usize>,
    /// BFS queue of left vertices.
    queue: Vec<usize>,
}

impl Transport {
    /// The maximum flow of the network with source capacities `cap_u`,
    /// sink capacities `cap_v` and an infinite-capacity edge `uᵢ → vⱼ` for
    /// every `(i, j)` in `edges` (duplicates are harmless). The total
    /// source capacity must fit in [`Cap`].
    ///
    /// # Panics
    /// Panics if an edge endpoint is out of range.
    pub fn solve(&mut self, cap_u: &[Cap], cap_v: &[Cap], edges: &[(usize, usize)]) -> Cap {
        let (nu, nv) = (cap_u.len(), cap_v.len());
        self.reset(cap_u, cap_v);
        for &(i, j) in edges {
            assert!(i < nu && j < nv, "edge endpoint out of range");
            self.adj[i * self.wv + j / 64] |= 1 << (j % 64);
        }
        let mut total = self.seed();
        while let Some(end) = self.shortest_path() {
            total += self.augment(end);
        }
        total
    }

    /// Sizes every buffer for an `n_u × n_v` network and clears it.
    fn reset(&mut self, cap_u: &[Cap], cap_v: &[Cap]) {
        let (nu, nv) = (cap_u.len(), cap_v.len());
        self.wu = nu.div_ceil(64);
        self.wv = nv.div_ceil(64);
        self.nv = nv;
        refill(&mut self.adj, nu * self.wv, 0);
        refill(&mut self.pos, nv * self.wu, 0);
        refill(&mut self.flow, nu * nv, 0);
        self.rem_u.clear();
        self.rem_u.extend_from_slice(cap_u);
        self.rem_v.clear();
        self.rem_v.extend_from_slice(cap_v);
        refill(&mut self.parent_u, nu, ROOT);
        refill(&mut self.parent_v, nv, ROOT);
    }

    /// Greedy seed in row order: each left vertex pours its mass into its
    /// neighbours in column order while they have sink capacity left.
    fn seed(&mut self) -> Cap {
        let mut total = 0;
        for i in 0..self.rem_u.len() {
            for w in 0..self.wv {
                let mut bits = self.adj[i * self.wv + w];
                while bits != 0 && self.rem_u[i] > 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let f = self.rem_u[i].min(self.rem_v[j]);
                    if f > 0 {
                        self.push(i, j, f);
                        total += f;
                    }
                }
            }
        }
        total
    }

    /// Moves `f` more units over `uᵢ → vⱼ`, charging both residuals.
    fn push(&mut self, i: usize, j: usize, f: Cap) {
        self.flow[i * self.nv + j] += f;
        self.pos[j * self.wu + i / 64] |= 1 << (i % 64);
        self.rem_u[i] -= f;
        self.rem_v[j] -= f;
    }

    /// Multi-source BFS from every left vertex with source residual left;
    /// returns the first right vertex reached that still has sink
    /// residual — the end of a shortest augmenting path — or `None` when
    /// the flow is maximum.
    fn shortest_path(&mut self) -> Option<usize> {
        refill(&mut self.seen_u, self.wu, 0);
        refill(&mut self.seen_v, self.wv, 0);
        self.queue.clear();
        for (i, &r) in self.rem_u.iter().enumerate() {
            if r > 0 {
                self.seen_u[i / 64] |= 1 << (i % 64);
                self.parent_u[i] = ROOT;
                self.queue.push(i);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let i = self.queue[head];
            head += 1;
            for w in 0..self.wv {
                let mut fresh = self.adj[i * self.wv + w] & !self.seen_v[w];
                self.seen_v[w] |= fresh;
                while fresh != 0 {
                    let j = w * 64 + fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    self.parent_v[j] = i;
                    if self.rem_v[j] > 0 {
                        return Some(j);
                    }
                    // Saturated sink edge: continue backwards along the
                    // pairs that carry flow into vⱼ.
                    for x in 0..self.wu {
                        let mut back = self.pos[j * self.wu + x] & !self.seen_u[x];
                        self.seen_u[x] |= back;
                        while back != 0 {
                            let k = x * 64 + back.trailing_zeros() as usize;
                            back &= back - 1;
                            self.parent_u[k] = j;
                            self.queue.push(k);
                        }
                    }
                }
            }
        }
        None
    }

    /// Pushes the bottleneck along the BFS path ending at right vertex
    /// `end` and returns it.
    fn augment(&mut self, end: usize) -> Cap {
        let mut f = self.rem_v[end];
        let mut j = end;
        loop {
            let i = self.parent_v[j];
            let back = self.parent_u[i];
            if back == ROOT {
                f = f.min(self.rem_u[i]);
                break;
            }
            f = f.min(self.flow[i * self.nv + back]);
            j = back;
        }
        let mut j = end;
        loop {
            let i = self.parent_v[j];
            let back = self.parent_u[i];
            // Forward over uᵢ → vⱼ; the residuals of the interior vertices
            // cancel, so only the path's two ends are charged below.
            self.flow[i * self.nv + j] += f;
            self.pos[j * self.wu + i / 64] |= 1 << (i % 64);
            if back == ROOT {
                self.rem_u[i] -= f;
                break;
            }
            // Backward over vₖ → uᵢ: cancel flow on uᵢ → vₖ.
            let cell = &mut self.flow[i * self.nv + back];
            *cell -= f;
            if *cell == 0 {
                self.pos[back * self.wu + i / 64] &= !(1 << (i % 64));
            }
            j = back;
        }
        self.rem_v[end] -= f;
        f
    }
}

/// Clears `buf` and refills it with `len` copies of `value`, keeping its
/// allocation.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_networks_carry_nothing() {
        let mut t = Transport::default();
        assert_eq!(t.solve(&[], &[], &[]), 0);
        assert_eq!(t.solve(&[3], &[], &[]), 0);
        assert_eq!(t.solve(&[3, 4], &[5], &[]), 0);
    }

    #[test]
    fn bottleneck_at_the_sink() {
        // Two left vertices share one right vertex of capacity 1.
        let mut t = Transport::default();
        assert_eq!(t.solve(&[1, 1], &[1, 1], &[(0, 0), (1, 0)]), 1);
    }

    #[test]
    fn augmenting_path_reroutes_the_greedy_seed() {
        // The seed sends u0 → v0 and strands u1; the BFS path
        // u1 → v0 → u0 → v1 reroutes u0's mass.
        let mut t = Transport::default();
        assert_eq!(t.solve(&[4, 4], &[4, 4], &[(0, 0), (0, 1), (1, 0)]), 8);
    }

    #[test]
    fn long_alternating_path_across_a_word_boundary() {
        // A chain u_k → v_k, u_k → v_{k+1} with the seed taking every
        // u_k → v_k: the last left vertex needs a path that walks back
        // through all 70 earlier pairs, across the 64-bit word boundary.
        let n = 70;
        let mut edges: Vec<(usize, usize)> = (0..n).flat_map(|k| [(k, k), (k, k + 1)]).collect();
        // u_n only reaches v_0, which the seed fills first.
        edges.push((n, 0));
        let caps = vec![1; n + 1];
        let mut t = Transport::default();
        assert_eq!(t.solve(&caps, &caps, &edges), n as Cap + 1);
    }
}
