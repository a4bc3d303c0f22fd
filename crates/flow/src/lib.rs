//! # osd-flow
//!
//! Network-flow substrate for the `osd` workspace, built from scratch:
//!
//! * [`MaxFlow`] — Dinic's algorithm on integer (fixed-point) capacities.
//!   The P-SD dominance check reduces to max-flow (Theorem 12 of the paper):
//!   `P-SD(U, V, Q)` holds iff the `u ⪯_Q v` bipartite network carries a
//!   flow equal to the objects' total probability mass.
//! * [`Transport`] — the same max-flow specialised to that bipartite
//!   transport shape: bitset adjacency, a dense flow matrix and BFS
//!   shortest augmenting paths in a reusable arena. The P-SD hot path
//!   solves on it; [`MaxFlow`] stays the general reference solver.
//! * [`MinCostFlow`] — successive-shortest-paths min-cost max-flow, backing
//!   the Earth Mover's / Netflow distance of NN-function family N3
//!   (Appendix A).
//!
//! Both solvers use exact integer capacities; probability masses are
//! quantised to fixed point by callers (see `osd-uncertain::quantize`).
//!
//! ```
//! use osd_flow::{MaxFlow, MinCostFlow};
//!
//! // Max-flow on a diamond.
//! let mut g = MaxFlow::new(4);
//! g.add_edge(0, 1, 10);
//! g.add_edge(0, 2, 10);
//! g.add_edge(1, 3, 4);
//! g.add_edge(2, 3, 9);
//! g.add_edge(1, 2, 6);
//! assert_eq!(g.max_flow(0, 3), 13);
//!
//! // Min-cost flow picks the cheap route first.
//! let mut g = MinCostFlow::new(3);
//! g.add_edge(0, 1, 5, 1.0);
//! g.add_edge(1, 2, 5, 2.0);
//! let (flow, cost) = g.min_cost_flow(0, 2, 3);
//! assert_eq!(flow, 3);
//! assert_eq!(cost, 9.0);
//! ```

#![warn(missing_docs)]

mod dinic;
mod mcmf;
mod transport;

pub use dinic::{Cap, MaxFlow};
pub use mcmf::MinCostFlow;
pub use transport::Transport;
