//! Property tests for the flow substrate: Dinic against an independent
//! BFS Ford–Fulkerson oracle, flow conservation, the bitset transport
//! solver against Dinic, and min-cost flow against exhaustive assignment
//! enumeration.

use osd_flow::{MaxFlow, MinCostFlow, Transport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed-point probability total of the P-SD networks
/// (`osd_uncertain::SCALE`).
const SCALE: u64 = 1 << 32;

/// Dinic on the Theorem-12 shape, built as the P-SD reference path builds
/// it: source → uᵢ (`cap_u`), vⱼ → sink (`cap_v`), uᵢ → vⱼ with capacity
/// `u64::MAX / 4` standing in for ∞.
fn dinic_transport(cap_u: &[u64], cap_v: &[u64], edges: &[(usize, usize)]) -> u64 {
    let (nu, nv) = (cap_u.len(), cap_v.len());
    let (s, t) = (nu + nv, nu + nv + 1);
    let mut g = MaxFlow::new(nu + nv + 2);
    for (i, &c) in cap_u.iter().enumerate() {
        g.add_edge(s, i, c);
    }
    for (j, &c) in cap_v.iter().enumerate() {
        g.add_edge(nu + j, t, c);
    }
    for &(i, j) in edges {
        g.add_edge(i, nu + j, u64::MAX / 4);
    }
    g.max_flow(s, t)
}

/// `n` capacities drawn by `mode`: 0 splits exactly `SCALE`, 1 splits a
/// total just short of it, 2 draws each independently from `0..=2³²`. All
/// modes produce zero capacities now and then.
fn caps(n: usize, mode: u8, rng: &mut StdRng) -> Vec<u64> {
    let split = |total: u64, rng: &mut StdRng| {
        if n == 0 {
            return Vec::new();
        }
        let mut cuts: Vec<u64> = (1..n).map(|_| rng.gen_range(0..=total)).collect();
        cuts.extend([0, total]);
        cuts.sort_unstable();
        cuts.windows(2).map(|w| w[1] - w[0]).collect()
    };
    match mode {
        0 => split(SCALE, rng),
        1 => {
            let short = rng.gen_range(1..=1_000u64);
            split(SCALE - short, rng)
        }
        _ => (0..n)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0
                } else {
                    rng.gen_range(0..=SCALE)
                }
            })
            .collect(),
    }
}

/// A random edge list over `nu × nv` at `density` percent, with some pairs
/// listed twice.
fn edges(nu: usize, nv: usize, density: u32, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..nu {
        for j in 0..nv {
            if rng.gen_range(0..100u32) < density {
                out.push((i, j));
                if rng.gen_bool(0.1) {
                    out.push((i, j));
                }
            }
        }
    }
    out
}

/// A random Theorem-12 network: `(cap_u, cap_v, edges)`.
type Network = (Vec<u64>, Vec<u64>, Vec<(usize, usize)>);

fn network(nu: usize, nv: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mode_u, mode_v) = (rng.gen_range(0..3u8), rng.gen_range(0..3u8));
    let density = [0, 3, 10, 30, 60, 100][rng.gen_range(0..6usize)];
    let cap_u = caps(nu, mode_u, &mut rng);
    let cap_v = caps(nv, mode_v, &mut rng);
    let edges = edges(nu, nv, density, &mut rng);
    (cap_u, cap_v, edges)
}

/// Independent max-flow oracle: Edmonds–Karp on an adjacency matrix.
fn edmonds_karp(n: usize, edges: &[(usize, usize, u64)], s: usize, t: usize) -> u64 {
    let mut cap = vec![vec![0u64; n]; n];
    for &(u, v, c) in edges {
        cap[u][v] = cap[u][v].saturating_add(c);
    }
    let mut flow = 0u64;
    loop {
        // BFS for an augmenting path.
        let mut prev = vec![usize::MAX; n];
        prev[s] = s;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for v in 0..n {
                if prev[v] == usize::MAX && cap[u][v] > 0 {
                    prev[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if prev[t] == usize::MAX {
            return flow;
        }
        // Bottleneck.
        let mut push = u64::MAX;
        let mut v = t;
        while v != s {
            let u = prev[v];
            push = push.min(cap[u][v]);
            v = u;
        }
        let mut v = t;
        while v != s {
            let u = prev[v];
            cap[u][v] -= push;
            cap[v][u] += push;
            v = u;
        }
        flow += push;
    }
}

/// Brute-force assignment cost for an n×n unit-supply transportation
/// problem (n ≤ 5).
fn brute_assignment(costs: &[Vec<f64>]) -> f64 {
    let n = costs.len();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = f64::INFINITY;
    fn rec(perm: &mut Vec<usize>, k: usize, costs: &[Vec<f64>], best: &mut f64) {
        if k == perm.len() {
            let c: f64 = perm.iter().enumerate().map(|(i, &j)| costs[i][j]).sum();
            if c < *best {
                *best = c;
            }
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            rec(perm, k + 1, costs, best);
            perm.swap(k, i);
        }
    }
    rec(&mut perm, 0, costs, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dinic matches Edmonds–Karp on random sparse digraphs.
    #[test]
    fn prop_dinic_matches_oracle(
        n in 4usize..10,
        raw_edges in prop::collection::vec((0usize..10, 0usize..10, 1u64..50), 1..30),
    ) {
        let edges: Vec<(usize, usize, u64)> = raw_edges
            .into_iter()
            .filter(|&(u, v, _)| u < n && v < n && u != v)
            .collect();
        prop_assume!(!edges.is_empty());
        let (s, t) = (0, n - 1);
        let mut dinic = MaxFlow::new(n);
        for &(u, v, c) in &edges {
            dinic.add_edge(u, v, c);
        }
        let got = dinic.max_flow(s, t);
        let want = edmonds_karp(n, &edges, s, t);
        prop_assert_eq!(got, want);
    }

    /// Per-edge flows read back via handles satisfy conservation at every
    /// interior vertex and respect capacities.
    #[test]
    fn prop_flow_conservation(
        n in 4usize..9,
        raw_edges in prop::collection::vec((0usize..9, 0usize..9, 1u64..40), 1..25),
    ) {
        let edges: Vec<(usize, usize, u64)> = raw_edges
            .into_iter()
            .filter(|&(u, v, _)| u < n && v < n && u != v)
            .collect();
        prop_assume!(!edges.is_empty());
        let (s, t) = (0, n - 1);
        let mut g = MaxFlow::new(n);
        let handles: Vec<usize> = edges.iter().map(|&(u, v, c)| g.add_edge(u, v, c)).collect();
        let total = g.max_flow(s, t);
        let mut net = vec![0i128; n];
        for (h, &(u, v, c)) in handles.iter().zip(edges.iter()) {
            let f = g.flow_on(*h);
            prop_assert!(f <= c, "capacity violated");
            net[u] -= f as i128;
            net[v] += f as i128;
        }
        for (x, &nx) in net.iter().enumerate() {
            if x != s && x != t {
                prop_assert_eq!(nx, 0, "conservation violated at {}", x);
            }
        }
        prop_assert_eq!(net[t], total as i128);
        prop_assert_eq!(net[s], -(total as i128));
    }

    /// The bitset transport solver returns Dinic's value on random
    /// Theorem-12 networks: sides of 0..=70 vertices (across the 64-bit
    /// word), zero capacities and capacities up to 2³², totals equal to
    /// `SCALE` and not, duplicate edges and empty edge lists.
    #[test]
    fn prop_transport_matches_dinic(
        nu in 0usize..=70,
        nv in 0usize..=70,
        seed in 0u64..u64::MAX,
    ) {
        let (cap_u, cap_v, edges) = network(nu, nv, seed);
        let want = dinic_transport(&cap_u, &cap_v, &edges);
        prop_assert_eq!(Transport::default().solve(&cap_u, &cap_v, &edges), want);
    }

    /// One transport arena reused across shrinking and growing shapes
    /// answers every network as a fresh solver does.
    #[test]
    fn prop_transport_arena_matches_fresh(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = Transport::default();
        for shape in 0..8u64 {
            let (nu, nv) = (rng.gen_range(0..=70usize), rng.gen_range(0..=70usize));
            let (cap_u, cap_v, edges) = network(nu, nv, seed ^ shape);
            let fresh = Transport::default().solve(&cap_u, &cap_v, &edges);
            prop_assert_eq!(arena.solve(&cap_u, &cap_v, &edges), fresh, "shape {}", shape);
            prop_assert_eq!(fresh, dinic_transport(&cap_u, &cap_v, &edges));
        }
    }

    /// Min-cost flow solves the assignment problem exactly.
    #[test]
    fn prop_mcmf_assignment(
        n in 2usize..5,
        raw in prop::collection::vec(0.0f64..100.0, 25),
    ) {
        let costs: Vec<Vec<f64>> = (0..n).map(|i| (0..n).map(|j| raw[i * 5 + j]).collect()).collect();
        let (s, t) = (2 * n, 2 * n + 1);
        let mut g = MinCostFlow::new(2 * n + 2);
        for (i, row) in costs.iter().enumerate() {
            g.add_edge(s, i, 1, 0.0);
            g.add_edge(n + i, t, 1, 0.0);
            for (j, &cost) in row.iter().enumerate() {
                g.add_edge(i, n + j, 1, cost);
            }
        }
        let (flow, cost) = g.min_cost_flow(s, t, n as u64);
        prop_assert_eq!(flow, n as u64);
        let want = brute_assignment(&costs);
        prop_assert!((cost - want).abs() < 1e-6, "mcmf {} vs brute {}", cost, want);
    }

    /// Sending a limit smaller than the max flow routes exactly the limit at
    /// minimal cost (monotone in the limit).
    #[test]
    fn prop_mcmf_respects_limit(limit in 1u64..5) {
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 3, 1.0);
        g.add_edge(0, 2, 3, 2.0);
        g.add_edge(1, 3, 3, 1.0);
        g.add_edge(2, 3, 3, 2.0);
        let (flow, cost) = g.min_cost_flow(0, 3, limit);
        prop_assert_eq!(flow, limit.min(6));
        // First 3 units cost 2 each (cheap path), further units 4 each.
        let want = if limit <= 3 {
            2.0 * limit as f64
        } else {
            6.0 + 4.0 * (limit - 3) as f64
        };
        prop_assert!((cost - want).abs() < 1e-9);
    }
}
