//! Criterion microbenchmarks of the substrates: R-tree construction and
//! queries, the traversal's exact object key, stochastic-order scans,
//! max-flow / min-cost-flow solves, convex-hull extraction, and one P-SD
//! check that runs its whole filter stack into the exact network.

// Leaf binary/bench: panic-family lints relaxed (see workspace policy).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use osd_core::{CheckCtx, Database, FilterConfig, Operator, PreparedQuery};
use osd_datagen::object_around;
use osd_flow::{MaxFlow, MinCostFlow, Transport};
use osd_geom::{hull_vertices, min_dist2_rows_multi, Mbr, Point};
use osd_rtree::{Entry, RTree};
use osd_uncertain::{stochastically_dominates, DistanceDistribution, UncertainObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(vec![
                rng.gen_range(0.0..10_000.0),
                rng.gen_range(0.0..10_000.0),
            ])
        })
        .collect()
}

fn bench_rtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree");
    for n in [1_000usize, 10_000, 100_000] {
        let pts = random_points(n, 3);
        group.bench_with_input(BenchmarkId::new("bulk_load", n), &n, |b, _| {
            b.iter(|| {
                let entries: Vec<Entry<usize>> = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| Entry {
                        mbr: Mbr::from_point(p),
                        item: i,
                    })
                    .collect();
                black_box(RTree::bulk_load(32, entries))
            })
        });
        let entries: Vec<Entry<usize>> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| Entry {
                mbr: Mbr::from_point(p),
                item: i,
            })
            .collect();
        let tree = RTree::bulk_load(32, entries);
        let q = Point::new(vec![5_000.0, 5_000.0]);
        group.bench_with_input(BenchmarkId::new("nearest", n), &n, |b, _| {
            b.iter(|| black_box(tree.nearest(&q)))
        });
        group.bench_with_input(BenchmarkId::new("furthest", n), &n, |b, _| {
            b.iter(|| black_box(tree.furthest(&q)))
        });
    }
    group.finish();
}

/// The exact traversal key `δ_min(V, Q)²` of eight objects with `m_d`
/// instances (extent 400) placed within ±800 of a query with `m_q`
/// instances (extent 200), per iteration: the pruned probe scan over each
/// object's rows (`object_key_scan`, the kernel path) against the
/// one-descent search of its local R-tree (`object_key_tree`, fan-out 4
/// as in the index).
fn bench_object_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("object_key");
    for (m_d, m_q, dim) in [
        (4, 3, 2),
        (12, 9, 3),
        (40, 30, 3),
        (100, 50, 3),
        (100, 50, 5),
    ] {
        let mut rng = StdRng::seed_from_u64((m_d * 100 + dim) as u64);
        let center = vec![5_000.0; dim];
        let query = object_around(&mut rng, &center, dim, m_q, 200.0);
        let probes: Vec<Point> = query.instances().iter().map(|i| i.point.clone()).collect();
        let objects: Vec<(Vec<f64>, Mbr, RTree<usize>)> = (0..8)
            .map(|_| {
                let at: Vec<f64> = center
                    .iter()
                    .map(|c| c + rng.gen_range(-800.0..800.0))
                    .collect();
                let o = object_around(&mut rng, &at, dim, m_d, 400.0);
                let rows: Vec<f64> = o
                    .instances()
                    .iter()
                    .flat_map(|i| i.point.coords().iter().copied())
                    .collect();
                let tree = RTree::bulk_load_rows(4, dim, &rows);
                (rows, o.mbr().clone(), tree)
            })
            .collect();
        let shape = format!("{m_d}x{m_q}x{dim}d");
        group.bench_with_input(
            BenchmarkId::new("object_key_scan", &shape),
            &shape,
            |b, _| {
                b.iter(|| {
                    objects
                        .iter()
                        .map(|(rows, mbr, _)| {
                            min_dist2_rows_multi(rows, dim, &probes, mbr).unwrap()
                        })
                        .fold(f64::INFINITY, f64::min)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("object_key_tree", &shape),
            &shape,
            |b, _| {
                b.iter(|| {
                    let mut visits = 0;
                    objects
                        .iter()
                        .map(|(_, _, tree)| tree.min_dist2_multi(&probes, &mut visits).unwrap())
                        .fold(f64::INFINITY, f64::min)
                })
            },
        );
    }
    group.finish();
}

fn bench_stochastic_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("stochastic_order_scan");
    let mut rng = StdRng::seed_from_u64(5);
    for n in [100usize, 1_000, 10_000] {
        let mk = |rng: &mut StdRng, shift: f64| {
            let atoms: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..1_000.0) + shift, 1.0 / n as f64))
                .collect();
            DistanceDistribution::from_atoms(atoms)
        };
        let x = mk(&mut rng, 0.0);
        let y = mk(&mut rng, 100.0);
        group.bench_with_input(BenchmarkId::new("atoms", n), &n, |b, _| {
            b.iter(|| black_box(stochastically_dominates(&x, &y)))
        });
    }
    group.finish();
}

fn bench_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow");
    for m in [10usize, 40, 100] {
        // Dense bipartite m × m network with unit-share capacities.
        group.bench_with_input(BenchmarkId::new("dinic_bipartite", m), &m, |b, _| {
            b.iter(|| {
                let (s, t) = (2 * m, 2 * m + 1);
                let mut g = MaxFlow::new(2 * m + 2);
                for i in 0..m {
                    g.add_edge(s, i, 1_000);
                    g.add_edge(m + i, t, 1_000);
                    for j in 0..m {
                        if (i + j) % 3 != 0 {
                            g.add_edge(i, m + j, u64::MAX / 4);
                        }
                    }
                }
                black_box(g.max_flow(s, t))
            })
        });
        group.bench_with_input(BenchmarkId::new("transport_bipartite", m), &m, |b, _| {
            // The same network as `dinic_bipartite`, on a reused arena.
            let caps = vec![1_000; m];
            let edges: Vec<(usize, usize)> = (0..m)
                .flat_map(|i| (0..m).map(move |j| (i, j)))
                .filter(|(i, j)| (i + j) % 3 != 0)
                .collect();
            let mut t = Transport::default();
            b.iter(|| black_box(t.solve(&caps, &caps, &edges)))
        });
        group.bench_with_input(BenchmarkId::new("mcmf_transport", m), &m, |b, _| {
            let mut rng = StdRng::seed_from_u64(m as u64);
            let costs: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..m).map(|_| rng.gen_range(0.0..100.0)).collect())
                .collect();
            b.iter(|| {
                let (s, t) = (2 * m, 2 * m + 1);
                let mut g = MinCostFlow::new(2 * m + 2);
                for (i, row) in costs.iter().enumerate() {
                    g.add_edge(s, i, 1_000, 0.0);
                    g.add_edge(m + i, t, 1_000, 0.0);
                    for (j, &cost) in row.iter().enumerate() {
                        g.add_edge(i, m + j, u64::MAX / 4, cost);
                    }
                }
                black_box(g.min_cost_flow(s, t, 1_000 * m as u64))
            })
        });
    }
    group.finish();
}

fn bench_hull(c: &mut Criterion) {
    let mut group = c.benchmark_group("convex_hull");
    for n in [10usize, 30, 100] {
        let pts = random_points(n, 9);
        group.bench_with_input(BenchmarkId::new("monotone_chain_2d", n), &n, |b, _| {
            b.iter(|| black_box(hull_vertices(&pts)))
        });
        let mut rng = StdRng::seed_from_u64(n as u64);
        let pts3: Vec<Point> = (0..n)
            .map(|_| {
                Point::new(vec![
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ])
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("lp_hull_3d", n), &n, |b, _| {
            b.iter(|| black_box(hull_vertices(&pts3)))
        });
    }
    group.finish();
}

/// One P-SD check on psd-hot-shaped objects (d = 3, m = 12, |Q| = 9)
/// that no cheap filter decides: `V` is `U` moved 150 units further from
/// the query, so the boxes overlap (no MBR validation), the statistics
/// agree, every level of the node networks is inconclusive, and the check
/// runs the SS-SD refutation stage and then the exact network. `cold`
/// builds every distribution in a fresh context, as a first contact does;
/// `cached` reuses one context, so only the check logic itself is timed.
fn bench_psd_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("psd_check");
    let (dim, m, m_q) = (3, 12, 9);
    let mut rng = StdRng::seed_from_u64(24);
    let cq = vec![5_000.0; dim];
    let query = PreparedQuery::new(object_around(&mut rng, &cq, dim, m_q, 200.0));
    let cu = vec![5_500.0; dim];
    let u = object_around(&mut rng, &cu, dim, m, 400.0);
    // Shift along the query-to-U direction (the diagonal).
    let step = 150.0 / (dim as f64).sqrt();
    let shifted = |p: &Point| Point::new(p.coords().iter().map(|x| x + step).collect::<Vec<_>>());
    let v = UncertainObject::uniform(u.instances().iter().map(|i| shifted(&i.point)).collect());
    let db = Database::new(vec![u, v]);
    let cfg = FilterConfig::all();
    let mut probe = CheckCtx::new(&db, &query, cfg);
    assert!(probe.dominates(Operator::PSd, 0, 1), "the pair is P-SD");
    assert!(probe.stats.flow_runs > 0, "the check reaches a network");
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut ctx = CheckCtx::new(&db, &query, cfg);
            black_box(ctx.dominates(Operator::PSd, 0, 1))
        })
    });
    group.bench_function("cached", |b| {
        b.iter(|| black_box(probe.dominates(Operator::PSd, 0, 1)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rtree,
    bench_object_key,
    bench_stochastic_scan,
    bench_flow,
    bench_hull,
    bench_psd_check
);
criterion_main!(benches);
