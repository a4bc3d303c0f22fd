//! Bit-identity properties of the blocked hot-path kernels.
//!
//! The `kernels` strategy of [`FilterConfig`] promises to be a pure
//! execution strategy: same results, same frozen cost counters, to the
//! last bit. This suite pins that contract from three directions:
//!
//! * the osd-geom row kernels (`dist2_rows_batch`, `min_dist2_rows`,
//!   `max_dist2_rows`) reproduce the scalar `dist2_slice` folds bitwise
//!   across dims 1–8, including ±0.0 coordinates, duplicated rows and
//!   single-row blocks;
//! * the pruned probe scan `min_dist2_rows_multi` (the kernel path's
//!   traversal key) equals the local R-tree searches it replaced;
//! * NNC and k-NNC with kernels on emit the same candidates (ids, order,
//!   `min_dist` bits) and the same frozen counters as the scalar path;
//! * NNC and k-NNC with kernels on agree with the O(n²) brute-force
//!   oracle for every dominance operator on randomized A-N workloads;
//! * a fixed 3-d A-N batch through [`QueryEngine::run_batch`] emits the
//!   same candidates and frozen counters with kernels on and off.

// Integration test: exact values and aborts are intentional.
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use osd::prelude::*;
use osd_core::{k_nn_candidates, k_nn_candidates_bruteforce, nn_candidates_bruteforce};
use osd_datagen::{generate_objects, object_around, CenterDistribution, SynthParams};
use osd_geom::{
    dist2_rows_batch, dist2_slice, max_dist2_rows, min_dist2_rows, min_dist2_rows_multi, Mbr, Point,
};
use osd_rtree::RTree;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed-driven coordinate block with the awkward cases over-represented:
/// both signed zeros, denormal-scale and large magnitudes, and the classic
/// non-representable decimal, mixed with ordinary values.
fn awkward_coords(len: usize, seed: u64) -> Vec<f64> {
    let menu = [0.0, -0.0, 1e-13, -1e-13, 3e7, 0.1 + 0.2, -271.25, 13.5];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pick = (state % 16) as usize;
            if pick < menu.len() {
                menu[pick]
            } else {
                ((state >> 16) % 2_000_000) as f64 / 1_000.0 - 1_000.0
            }
        })
        .collect()
}

/// A row block of `n` rows in `dim` dimensions plus one query point, with
/// the first row duplicated at the end when possible (duplicated rows must
/// not perturb any fold).
fn block(dim: usize, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rows = awkward_coords(dim * n, seed);
    let q = awkward_coords(dim, seed.wrapping_add(0x5DEE_CE66));
    if rows.len() >= dim {
        let first: Vec<f64> = rows[..dim].to_vec();
        rows.extend(first);
    }
    (rows, q)
}

/// A randomized A-N workload, the dataset family of the paper's evaluation.
fn an_objects(n: usize, instances: usize, seed: u64) -> Vec<UncertainObject> {
    generate_objects(&SynthParams {
        n,
        dim: 2,
        instances,
        edge: 800.0,
        centers: CenterDistribution::AntiCorrelated,
        seed,
    })
}

/// The counters the bit-identity contract freezes (`rtree_nodes_visited`
/// and the cache tallies are exempt by design).
fn frozen(stats: &osd_core::Stats) -> (u64, u64, u64, u64) {
    (
        stats.instance_comparisons,
        stats.dominance_checks,
        stats.flow_runs,
        stats.mbr_checks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched distance table equals a per-row `dist2_slice` scan, and
    /// the min/max folds equal the scalar accumulator folds, all bitwise —
    /// across dims 1–8, ±0.0, duplicated rows, empty and single-row blocks.
    #[test]
    fn prop_row_kernels_match_scalar_folds_bitwise(
        dim in 1usize..=8,
        n_rows in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        let (rows, q) = block(dim, n_rows, seed);
        let n = rows.len() / dim;
        let mut out = vec![f64::NAN; n];
        dist2_rows_batch(&rows, dim, &q, &mut out);
        let mut min_fold = f64::INFINITY;
        let mut max_fold = 0.0f64;
        for (i, row) in rows.chunks_exact(dim).enumerate() {
            let scalar = dist2_slice(row, &q);
            prop_assert_eq!(out[i].to_bits(), scalar.to_bits(), "row {}", i);
            min_fold = min_fold.min(scalar);
            max_fold = max_fold.max(scalar);
        }
        prop_assert_eq!(min_dist2_rows(&rows, dim, &q).to_bits(), min_fold.to_bits());
        prop_assert_eq!(max_dist2_rows(&rows, dim, &q).to_bits(), max_fold.to_bits());
        // The sqrt-then-square round trip the traversal key relies on:
        // min is monotone, so folding after sqrt commutes bitwise.
        let via_sqrt = {
            let d = min_dist2_rows(&rows, dim, &q).sqrt();
            d * d
        };
        let scalar_key = rows
            .chunks_exact(dim)
            .map(|row| {
                let d = dist2_slice(row, &q).sqrt();
                d * d
            })
            .fold(f64::INFINITY, f64::min);
        if n > 0 {
            prop_assert_eq!(via_sqrt.to_bits(), scalar_key.to_bits());
        }
    }

    /// Kernels on vs kernels off: identical candidate ids and order,
    /// identical `min_dist` bits, identical frozen counters — for NNC and
    /// k-NNC, single- and multi-instance objects and queries alike.
    #[test]
    fn prop_kernels_and_scalar_paths_are_bit_identical(
        n in 2usize..12,
        m in 1usize..4,
        m_q in 1usize..3,
        seed in 0u64..1_000,
    ) {
        let db = Database::new(an_objects(n, m, seed));
        let q_pts = (0..m_q)
            .map(|i| Point::new(vec![5_000.0 + 150.0 * i as f64, 5_000.0 - 180.0 * i as f64]))
            .collect();
        let query = PreparedQuery::new(UncertainObject::uniform(q_pts));
        let with = FilterConfig::all();
        let without = with.scalar();
        for op in Operator::ALL {
            let k_res = nn_candidates(&db, &query, op, &with);
            let s_res = nn_candidates(&db, &query, op, &without);
            prop_assert_eq!(k_res.ids(), s_res.ids(), "{:?} ids", op);
            for (a, b) in k_res.candidates.iter().zip(s_res.candidates.iter()) {
                prop_assert_eq!(
                    a.min_dist.to_bits(),
                    b.min_dist.to_bits(),
                    "{:?} min_dist", op
                );
            }
            prop_assert_eq!(frozen(&k_res.stats), frozen(&s_res.stats), "{:?} counters", op);
            prop_assert!(
                k_res.stats.rtree_nodes_visited <= s_res.stats.rtree_nodes_visited,
                "{:?}: the multi-point descent must never expand more nodes", op
            );
            for k in [1usize, 2] {
                let kk = k_nn_candidates(&db, &query, op, k, &with);
                let ks = k_nn_candidates(&db, &query, op, k, &without);
                prop_assert_eq!(kk.ids(), ks.ids(), "{:?} k={} ids", op, k);
                prop_assert_eq!(
                    frozen(&kk.stats),
                    frozen(&ks.stats),
                    "{:?} k={} counters", op, k
                );
            }
        }
    }

    /// With kernels on, NNC and k-NNC still agree with the O(n²)
    /// brute-force oracle for every operator.
    #[test]
    fn prop_kernel_paths_match_bruteforce(
        n in 2usize..10,
        m in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let db = Database::new(an_objects(n, m, seed));
        let query = PreparedQuery::new(UncertainObject::uniform(vec![
            Point::new(vec![5_000.0, 5_000.0]),
            Point::new(vec![5_200.0, 4_800.0]),
        ]));
        let cfg = FilterConfig::all();
        prop_assert!(cfg.kernels);
        for op in Operator::ALL {
            let mut algo = nn_candidates(&db, &query, op, &cfg).ids();
            algo.sort_unstable();
            let (brute, _) = nn_candidates_bruteforce(&db, &query, op, &cfg);
            prop_assert_eq!(&algo, &brute, "NNC mismatch for {:?}", op);
            for k in [1usize, 2] {
                let mut robust = k_nn_candidates(&db, &query, op, k, &cfg).ids();
                robust.sort_unstable();
                let oracle = k_nn_candidates_bruteforce(&db, &query, op, k, &cfg);
                prop_assert_eq!(&robust, &oracle, "k-NNC mismatch for {:?}, k = {}", op, k);
            }
        }
    }
}

/// The 3-d A-N batch of the paper's evaluation at test scale: `n`
/// objects of `m_d` instances (edge 400), and `queries` query objects of
/// `m_q` instances (edge 200) centred on randomly drawn objects.
fn an_batch(n: usize, m_d: usize, m_q: usize, queries: usize) -> (Database, Vec<PreparedQuery>) {
    let seed = 0x0517;
    let objects = generate_objects(&SynthParams {
        n,
        dim: 3,
        instances: m_d,
        edge: 400.0,
        centers: CenterDistribution::AntiCorrelated,
        seed,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    let queries = (0..queries)
        .map(|_| {
            let center = objects[rng.gen_range(0..objects.len())].mbr().center();
            let q = object_around(&mut rng, center.coords(), center.dim(), m_q, 200.0);
            PreparedQuery::new(q)
        })
        .collect();
    (Database::new(objects), queries)
}

/// The engine batch under both strategies: every query emits the same
/// candidate ids in the same order, the same `min_dist` bits and the same
/// frozen counters, with the blocked kernels on and on the scalar paths.
#[test]
fn engine_batch_is_bit_identical_with_and_without_kernels() {
    let (db, queries) = an_batch(90, 4, 3, 5);
    let op = Operator::PSd;
    let scalar =
        QueryEngine::with_config(&db, op, FilterConfig::all().scalar()).run_batch(&queries, 1);
    let kernels = QueryEngine::with_config(&db, op, FilterConfig::all()).run_batch(&queries, 1);
    assert_eq!(scalar.len(), queries.len());
    assert_eq!(kernels.len(), queries.len());
    for (qi, (s, k)) in scalar.iter().zip(&kernels).enumerate() {
        assert_eq!(s.ids(), k.ids(), "query {qi}: candidate ids diverge");
        let bits = |r: &NncResult| -> Vec<u64> {
            r.candidates.iter().map(|c| c.min_dist.to_bits()).collect()
        };
        assert_eq!(bits(s), bits(k), "query {qi}: min_dist bits diverge");
        assert_eq!(
            frozen(&s.stats),
            frozen(&k.stats),
            "query {qi}: frozen counters diverge \
             (instance_comparisons, dominance_checks, flow_runs, mbr_checks)"
        );
    }
}

/// P-SD on 70-instance objects, whose exact networks need two bitset words
/// per side, under both step-6 strategies: query hulls of at most 8
/// vertices take the distance-space containment scan, larger hulls the
/// nested `⪯_Q` scan. With the level filter on and off (off sends every
/// inconclusive pair straight to the exact network), NNC and k-NNC with
/// kernels on emit the scalar path's ids, `min_dist` bits and frozen
/// counters.
#[test]
fn wide_objects_are_bit_identical_under_both_network_strategies() {
    let seed = 0x0517;
    // Wide (edge 1500) overlapping objects, so that pairs survive the
    // cheap filters and reach the exact network.
    let objects = generate_objects(&SynthParams {
        n: 40,
        dim: 3,
        instances: 70,
        edge: 1_500.0,
        centers: CenterDistribution::AntiCorrelated,
        seed,
    });
    let db = Database::new(objects.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    let op = Operator::PSd;
    let mut exact_only = FilterConfig::all();
    exact_only.level_by_level = false;
    // Whether a query with a small (≤ 8) / large hull solved step-6 networks.
    let mut solved = [false; 2];
    for m_q in [4, 4, 40, 40] {
        let center = objects[rng.gen_range(0..objects.len())].mbr().center();
        let query = PreparedQuery::new(object_around(&mut rng, center.coords(), 3, m_q, 200.0));
        let large_hull = query.hull().len() > 8;
        for with in [FilterConfig::all(), exact_only] {
            let without = with.scalar();
            let k_res = nn_candidates(&db, &query, op, &with);
            let s_res = nn_candidates(&db, &query, op, &without);
            assert_eq!(k_res.ids(), s_res.ids(), "m_q = {m_q}: ids");
            for (a, b) in k_res.candidates.iter().zip(&s_res.candidates) {
                assert_eq!(a.min_dist.to_bits(), b.min_dist.to_bits(), "m_q = {m_q}");
            }
            assert_eq!(frozen(&k_res.stats), frozen(&s_res.stats), "m_q = {m_q}");
            for k in [2usize, 3] {
                let kk = k_nn_candidates(&db, &query, op, k, &with);
                let ks = k_nn_candidates(&db, &query, op, k, &without);
                assert_eq!(kk.ids(), ks.ids(), "m_q = {m_q}, k = {k}: ids");
                assert_eq!(frozen(&kk.stats), frozen(&ks.stats), "m_q = {m_q}, k = {k}");
                if !with.level_by_level && kk.stats.flow_runs > 0 {
                    solved[large_hull as usize] = true;
                }
            }
        }
    }
    assert_eq!(
        solved,
        [true, true],
        "both step-6 strategies must solve networks"
    );
}

/// An object of `m` rows in `dim` dimensions (with its first row repeated
/// when `m ≥ 2`, so duplicated instances are always present) and `n_q`
/// probes. Each probe coordinate lies below, above or inside the object's
/// box, so most probes are outside it with box bounds of every size. By
/// `seed % 4` the probe set also holds a copy of a row (key 0), the box
/// centre (inside the box, bound 0), or a repeated probe.
fn object_and_probes(dim: usize, m: usize, n_q: usize, seed: u64) -> (Vec<f64>, Vec<Point>) {
    let mut rows = awkward_coords(dim * m, seed);
    if m >= 2 {
        rows.copy_within(..dim, (m - 1) * dim);
    }
    let mbr = Mbr::from_rows(&rows, dim);
    let offsets = awkward_coords(dim * n_q, seed ^ 0xC0FF_EE00);
    let sides = awkward_coords(dim * n_q, seed ^ 0x51DE_5000);
    let mut probes: Vec<Point> = (0..n_q)
        .map(|j| {
            let coords: Vec<f64> = (0..dim)
                .map(|k| {
                    let off = offsets[j * dim + k].abs();
                    match (sides[j * dim + k].to_bits() >> 7) % 3 {
                        0 => mbr.lo()[k] - off,
                        1 => mbr.hi()[k] + off,
                        _ => off.clamp(mbr.lo()[k], mbr.hi()[k]),
                    }
                })
                .collect();
            Point::new(coords)
        })
        .collect();
    match seed % 4 {
        1 => {
            let r = (seed as usize / 4) % m;
            probes.push(Point::new(rows[r * dim..(r + 1) * dim].to_vec()));
        }
        2 => probes.push(mbr.center()),
        3 => probes.push(probes[0].clone()),
        _ => {}
    }
    (rows, probes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pruned probe scan of an object's rows (the kernel-path traversal
    /// key) equals the one-descent `RTree::min_dist2_multi` and the fold of
    /// per-probe `nearest` searches (the scalar-path key) bit for bit —
    /// across d = 1..5, m up to 100 rows, up to 50 probes, ±0.0,
    /// duplicated rows, single-row objects and probes inside the box.
    #[test]
    fn prop_min_dist2_rows_multi_matches_tree_searches(
        dim in 1usize..=5,
        m in 1usize..=100,
        n_q in 1usize..=49,
        seed in 0u64..1_000_000,
    ) {
        let (rows, probes) = object_and_probes(dim, m, n_q, seed);
        let mbr = Mbr::from_rows(&rows, dim);
        let tree = RTree::bulk_load_rows(4, dim, &rows);
        let scan = min_dist2_rows_multi(&rows, dim, &probes, &mbr).unwrap();
        let mut visits = 0;
        let descent = tree.min_dist2_multi(&probes, &mut visits).unwrap();
        prop_assert_eq!(scan.to_bits(), descent.to_bits());
        // The traversal keys: sqrt-then-square of the folded minimum on
        // the kernel path, min of squared nearest distances on the scalar.
        let scan_key = {
            let d = scan.sqrt();
            d * d
        };
        let nearest_key = probes
            .iter()
            .map(|q| {
                let (_, d) = tree.nearest(q).unwrap();
                d * d
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(scan_key.to_bits(), nearest_key.to_bits());
        // A probe that is one of the rows pins the key to +0.0.
        if probes.iter().any(|q| rows.chunks_exact(dim).any(|r| r == q.coords())) {
            prop_assert_eq!(scan.to_bits(), 0.0f64.to_bits());
        }
    }
}
