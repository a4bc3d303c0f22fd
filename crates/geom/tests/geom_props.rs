//! Property tests for the geometry substrate: MBR distance bounds, the
//! exact MBR dominance test against a sampling oracle, convex hulls, and
//! the simplex solver.

use osd_geom::lp::{LpResult, StandardLp};
use osd_geom::{
    closer_to_all, hull_vertex_indices, mbr_dominates, mbr_dominates_strict, on_near_side,
    point_in_hull, Mbr, Point,
};
use proptest::prelude::*;

fn point2() -> impl Strategy<Value = Point> {
    (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Point::new(vec![x, y]))
}

fn mbr2() -> impl Strategy<Value = Mbr> {
    (0.0f64..80.0, 0.0f64..80.0, 0.0f64..20.0, 0.0f64..20.0)
        .prop_map(|(x, y, w, h)| Mbr::new(vec![x, y], vec![x + w, y + h]))
}

/// Highest dimensionality the d-generic MBR properties draw.
const MAX_D: usize = 5;

/// `count` boxes sharing one dimensionality `d ∈ 2..=MAX_D`, each drawn
/// per dimension as a lower corner in `[0, 80)` and an extent in `[0, 20)`.
fn mbrs_nd(count: usize) -> impl Strategy<Value = (usize, Vec<Mbr>)> {
    let sides = prop::collection::vec((0.0f64..80.0, 0.0f64..20.0), MAX_D);
    (2usize..=MAX_D, prop::collection::vec(sides, count)).prop_map(|(d, raw)| {
        let boxes = raw
            .iter()
            .map(|sides| {
                let (lo, hi): (Vec<f64>, Vec<f64>) =
                    sides[..d].iter().map(|&(lo, w)| (lo, lo + w)).unzip();
                Mbr::new(lo, hi)
            })
            .collect();
        (d, boxes)
    })
}

/// Random point inside a box, parameterised by one unit fraction per
/// dimension (`f` may be longer than the box's dimensionality).
fn inside(m: &Mbr, f: &[f64]) -> Point {
    Point::new(
        (0..m.dim())
            .map(|i| m.lo()[i] + f[i] * (m.hi()[i] - m.lo()[i]))
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Point-box distance bounds actually bound distances to points inside.
    #[test]
    fn prop_mbr_point_bounds(m in mbr2(), q in point2(), fx in 0.0f64..1.0, fy in 0.0f64..1.0) {
        let p = inside(&m, &[fx, fy]);
        let d = q.dist(&p);
        prop_assert!(m.min_dist_point(&q) <= d + 1e-9);
        prop_assert!(m.max_dist_point(&q) >= d - 1e-9);
    }

    /// Box-box distance bounds bound distances between interior points.
    #[test]
    fn prop_mbr_box_bounds(
        a in mbr2(), b in mbr2(),
        fx1 in 0.0f64..1.0, fy1 in 0.0f64..1.0,
        fx2 in 0.0f64..1.0, fy2 in 0.0f64..1.0,
    ) {
        let pa = inside(&a, &[fx1, fy1]);
        let pb = inside(&b, &[fx2, fy2]);
        let d = pa.dist(&pb);
        prop_assert!(a.min_dist(&b) <= d + 1e-9);
    }

    /// The exact O(d) dominance test agrees with a sampled oracle in
    /// d = 2..=5: if it claims dominance, no sampled (q, u, v) triple may
    /// contradict it; if it denies dominance, the strict variant must deny
    /// it too.
    #[test]
    fn prop_mbr_dominates_sound(
        (_d, boxes) in mbrs_nd(3),
        samples in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3 * MAX_D), 32),
    ) {
        let (u, v, q) = (&boxes[0], &boxes[1], &boxes[2]);
        let dominated = mbr_dominates(u, v, q);
        let strictly = mbr_dominates_strict(u, v, q);
        prop_assert!(!strictly || dominated, "strict must imply non-strict");
        if dominated {
            for f in samples {
                let qp = inside(q, &f[..MAX_D]);
                let up = inside(u, &f[MAX_D..2 * MAX_D]);
                let vp = inside(v, &f[2 * MAX_D..]);
                prop_assert!(
                    up.dist2(&qp) <= vp.dist2(&qp) + 1e-9,
                    "sampled triple contradicts mbr_dominates"
                );
            }
        }
    }

    /// Dominance denial is witnessed in d = 2..=5 (after Emrich et al.,
    /// *Complete and Sufficient Spatial Domination of Multidimensional
    /// Rectangles*): when the analytic test says no, some q in the query
    /// box violates maxdist(q, u) ≤ mindist(q, v). Both squared distances
    /// are sums of per-dimension terms, and each term's gap peaks at one of
    /// q's two ends or an interior breakpoint (u's midpoint, v's ends), so
    /// the Cartesian product of those per-dimension sets (at most 5^d
    /// points) must hold a witness.
    #[test]
    fn prop_mbr_dominates_complete_on_corners((d, boxes) in mbrs_nd(3)) {
        let (u, v, q) = (&boxes[0], &boxes[1], &boxes[2]);
        if !mbr_dominates(u, v, q) {
            let mut witnesses: Vec<Vec<f64>> = vec![Vec::new()];
            for i in 0..d {
                let mut c = vec![q.lo()[i], q.hi()[i]];
                for bp in [0.5 * (u.lo()[i] + u.hi()[i]), v.lo()[i], v.hi()[i]] {
                    if bp > q.lo()[i] && bp < q.hi()[i] {
                        c.push(bp);
                    }
                }
                witnesses = witnesses
                    .iter()
                    .flat_map(|w| c.iter().map(move |&x| [w.as_slice(), &[x]].concat()))
                    .collect();
            }
            let found = witnesses.into_iter().any(|w| {
                let qp = Point::new(w);
                u.max_dist2_point(&qp) > v.min_dist2_point(&qp) + 1e-12
            });
            prop_assert!(found, "no witness for ¬mbr_dominates in d = {}", d);
        }
    }

    /// Hull vertices: every input point is inside the hull of the vertices;
    /// removing any vertex loses some point.
    #[test]
    fn prop_hull_contains_all_points(pts in prop::collection::vec(point2(), 1..24)) {
        let idx = hull_vertex_indices(&pts);
        prop_assert!(!idx.is_empty());
        let verts: Vec<Point> = idx.iter().map(|&i| pts[i].clone()).collect();
        for p in &pts {
            prop_assert!(point_in_hull(p, &verts), "point outside its own hull");
        }
        // Each reported vertex must NOT be inside the hull of the others
        // (minimality), unless it duplicates another vertex.
        for (k, &i) in idx.iter().enumerate() {
            let others: Vec<Point> = idx
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != k)
                .map(|(_, &m)| pts[m].clone())
                .collect();
            if others.iter().any(|o| *o == pts[i]) {
                continue;
            }
            if !others.is_empty() {
                prop_assert!(
                    !point_in_hull(&pts[i], &others),
                    "vertex {i} is redundant"
                );
            }
        }
    }

    /// `closer_to_all` evaluated on the hull equals evaluation on all points
    /// (the §5.1.2 half-space reduction).
    #[test]
    fn prop_hull_reduction_preserves_closer(
        qs in prop::collection::vec(point2(), 1..16),
        u in point2(),
        v in point2(),
    ) {
        let idx = hull_vertex_indices(&qs);
        let hull: Vec<Point> = idx.iter().map(|&i| qs[i].clone()).collect();
        prop_assert_eq!(closer_to_all(&u, &v, &qs), closer_to_all(&u, &v, &hull));
    }

    /// The bisector half-space test agrees with direct distance comparison.
    #[test]
    fn prop_bisector_test(q in point2(), u in point2(), v in point2()) {
        prop_assert_eq!(on_near_side(&q, &u, &v), q.dist2(&u) <= q.dist2(&v));
    }

    /// LP sanity: the returned optimum is feasible and no sampled feasible
    /// point beats it.
    #[test]
    fn prop_lp_optimal_is_feasible_and_minimal(
        c0 in -5.0f64..5.0, c1 in -5.0f64..5.0,
        b0 in 1.0f64..10.0,
        t in 0.0f64..1.0,
    ) {
        // min c·x  s.t.  x0 + x1 + s = b0, x ≥ 0  (a bounded simplex).
        let lp = StandardLp::new(
            vec![vec![1.0, 1.0, 1.0]],
            vec![b0],
            vec![c0, c1, 0.0],
        );
        match lp.solve() {
            LpResult::Optimal { x, objective } => {
                prop_assert!(x.iter().all(|&v| v >= -1e-9));
                prop_assert!((x[0] + x[1] + x[2] - b0).abs() < 1e-6);
                // Compare against a random feasible point.
                let f0 = t * b0;
                let f1 = (1.0 - t) * b0;
                let feasible_obj = c0 * f0 + c1 * f1;
                prop_assert!(objective <= feasible_obj + 1e-6);
            }
            other => prop_assert!(false, "expected optimal, got {:?}", other),
        }
    }
}
