//! The `u ⪯_Q v` relation: instance-level closeness w.r.t. a query point set.
//!
//! `u ⪯_Q v` holds iff `δ(u, q) ≤ δ(v, q)` for **every** `q ∈ Q`
//! (Definition preceding Definition 5 in the paper). Geometrically this means
//! every query point lies on `u`'s side of the bisector hyperplane between
//! `u` and `v`, so it suffices to test the vertices of `CH(Q)` (§5.1.2).

use crate::point::{dist2_slice, Point};

/// Returns `true` iff `δ(u, q) ≤ δ(v, q)` for every `q` in `queries`.
///
/// Callers that have already reduced the query to its convex-hull vertices
/// should pass only those — the result is identical and the scan shorter.
pub fn closer_to_all(u: &Point, v: &Point, queries: &[Point]) -> bool {
    queries.iter().all(|q| u.dist2(q) <= v.dist2(q))
}

/// Borrowed-row twin of [`closer_to_all`] for instances held in a flat
/// row-major store: `true` iff `δ(u, q) ≤ δ(v, q)` for every `q`.
pub fn closer_to_all_rows(u: &[f64], v: &[f64], queries: &[Point]) -> bool {
    queries
        .iter()
        .all(|q| dist2_slice(u, q.coords()) <= dist2_slice(v, q.coords()))
}

/// Bisector side test: `true` iff `q` is (weakly) on `u`'s side of the
/// perpendicular bisector hyperplane of segment `(u, v)`.
///
/// Equivalent to `δ(q, u) ≤ δ(q, v)` but phrased as a half-space test:
/// `(v − u) · q ≤ (|v|² − |u|²) / 2`.
pub fn on_near_side(q: &Point, u: &Point, v: &Point) -> bool {
    debug_assert_eq!(q.dim(), u.dim());
    debug_assert_eq!(q.dim(), v.dim());
    let mut lhs = 0.0;
    let mut rhs = 0.0;
    for i in 0..q.dim() {
        let (ui, vi) = (u.coord(i), v.coord(i));
        lhs += (vi - ui) * q.coord(i);
        rhs += vi * vi - ui * ui;
    }
    lhs <= 0.5 * rhs
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    #[test]
    fn closer_matches_direct_definition() {
        let u = p2(0.0, 0.0);
        let v = p2(10.0, 0.0);
        let qs = vec![p2(1.0, 1.0), p2(2.0, -1.0), p2(0.0, 3.0)];
        assert!(closer_to_all(&u, &v, &qs));
        assert!(!closer_to_all(&v, &u, &qs));
        // A query point past the midpoint flips it.
        let qs2 = vec![p2(1.0, 1.0), p2(9.0, 0.0)];
        assert!(!closer_to_all(&u, &v, &qs2));
    }

    #[test]
    fn empty_query_set_is_vacuous() {
        assert!(closer_to_all(&p2(0.0, 0.0), &p2(1.0, 1.0), &[]));
    }

    #[test]
    fn bisector_test_agrees_with_distances() {
        let u = p2(0.0, 0.0);
        let v = p2(4.0, 0.0);
        for q in [p2(1.0, 5.0), p2(2.0, 0.0), p2(3.0, -2.0), p2(-1.0, 0.0)] {
            assert_eq!(on_near_side(&q, &u, &v), q.dist2(&u) <= q.dist2(&v));
        }
    }

    #[test]
    fn row_variants_match_point_variants() {
        let hull = vec![p2(0.0, 0.0), p2(4.0, 0.0), p2(2.0, 3.0)];
        let u = p2(1.25, -0.5);
        let v = p2(5.0, 5.0);
        assert_eq!(
            closer_to_all_rows(u.coords(), v.coords(), &hull),
            closer_to_all(&u, &v, &hull)
        );
    }
}
