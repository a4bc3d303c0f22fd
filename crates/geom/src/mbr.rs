//! Minimal bounding rectangles (MBRs) and box distance bounds.

use crate::point::Point;
use std::fmt;

/// An axis-aligned minimal bounding rectangle in d dimensions.
#[derive(Clone, PartialEq)]
pub struct Mbr {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Mbr {
    /// Creates an MBR from lower and upper corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality, are empty, or if
    /// `lo[i] > hi[i]` for some dimension.
    pub fn new(lo: impl Into<Box<[f64]>>, hi: impl Into<Box<[f64]>>) -> Self {
        let (lo, hi) = (lo.into(), hi.into());
        assert_eq!(lo.len(), hi.len(), "corner dimension mismatch");
        assert!(!lo.is_empty(), "an MBR needs at least one dimension");
        assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "MBR lower corner must not exceed upper corner"
        );
        Mbr { lo, hi }
    }

    /// The MBR of a single point (a degenerate box).
    pub fn from_point(p: &Point) -> Self {
        Mbr {
            lo: p.coords().into(),
            hi: p.coords().into(),
        }
    }

    /// The tightest MBR enclosing a non-empty set of points.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn from_points(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "MBR of an empty point set");
        let mut lo: Vec<f64> = points[0].coords().to_vec();
        let mut hi = lo.clone();
        for p in &points[1..] {
            for (i, &c) in p.coords().iter().enumerate() {
                lo[i] = lo[i].min(c);
                hi[i] = hi[i].max(c);
            }
        }
        Mbr::new(lo, hi)
    }

    /// The tightest MBR enclosing a non-empty row-major coordinate block of
    /// `rows.len() / dim` points — the borrowed-slice twin of
    /// [`Mbr::from_points`], with the identical left-to-right min/max fold so
    /// the corners are bit-for-bit equal.
    ///
    /// # Panics
    /// Panics if `rows` is empty, `dim` is zero, or `rows.len()` is not a
    /// multiple of `dim`.
    pub fn from_rows(rows: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "an MBR needs at least one dimension");
        assert!(!rows.is_empty(), "MBR of an empty point set");
        assert_eq!(
            rows.len() % dim,
            0,
            "row block length must be a multiple of dim"
        );
        let mut lo: Vec<f64> = rows[..dim].to_vec();
        let mut hi = lo.clone();
        for row in rows.chunks_exact(dim).skip(1) {
            for (i, &c) in row.iter().enumerate() {
                lo[i] = lo[i].min(c);
                hi[i] = hi[i].max(c);
            }
        }
        Mbr::new(lo, hi)
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Centre point of the box.
    pub fn center(&self) -> Point {
        let c: Vec<f64> = self
            .lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| 0.5 * (l + h))
            .collect();
        Point::new(c)
    }

    /// The smallest MBR containing both `self` and `other`.
    pub fn union(&self, other: &Mbr) -> Mbr {
        debug_assert_eq!(self.dim(), other.dim());
        let lo: Vec<f64> = self
            .lo
            .iter()
            .zip(other.lo.iter())
            .map(|(a, b)| a.min(*b))
            .collect();
        let hi: Vec<f64> = self
            .hi
            .iter()
            .zip(other.hi.iter())
            .map(|(a, b)| a.max(*b))
            .collect();
        Mbr::new(lo, hi)
    }

    /// `self.union(other).volume()` without building the union box: the
    /// same per-dimension min/max and the same `.product()` fold, so the
    /// result is bit-identical.
    pub fn union_volume(&self, other: &Mbr) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.lo.len())
            .map(|i| self.hi[i].max(other.hi[i]) - self.lo[i].min(other.lo[i]))
            .product()
    }

    /// Grows this MBR in place to contain `other`.
    pub fn expand(&mut self, other: &Mbr) {
        debug_assert_eq!(self.dim(), other.dim());
        for i in 0..self.lo.len() {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// Box volume (product of edge lengths). Zero for degenerate boxes.
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo.iter().zip(other.lo.iter()).all(|(a, b)| a <= b)
            && self.hi.iter().zip(other.hi.iter()).all(|(a, b)| a >= b)
    }

    /// Whether `self` contains the point `p`.
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dim(), p.dim());
        p.coords()
            .iter()
            .enumerate()
            .all(|(i, &c)| self.lo[i] <= c && c <= self.hi[i])
    }

    /// Whether `self` contains the point with coordinate row `row` — the
    /// borrowed-slice twin of [`Mbr::contains_point`].
    pub fn contains_row(&self, row: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), row.len());
        row.iter()
            .enumerate()
            .all(|(i, &c)| self.lo[i] <= c && c <= self.hi[i])
    }

    /// Whether the two boxes intersect (share at least one point).
    pub fn intersects(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo.iter().zip(other.hi.iter()).all(|(l, h)| l <= h)
            && other.lo.iter().zip(self.hi.iter()).all(|(l, h)| l <= h)
    }

    /// Squared minimal distance from a point to this box (0 if inside).
    pub fn min_dist2_point(&self, p: &Point) -> f64 {
        debug_assert_eq!(self.dim(), p.dim());
        p.coords()
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let d = if c < self.lo[i] {
                    self.lo[i] - c
                } else if c > self.hi[i] {
                    c - self.hi[i]
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// Minimal distance from a point to this box.
    #[inline]
    pub fn min_dist_point(&self, p: &Point) -> f64 {
        self.min_dist2_point(p).sqrt()
    }

    /// Squared maximal distance from a point to this box (distance to the
    /// farthest corner).
    pub fn max_dist2_point(&self, p: &Point) -> f64 {
        debug_assert_eq!(self.dim(), p.dim());
        p.coords()
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let d = (c - self.lo[i]).abs().max((c - self.hi[i]).abs());
                d * d
            })
            .sum()
    }

    /// Maximal distance from a point to this box.
    #[inline]
    pub fn max_dist_point(&self, p: &Point) -> f64 {
        self.max_dist2_point(p).sqrt()
    }

    /// Squared minimal distance between two boxes (0 if they intersect).
    pub fn min_dist2(&self, other: &Mbr) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim())
            .map(|i| {
                let d = if other.hi[i] < self.lo[i] {
                    self.lo[i] - other.hi[i]
                } else if other.lo[i] > self.hi[i] {
                    other.lo[i] - self.hi[i]
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// Minimal distance between two boxes.
    #[inline]
    pub fn min_dist(&self, other: &Mbr) -> f64 {
        self.min_dist2(other).sqrt()
    }
}

impl fmt::Debug for Mbr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mbr[{:?}..{:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::new(c.to_vec())
    }

    fn b(lo: &[f64], hi: &[f64]) -> Mbr {
        Mbr::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn from_points_is_tight() {
        let pts = vec![p(&[1.0, 5.0]), p(&[3.0, 2.0]), p(&[-1.0, 4.0])];
        let m = Mbr::from_points(&pts);
        assert_eq!(m.lo(), &[-1.0, 2.0]);
        assert_eq!(m.hi(), &[3.0, 5.0]);
        for q in &pts {
            assert!(m.contains_point(q));
        }
    }

    #[test]
    fn union_contains_both() {
        let a = b(&[0.0, 0.0], &[1.0, 1.0]);
        let c = b(&[2.0, -1.0], &[3.0, 0.5]);
        let u = a.union(&c);
        assert!(u.contains(&a));
        assert!(u.contains(&c));
        assert_eq!(u.lo(), &[0.0, -1.0]);
        assert_eq!(u.hi(), &[3.0, 1.0]);
    }

    #[test]
    fn union_volume_is_bitwise_union_then_volume() {
        // Corner values over-represent ±0.0, ties and degenerate extents.
        let menu: [f64; 7] = [0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 3e7, -2.5e-9];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            menu[(state % menu.len() as u64) as usize]
        };
        for d in 1..=5 {
            for t in 0..200 {
                let mut corners = |degenerate: bool| {
                    let (mut lo, mut hi) = (Vec::new(), Vec::new());
                    for _ in 0..d {
                        let (a, c) = (next(), next());
                        let (l, h) = if a.total_cmp(&c).is_le() {
                            (a, c)
                        } else {
                            (c, a)
                        };
                        lo.push(l);
                        hi.push(if degenerate { l } else { h });
                    }
                    b(&lo, &hi)
                };
                let (x, y) = (corners(false), corners(t % 3 == 0));
                assert_eq!(x.union_volume(&y).to_bits(), x.union(&y).volume().to_bits());
                assert_eq!(y.union_volume(&x).to_bits(), y.union(&x).volume().to_bits());
                assert_eq!(x.union_volume(&x).to_bits(), x.volume().to_bits());
            }
        }
    }

    #[test]
    fn volume_basics() {
        let m = b(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(m.volume(), 6.0);
        assert_eq!(Mbr::from_point(&p(&[1.0, 1.0])).volume(), 0.0);
    }

    #[test]
    fn point_distance_inside_is_zero() {
        let m = b(&[0.0, 0.0], &[4.0, 4.0]);
        assert_eq!(m.min_dist_point(&p(&[2.0, 2.0])), 0.0);
        assert_eq!(m.min_dist_point(&p(&[6.0, 2.0])), 2.0);
        // farthest corner of the box from (2,2) is any corner: dist = sqrt(8)
        assert!((m.max_dist_point(&p(&[2.0, 2.0])) - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn box_box_distances() {
        let a = b(&[0.0, 0.0], &[1.0, 1.0]);
        let c = b(&[4.0, 0.0], &[5.0, 1.0]);
        assert_eq!(a.min_dist(&c), 3.0);
        assert_eq!(a.min_dist(&a), 0.0);
    }

    #[test]
    fn intersects_works() {
        let a = b(&[0.0, 0.0], &[2.0, 2.0]);
        assert!(a.intersects(&b(&[1.0, 1.0], &[3.0, 3.0])));
        assert!(a.intersects(&b(&[2.0, 2.0], &[3.0, 3.0]))); // touching counts
        assert!(!a.intersects(&b(&[2.1, 0.0], &[3.0, 1.0])));
    }

    #[test]
    #[should_panic(expected = "lower corner")]
    fn inverted_box_rejected() {
        let _ = b(&[1.0], &[0.0]);
    }

    #[test]
    fn from_rows_matches_from_points_bitwise() {
        let pts = vec![p(&[1.0, 5.0]), p(&[3.0, 2.0]), p(&[-1.0, 4.0])];
        let rows: Vec<f64> = pts.iter().flat_map(|q| q.coords().to_vec()).collect();
        let a = Mbr::from_points(&pts);
        let c = Mbr::from_rows(&rows, 2);
        assert_eq!(a, c);
        for (x, y) in a.lo().iter().zip(c.lo().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.hi().iter().zip(c.hi().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn row_kernels_match_point_kernels() {
        let m = b(&[0.0, 0.0], &[4.0, 4.0]);
        for q in [p(&[2.0, 2.0]), p(&[6.0, 2.0]), p(&[-1.5, 7.25])] {
            assert_eq!(m.contains_row(q.coords()), m.contains_point(&q));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_row_block_rejected() {
        let _ = Mbr::from_rows(&[0.0, 1.0, 2.0], 2);
    }
}
