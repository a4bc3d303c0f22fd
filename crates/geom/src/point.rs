//! d-dimensional points and Euclidean distance primitives.
//!
//! The paper assumes Euclidean distance throughout (§2.1); points expose
//! squared and plain Euclidean helpers.

use std::fmt;

/// Largest coordinate magnitude accepted from untrusted input (dataset
/// files, query strings) and by the index builders. Within it, the
/// squared distance between two points stays finite up to ~10⁷
/// dimensions (`4·10³⁰⁰·d < f64::MAX`), so no distance distribution is
/// handed an infinite value.
pub const MAX_INPUT_COORD: f64 = 1e150;

/// A point (instance) in d-dimensional space.
///
/// Coordinates are stored in a boxed slice: a point is created once and never
/// resized, so we save a word over `Vec` (see the type-size guidance in the
/// Rust perf book) — millions of instances are held in memory at once.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    /// Panics if `coords` is empty or contains a non-finite value.
    pub fn new(coords: impl Into<Box<[f64]>>) -> Self {
        let coords = coords.into();
        assert!(!coords.is_empty(), "a point needs at least one dimension");
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "point coordinates must be finite"
        );
        Point { coords }
    }

    /// The dimensionality of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The `i`-th coordinate (`p[i]` in the paper's notation).
    #[inline]
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// Squared Euclidean distance to another point.
    ///
    /// # Panics
    /// Panics in debug builds if dimensions differ.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance δ(u, v) to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Minimal Euclidean distance from this point to a non-empty set of
    /// points: `δ_min(x, S) = min_{y ∈ S} δ(x, y)`.
    ///
    /// # Panics
    /// Panics if `set` is empty.
    pub fn dist_min(&self, set: &[Point]) -> f64 {
        assert!(!set.is_empty(), "δ_min of an empty set is undefined");
        set.iter()
            .map(|y| self.dist(y))
            .min_by(f64::total_cmp)
            .unwrap_or(f64::INFINITY)
    }
}

/// Squared Euclidean distance between two coordinate rows.
///
/// This is the borrowed-slice twin of [`Point::dist2`] for callers that keep
/// instances in a flat row-major store: the fold order (left-to-right
/// `zip`/`sum`) is identical, so results are bit-for-bit equal to the boxed
/// representation.
///
/// # Panics
/// Panics in debug builds if the rows have different lengths.
#[inline]
pub fn dist2_slice(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance δ(a, b) between two coordinate rows — the
/// borrowed-slice twin of [`Point::dist`].
#[inline]
pub fn dist_slice(a: &[f64], b: &[f64]) -> f64 {
    dist2_slice(a, b).sqrt()
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Point::new(v)
    }
}

impl<const N: usize> From<[f64; N]> for Point {
    fn from(a: [f64; N]) -> Self {
        Point::new(a.to_vec())
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

    #[test]
    fn distance_basics() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[3.0, 4.0]);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn distance_symmetric() {
        let a = p(&[1.0, 2.0, 3.0]);
        let b = p(&[-4.0, 0.5, 9.0]);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn min_set_distance() {
        let x = p(&[0.0, 0.0]);
        let set = vec![p(&[1.0, 0.0]), p(&[0.0, 2.0]), p(&[3.0, 4.0])];
        assert_eq!(x.dist_min(&set), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_point_rejected() {
        let _ = Point::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = p(&[0.0, f64::NAN]);
    }

    #[test]
    fn slice_kernels_match_point_kernels_bitwise() {
        let a = p(&[0.1, 0.2, 0.3, 0.4]);
        let b = p(&[-1.7, 2.5, 0.30000000000000004, 1e-13]);
        assert_eq!(
            dist2_slice(a.coords(), b.coords()).to_bits(),
            a.dist2(&b).to_bits()
        );
        assert_eq!(
            dist_slice(a.coords(), b.coords()).to_bits(),
            a.dist(&b).to_bits()
        );
    }

    #[test]
    fn from_array() {
        let a: Point = [1.0, 2.0].into();
        assert_eq!(a.dim(), 2);
        assert_eq!(a.coord(1), 2.0);
    }
}
