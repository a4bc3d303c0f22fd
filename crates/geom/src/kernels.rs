//! Blocked distance kernels over contiguous row-major coordinate blocks.
//!
//! The columnar `InstanceStore` keeps every instance of an object in one
//! flat `dim`-strided slice. These kernels exploit that layout: one call
//! evaluates a whole block of rows against a single probe point, with the
//! row loop unrolled 4-wide so the compiler can keep four independent
//! accumulator chains in flight (and auto-vectorise them) instead of
//! serialising on one.
//!
//! # Bit-identity contract
//!
//! Every kernel is bit-for-bit identical to the scalar fold it replaces:
//!
//! * each row's squared distance uses the exact left-to-right
//!   `zip`/`sum` fold of [`dist2_slice`] — unrolling happens across
//!   *rows*, never inside a row's accumulation;
//! * [`min_dist2_rows`] / [`max_dist2_rows`] fold row results in row
//!   order with the same `f64::min` / `f64::max` combiner as the
//!   `ObjectRef::min_dist` / `max_dist` scans (squared distances are sums
//!   of squares, hence never `-0.0`, so the min/max folds are unambiguous
//!   at the bit level too);
//! * [`min_dist2_rows_multi`] folds those per-probe minima with the same
//!   `f64::min`, skipping only probes whose box lower bound shows they
//!   cannot lower the running minimum.
//!
//! The contract is enforced three ways: debug assertions in
//! [`dist2_rows_batch`] and [`min_dist2_rows_multi`] re-check the result
//! against the [`dist2_slice`] fold, the unit tests below compare bits on
//! adversarial inputs, and the vendored proptest suite
//! (`tests/kernel_identity.rs` at the workspace root) fuzzes dims 1–8
//! including ±0.0 and duplicated rows, and checks
//! [`min_dist2_rows_multi`] against the local R-tree searches.
//!
//! These functions are allocation-free by design (the `no-alloc-in-kernels`
//! xtask rule keeps them that way): callers own and reuse the output
//! buffers across calls.

use crate::mbr::Mbr;
use crate::point::{dist2_slice, Point};

/// Asserts the common row-block preconditions shared by all kernels.
#[inline]
fn check_block(rows: &[f64], dim: usize, q: &[f64]) -> usize {
    assert!(dim > 0, "row blocks need at least one dimension");
    assert!(
        rows.len().is_multiple_of(dim),
        "row block length must be a multiple of dim"
    );
    assert!(q.len() == dim, "probe point dimensionality must match rows");
    rows.len() / dim
}

/// Squared Euclidean distance of one row to the probe — the exact
/// left-to-right fold of [`dist2_slice`], kept private so the unroll below
/// cannot drift from it.
#[inline(always)]
fn dist2_row(row: &[f64], q: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in row.iter().zip(q.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Writes `δ²(row_i, q)` for every `dim`-strided row of `rows` into `out`.
///
/// The blocked twin of mapping [`dist2_slice`] over `chunks_exact(dim)`:
/// results are bit-for-bit identical (see the module docs for the
/// contract), but the 4-wide row unroll exposes four independent
/// accumulator chains per iteration.
///
/// # Panics
/// Panics if `dim == 0`, `rows.len()` is not a multiple of `dim`,
/// `q.len() != dim`, or `out.len() != rows.len() / dim`.
pub fn dist2_rows_batch(rows: &[f64], dim: usize, q: &[f64], out: &mut [f64]) {
    let n = check_block(rows, dim, q);
    assert!(out.len() == n, "output buffer must hold one value per row");
    let mut i = 0;
    while i + 4 <= n {
        let base = i * dim;
        let r0 = &rows[base..base + dim];
        let r1 = &rows[base + dim..base + 2 * dim];
        let r2 = &rows[base + 2 * dim..base + 3 * dim];
        let r3 = &rows[base + 3 * dim..base + 4 * dim];
        out[i] = dist2_row(r0, q);
        out[i + 1] = dist2_row(r1, q);
        out[i + 2] = dist2_row(r2, q);
        out[i + 3] = dist2_row(r3, q);
        i += 4;
    }
    while i < n {
        out[i] = dist2_row(&rows[i * dim..(i + 1) * dim], q);
        i += 1;
    }
    debug_assert!(
        rows.chunks_exact(dim)
            .zip(out.iter())
            .all(|(row, d2)| d2.to_bits() == dist2_slice(row, q).to_bits()),
        "blocked kernel diverged from the scalar dist2_slice fold"
    );
}

/// Minimal squared distance from the probe to any row:
/// `min_i δ²(row_i, q)`, folded in row order with `f64::min` starting from
/// `+∞` (so an empty block yields `+∞`, matching the scalar fold).
///
/// # Panics
/// Panics if `dim == 0`, `rows.len()` is not a multiple of `dim`, or
/// `q.len() != dim`.
pub fn min_dist2_rows(rows: &[f64], dim: usize, q: &[f64]) -> f64 {
    let n = check_block(rows, dim, q);
    let mut best = f64::INFINITY;
    let mut i = 0;
    while i + 4 <= n {
        let base = i * dim;
        let d0 = dist2_row(&rows[base..base + dim], q);
        let d1 = dist2_row(&rows[base + dim..base + 2 * dim], q);
        let d2 = dist2_row(&rows[base + 2 * dim..base + 3 * dim], q);
        let d3 = dist2_row(&rows[base + 3 * dim..base + 4 * dim], q);
        best = best.min(d0).min(d1).min(d2).min(d3);
        i += 4;
    }
    while i < n {
        best = best.min(dist2_row(&rows[i * dim..(i + 1) * dim], q));
        i += 1;
    }
    best
}

/// Maximal squared distance from the probe to any row:
/// `max_i δ²(row_i, q)`, folded in row order with `f64::max` starting from
/// `0.0` (matching the scalar `fold(0.0, f64::max)` scan).
///
/// # Panics
/// Panics if `dim == 0`, `rows.len()` is not a multiple of `dim`, or
/// `q.len() != dim`.
pub fn max_dist2_rows(rows: &[f64], dim: usize, q: &[f64]) -> f64 {
    let n = check_block(rows, dim, q);
    let mut worst = 0.0f64;
    let mut i = 0;
    while i + 4 <= n {
        let base = i * dim;
        let d0 = dist2_row(&rows[base..base + dim], q);
        let d1 = dist2_row(&rows[base + dim..base + 2 * dim], q);
        let d2 = dist2_row(&rows[base + 2 * dim..base + 3 * dim], q);
        let d3 = dist2_row(&rows[base + 3 * dim..base + 4 * dim], q);
        worst = worst.max(d0).max(d1).max(d2).max(d3);
        i += 4;
    }
    while i < n {
        worst = worst.max(dist2_row(&rows[i * dim..(i + 1) * dim], q));
        i += 1;
    }
    worst
}

/// Probes whose box bounds [`min_dist2_rows_multi`] holds at once, in a
/// stack buffer.
const PROBE_BLOCK: usize = 16;

/// Minimal squared distance from *any* probe to any row:
/// `min_q min_i δ²(row_i, q)` — an object's exact `δ_min(V, Q)²` from its
/// contiguous instance rows and its bounding box `mbr`.
///
/// The probes go in blocks of `PROBE_BLOCK` (16). Each probe's box bound
/// `mbr.min_dist2_point(q)` is computed once, into a stack buffer; the
/// block's probe with the smallest bound is scanned first, and every
/// probe is scanned only if its bound is below the running best (`+∞`
/// before the first scan). The bound never exceeds any row's
/// `δ²` in IEEE arithmetic (per dimension `|row − q| ≥ |face − q|`,
/// squares and the left-to-right sum are monotone), so a skipped probe
/// could not lower the minimum and the result equals the unpruned fold
/// bit-for-bit: the same [`min_dist2_rows`] values folded with the
/// order-insensitive `f64::min` (squared distances are never `-0.0`).
///
/// `None` iff `rows` or `probes` is empty.
///
/// # Panics
/// Panics if `dim == 0`, `rows.len()` is not a multiple of `dim`, or the
/// dimensionality of `mbr` or of a probe differs from `dim`.
pub fn min_dist2_rows_multi(rows: &[f64], dim: usize, probes: &[Point], mbr: &Mbr) -> Option<f64> {
    assert!(mbr.dim() == dim, "box dimensionality must match rows");
    let mut bounds = [0.0f64; PROBE_BLOCK];
    let mut best = f64::INFINITY;
    for block in probes.chunks(PROBE_BLOCK) {
        let mut first = 0;
        for (i, q) in block.iter().enumerate() {
            assert!(q.dim() == dim, "probe point dimensionality must match rows");
            bounds[i] = mbr.min_dist2_point(q);
            if bounds[i] < bounds[first] {
                first = i;
            }
        }
        if rows.is_empty() {
            continue;
        }
        if bounds[first] < best {
            best = best.min(min_dist2_rows(rows, dim, block[first].coords()));
        }
        for (i, q) in block.iter().enumerate() {
            if i != first && bounds[i] < best {
                best = best.min(min_dist2_rows(rows, dim, q.coords()));
            }
        }
    }
    if probes.is_empty() || rows.is_empty() {
        return None;
    }
    debug_assert!(
        best.to_bits()
            == probes
                .iter()
                .flat_map(|q| rows
                    .chunks_exact(dim)
                    .map(|row| dist2_slice(row, q.coords())))
                .fold(f64::INFINITY, f64::min)
                .to_bits(),
        "pruned probe scan diverged from the scalar dist2_slice fold"
    );
    Some(best)
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::point::dist_slice;

    /// Deterministic awkward coordinates: mixes of tiny, huge, negative
    /// and signed-zero values that expose any re-association of the fold.
    fn awkward(n: usize, dim: usize) -> Vec<f64> {
        let menu = [
            0.1,
            -0.2,
            1e-13,
            3e7,
            -2.5,
            0.30000000000000004,
            0.0,
            -0.0,
            7.25,
            -1e-7,
        ];
        (0..n * dim)
            .map(|i| menu[(i * 7 + 3) % menu.len()])
            .collect()
    }

    #[test]
    fn batch_matches_scalar_bits_across_dims() {
        for dim in 1..=8 {
            for n in [0usize, 1, 2, 3, 4, 5, 7, 9, 16] {
                let rows = awkward(n, dim);
                let q: Vec<f64> = awkward(1, dim).iter().map(|c| c * 0.5 - 0.125).collect();
                let mut out = vec![0.0; n];
                dist2_rows_batch(&rows, dim, &q, &mut out);
                for (row, d2) in rows.chunks_exact(dim).zip(out.iter()) {
                    assert_eq!(
                        d2.to_bits(),
                        dist2_slice(row, &q).to_bits(),
                        "dim {dim}, n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_max_match_scalar_folds_bitwise() {
        for dim in 1..=8 {
            for n in [1usize, 2, 3, 4, 5, 6, 8, 11] {
                let rows = awkward(n, dim);
                let q = awkward(1, dim);
                let scalar_min = rows
                    .chunks_exact(dim)
                    .map(|row| dist2_slice(row, &q))
                    .fold(f64::INFINITY, f64::min);
                let scalar_max = rows
                    .chunks_exact(dim)
                    .map(|row| dist2_slice(row, &q))
                    .fold(0.0, f64::max);
                assert_eq!(
                    min_dist2_rows(&rows, dim, &q).to_bits(),
                    scalar_min.to_bits()
                );
                assert_eq!(
                    max_dist2_rows(&rows, dim, &q).to_bits(),
                    scalar_max.to_bits()
                );
            }
        }
    }

    #[test]
    fn sqrt_of_min_matches_min_of_sqrt_bits() {
        // The scalar δ_min scan folds *square-rooted* distances; the
        // kernel square-roots the folded minimum. √ is monotone and
        // squared distances are never -0.0, so the two agree bit-for-bit.
        for dim in [1usize, 2, 3, 5] {
            let rows = awkward(9, dim);
            let q = awkward(1, dim);
            let scalar = rows
                .chunks_exact(dim)
                .map(|row| dist_slice(row, &q))
                .fold(f64::INFINITY, f64::min);
            let blocked = min_dist2_rows(&rows, dim, &q).sqrt();
            assert_eq!(blocked.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn duplicated_and_signed_zero_rows() {
        let rows = [0.0, -0.0, 0.0, -0.0, 1.0, 1.0, 1.0, 1.0];
        let q = [0.0, 0.0];
        let mut out = [0.0; 4];
        dist2_rows_batch(&rows, 2, &q, &mut out);
        assert_eq!(out[0].to_bits(), out[1].to_bits(), "duplicate rows agree");
        assert_eq!(out[0], 0.0);
        assert!(out[0].is_sign_positive(), "δ² is never -0.0");
        assert_eq!(min_dist2_rows(&rows, 2, &q), 0.0);
        assert_eq!(max_dist2_rows(&rows, 2, &q), 2.0);
    }

    #[test]
    fn empty_block_folds_to_identities() {
        assert_eq!(min_dist2_rows(&[], 3, &[0.0, 0.0, 0.0]), f64::INFINITY);
        assert_eq!(max_dist2_rows(&[], 3, &[0.0, 0.0, 0.0]), 0.0);
    }

    /// The unpruned reference: every probe against every row.
    fn multi_fold(rows: &[f64], dim: usize, probes: &[Point]) -> f64 {
        probes
            .iter()
            .map(|q| min_dist2_rows(rows, dim, q.coords()))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn multi_probe_scan_matches_unpruned_fold_bitwise() {
        for dim in 1..=5 {
            for n in [1usize, 2, 5, 9] {
                let rows = awkward(n, dim);
                let mbr = Mbr::from_rows(&rows, dim);
                // Probes inside, on and far outside the box, plus one
                // repeated probe (equal bounds must not change the fold).
                let mut probes: Vec<Point> = (0..6)
                    .map(|k| {
                        let shift = [0.0, 0.5, -3.0, 1e6, 0.125, -0.0][k];
                        Point::new(
                            awkward(1, dim)
                                .iter()
                                .map(|c| c + shift)
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                probes.push(mbr.center());
                probes.push(probes[1].clone());
                let scan = min_dist2_rows_multi(&rows, dim, &probes, &mbr);
                assert_eq!(
                    scan.map(f64::to_bits),
                    Some(multi_fold(&rows, dim, &probes).to_bits()),
                    "dim {dim}, n {n}"
                );
            }
        }
    }

    #[test]
    fn multi_probe_scan_spans_probe_blocks() {
        // More probes than one stack block holds: later blocks seed their
        // own scan, still against the running best of the earlier ones.
        let rows = awkward(9, 3);
        let mbr = Mbr::from_rows(&rows, 3);
        for count in [
            PROBE_BLOCK - 1,
            PROBE_BLOCK,
            PROBE_BLOCK + 1,
            3 * PROBE_BLOCK + 5,
        ] {
            let probes: Vec<Point> = (0..count)
                .map(|k| {
                    let shift = 40.0 - 2.5 * k as f64;
                    Point::new(awkward(1, 3).iter().map(|c| c + shift).collect::<Vec<_>>())
                })
                .collect();
            let scan = min_dist2_rows_multi(&rows, 3, &probes, &mbr);
            assert_eq!(
                scan.map(f64::to_bits),
                Some(multi_fold(&rows, 3, &probes).to_bits()),
                "{count} probes"
            );
        }
    }

    #[test]
    fn multi_probe_scan_edge_cases() {
        let rows = [1.0, 2.0, 4.0, 6.0];
        let mbr = Mbr::from_rows(&rows, 2);
        let far = Point::from([100.0, 100.0]);
        let on_row = Point::from([4.0, 6.0]);
        // A probe on a row gives key +0.0 and prunes the far probe.
        let key = min_dist2_rows_multi(&rows, 2, &[far.clone(), on_row], &mbr);
        assert_eq!(key.map(f64::to_bits), Some(0.0f64.to_bits()));
        // A single instance (degenerate box) against one probe is its δ².
        let one = [3.0, -1.0];
        let point_box = Mbr::from_rows(&one, 2);
        assert_eq!(
            min_dist2_rows_multi(&one, 2, std::slice::from_ref(&far), &point_box),
            Some(dist2_slice(&one, far.coords()))
        );
        assert_eq!(min_dist2_rows_multi(&rows, 2, &[], &mbr), None);
        assert_eq!(min_dist2_rows_multi(&[], 2, &[far], &mbr), None);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_block_rejected() {
        let mut out = [0.0; 1];
        dist2_rows_batch(&[1.0, 2.0, 3.0], 2, &[0.0, 0.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "one value per row")]
    fn short_output_rejected() {
        let mut out = [0.0; 1];
        dist2_rows_batch(&[1.0, 2.0, 3.0, 4.0], 2, &[0.0, 0.0], &mut out);
    }
}
