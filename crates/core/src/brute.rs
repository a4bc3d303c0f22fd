//! Brute-force NNC computation — the `O(n²)` reference implementation.
//!
//! Definition 6 directly: an object is a candidate iff no other object
//! dominates it. Used as the correctness oracle for Algorithm 1 and as the
//! `BF` baseline of the Appendix C ablation.

use crate::config::{FilterConfig, Stats};
use crate::ctx::CheckCtx;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;

/// Computes `NNC(O, Q, SD)` by checking every object against every other.
/// Returns candidate ids in ascending id order plus the accumulated
/// counters.
pub fn nn_candidates_bruteforce(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> (Vec<usize>, Stats) {
    dominated_fewer_than(db, query, op, 1, cfg)
}

/// The live objects dominated by fewer than `k` other live objects, in
/// ascending id order, plus the accumulated counters: the one oracle loop
/// behind [`nn_candidates_bruteforce`] (`k = 1`) and
/// [`k_nn_candidates_bruteforce`](crate::k_nn_candidates_bruteforce). An
/// object's scan stops at its `k`-th dominator.
///
/// # Panics
/// Panics if `k == 0`.
pub(crate) fn dominated_fewer_than(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
) -> (Vec<usize>, Stats) {
    assert!(k >= 1, "k must be at least 1");
    let mut ctx = CheckCtx::new(db, query, *cfg);
    // Tombstoned ids are skipped: the dominance relation ranges over the
    // live objects of the pinned snapshot only.
    let live: Vec<usize> = (0..db.len()).filter(|&id| db.is_live(id)).collect();
    let out = live
        .iter()
        .copied()
        .filter(|&v| {
            let dominators = live
                .iter()
                .filter(|&&u| u != v && ctx.dominates(op, u, v))
                .take(k)
                .count();
            dominators < k
        })
        .collect();
    (out, ctx.stats)
}
