//! The S-SD dominance check (Definition 2, §5.1.1).
//!
//! `S-SD(U, V, Q)` iff `U_Q ⪯_st V_Q` and `U_Q ≠ V_Q`. Decided by a single
//! merged scan of the sorted pairwise distances, with:
//!
//! * cover-based *validation* via strict MBR dominance (Theorem 4);
//! * statistic-based *pruning* on min/mean/max (Theorem 11).

use crate::ctx::CheckCtx;
use osd_uncertain::stochastic::stochastically_dominates_counted;

pub(crate) fn check(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    // Cover-based validation (Theorem 4).
    if ctx.cfg.mbr_validation && ctx.validate_mbr(u, v) {
        return true;
    }
    if ctx.cfg.pruning && statistics_refute(u, v, ctx) {
        return false;
    }
    // Level-by-level bounds over the local R-tree nodes (§5.1.1).
    if ctx.cfg.level_by_level {
        if let Some(decision) =
            super::level::try_decide(u, v, super::level::Granularity::Whole, ctx)
        {
            return decision;
        }
    }
    // Full single-scan check.
    let du = ctx.dist_q(u);
    let dv = ctx.dist_q(v);
    stochastically_dominates_counted(&du, &dv, &mut ctx.stats.instance_comparisons)
        && ctx.strict_guard(u, v)
}

/// Statistic-based pruning (Theorem 11): any inverted min/mean/max
/// statistic of `U_Q` vs `V_Q` disproves stochastic dominance.
pub(super) fn statistics_refute(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    let agg_u = ctx.agg(u);
    let agg_v = ctx.agg(v);
    ctx.stats.instance_comparisons += 3;
    super::inverted(agg_u, agg_v)
}
