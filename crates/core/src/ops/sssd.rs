//! The SS-SD dominance check (Definition 3, §5.1.1).
//!
//! `SS-SD(U, V, Q)` iff `U_q ⪯_st V_q` for **every** query instance `q`,
//! and `U_Q ≠ V_Q`. After cover-based validation via strict MBR dominance
//! (Theorem 4) the check runs:
//!
//! * [`statistics_refute`] — statistic-based pruning (Theorem 11) on the
//!   aggregate statistics of `U_Q` (cover-based: `¬S-SD ⇒ ¬SS-SD`) and
//!   then on those of each `U_q`;
//! * the level-by-level bounds per query instance (§5.1.1), which can
//!   certify the check outright or refute it;
//! * [`scans_hold`] — when the bounds are inconclusive, one merged scan per
//!   query instance, then the strict guard `U_Q ≠ V_Q`.
//!
//! P-SD refutes through SS-SD (`¬SS-SD ⇒ ¬P-SD`, Theorem 2) by running
//! [`statistics_refute`] and [`scans_hold`] alone: a certification by the
//! bounds would not decide P-SD, and the refutations they add are ones
//! the exact network finds anyway.

use crate::ctx::CheckCtx;
use osd_uncertain::stochastic::stochastically_dominates_counted;

pub(crate) fn check(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    if ctx.cfg.mbr_validation && ctx.validate_mbr(u, v) {
        return true;
    }
    if ctx.cfg.pruning && statistics_refute(u, v, ctx) {
        return false;
    }
    if ctx.cfg.level_by_level {
        if let Some(decided) =
            super::level::try_decide(u, v, super::level::Granularity::PerInstance, ctx)
        {
            return decided;
        }
    }
    scans_hold(u, v, ctx) && ctx.strict_guard(u, v)
}

/// Statistic-based pruning (Theorem 11): `true` when an inverted
/// min/mean/max statistic — of `U_Q` vs `V_Q` (the S-SD statistics, which
/// SS-SD implies), then of any `U_q` vs `V_q` — disproves `U_q ⪯_st V_q`
/// for some query instance `q`.
pub(super) fn statistics_refute(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    if super::ssd::statistics_refute(u, v, ctx) {
        return true;
    }
    let agg_u = ctx.per_q_agg(u);
    let agg_v = ctx.per_q_agg(v);
    ctx.stats.instance_comparisons += 3 * agg_u.len() as u64;
    agg_u
        .iter()
        .zip(agg_v.iter())
        .any(|(&a, &b)| super::inverted(a, b))
}

/// The merged scans: `true` iff `U_q ⪯_st V_q` for every query instance
/// `q`. `U_Q ≠ V_Q` is left to the caller's strict guard.
pub(super) fn scans_hold(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    let du = ctx.per_q(u);
    let dv = ctx.per_q(v);
    du.iter()
        .zip(dv.iter())
        .all(|(x, y)| stochastically_dominates_counted(x, y, &mut ctx.stats.instance_comparisons))
}
