//! The SS-SD dominance check (Definition 3, §5.1.1).
//!
//! `SS-SD(U, V, Q)` iff `U_q ⪯_st V_q` for **every** query instance `q`,
//! and `U_Q ≠ V_Q`. After cover-based validation via strict MBR dominance
//! (Theorem 4) the check runs in two parts, both shared with P-SD, which
//! refutes through them (`¬SS-SD ⇒ ¬P-SD`, Theorem 2):
//!
//! * [`statistics_refute`] — statistic-based pruning (Theorem 11) on the
//!   aggregate statistics of `U_Q` (cover-based: `¬S-SD ⇒ ¬SS-SD`) and
//!   then on those of each `U_q`;
//! * [`per_instance`] — the level-by-level bounds per query instance, and
//!   when they are inconclusive one merged scan per query instance.

use crate::ctx::CheckCtx;
use osd_uncertain::stochastic::stochastically_dominates_counted;

pub(crate) fn check(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    if ctx.cfg.mbr_validation && ctx.validate_mbr(u, v) {
        return true;
    }
    if ctx.cfg.pruning && statistics_refute(u, v, ctx) {
        return false;
    }
    match per_instance(u, v, ctx) {
        PerInstance::Refuted => false,
        PerInstance::Certified => true,
        PerInstance::Holds => ctx.strict_guard(u, v),
    }
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

/// Outcome of [`per_instance`].
pub(super) enum PerInstance {
    /// Some `U_q ⪯_st V_q` fails.
    Refuted,
    /// The level bounds validated every `U_q ⪯_st V_q` with a strictly
    /// smaller mean, which certifies `U_Q ≠ V_Q` as well.
    Certified,
    /// The exact scans found `U_q ⪯_st V_q` for every `q`; `U_Q ≠ V_Q` is
    /// left to the caller's strict guard.
    Holds,
}

/// Decides `U_q ⪯_st V_q` for every query instance: the per-instance
/// level-by-level bounds (§5.1.1) first, then — if they are inconclusive —
/// one merged scan per query instance.
pub(super) fn per_instance(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> PerInstance {
    if ctx.cfg.level_by_level {
        match super::level::try_decide(u, v, super::level::Granularity::PerInstance, ctx) {
            Some(true) => return PerInstance::Certified,
            Some(false) => return PerInstance::Refuted,
            None => {}
        }
    }
    let du = ctx.per_q(u);
    let dv = ctx.per_q(v);
    for (x, y) in du.iter().zip(dv.iter()) {
        if !stochastically_dominates_counted(x, y, &mut ctx.stats.instance_comparisons) {
            return PerInstance::Refuted;
        }
    }
    PerInstance::Holds
}
