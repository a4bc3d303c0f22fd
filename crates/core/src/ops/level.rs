//! Level-by-level stochastic dominance bounds (§5.1.1, last paragraph):
//! "Suppose instances of each object are organized by an R-tree, we may
//! easily extend the above algorithms to conduct dominance check in a
//! level-by-level fashion."
//!
//! At R-tree level ℓ each object is a set of node groups with known MBRs
//! and probability masses. Placing a group's whole mass at its minimal
//! (resp. maximal) distance to a query instance yields an *optimistic*
//! (resp. *pessimistic*) bound distribution:
//!
//! ```text
//! U_opt ⪯_st U_Q ⪯_st U_pes
//! ```
//!
//! which gives, by transitivity of `⪯_st`:
//!
//! * **validation** — `U_pes ⪯_st V_opt  ⇒  U_Q ⪯_st V_Q`
//!   (plus `mean(U_pes) < mean(V_opt)` to certify `U_Q ≠ V_Q`);
//! * **pruning** — `¬(U_opt ⪯_st V_pes)  ⇒  ¬(U_Q ⪯_st V_Q)`.
//!
//! The check descends level by level and stops as soon as either rule
//! fires; inconclusive descents fall through to the exact scan.
//!
//! The descent starts one level below the root, so a pair whose local
//! trees are both single leaves (height 0: at most
//! [`DEFAULT_LOCAL_FANOUT`](crate::db::DEFAULT_LOCAL_FANOUT) instances
//! each) has no level to walk. [`run_filter`], the one entry point of both
//! level filters (this module's S-SD/SS-SD bounds and P-SD's `G⁻` network),
//! answers such a pair "inconclusive" before any phase timer, span or
//! lookup, so no level snapshot is built for a single-leaf object.

use crate::config::Stats;
use crate::ctx::CheckCtx;
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use osd_geom::Mbr;
use osd_obs::{AttrValue, Phase, SpanId};
use osd_uncertain::stochastic::stochastically_dominates_counted;
use osd_uncertain::DistanceDistribution;
use std::borrow::Cow;

/// Which distribution the level bounds approximate.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Granularity {
    /// Bounds on the full `U_Q` (for S-SD).
    Whole,
    /// Bounds on each `U_q` separately (for SS-SD).
    PerInstance,
}

/// Attempts to decide `U_Q ⪯_st V_Q` (strictly, for the SD side condition)
/// from R-tree node bounds. `Some(true)` = validated, `Some(false)` =
/// pruned, `None` = inconclusive.
pub(crate) fn try_decide(
    u: usize,
    v: usize,
    granularity: Granularity,
    ctx: &mut CheckCtx<'_>,
) -> Option<bool> {
    run_filter(u, v, ctx, |ctx| {
        if ctx.cfg.kernels {
            try_decide_snapshot(u, v, granularity, ctx)
        } else {
            try_decide_scalar(u, v, granularity, ctx)
        }
    })
}

/// Runs one level filter on the pair `(u, v)` and returns its decision:
/// `Some(true)` validated, `Some(false)` pruned, `None` inconclusive.
///
/// A pair with no level below the root (both local trees single leaves)
/// is inconclusive at once: the filter's loop over levels `1..=height`
/// would not run. Otherwise the whole descent is recorded under the
/// *level-prune* phase and span.
pub(super) fn run_filter(
    u: usize,
    v: usize,
    ctx: &mut CheckCtx<'_>,
    filter: impl FnOnce(&mut CheckCtx<'_>) -> Option<bool>,
) -> Option<bool> {
    let height = |id| ctx.db.local_tree(id).height().unwrap_or(0);
    if height(u) == 0 && height(v) == 0 {
        return None;
    }
    let guard = ctx.phase(Phase::LevelPrune, "level-prune");
    let decision = filter(ctx);
    let span = guard.span;
    if span != SpanId::NONE {
        ctx.trace.attr(span, "u", AttrValue::U64(u as u64));
        ctx.trace.attr(span, "v", AttrValue::U64(v as u64));
        ctx.trace.attr(
            span,
            "decision",
            AttrValue::Str(Cow::Borrowed(match decision {
                Some(true) => "validated",
                Some(false) => "pruned",
                None => "inconclusive",
            })),
        );
    }
    ctx.end_phase(guard);
    decision
}

fn try_decide_scalar(
    u: usize,
    v: usize,
    granularity: Granularity,
    ctx: &mut CheckCtx<'_>,
) -> Option<bool> {
    let db = ctx.db;
    let query = ctx.query;
    let stats = &mut ctx.stats;
    let tree_u = db.local_tree(u);
    let tree_v = db.local_tree(v);
    let depth = tree_u
        .height()
        .unwrap_or(0)
        .max(tree_v.height().unwrap_or(0));
    for level in 1..=depth {
        let gu = tree_u.level_groups(level);
        let gv = tree_v.level_groups(level);
        // Once both partitions are down to single instances the bounds are
        // exact but cost as much as the exact scan — stop early.
        if gu.len() == db.object(u).len() && gv.len() == db.object(v).len() {
            return None;
        }
        let masses_u = group_masses(db, u, &gu);
        let masses_v = group_masses(db, v, &gv);
        let zu = || group_view(&gu, &masses_u);
        let zv = || group_view(&gv, &masses_v);
        match granularity {
            Granularity::Whole => {
                let (u_opt, u_pes) = bound_whole(query, zu(), stats);
                let (v_opt, v_pes) = bound_whole(query, zv(), stats);
                if validated(&u_pes, &v_opt, stats) {
                    return Some(true);
                }
                if !stochastically_dominates_counted(
                    &u_opt,
                    &v_pes,
                    &mut stats.instance_comparisons,
                ) {
                    return Some(false);
                }
            }
            Granularity::PerInstance => {
                let mut all_validated = true;
                for q in query.object().instances() {
                    let (u_opt, u_pes) = bound_instance(&q.point, zu(), stats);
                    let (v_opt, v_pes) = bound_instance(&q.point, zv(), stats);
                    if !stochastically_dominates_counted(
                        &u_opt,
                        &v_pes,
                        &mut stats.instance_comparisons,
                    ) {
                        return Some(false);
                    }
                    if all_validated && !validated(&u_pes, &v_opt, stats) {
                        all_validated = false;
                    }
                }
                if all_validated {
                    return Some(true);
                }
            }
        }
    }
    None
}

/// The memoized twin of the scalar descent above: identical level loop,
/// early stop, decision rules and comparison counting, but the bound
/// distributions come from the per-(object, level) memo built once per
/// traversal instead of being re-derived and re-sorted for every `(u, v)`
/// pair. Each *use* of a memoized pair charges the same 2-per-(instance,
/// group) comparison cost the scalar rebuild pays, keeping the frozen
/// counters bit-identical. The instance counts of the early stop are the
/// group counts of each snapshot's finest, all-singleton level.
fn try_decide_snapshot(
    u: usize,
    v: usize,
    granularity: Granularity,
    ctx: &mut CheckCtx<'_>,
) -> Option<bool> {
    let m_q = ctx.query.len() as u64;
    let snap_u = ctx.level_snapshot(u);
    let snap_v = ctx.level_snapshot(v);
    let len_u = snap_u.level(snap_u.num_levels()).len();
    let len_v = snap_v.level(snap_v.num_levels()).len();
    let depth = snap_u.height().max(snap_v.height());
    for level in 1..=depth {
        let gu = snap_u.level(level).len();
        let gv = snap_v.level(level).len();
        if gu == len_u && gv == len_v {
            return None;
        }
        match granularity {
            Granularity::Whole => {
                let bu = ctx.level_bounds_whole(u, level);
                let bv = ctx.level_bounds_whole(v, level);
                let stats = &mut ctx.stats;
                stats.instance_comparisons += 2 * (gu as u64 + gv as u64) * m_q;
                let (u_opt, u_pes) = &*bu;
                let (v_opt, v_pes) = &*bv;
                if validated(u_pes, v_opt, stats) {
                    return Some(true);
                }
                if !stochastically_dominates_counted(u_opt, v_pes, &mut stats.instance_comparisons)
                {
                    return Some(false);
                }
            }
            Granularity::PerInstance => {
                let bu = ctx.level_bounds_instance(u, level);
                let bv = ctx.level_bounds_instance(v, level);
                let stats = &mut ctx.stats;
                let mut all_validated = true;
                for ((u_opt, u_pes), (v_opt, v_pes)) in bu.iter().zip(bv.iter()) {
                    stats.instance_comparisons += 2 * (gu as u64 + gv as u64);
                    if !stochastically_dominates_counted(
                        u_opt,
                        v_pes,
                        &mut stats.instance_comparisons,
                    ) {
                        return Some(false);
                    }
                    if all_validated && !validated(u_pes, v_opt, stats) {
                        all_validated = false;
                    }
                }
                if all_validated {
                    return Some(true);
                }
            }
        }
    }
    None
}

fn group_masses(db: &dyn SpatialIndex, id: usize, groups: &[(Mbr, Vec<&usize>)]) -> Vec<f64> {
    let obj = db.object(id);
    groups
        .iter()
        .map(|(_, items)| items.iter().map(|&&i| obj.prob(i)).sum())
        .collect()
}

/// `(group MBR, group mass)` view over the scalar per-pair rebuild.
fn group_view<'m>(
    groups: &'m [(Mbr, Vec<&usize>)],
    masses: &'m [f64],
) -> impl Iterator<Item = (&'m Mbr, f64)> + Clone {
    groups.iter().map(|(m, _)| m).zip(masses.iter().copied())
}

/// Optimistic / pessimistic bounds on the whole `U_Q`.
fn bound_whole<'m>(
    query: &PreparedQuery,
    groups: impl Iterator<Item = (&'m Mbr, f64)> + Clone,
    stats: &mut Stats,
) -> (DistanceDistribution, DistanceDistribution) {
    let n_groups = groups.size_hint().0;
    let mut lo = Vec::with_capacity(n_groups * query.len());
    let mut hi = Vec::with_capacity(n_groups * query.len());
    for q in query.object().instances() {
        for (mbr, mass) in groups.clone() {
            stats.instance_comparisons += 2;
            lo.push((mbr.min_dist_point(&q.point), q.prob * mass));
            hi.push((mbr.max_dist_point(&q.point), q.prob * mass));
        }
    }
    (
        DistanceDistribution::from_atoms(lo),
        DistanceDistribution::from_atoms(hi),
    )
}

/// Optimistic / pessimistic bounds on a single `U_q`.
fn bound_instance<'m>(
    q: &osd_geom::Point,
    groups: impl Iterator<Item = (&'m Mbr, f64)> + Clone,
    stats: &mut Stats,
) -> (DistanceDistribution, DistanceDistribution) {
    let n_groups = groups.size_hint().0;
    let mut lo = Vec::with_capacity(n_groups);
    let mut hi = Vec::with_capacity(n_groups);
    for (mbr, mass) in groups {
        stats.instance_comparisons += 2;
        lo.push((mbr.min_dist_point(q), mass));
        hi.push((mbr.max_dist_point(q), mass));
    }
    (
        DistanceDistribution::from_atoms(lo),
        DistanceDistribution::from_atoms(hi),
    )
}

/// Validation with a strictness certificate: pessimistic-U dominating
/// optimistic-V proves `U_Q ⪯_st V_Q`; a strictly smaller mean proves
/// `U_Q ≠ V_Q` on top.
fn validated(
    u_pes: &DistanceDistribution,
    v_opt: &DistanceDistribution,
    stats: &mut Stats,
) -> bool {
    stats.instance_comparisons += 1;
    u_pes.mean() < v_opt.mean()
        && stochastically_dominates_counted(u_pes, v_opt, &mut stats.instance_comparisons)
}

#[cfg(test)]
mod tests {
    use crate::config::FilterConfig;
    use crate::ctx::CheckCtx;
    use crate::db::Database;
    use crate::ops::Operator;
    use crate::query::PreparedQuery;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    /// Two 3-instance objects have single-leaf local trees, so the level
    /// filter has no level to walk and is skipped before any lookup: an
    /// S-SD check with validation and pruning off looks up only the two
    /// `U_Q` of its exact scan (misses) and its strict guard (hits) — no
    /// level snapshot and no quantised masses. The frozen counters equal
    /// the scalar path's.
    #[test]
    fn a_single_leaf_pair_skips_the_level_filter_before_any_lookup() {
        let pt = |x: f64, y: f64| Point::new(vec![x, y]);
        let u = UncertainObject::uniform(vec![pt(0.0, 1.0), pt(0.5, 1.5), pt(1.0, 1.0)]);
        let v = UncertainObject::uniform(vec![pt(0.0, 3.0), pt(0.5, 3.5), pt(1.0, 3.0)]);
        let q = UncertainObject::uniform(vec![pt(0.0, 0.0), pt(1.0, 0.0)]);
        let db = Database::new(vec![u, v]);
        assert_eq!(db.local_tree(0).height(), Some(0));
        assert_eq!(db.local_tree(1).height(), Some(0));
        let query = PreparedQuery::new(q);
        let cfg = FilterConfig {
            mbr_validation: false,
            pruning: false,
            ..FilterConfig::all()
        };
        let run = |cfg: FilterConfig| {
            let mut ctx = CheckCtx::new(&db, &query, cfg);
            assert!(ctx.dominates(Operator::SSd, 0, 1), "U is nearer than V");
            ctx.stats
        };
        let kernel = run(cfg);
        let scalar = run(cfg.scalar());
        assert_eq!(kernel.cache_misses, 2, "only the two U_Q are built");
        assert_eq!(kernel.cache_hits, 2, "the strict guard reads them again");
        let frozen = |s: crate::config::Stats| {
            (
                s.instance_comparisons,
                s.dominance_checks,
                s.flow_runs,
                s.mbr_checks,
            )
        };
        assert_eq!(frozen(kernel), frozen(scalar));
    }
}
