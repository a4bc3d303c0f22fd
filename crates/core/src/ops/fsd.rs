//! The instance-level F-SD dominance check (§1, implemented per §6).
//!
//! `F-SD(U, V, Q)` iff `δ(u, q) ≤ δ(v, q)` for every `u ∈ U`, `v ∈ V`,
//! `q ∈ Q` — equivalently `δ_max(q, U) ≤ δ_min(q, V)` per query instance.
//! Only the convex-hull vertices of `Q` need checking (same half-space
//! argument as P-SD), and each bound is answered by the object's local
//! R-tree: a furthest-neighbour search on `U` and a nearest-neighbour
//! search on `V`.
//!
//! The paper's F-SD carries no `U_Q ≠ V_Q` side condition, which makes the
//! literal Definition 6 drop *both* members of an exactly-tied pair
//! (mutual domination) — leaving the candidate set without any
//! representative of the tied optimum. We therefore apply the same
//! equal-distribution guard as the strict operators: an object never
//! dominates its exact distributional twin. On continuous data (no exact
//! ties) this is observationally identical to the paper.

use crate::ctx::CheckCtx;
use osd_geom::mbr_dominates;
use osd_obs::Phase;

pub(crate) fn check(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    let db = ctx.db;
    let query = ctx.query;
    if ctx.cfg.mbr_validation {
        ctx.stats.mbr_checks += 1;
        if mbr_dominates(db.object(u).mbr(), db.object(v).mbr(), query.mbr()) {
            return ctx.strict_guard(u, v);
        }
    }
    let pts = query.eval_points(ctx.cfg.geometric);
    let tree_u = db.local_tree(u);
    let tree_v = db.local_tree(v);
    for q in pts {
        // Cheap MBR bounds first: if even the boxes separate, skip the
        // tree searches for this query instance.
        ctx.stats.instance_comparisons += 2;
        let max_u_bound = db.object(u).mbr().max_dist_point(q);
        let min_v_bound = db.object(v).mbr().min_dist_point(q);
        if max_u_bound <= min_v_bound {
            continue;
        }
        // Objects are non-empty, so both searches return a hit; fall back to
        // the (conservative) MBR bounds if a tree were ever empty. The
        // local-tree searches are the traversal primitives of this check,
        // so they count as *rtree-descent* work, timed and traced alike.
        let guard = ctx.phase(Phase::RtreeDescent, "rtree-descent");
        let mut visits = 0u64;
        let d_max_u = tree_u
            .furthest_counting(q, &mut visits)
            .map_or(max_u_bound, |(_, d)| d);
        let d_min_v = tree_v
            .nearest_counting(q, &mut visits)
            .map_or(min_v_bound, |(_, d)| d);
        ctx.stats.rtree_nodes_visited += visits;
        ctx.end_phase(guard);
        ctx.stats.instance_comparisons += (db.object(u).len() + db.object(v).len()) as u64;
        if d_max_u > d_min_v {
            return false;
        }
    }
    ctx.strict_guard(u, v)
}
