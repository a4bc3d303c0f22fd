//! The P-SD dominance check (Definition 5, §5.1.2).
//!
//! `P-SD(U, V, Q)` holds iff there is a match `M_{U,V}` with
//! `t.u ⪯_Q t.v` for every tuple, and `U_Q ≠ V_Q`. By Theorem 12 the match
//! exists iff the bipartite network — source→`u` with capacity `p(u)`,
//! `v`→sink with capacity `p(v)`, `u`→`v` with capacity ∞ iff `u ⪯_Q v` —
//! carries a max-flow of value 1 (here: the fixed-point total `SCALE`).
//!
//! With a single query instance, Theorem 3 makes P-SD equal to S-SD, so
//! the check is the S-SD check — an equivalence rather than a filter, which
//! takes the flow off every point-query check.
//!
//! Otherwise the filter stack, in order:
//! 1. cover-based validation via strict MBR dominance (Theorem 4);
//! 2. statistic-based pruning through the cover chain (Theorem 11 on the
//!    statistics of `U_Q` and of each `U_q`; `P-SD ⊂ SS-SD ⊂ S-SD`);
//! 3. geometric early reject: an instance of `V` inside `CH(Q)` can only be
//!    matched by a coincident instance of `U`;
//! 4. level-by-level validation over local R-tree nodes with the
//!    pessimistic (`G⁻`) network, skipped when neither local tree has a
//!    level below its root (both single leaves, so no group is coarser
//!    than an instance);
//! 5. cover-based refutation through SS-SD's per-`U_q` scans
//!    (`¬SS-SD ⇒ ¬P-SD`; S-SD is implied, so it is not run);
//! 6. the exact instance network, built either by nested `⪯_Q` scans over
//!    the hull vertices or by containment tests in distance space, and the
//!    strict guard `U_Q ≠ V_Q`.
//!
//! The paper's level filter also builds an optimistic network `G⁺`, and
//! SS-SD's per-instance level bounds could run ahead of the scans in
//! step 5. Both are sound refutations ahead of the exact network, so
//! dropping them changes no verdict, only which work runs; both are left
//! out because they almost never decided a check (DESIGN.md §3).

use crate::config::Stats;
use crate::ctx::{CheckCtx, CheckScratch};
use osd_flow::MaxFlow;
use osd_geom::{dist2_rows_batch, dist2_slice, mbr_dominates, Mbr, Point};
use osd_obs::Phase;
use osd_rtree::{Entry, RTree};
use osd_uncertain::{UncertainObject, SCALE};

/// Hull sizes up to this build the exact network in distance space; larger
/// hulls fall back to direct `⪯_Q` scans (high-dimensional images stop
/// paying off). Both execution strategies switch at the same size, since
/// the two constructions charge different `instance_comparisons`.
const MAX_MAPPED_DIM: usize = 8;

pub(crate) fn check(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    // The shared read-only environment outlives the `&mut ctx` borrow, so
    // copy the references out once instead of re-borrowing through `ctx`.
    let db = ctx.db;
    let query = ctx.query;

    // Theorem 3: with one query instance P-SD = SS-SD = S-SD.
    if query.len() == 1 {
        return super::ssd::check(u, v, ctx);
    }

    // 1. Cover-based validation (Theorem 4).
    if ctx.cfg.mbr_validation && ctx.validate_mbr(u, v) {
        return true;
    }

    // 2. Statistic-based pruning (Theorem 11, via the cover chain): P-SD
    //    implies S-SD and SS-SD, so any inverted min/mean/max statistic of
    //    the (cached) distance distributions disproves P-SD at the cost of
    //    a few comparisons.
    if ctx.cfg.pruning && super::sssd::statistics_refute(u, v, ctx) {
        return false;
    }

    // 3. Geometric early reject: instances of V inside CH(Q) are only
    //    dominated by coincident instances of U.
    if ctx.cfg.geometric {
        let blocked = ctx.in_hull_instances(v);
        if !blocked.is_empty() {
            let uo = db.object(u);
            let dim = uo.dim();
            for &vi in blocked.iter() {
                let vp = db.object(v).row(vi);
                ctx.stats.instance_comparisons += uo.len() as u64;
                // Coincidence is exact coordinate equality (same semantics
                // as the boxed `Point` comparison this replaces).
                let coincident = uo.coords().chunks_exact(dim).any(|ui| ui == vp);
                if !coincident {
                    return false;
                }
            }
        }
    }

    // 4. Level-by-level validation over local R-tree nodes, run (and
    //    recorded under the *level-prune* phase and span) through the same
    //    gate as S-SD and SS-SD's level filter: a pair of single-leaf
    //    local trees has no level below the root and skips the step. The
    //    embedded flow solves additionally record *refine* samples.
    if ctx.cfg.level_by_level
        && super::level::run_filter(u, v, ctx, |ctx| level_validates(u, v, ctx).then_some(true))
            .is_some()
    {
        return ctx.strict_guard(u, v);
    }

    // 5. Cover-based refutation: ¬SS-SD ⇒ ¬P-SD (Theorem 2), and S-SD is
    //    implied by SS-SD. Steps 1–2 already ran SS-SD's validation and
    //    statistics, so only its per-`U_q` scans remain; they run after the
    //    cheaper filters, so the O(m|Q|) scans only pay when everything
    //    else was inconclusive, but before the O(m²) exact network.
    //    `U_Q ≠ V_Q` is left to the strict guard after the flow.
    if ctx.cfg.pruning && !super::sssd::scans_hold(u, v, ctx) {
        return false;
    }

    // 6. Exact instance-level network (Theorem 12).
    let quanta_u = ctx.quanta(u);
    let quanta_v = ctx.quanta(v);
    let pts = query.eval_points(ctx.cfg.geometric);
    let uo = db.object(u);
    let vo = db.object(v);

    let saturated = if ctx.cfg.geometric && query.hull().len() <= MAX_MAPPED_DIM {
        // Distance-space strategy: u ⪯_Q v ⟺ u's image is coordinate-wise
        // below v's image, i.e. inside the range box `[0, v_img]`.
        let mapped_u = ctx.mapped(u);
        let mapped_v = ctx.mapped(v);
        let k = query.hull().len();
        if ctx.cfg.kernels {
            // Blocked containment scan over the cached image blocks into
            // the scratch edge buffer (taken out for `saturates`).
            let mut edges = std::mem::take(&mut ctx.scratch.edges);
            contained_edges(&mapped_u, &mapped_v, k, &mut edges, &mut ctx.stats);
            let sat = saturates(&quanta_u, &quanta_v, &edges, ctx);
            ctx.scratch.edges = edges;
            sat
        } else {
            // The allocating reference: an R-tree over u's images, one
            // containment range query per v.
            let entries = mapped_u
                .chunks_exact(k)
                .enumerate()
                .map(|(i, img)| Entry {
                    mbr: Mbr::new(img, img),
                    item: i,
                })
                .collect();
            let tree = RTree::bulk_load(8, entries);
            let mut edges = Vec::new();
            for (j, v_img) in mapped_v.chunks_exact(k).enumerate() {
                let range = Mbr::new(vec![0.0; k], v_img);
                let hits = tree.range_contained(&range);
                ctx.stats.instance_comparisons += (hits.len() + 1) as u64;
                edges.extend(hits.into_iter().map(|&i| (i, j)));
            }
            saturates(&quanta_u, &quanta_v, &edges, ctx)
        }
    } else if ctx.cfg.kernels {
        // Blocked strategy: both δ² tables are filled once with the row
        // kernels, then the nested ⪯_Q scan reads the tables with the
        // same per-q comparison order and early exit as the scalar path.
        // All buffers live in the per-query scratch; the `&mut ctx`
        // re-borrow in `saturates` forces the take/restore dance.
        let mut edges = std::mem::take(&mut ctx.scratch.edges);
        let mut du = std::mem::take(&mut ctx.scratch.dist_u);
        let mut dv = std::mem::take(&mut ctx.scratch.dist_v);
        exact_edges_blocked(
            uo.coords(),
            vo.coords(),
            uo.dim(),
            pts,
            &mut du,
            &mut dv,
            &mut edges,
            &mut ctx.stats,
        );
        let sat = saturates(&quanta_u, &quanta_v, &edges, ctx);
        ctx.scratch.edges = edges;
        ctx.scratch.dist_u = du;
        ctx.scratch.dist_v = dv;
        sat
    } else {
        let dim = uo.dim();
        let mut edges = Vec::new();
        for (i, ui) in uo.coords().chunks_exact(dim).enumerate() {
            for (j, vj) in vo.coords().chunks_exact(dim).enumerate() {
                if closer_counted(ui, vj, pts, &mut ctx.stats) {
                    edges.push((i, j));
                }
            }
        }
        saturates(&quanta_u, &quanta_v, &edges, ctx)
    };

    saturated && ctx.strict_guard(u, v)
}

// alloc-free: begin
/// Distance-space construction of the exact Theorem-12 edge set: `(i, j)`
/// is an edge iff `0 ≤ u_img[d] ≤ v_img[d]` in every dimension `d` — exactly
/// `Mbr::contains` of the range box `[0, v_img]` around u's point image,
/// the test the reference path's `range_contained` query applies. Edges
/// come out `j`-major, and each `v` is charged its hit count plus one
/// `instance_comparisons`, as one range query is.
fn contained_edges(
    u_imgs: &[f64],
    v_imgs: &[f64],
    k: usize,
    edges: &mut Vec<(usize, usize)>,
    stats: &mut Stats,
) {
    edges.clear();
    for (j, v_img) in v_imgs.chunks_exact(k).enumerate() {
        let before = edges.len();
        for (i, u_img) in u_imgs.chunks_exact(k).enumerate() {
            if u_img.iter().zip(v_img).all(|(&a, &b)| 0.0 <= a && a <= b) {
                edges.push((i, j));
            }
        }
        stats.instance_comparisons += (edges.len() - before + 1) as u64;
    }
}

/// Blocked construction of the exact Theorem-12 edge set: fills the two
/// query-major distance tables `δ²(u_i, q)` / `δ²(v_j, q)` with the row
/// kernels, then tests `u_i ⪯_Q v_j` by table lookups. Comparison order,
/// early exit and `instance_comparisons` accounting match the scalar
/// [`closer_counted`] scan exactly; the distance evaluations themselves are
/// uncounted in both strategies. Reuses caller buffers; allocation-free
/// beyond their amortised growth.
#[allow(clippy::too_many_arguments)]
fn exact_edges_blocked(
    u_rows: &[f64],
    v_rows: &[f64],
    dim: usize,
    pts: &[Point],
    du: &mut Vec<f64>,
    dv: &mut Vec<f64>,
    edges: &mut Vec<(usize, usize)>,
    stats: &mut Stats,
) {
    let m_u = u_rows.len() / dim;
    let m_v = v_rows.len() / dim;
    du.clear();
    du.resize(pts.len() * m_u, 0.0);
    dv.clear();
    dv.resize(pts.len() * m_v, 0.0);
    for (qi, q) in pts.iter().enumerate() {
        dist2_rows_batch(u_rows, dim, q.coords(), &mut du[qi * m_u..(qi + 1) * m_u]);
        dist2_rows_batch(v_rows, dim, q.coords(), &mut dv[qi * m_v..(qi + 1) * m_v]);
    }
    edges.clear();
    for i in 0..m_u {
        for j in 0..m_v {
            let mut closer = true;
            for qi in 0..pts.len() {
                stats.instance_comparisons += 1;
                if du[qi * m_u + i] > dv[qi * m_v + j] {
                    closer = false;
                    break;
                }
            }
            if closer {
                edges.push((i, j));
            }
        }
    }
}
// alloc-free: end

/// Step 4 of [`check`]: the level-by-level descent over the two local
/// R-trees with the pessimistic group network `G⁻` — an edge iff the
/// groups' MBRs fully dominate (every contained instance pair relates), so
/// a saturating flow validates `U ⪯ V` under P-SD. `true` validates (the
/// caller still runs the strict guard); `false` is inconclusive.
fn level_validates(u: usize, v: usize, ctx: &mut CheckCtx<'_>) -> bool {
    if ctx.cfg.kernels {
        // The reusable edge buffer lives in the context scratch, but
        // `saturates` needs `&mut ctx` too — take it out for the descent
        // and put it back after.
        let mut edges = std::mem::take(&mut ctx.scratch.edges);
        let validated = level_validates_snapshot(u, v, ctx, &mut edges);
        ctx.scratch.edges = edges;
        return validated;
    }
    let db = ctx.db;
    let query = ctx.query;
    let quanta_u = ctx.quanta(u);
    let quanta_v = ctx.quanta(v);
    let tree_u = db.local_tree(u);
    let tree_v = db.local_tree(v);
    let depth = tree_u
        .height()
        .unwrap_or(0)
        .max(tree_v.height().unwrap_or(0));
    for level in 1..=depth {
        let gu = tree_u.level_groups(level);
        let gv = tree_v.level_groups(level);
        let caps_u: Vec<u64> = gu
            .iter()
            .map(|(_, items)| items.iter().map(|&&i| quanta_u[i]).sum())
            .collect();
        let caps_v: Vec<u64> = gv
            .iter()
            .map(|(_, items)| items.iter().map(|&&i| quanta_v[i]).sum())
            .collect();
        ctx.stats.mbr_checks += (gu.len() * gv.len()) as u64;
        let edges = group_edges(&gu, &gv, |mu, mv| mbr_dominates(mu, mv, query.mbr()));
        if !edges.is_empty() && saturates(&caps_u, &caps_v, &edges, ctx) {
            return true;
        }
    }
    false
}

/// The memoized twin of the scalar [`level_validates`]: group MBRs and
/// fixed-point capacities come from the per-object [`crate::cache::LevelSnapshot`]
/// (built once per traversal, groups and caps in a single pass) instead of
/// being re-derived for every `(u, v)` pair, and each network is built
/// into one reusable edge buffer. Descent order, `mbr_checks` accounting,
/// edge enumeration order and flow results are identical to the scalar
/// path.
fn level_validates_snapshot(
    u: usize,
    v: usize,
    ctx: &mut CheckCtx<'_>,
    edges: &mut Vec<(usize, usize)>,
) -> bool {
    let query = ctx.query;
    let snap_u = ctx.level_snapshot(u);
    let snap_v = ctx.level_snapshot(v);
    let depth = snap_u.height().max(snap_v.height());
    for level in 1..=depth {
        let lu = snap_u.level(level);
        let lv = snap_v.level(level);
        ctx.stats.mbr_checks += (lu.len() * lv.len()) as u64;
        // An incomplete edge list is a network whose `saturates` pre-check
        // fails, so the flow is not called.
        let complete = group_edges_into(&lu.mbrs, &lv.mbrs, &lu.caps, edges, |mu, mv| {
            mbr_dominates(mu, mv, query.mbr())
        });
        if complete && !edges.is_empty() && saturates(&lu.caps, &lv.caps, edges, ctx) {
            return true;
        }
    }
    false
}

/// `δ(u, q) ≤ δ(v, q)` for every evaluation point, with comparison counting.
/// Operates on borrowed coordinate rows straight out of the instance store.
fn closer_counted(u: &[f64], v: &[f64], pts: &[Point], stats: &mut Stats) -> bool {
    for q in pts {
        stats.instance_comparisons += 1;
        if dist2_slice(u, q.coords()) > dist2_slice(v, q.coords()) {
            return false;
        }
    }
    true
}

/// Edges between group lists under `relate`.
fn group_edges<T>(
    gu: &[(Mbr, Vec<T>)],
    gv: &[(Mbr, Vec<T>)],
    relate: impl Fn(&Mbr, &Mbr) -> bool,
) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for (i, (mu, _)) in gu.iter().enumerate() {
        for (j, (mv, _)) in gv.iter().enumerate() {
            if relate(mu, mv) {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// [`group_edges`] over bare MBR lists into a reusable buffer — the same
/// enumeration order, zero allocations past the buffer's amortised growth.
///
/// Returns `false`, leaving `edges` partial, at the first row `i` with
/// `caps_u[i] > 0` and no edge: no flow can then route that row's mass,
/// which is the pre-check [`saturates`] would fail on this network.
fn group_edges_into(
    gu: &[Mbr],
    gv: &[Mbr],
    caps_u: &[u64],
    edges: &mut Vec<(usize, usize)>,
    relate: impl Fn(&Mbr, &Mbr) -> bool,
) -> bool {
    debug_assert_eq!(gu.len(), caps_u.len(), "one capacity per group");
    edges.clear();
    for ((i, mu), &cap) in gu.iter().enumerate().zip(caps_u) {
        let row_start = edges.len();
        for (j, mv) in gv.iter().enumerate() {
            if relate(mu, mv) {
                edges.push((i, j));
            }
        }
        if cap > 0 && edges.len() == row_start {
            return false;
        }
    }
    true
}

/// Runs the bipartite max-flow: `true` iff all `SCALE` units route.
/// Recorded under the *refine* phase — this is the exact P-SD machinery
/// of Theorem 12.
fn saturates(
    caps_u: &[u64],
    caps_v: &[u64],
    edges: &[(usize, usize)],
    ctx: &mut CheckCtx<'_>,
) -> bool {
    let guard = ctx.phase(Phase::Refine, "flow");
    let saturated = if ctx.cfg.kernels {
        saturates_scratch(caps_u, caps_v, edges, &mut ctx.scratch, &mut ctx.stats)
    } else {
        saturates_alloc(caps_u, caps_v, edges, &mut ctx.stats)
    };
    let span = guard.span;
    if span != osd_obs::SpanId::NONE {
        ctx.trace
            .attr(span, "edges", osd_obs::AttrValue::U64(edges.len() as u64));
        ctx.trace
            .attr(span, "saturated", osd_obs::AttrValue::U64(saturated as u64));
    }
    let sample = ctx.end_phase(guard);
    ctx.metrics.tally("flow-solve", &sample);
    saturated
}

/// The allocating reference implementation of the Theorem-12 saturation
/// test: fresh bitmap, fresh Dinic network per call.
fn saturates_alloc(
    caps_u: &[u64],
    caps_v: &[u64],
    edges: &[(usize, usize)],
    stats: &mut Stats,
) -> bool {
    // Cheap necessary condition: every positive-mass u needs an edge.
    let mut has_edge = vec![false; caps_u.len()];
    for &(i, _) in edges {
        has_edge[i] = true;
    }
    if has_edge
        .iter()
        .zip(caps_u.iter())
        .any(|(&h, &c)| c > 0 && !h)
    {
        return false;
    }
    stats.flow_runs += 1;
    let nu = caps_u.len();
    let nv = caps_v.len();
    let s = nu + nv;
    let t = s + 1;
    let mut g = MaxFlow::new(nu + nv + 2);
    for (i, &c) in caps_u.iter().enumerate() {
        g.add_edge(s, i, c);
    }
    for (j, &c) in caps_v.iter().enumerate() {
        g.add_edge(nu + j, t, c);
    }
    for &(i, j) in edges {
        g.add_edge(i, nu + j, u64::MAX / 4);
    }
    g.max_flow(s, t) == SCALE
}

// alloc-free: begin
/// The arena twin of [`saturates_alloc`]: identical pre-check and
/// `flow_runs` accounting, but the bitmap is reset in place and the flow
/// is solved by the reusable bitset [`osd_flow::Transport`] arena, so repeated
/// checks allocate O(1) amortised. Max-flow values are unique, so the
/// value — and hence the decision — equals the Dinic reference's.
fn saturates_scratch(
    caps_u: &[u64],
    caps_v: &[u64],
    edges: &[(usize, usize)],
    scratch: &mut CheckScratch,
    stats: &mut Stats,
) -> bool {
    // Cheap necessary condition: every positive-mass u needs an edge.
    let has_edge = &mut scratch.has_edge;
    has_edge.clear();
    has_edge.resize(caps_u.len(), false);
    for &(i, _) in edges {
        has_edge[i] = true;
    }
    if has_edge
        .iter()
        .zip(caps_u.iter())
        .any(|(&h, &c)| c > 0 && !h)
    {
        return false;
    }
    stats.flow_runs += 1;
    scratch.flow.solve(caps_u, caps_v, edges) == SCALE
}
// alloc-free: end

/// Builds the exact Theorem-12 network for two raw objects and returns
/// `(max_flow, SCALE)` — exposed so tests can exercise the reduction
/// directly.
pub fn peer_network_flow(
    u: &UncertainObject,
    v: &UncertainObject,
    query: &UncertainObject,
) -> (u64, u64) {
    let q_pts: Vec<Point> = query.instances().iter().map(|i| i.point.clone()).collect();
    let quanta_u =
        osd_uncertain::quantize(&u.instances().iter().map(|i| i.prob).collect::<Vec<_>>());
    let quanta_v =
        osd_uncertain::quantize(&v.instances().iter().map(|i| i.prob).collect::<Vec<_>>());
    let nu = u.len();
    let nv = v.len();
    let s = nu + nv;
    let t = s + 1;
    let mut g = MaxFlow::new(nu + nv + 2);
    for (i, &c) in quanta_u.iter().enumerate() {
        g.add_edge(s, i, c);
    }
    for (j, &c) in quanta_v.iter().enumerate() {
        g.add_edge(nu + j, t, c);
    }
    for (i, ui) in u.instances().iter().enumerate() {
        for (j, vj) in v.instances().iter().enumerate() {
            if osd_geom::closer_to_all(&ui.point, &vj.point, &q_pts) {
                g.add_edge(i, nu + j, u64::MAX / 4);
            }
        }
    }
    (g.max_flow(s, t), SCALE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterConfig;
    use crate::db::Database;
    use crate::ops::{p_sd, s_sd, ss_sd, Operator};
    use crate::query::PreparedQuery;
    use osd_uncertain::stochastic::stochastically_dominates_counted;

    fn weighted(atoms: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::new(
            atoms
                .iter()
                .map(|&(x, p)| (Point::new(vec![x]), p))
                .collect(),
        )
    }

    /// Theorem 3 with one query instance: P-SD = SS-SD = S-SD. Here an
    /// exact transport exists (u@3 → v@3.5, {u@1, u@2} → v@2.5), but the
    /// independently quantised masses give u@3 the tie-broken extra
    /// quantum and v@3.5 none, so the Theorem-12 network on them falls one
    /// quantum short. Deciding point-query P-SD by the S-SD check avoids
    /// the network, under every filter configuration.
    #[test]
    fn point_query_psd_is_ssd() {
        let third = 1.0 / 3.0;
        let u = weighted(&[(3.0, third), (1.0, third), (2.0, third)]);
        let v = weighted(&[(3.5, third), (2.5, 2.0 * third)]);
        let q = weighted(&[(0.0, 1.0)]);
        assert!(s_sd(&u, &v, &q));
        assert!(ss_sd(&u, &v, &q));
        assert!(p_sd(&u, &v, &q));

        let db = Database::new(vec![u, v]);
        let query = PreparedQuery::new(q);
        for (name, cfg) in FilterConfig::ablation_ladder() {
            for cfg in [cfg, cfg.scalar()] {
                let mut ctx = CheckCtx::new(&db, &query, cfg);
                assert!(ctx.dominates(Operator::PSd, 0, 1), "{name} {cfg:?}");
                assert_eq!(ctx.stats.flow_runs, 0, "{name}: no network for |Q| = 1");
            }
        }
    }

    /// A pair that passes steps 1–4 (with the level filter off) reaches
    /// step 5 after exactly one cover validation and one statistics
    /// charge: step 5 re-runs neither, nor the S-SD scan or a strict
    /// guard. With every distribution cached up front, the pruning switch
    /// adds only step 2's `3 + 3|Q|` comparisons and step 5's per-`U_q`
    /// scans; the network and the final guard cost the same either way.
    #[test]
    fn step_five_validates_once_and_charges_statistics_once() {
        let pt = |x: f64, y: f64| Point::new(vec![x, y]);
        let u = UncertainObject::uniform(vec![pt(0.5, 1.0), pt(0.5, 3.0)]);
        let v = UncertainObject::uniform(vec![pt(0.5, 2.0), pt(0.5, 4.0)]);
        let q = UncertainObject::uniform(vec![pt(0.0, 0.0), pt(1.0, 0.0)]);
        let m_q = q.len() as u64;
        let db = Database::new(vec![u, v]);
        let query = PreparedQuery::new(q);

        let with = FilterConfig {
            level_by_level: false,
            ..FilterConfig::all()
        };
        let without = FilterConfig {
            pruning: false,
            ..with
        };
        for kernels in [true, false] {
            // Runs the check on a context whose distributions are all
            // cached, returning the counter deltas and the scan cost.
            let run = |cfg: FilterConfig| {
                let cfg = FilterConfig { kernels, ..cfg };
                let mut ctx = CheckCtx::new(&db, &query, cfg);
                for id in [0, 1] {
                    ctx.agg(id);
                    ctx.per_q_agg(id);
                }
                let (du, dv) = (ctx.per_q(0), ctx.per_q(1));
                let mut scans = 0;
                for (x, y) in du.iter().zip(dv.iter()) {
                    assert!(stochastically_dominates_counted(x, y, &mut scans));
                }
                let before = ctx.stats;
                assert!(check(0, 1, &mut ctx), "P-SD holds (kernels {kernels})");
                let after = ctx.stats;
                (
                    after.mbr_checks - before.mbr_checks,
                    after.instance_comparisons - before.instance_comparisons,
                    after.flow_runs - before.flow_runs,
                    scans,
                )
            };
            let (mbr_on, cmp_on, flows_on, scans) = run(with);
            let (mbr_off, cmp_off, flows_off, _) = run(without);
            assert_eq!(mbr_on, 1, "one cover validation (kernels {kernels})");
            assert_eq!(mbr_off, 1);
            assert_eq!((flows_on, flows_off), (1, 1), "step 5 reached");
            assert_eq!(
                cmp_on - cmp_off,
                3 + 3 * m_q + scans,
                "one statistics charge plus the per-U_q scans (kernels {kernels})"
            );
        }
    }
}
