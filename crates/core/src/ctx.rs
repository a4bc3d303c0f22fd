//! The per-query check context.
//!
//! Every dominance check `SD(U, V, Q)` of §5.1 runs against the same
//! environment: the database the operands live in, the prepared query, the
//! active filter switches, the per-query derived-state cache and the cost
//! counters. [`CheckCtx`] bundles that environment into one value so the
//! operator kernels take `(u, v, ctx)` instead of threading eight loose
//! arguments, and so one query's mutable state (cache + stats) is a single
//! owned unit that can move onto a worker thread with the query.

use crate::cache::{AggStats, BoundPair, DominanceCache, LevelSnapshot, MappedInstances};
use crate::config::{FilterConfig, Stats};
#[cfg(test)]
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::WarmView;
use osd_flow::Transport;
use osd_obs::{
    trace::DEFAULT_TRACE_EVENTS, AttrValue, Phase, PhaseTimer, QueryMetrics, QueryTrace,
};
use osd_uncertain::DistanceDistribution;
use std::sync::Arc;

/// Reusable scratch buffers for the dominance checks, owned by the context
/// so the exact-network path of one query allocates O(1) amortised across
/// all of its checks: edge lists, the necessary-condition bitmap, the
/// bitset transport arena, and the `⪯_Q` distance tables all keep their
/// allocations between `(u, v)` pairs.
///
/// The buffers carry no state across checks — every user clears or
/// overwrites before reading — so reuse cannot change any result.
#[derive(Default)]
pub(crate) struct CheckScratch {
    /// Bipartite edge list `(i, j)` of the current network.
    pub(crate) edges: Vec<(usize, usize)>,
    /// Per-`u` "has an outgoing edge" bitmap (flow necessary condition).
    pub(crate) has_edge: Vec<bool>,
    /// Reusable Theorem-12 max-flow arena.
    pub(crate) flow: Transport,
    /// Blocked distance table `δ²(u_i, q)`, query-major.
    pub(crate) dist_u: Vec<f64>,
    /// Blocked distance table `δ²(v_j, q)`, query-major.
    pub(crate) dist_v: Vec<f64>,
}

/// The environment of one query's dominance checks: shared read-only data
/// (`db`, `query`), the filter configuration, and the query-local mutable
/// state (`cache`, `stats`).
///
/// A `CheckCtx` is cheap to create (the cache fills lazily) and is never
/// shared between queries — parallel executors build one per query per
/// worker, which is what makes inter-query parallelism safe without locks.
pub struct CheckCtx<'a> {
    /// The database both operands live in.
    pub db: &'a dyn SpatialIndex,
    /// The prepared query `Q`.
    pub query: &'a PreparedQuery,
    /// The §5.1 filtering switches in effect.
    pub cfg: FilterConfig,
    /// Lazily-populated per-object derived state for this query.
    pub cache: DominanceCache,
    /// Cost counters accumulated across every check run in this context.
    pub stats: Stats,
    /// Instrumentation registry for this query (zero-sized no-op unless
    /// the `obs` feature is on).
    pub metrics: QueryMetrics,
    /// Per-query structured trace recorder. Active only when
    /// `cfg.trace` is set *and* the `obs` feature is on; otherwise every
    /// call is an inert no-op, so the check kernels instrument
    /// unconditionally.
    pub trace: QueryTrace,
    /// Reusable scratch buffers for the allocation-free check paths.
    pub(crate) scratch: CheckScratch,
}

impl<'a> CheckCtx<'a> {
    /// Creates a fresh context (empty cache, zeroed counters) for one query.
    pub fn new(db: &'a dyn SpatialIndex, query: &'a PreparedQuery, cfg: FilterConfig) -> Self {
        Self::with_warm(db, query, cfg, None)
    }

    /// Creates a fresh context whose cache resolves query-keyed misses
    /// through `warm` (see `core::warm`). `None` gives the plain cold
    /// context of [`CheckCtx::new`]; results are bit-identical either way.
    pub fn with_warm(
        db: &'a dyn SpatialIndex,
        query: &'a PreparedQuery,
        cfg: FilterConfig,
        warm: Option<WarmView>,
    ) -> Self {
        CheckCtx {
            db,
            query,
            cfg,
            cache: DominanceCache::with_warm(db.len(), warm),
            stats: Stats::default(),
            metrics: QueryMetrics::new(),
            trace: if cfg.trace {
                QueryTrace::start("query", DEFAULT_TRACE_EVENTS)
            } else {
                QueryTrace::off()
            },
            scratch: CheckScratch::default(),
        }
    }

    /// Checks whether object `u` dominates object `v` under `op` — the
    /// method form of [`crate::ops::dominates`].
    ///
    /// When tracing, every check becomes a `check` span carrying the
    /// operand pair, the flow-run delta it cost and its verdict — the
    /// per-pair narrative the aggregate `dominance_checks` counter can't
    /// give.
    pub fn dominates(&mut self, op: Operator, u: usize, v: usize) -> bool {
        let span = self.trace.open("check");
        let flows_before = self.stats.flow_runs;
        let result = crate::ops::dominates(op, u, v, self);
        if span != osd_obs::SpanId::NONE {
            self.trace.attr(span, "u", AttrValue::U64(u as u64));
            self.trace.attr(span, "v", AttrValue::U64(v as u64));
            self.trace.attr(
                span,
                "flow_runs",
                AttrValue::U64(self.stats.flow_runs - flows_before),
            );
            self.trace
                .attr(span, "dominates", AttrValue::U64(result as u64));
        }
        self.trace.close(span);
        result
    }

    /// The full distance distribution `U_Q` of object `id` (cached).
    pub fn dist_q(&mut self, id: usize) -> Arc<DistanceDistribution> {
        let misses_before = self.stats.cache_misses;
        let dist = self
            .cache
            .dist_q(self.db, self.query, id, &mut self.stats, &mut self.metrics);
        if self.trace.is_active() && self.stats.cache_misses > misses_before {
            let event = self.trace.instant("cache-build");
            self.trace
                .attr(event, "kind", AttrValue::Str("dist_q".into()));
            self.trace.attr(event, "id", AttrValue::U64(id as u64));
        }
        dist
    }

    /// The per-query-instance distributions `U_q` of object `id` (cached).
    pub fn per_q(&mut self, id: usize) -> Arc<Vec<DistanceDistribution>> {
        self.cache
            .per_q(self.db, self.query, id, &mut self.stats, &mut self.metrics)
    }

    /// min/mean/max of `U_Q` (cached).
    pub fn agg(&mut self, id: usize) -> AggStats {
        self.cache
            .agg(self.db, self.query, id, &mut self.stats, &mut self.metrics)
    }

    /// min/mean/max of each `U_q` (cached).
    pub fn per_q_agg(&mut self, id: usize) -> Arc<Vec<AggStats>> {
        self.cache
            .per_q_agg(self.db, self.query, id, &mut self.stats, &mut self.metrics)
    }

    /// Fixed-point instance masses of object `id` (cached).
    pub fn quanta(&mut self, id: usize) -> Arc<Vec<u64>> {
        self.cache.quanta(self.db, id, &mut self.stats)
    }

    /// Distance-space image of object `id` w.r.t. the query hull (cached).
    pub fn mapped(&mut self, id: usize) -> Arc<MappedInstances> {
        self.cache.mapped(self.db, self.query, id, &mut self.stats)
    }

    /// Instances of `id` inside the query's convex hull (cached).
    pub fn in_hull_instances(&mut self, id: usize) -> Arc<Vec<usize>> {
        self.cache
            .in_hull_instances(self.db, self.query, id, &mut self.stats)
    }

    /// Per-level group snapshot (MBRs + masses + caps) of object `id`'s
    /// local R-tree (cached once per traversal).
    pub fn level_snapshot(&mut self, id: usize) -> Arc<LevelSnapshot> {
        self.cache.level_snapshot(self.db, id, &mut self.stats)
    }

    /// Whole-`U_Q` level-bound distributions of object `id` at `level`
    /// (cached per clamped level; the caller charges the per-use cost).
    pub(crate) fn level_bounds_whole(&mut self, id: usize, level: usize) -> Arc<BoundPair> {
        self.cache.level_bounds_whole(
            self.db,
            self.query,
            id,
            level,
            &mut self.stats,
            &mut self.metrics,
        )
    }

    /// Per-`U_q` level-bound distributions of object `id` at `level`
    /// (cached per clamped level; the caller charges the per-use cost).
    pub(crate) fn level_bounds_instance(&mut self, id: usize, level: usize) -> Arc<Vec<BoundPair>> {
        self.cache.level_bounds_instance(
            self.db,
            self.query,
            id,
            level,
            &mut self.stats,
            &mut self.metrics,
        )
    }

    /// Cover-based validation (Theorem 4), shared by the strict operators:
    /// the *strict* MBR dominance test guarantees `U_Q ≠ V_Q` on top of
    /// full spatial dominance, so it validates S-SD, SS-SD and P-SD exactly.
    pub(crate) fn validate_mbr(&mut self, u: usize, v: usize) -> bool {
        let timer = PhaseTimer::start(Phase::Validate);
        let span = self.trace.open("validate");
        self.stats.mbr_checks += 1;
        let validated = osd_geom::mbr_dominates_strict(
            self.db.object(u).mbr(),
            self.db.object(v).mbr(),
            self.query.mbr(),
        );
        if span != osd_obs::SpanId::NONE {
            self.trace.attr(span, "u", AttrValue::U64(u as u64));
            self.trace.attr(span, "v", AttrValue::U64(v as u64));
            self.trace
                .attr(span, "validated", AttrValue::U64(validated as u64));
        }
        self.trace.close(span);
        self.metrics.record(timer);
        validated
    }

    /// Strictness guard for the exact dominance paths: Definitions 2/3/5
    /// additionally require `U_Q ≠ V_Q`. Only evaluated on the "dominates"
    /// path, so the extra distribution build amortises to at most one per
    /// discarded object.
    pub(crate) fn strict_guard(&mut self, u: usize, v: usize) -> bool {
        let timer = PhaseTimer::start(Phase::Validate);
        let span = self.trace.open("strict-guard");
        let du = self.dist_q(u);
        let dv = self.dist_q(v);
        self.stats.instance_comparisons += du.support_size().min(dv.support_size()) as u64;
        let distinct = !du.approx_eq(&dv, osd_uncertain::CDF_EPS);
        if span != osd_obs::SpanId::NONE {
            self.trace
                .attr(span, "distinct", AttrValue::U64(distinct as u64));
        }
        self.trace.close(span);
        self.metrics.record(timer);
        distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    #[test]
    fn ctx_dominates_matches_free_function() {
        let db = Database::new(vec![
            obj(&[(1.0, 0.0), (2.0, 0.0)]),
            obj(&[(8.0, 0.0), (9.0, 0.0)]),
        ]);
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        for op in Operator::ALL {
            let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
            let via_method = ctx.dominates(op, 0, 1);
            let mut ctx2 = CheckCtx::new(&db, &q, FilterConfig::all());
            let via_fn = crate::ops::dominates(op, 0, 1, &mut ctx2);
            assert_eq!(via_method, via_fn, "{op:?}");
            assert_eq!(ctx.stats, ctx2.stats, "{op:?} counters must agree");
        }
    }

    #[test]
    fn helpers_share_the_cache() {
        let db = Database::new(vec![obj(&[(1.0, 0.0), (2.0, 0.0)])]);
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
        let d1 = ctx.dist_q(0);
        let cost = ctx.stats.instance_comparisons;
        let d2 = ctx.dist_q(0);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(ctx.stats.instance_comparisons, cost, "second hit is free");
    }
}
