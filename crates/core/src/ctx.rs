//! The per-query check context.
//!
//! Every dominance check `SD(U, V, Q)` of §5.1 runs against the same
//! environment: the database the operands live in, the prepared query, the
//! active filter switches, the per-query memos of derived state, the warm
//! view and the cost counters. [`CheckCtx`] bundles that environment into
//! one value so the operator kernels take `(u, v, ctx)` instead of
//! threading eight loose arguments, and so one query's mutable state
//! (memos + stats) is a single owned unit that can move onto a worker
//! thread with the query. The getters of the derived state (`dist_q`,
//! `per_q`, the level bounds, …) are methods of the context too; they live
//! in `core::cache`, beside the memos they read.

use crate::cache::Memos;
use crate::config::{FilterConfig, Stats};
#[cfg(test)]
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::WarmView;
use osd_flow::Transport;
use osd_obs::{
    trace::DEFAULT_TRACE_EVENTS, AttrValue, Phase, PhaseTimer, QueryMetrics, QueryTrace, SpanId,
};
#[cfg(test)]
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

/// One timed phase sample in flight, opened by [`CheckCtx::phase`] and
/// closed by [`CheckCtx::end_phase`]: the sample's timer and, on a traced
/// query, its span.
///
/// Not a RAII guard: it would hold the context borrowed across the timed
/// region. Dropping it without [`CheckCtx::end_phase`] discards the sample.
pub(crate) struct PhaseGuard {
    timer: PhaseTimer,
    /// The sample's span ([`SpanId::NONE`] untraced); attributes go here.
    pub(crate) span: SpanId,
}

/// The environment of one query's dominance checks: shared read-only data
/// (`db`, `query`), the filter configuration, and the query-local mutable
/// state (the memos, `stats`).
///
/// A `CheckCtx` is cheap to create (the memos fill lazily) and is never
/// shared between queries — parallel executors build one per query per
/// worker, which is what makes inter-query parallelism safe without locks.
pub struct CheckCtx<'a> {
    /// The database both operands live in.
    pub db: &'a dyn SpatialIndex,
    /// The prepared query `Q`.
    pub query: &'a PreparedQuery,
    /// The §5.1 filtering switches in effect.
    pub cfg: FilterConfig,
    /// Lazily-populated per-object memos of this query's lookups.
    pub(crate) memos: Memos,
    /// The query's window into a shared warm cache, if any: its records
    /// are the query table's when the query is admitted.
    pub(crate) warm: Option<WarmView>,
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
    /// Creates a fresh context (empty memos, zeroed counters) for one query.
    pub fn new(db: &'a dyn SpatialIndex, query: &'a PreparedQuery, cfg: FilterConfig) -> Self {
        Self::with_warm(db, query, cfg, None)
    }

    /// Creates a fresh context whose query-keyed values live in the query
    /// table of `warm`, when the query has one (see `core::warm`). `None`
    /// gives the plain cold context of [`CheckCtx::new`]; results and
    /// `Stats` are bit-identical either way.
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
            memos: Memos::new(db.len()),
            warm,
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
        if span != SpanId::NONE {
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

    /// Starts one timed sample of `phase`, traced as a span named `span`.
    /// This is the sample's entry clock read, and [`Self::end_phase`] its
    /// exit read: the two readings feed the phase total and histogram and,
    /// on a traced query, the span's start and duration.
    #[inline]
    pub(crate) fn phase(&mut self, phase: Phase, span: &'static str) -> PhaseGuard {
        let timer = PhaseTimer::start(phase);
        let span = self.trace.open_at(span, &timer);
        PhaseGuard { timer, span }
    }

    /// Ends the sample `guard` started (see [`Self::phase`]).
    #[inline]
    pub(crate) fn end_phase(&mut self, guard: PhaseGuard) {
        let sample = guard.timer.stop();
        self.trace.close_at(guard.span, &sample);
        self.metrics.record(&sample);
    }

    /// Cover-based validation (Theorem 4), shared by the strict operators:
    /// the *strict* MBR dominance test guarantees `U_Q ≠ V_Q` on top of
    /// full spatial dominance, so it validates S-SD, SS-SD and P-SD exactly.
    ///
    /// Counted (`Stats::mbr_checks`), not timed: the O(d) test costs less
    /// than the two clock reads a phase sample takes. A traced query marks
    /// a pair it validates with an `mbr-validated` instant.
    pub(crate) fn validate_mbr(&mut self, u: usize, v: usize) -> bool {
        self.stats.mbr_checks += 1;
        let validated = osd_geom::mbr_dominates_strict(
            self.db.object(u).mbr(),
            self.db.object(v).mbr(),
            self.query.mbr(),
        );
        if validated {
            self.trace.instant("mbr-validated");
        }
        validated
    }

    /// Strictness guard for the exact dominance paths: Definitions 2/3/5
    /// additionally require `U_Q ≠ V_Q`. Only evaluated on the "dominates"
    /// path, so the extra distribution build amortises to at most one per
    /// discarded object.
    pub(crate) fn strict_guard(&mut self, u: usize, v: usize) -> bool {
        let guard = self.phase(Phase::Validate, "strict-guard");
        let du = self.dist_q(u);
        let dv = self.dist_q(v);
        self.stats.instance_comparisons += du.support_size().min(dv.support_size()) as u64;
        let distinct = !du.approx_eq(&dv, osd_uncertain::CDF_EPS);
        if guard.span != SpanId::NONE {
            self.trace
                .attr(guard.span, "distinct", AttrValue::U64(distinct as u64));
        }
        self.end_phase(guard);
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
