//! Algorithm 1: NN-candidate computation, and its k-skyband extension.
//!
//! Objects are visited in non-decreasing order of their **actual** minimal
//! distance `δ_min(V, Q)` via a best-first traversal of the global R-tree
//! (tree nodes are keyed by the MBR lower bound, objects by the exact
//! value). An object visited in this order can never be dominated by an
//! object visited later — a later object has `min(W_Q) ≥ min(V_Q)`, which
//! contradicts the `min` statistic required for dominance (Theorem 11) —
//! so checking each arrival against the candidates found *so far*
//! suffices; together with transitivity (Theorem 9) this makes the result
//! exact. Entries (subtrees) are discarded wholesale when a current
//! candidate MBR-dominates their MBR (Theorem 4 cover validation).
//!
//! The same traversal computes the k-robust candidates `NNC_k`
//! ([`crate::k_nn_candidates`]) with a dominator budget of `k`: an arrival
//! is kept while fewer than `k` kept candidates dominate it, and an entry
//! is discarded once `k` kept candidates MBR-dominate it. NNC is `k = 1`,
//! where the first dominator found rejects. Counting *kept* dominators
//! suffices by the classic k-skyband argument: every dominator of `V`
//! precedes or ties it, and a preceding object that was itself excluded
//! (≥ k dominators) passes its own dominators on to `V` by transitivity.
//!
//! The traversal is **progressive**: candidates are final the moment they
//! are emitted, so callers can consume them one by one (Figure 14) or
//! through the [`Iterator`] implementation.

use crate::cache::build_key;
use crate::config::{FilterConfig, Stats};
use crate::ctx::CheckCtx;
#[cfg(test)]
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::{TraversalKeys, WarmPool, WarmView};
use osd_geom::{mbr_dominates, mbr_dominates_strict, Mbr};
use osd_obs::{AttrValue, Counter, Phase, PhaseTimer, QueryMetrics, SpanId, Stopwatch, TraceData};
use osd_rtree::Node;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

/// One emitted NN candidate with bookkeeping for the progressive analysis.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Object id.
    pub id: usize,
    /// The exact `δ_min(U, Q)` — the traversal key at emission.
    pub min_dist: f64,
    /// Wall-clock time from query start until this candidate was emitted.
    pub elapsed: Duration,
}

/// Result of an NNC computation.
#[derive(Debug)]
pub struct NncResult {
    /// The candidates, in emission (non-decreasing `mindist`) order.
    pub candidates: Vec<Candidate>,
    /// Cost counters accumulated over the whole query.
    pub stats: Stats,
    /// Total number of objects that reached an instance-level dominance
    /// check (visited and not pruned at entry level).
    pub objects_checked: usize,
    /// Instrumentation registry of the query (all-zero no-op unless the
    /// `obs` feature is on).
    pub metrics: QueryMetrics,
    /// The query's structured trace tree — present only when
    /// `cfg.trace` was set *and* the `obs` feature is on. The batch
    /// executor stamps `seq` with the query's input index before feeding
    /// the trace to a flight recorder.
    pub trace: Option<TraceData>,
}

impl NncResult {
    /// Candidate ids, in emission order.
    pub fn ids(&self) -> Vec<usize> {
        self.candidates.iter().map(|c| c.id).collect()
    }
}

enum Slot<'a> {
    /// A tree node with the box its parent (or the tree, for a root)
    /// records for it, tagged with the shard whose global tree it came
    /// from (always 0 on a flat database) for per-shard attribution.
    Node(&'a Node<usize>, &'a Mbr, usize),
    Object(usize),
}

struct HeapItem<'a> {
    key: f64,
    slot: Slot<'a>,
}

impl HeapItem<'_> {
    /// Tie-break rank at equal keys: nodes before objects, then lower
    /// object id. Nodes-first guarantees every tied-key object is heaped
    /// before the first tied-key object pops, and the id order then fixes
    /// the emission sequence — which is what makes flat and sharded
    /// traversals emit identically even when keys collide.
    fn rank(&self) -> (u8, usize) {
        match self.slot {
            Slot::Node(..) => (0, 0),
            Slot::Object(id) => (1, id),
        }
    }
}

impl PartialEq for HeapItem<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Defined via `Ord::cmp` so `==` agrees with the total order even
        // for NaN/±0.0 keys (the `Eq` impl requires the two to be
        // consistent).
        self.cmp(other).is_eq()
    }
}
impl Eq for HeapItem<'_> {}
impl PartialOrd for HeapItem<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key) // min-heap: smaller key pops first
            .then_with(|| other.rank().cmp(&self.rank()))
    }
}

/// Computes the NN candidates of `query` over `db` under the dominance
/// operator `op` (Algorithm 1).
pub fn nn_candidates(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> NncResult {
    run_with(db, query, op, 1, cfg, None).0
}

/// [`nn_candidates`] resolving query-keyed cache misses through `warm`
/// (see `core::warm`). Result ids, `min_dist` bits, ordering and `Stats`
/// are bit-identical to the cold path; warm traffic is counted only in
/// the dedicated `warm_hits` / `warm_misses` metrics.
pub fn nn_candidates_warm(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
    warm: &WarmPool,
) -> NncResult {
    run_with(db, query, op, 1, cfg, Some(warm.view_for(db, query))).0
}

/// Drains a traversal with dominator budget `k`. The second half holds
/// each candidate's kept-dominator count; it is recorded only for
/// `k > 1`, since at `k = 1` every count is 0.
pub(crate) fn run_with(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
    warm: Option<WarmView>,
) -> (NncResult, Vec<usize>) {
    let mut progressive = ProgressiveNnc::with_k(db, query, op, k, cfg, warm);
    let mut dominators = Vec::new();
    while progressive.next_candidate().is_some() {
        if k > 1 {
            dominators.push(progressive.dominators());
        }
    }
    (progressive.into_result(), dominators)
}

/// The keep test of the traversal: how many of the `kept` candidates
/// dominate `v`, counted in emission order and capped at `k`.
/// `v` is kept iff the count is below `k`; at `k = 1` the first dominator
/// found rejects it.
fn kept_dominators(
    ctx: &mut CheckCtx<'_>,
    op: Operator,
    k: usize,
    kept: &[Candidate],
    v: usize,
) -> usize {
    let mut count = 0;
    for u in kept {
        if ctx.dominates(op, u.id, v) {
            count += 1;
            if count == k {
                break;
            }
        }
    }
    count
}

/// A resumable Algorithm-1 traversal that emits candidates one at a time —
/// the progressive behaviour evaluated in Figure 14.
///
/// Also an [`Iterator`] over [`Candidate`]s, so the traversal composes with
/// adapters: `ProgressiveNnc::new(..).take(3)` yields the first three
/// candidates without finishing the query. [`Self::with_k`] starts the
/// k-robust traversal instead (`NNC_k`; the other constructors use
/// `k = 1`).
pub struct ProgressiveNnc<'a> {
    op: Operator,
    /// Dominator budget: an object is emitted while fewer than `k` emitted
    /// candidates dominate it.
    k: usize,
    heap: BinaryHeap<HeapItem<'a>>,
    candidates: Vec<Candidate>,
    /// Kept dominators of the most recently emitted candidate.
    last_dominators: usize,
    /// MBR of each emitted candidate, borrowed from the snapshot at
    /// emission so entry pruning reads a contiguous list instead of
    /// resolving the store row per check.
    cand_mbrs: Vec<&'a Mbr>,
    /// The query table's keys, if the query has a table and the kernel
    /// path runs: decided once per traversal, so a query without a table
    /// keys objects with the kernel and no per-key warm call.
    warm_keys: Option<TraversalKeys>,
    ctx: CheckCtx<'a>,
    objects_checked: usize,
    start: Stopwatch,
}

impl<'a> ProgressiveNnc<'a> {
    /// Starts a traversal.
    pub fn new(
        db: &'a dyn SpatialIndex,
        query: &'a PreparedQuery,
        op: Operator,
        cfg: &FilterConfig,
    ) -> Self {
        Self::with_warm(db, query, op, cfg, None)
    }

    /// Starts a traversal whose context resolves query-keyed cache
    /// misses through `warm`; results are bit-identical to [`Self::new`].
    pub fn with_warm(
        db: &'a dyn SpatialIndex,
        query: &'a PreparedQuery,
        op: Operator,
        cfg: &FilterConfig,
        warm: Option<WarmView>,
    ) -> Self {
        Self::with_k(db, query, op, 1, cfg, warm)
    }

    /// Starts a k-robust traversal: it emits every object dominated by
    /// fewer than `k` other objects, in the same order as
    /// [`crate::k_nn_candidates`]. `k = 1` is [`Self::with_warm`].
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_k(
        db: &'a dyn SpatialIndex,
        query: &'a PreparedQuery,
        op: Operator,
        k: usize,
        cfg: &FilterConfig,
        warm: Option<WarmView>,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let timer = PhaseTimer::start(Phase::Prepare);
        let mut ctx = CheckCtx::with_warm(db, query, *cfg, warm);
        let prep = ctx.trace.open("prepare");
        ctx.metrics.snapshot(
            db.epoch(),
            db.live_len() as u64,
            db.tombstone_count() as u64,
        );
        let mut heap = BinaryHeap::new();
        // Seed every shard root (a flat database has exactly one): the
        // traversal is then one best-first descent of the whole forest,
        // and cross-shard candidate pruning acts as a prune bound shared
        // by all shards.
        for shard in 0..db.shard_count() {
            let tree = db.shard_tree(shard);
            if let (Some(root), Some(mbr)) = (tree.root(), tree.mbr()) {
                heap.push(HeapItem {
                    key: mbr.min_dist2(query.mbr()),
                    slot: Slot::Node(root, mbr, shard),
                });
            }
        }
        ctx.metrics.incr_by(Counter::HeapPushes, heap.len() as u64);
        ctx.metrics.heap_depth(heap.len() as u64);
        if prep != SpanId::NONE {
            ctx.trace
                .attr(prep, "shards", AttrValue::U64(db.shard_count() as u64));
            ctx.trace
                .attr(prep, "seeds", AttrValue::U64(heap.len() as u64));
            ctx.trace.attr(prep, "epoch", AttrValue::U64(db.epoch()));
            if k > 1 {
                ctx.trace.attr(prep, "k", AttrValue::U64(k as u64));
            }
        }
        ctx.trace.close(prep);
        ctx.metrics.record(timer);
        let warm = ctx.warm.as_ref().filter(|_| cfg.kernels);
        let warm_keys = warm.and_then(|w| w.traversal_keys(db));
        ProgressiveNnc {
            op,
            k,
            heap,
            candidates: Vec::new(),
            last_dominators: 0,
            cand_mbrs: Vec::new(),
            warm_keys,
            ctx,
            objects_checked: 0,
            start: Stopwatch::start(),
        }
    }

    /// Candidates emitted so far.
    pub fn emitted(&self) -> &[Candidate] {
        &self.candidates
    }

    /// How many earlier candidates dominate the most recently emitted one
    /// (below `k`, so always 0 for an NNC traversal).
    pub fn dominators(&self) -> usize {
        self.last_dominators
    }

    /// Cost counters accumulated so far (readable mid-traversal).
    pub fn stats(&self) -> &Stats {
        &self.ctx.stats
    }

    /// Instrumentation registry accumulated so far (readable
    /// mid-traversal; all-zero unless the `obs` feature is on).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.ctx.metrics
    }

    /// Objects that reached a full dominance check so far.
    pub fn objects_checked(&self) -> usize {
        self.objects_checked
    }

    /// Consumes the traversal into an [`NncResult`] with everything emitted
    /// so far.
    pub fn into_result(mut self) -> NncResult {
        self.finish_keys();
        // Stamp the warm gauges at completion, when resident bytes reflect
        // everything this query published (max-merged, so late is safe).
        if let Some(w) = &self.ctx.warm {
            w.record_gauges(&mut self.ctx.metrics);
        }
        let mut trace = self.ctx.trace.finish();
        if let Some(t) = trace.as_mut() {
            t.label = Cow::Borrowed(self.op.label());
        }
        NncResult {
            candidates: self.candidates,
            stats: self.ctx.stats,
            objects_checked: self.objects_checked,
            metrics: self.ctx.metrics,
            trace,
        }
    }

    /// Advances the traversal until the next candidate is found; `None` when
    /// the heap is exhausted.
    pub fn next_candidate(&mut self) -> Option<Candidate> {
        while let Some(HeapItem { key, slot }) = self.heap.pop() {
            match slot {
                Slot::Object(v) => {
                    self.objects_checked += 1;
                    let dominators =
                        kept_dominators(&mut self.ctx, self.op, self.k, &self.candidates, v);
                    if dominators < self.k {
                        let c = Candidate {
                            id: v,
                            min_dist: key.max(0.0).sqrt(),
                            elapsed: self.start.elapsed(),
                        };
                        self.candidates.push(c.clone());
                        self.last_dominators = dominators;
                        self.cand_mbrs.push(self.ctx.db.object(v).mbr());
                        self.ctx.metrics.candidate_emitted(self.op.label());
                        let event = self.ctx.trace.instant("candidate");
                        if event != SpanId::NONE {
                            self.ctx.trace.attr(event, "id", AttrValue::U64(v as u64));
                            self.ctx
                                .trace
                                .attr(event, "min_dist", AttrValue::F64(c.min_dist));
                            if self.k > 1 {
                                self.ctx.trace.attr(
                                    event,
                                    "dominators",
                                    AttrValue::U64(dominators as u64),
                                );
                            }
                        }
                        return Some(c);
                    }
                }
                Slot::Node(node, mbr, shard) => {
                    let timer = PhaseTimer::start(Phase::RtreeDescent);
                    let span = self.ctx.trace.open("rtree-descent");
                    if span != SpanId::NONE {
                        self.ctx
                            .trace
                            .attr(span, "shard", AttrValue::U64(shard as u64));
                        self.ctx.trace.attr(span, "key", AttrValue::F64(key));
                    }
                    self.ctx.stats.rtree_nodes_visited += 1;
                    self.ctx.metrics.shard_visit(shard);
                    if !self.entry_pruned(mbr) {
                        let depth_before = self.heap.len();
                        // per-shard descent: begin
                        match node {
                            Node::Leaf(entries) => {
                                for e in entries {
                                    if !self.entry_pruned(&e.mbr) {
                                        // Objects are keyed by their *actual*
                                        // minimal distance δ_min(V, Q): the
                                        // exactness argument (statistic rule on
                                        // `min`) needs the true value, and the
                                        // MBR distance is only a lower bound.
                                        let key = self.object_min_dist2(e.item);
                                        self.heap.push(HeapItem {
                                            key,
                                            slot: Slot::Object(e.item),
                                        });
                                    }
                                }
                            }
                            Node::Inner(children) => {
                                for c in children {
                                    if !self.entry_pruned(&c.mbr) {
                                        self.heap.push(HeapItem {
                                            key: c.mbr.min_dist2(self.ctx.query.mbr()),
                                            slot: Slot::Node(&c.node, &c.mbr, shard),
                                        });
                                    }
                                }
                            }
                        }
                        // per-shard descent: end
                        let pushed = (self.heap.len() - depth_before) as u64;
                        self.ctx.metrics.incr_by(Counter::HeapPushes, pushed);
                        self.ctx.metrics.heap_depth(self.heap.len() as u64);
                        self.ctx.trace.attr(span, "pushed", AttrValue::U64(pushed));
                    } else {
                        self.ctx.trace.attr(
                            span,
                            "pruned",
                            AttrValue::Str(Cow::Borrowed("mbr-dominated")),
                        );
                    }
                    self.ctx.trace.close(span);
                    self.ctx.metrics.record(timer);
                }
            }
        }
        self.finish_keys();
        None
    }

    /// Exact squared `δ_min(V, Q)` (see [`object_min_dist2`]), read from
    /// the query's warm table when it has one.
    fn object_min_dist2(&mut self, v: usize) -> f64 {
        let ctx = &mut self.ctx;
        match &mut self.warm_keys {
            Some(keys) => {
                // Charged like the kernel path it stands in for.
                ctx.stats.instance_comparisons += ctx.query.len() as u64;
                keys.get(ctx.db, ctx.query, v)
            }
            None => object_min_dist2(ctx.db, ctx.query, ctx.cfg.kernels, v, &mut ctx.stats),
        }
    }

    /// Publishes the keys this traversal built (see
    /// [`TraversalKeys::finish`]); the traversal keys no more objects.
    fn finish_keys(&mut self) {
        if let Some(keys) = self.warm_keys.take() {
            keys.finish(&mut self.ctx.metrics);
        }
    }

    /// Entry-level pruning against the candidates emitted so far.
    fn entry_pruned(&mut self, e_mbr: &Mbr) -> bool {
        mbr_pruned(
            &self.cand_mbrs,
            e_mbr,
            self.ctx.query.mbr(),
            self.op,
            self.k,
            self.ctx.cfg.mbr_validation,
            &mut self.ctx.stats,
        )
    }
}

/// Exact squared `δ_min(V, Q)` — the traversal key of [`ProgressiveNnc`],
/// shared with the continuous repair path
/// ([`crate::continuous::ContinuousNnc`]) so both compute bit-identical
/// keys.
///
/// The kernel path ([`build_key`]) scans the object's contiguous instance
/// rows with `osd_geom::min_dist2_rows_multi`, which skips every query
/// instance whose bound against the object's MBR cannot beat the running
/// minimum; an admitted query's warm table serves the same bits. The scalar
/// path runs one nearest search of the object's local R-tree per query
/// instance and squares each nearest distance before folding. `min` is
/// monotone under `sqrt`-then-square, so the two keys are bit-identical.
/// `instance_comparisons` charges one unit per query instance on both
/// paths. Only the scalar path charges `rtree_nodes_visited` (reported
/// but not frozen): the kernel path visits no tree node.
pub(crate) fn object_min_dist2(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    kernels: bool,
    v: usize,
    stats: &mut Stats,
) -> f64 {
    if kernels {
        stats.instance_comparisons += query.len() as u64;
        return build_key(db, query, v);
    }
    let mut best = f64::INFINITY;
    let tree = db.local_tree(v);
    let mut visits = 0u64;
    for q in query.instance_points() {
        stats.instance_comparisons += 1;
        if let Some((_, d)) = tree.nearest_counting(q, &mut visits) {
            best = best.min(d * d);
        }
    }
    stats.rtree_nodes_visited += visits;
    best
}

/// Entry-level pruning: discard a subtree (or object) once `k` MBRs in
/// `cand_mbrs` fully dominate `e_mbr` w.r.t. the query MBR (Theorem 4) —
/// every object inside then has at least `k` dominators. The strict
/// operators use the strict MBR test so that a pruned subtree can never
/// contain a distribution-equal twin of a candidate.
///
/// With MBR validation disabled (the BF-style ablations) the strict
/// operators never prune entries, to keep the measured work faithful to
/// the unfiltered algorithm; F-SD and F⁺-SD keep pruning, at every `k`.
///
/// Shared by the traversal's entry pruning and the continuous repair
/// pre-filter so both apply the exact same gate.
pub(crate) fn mbr_pruned(
    cand_mbrs: &[&Mbr],
    e_mbr: &Mbr,
    query_mbr: &Mbr,
    op: Operator,
    k: usize,
    mbr_validation: bool,
    stats: &mut Stats,
) -> bool {
    if !mbr_validation && op != Operator::FPlusSd && op != Operator::FSd {
        return false;
    }
    let strict = !matches!(op, Operator::FPlusSd | Operator::FSd);
    let mut dominators = 0;
    for &u_mbr in cand_mbrs {
        stats.mbr_checks += 1;
        let dominated = if strict {
            mbr_dominates_strict(u_mbr, e_mbr, query_mbr)
        } else {
            mbr_dominates(u_mbr, e_mbr, query_mbr)
        };
        if dominated {
            dominators += 1;
            if dominators == k {
                return true;
            }
        }
    }
    false
}

impl Iterator for ProgressiveNnc<'_> {
    type Item = Candidate;

    fn next(&mut self) -> Option<Candidate> {
        self.next_candidate()
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

    fn line_db() -> Database {
        Database::new(
            (0..5)
                .map(|i| {
                    let x = 2.0 + 3.0 * i as f64;
                    obj(&[(x, 0.0), (x + 0.5, 0.0)])
                })
                .collect(),
        )
    }

    #[test]
    fn iterator_matches_next_candidate() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let via_iter: Vec<usize> =
            ProgressiveNnc::new(&db, &q, Operator::PSd, &FilterConfig::all())
                .map(|c| c.id)
                .collect();
        let via_batch = nn_candidates(&db, &q, Operator::PSd, &FilterConfig::all()).ids();
        assert_eq!(via_iter, via_batch);
    }

    #[test]
    fn iterator_composes_with_take() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let first = ProgressiveNnc::new(&db, &q, Operator::SSd, &FilterConfig::all())
            .take(1)
            .map(|c| c.id)
            .collect::<Vec<_>>();
        assert_eq!(
            first,
            vec![0],
            "nearest object is always the first candidate"
        );
    }

    #[test]
    fn heap_item_eq_agrees_with_ord_on_special_floats() {
        // Identical NaN keys: the id tie-break decides, and Eq agrees.
        let a = HeapItem {
            key: f64::NAN,
            slot: Slot::Object(0),
        };
        let b = HeapItem {
            key: f64::NAN,
            slot: Slot::Object(1),
        };
        // `a` is greater in the reversed (min-heap) order: lower id pops
        // first among equal keys.
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        let same = HeapItem {
            key: f64::NAN,
            slot: Slot::Object(0),
        };
        assert_eq!(a.cmp(&same), Ordering::Equal);
        assert!(a == same, "Eq must agree with Ord for identical items");
        let z_pos = HeapItem {
            key: 0.0,
            slot: Slot::Object(2),
        };
        let z_neg = HeapItem {
            key: -0.0,
            slot: Slot::Object(2),
        };
        assert_eq!(
            z_pos == z_neg,
            z_pos.cmp(&z_neg) == Ordering::Equal,
            "±0.0 equality must match the total order"
        );
    }

    #[test]
    fn nodes_pop_before_objects_at_equal_keys() {
        let db = line_db();
        let tree = db.shard_tree(0);
        let node = HeapItem {
            key: 1.0,
            slot: Slot::Node(tree.root().unwrap(), tree.mbr().unwrap(), 0),
        };
        let object = HeapItem {
            key: 1.0,
            slot: Slot::Object(0),
        };
        // Greater pops first from `BinaryHeap`.
        assert_eq!(node.cmp(&object), Ordering::Greater);
    }
}
