//! Per-query caches of derived object state.
//!
//! A single NNC query compares each visited object against many candidates
//! (Algorithm 1), so distance distributions, statistics, quantised masses
//! and distance-space mappings are computed once per object per query and
//! shared across all pairwise checks.
//!
//! Every getter records one cache hit or miss into [`Stats`], the only
//! record of these counters. Derived getters (`agg` over `dist_q`,
//! `per_q_agg` over `per_q`) count their nested lookups too — the counters
//! measure cache traffic, not distinct entries.
//!
//! On a miss, the state that depends on the object alone (quantised
//! masses, level snapshots) is read from the index, which holds one copy
//! beside each object's local tree ([`SpatialIndex::quanta`],
//! [`SpatialIndex::level_snapshot`]). The query-keyed distributions and
//! bounds are read through the warm view, when the query has one; those
//! getters take a [`QueryMetrics`] to pass to it.
//!
//! This module holds the one constructor of each level snapshot, distance
//! distribution and bound distribution; the index and the warm cache build
//! through the same functions, so a shared value is bit-identical to a
//! privately built one.

use crate::config::Stats;
#[cfg(test)]
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use crate::warm::{Record, WarmView};
use osd_geom::{dist_slice, min_dist2_rows_multi, Mbr};
use osd_obs::QueryMetrics;
use osd_uncertain::DistanceDistribution;
use std::sync::Arc;

/// min / mean / max of a distance distribution — the statistic-pruning
/// triple of Theorem 11.
pub type AggStats = (f64, f64, f64);

/// Distance-space images of an object's instances w.r.t. the query hull,
/// as one row-major block: row `i` is `(δ(u_i, h_1), …, δ(u_i, h_k))` for
/// the `k` hull vertices.
pub type MappedInstances = Vec<f64>;

/// An `(optimistic, pessimistic)` pair of level-bound distributions
/// (§5.1.1): whole mass of each group placed at its minimal resp. maximal
/// distance to the query.
pub type BoundPair = (DistanceDistribution, DistanceDistribution);

/// One level of a [`LevelSnapshot`]: the group MBRs of the §5.1.1
/// partition `U = {U¹, …, U^k}` with each group's probability mass, both
/// as the float sum used by the bound distributions and as the quantised
/// cap used by the group flow networks.
///
/// Members are folded in `level_groups` order with the same left-to-right
/// sums as the scalar per-pair rebuilds, so every derived quantity is
/// bit-for-bit identical to the unmemoized path.
#[derive(Debug)]
pub struct LevelGroups {
    /// Group MBRs, in `level_groups` order.
    pub mbrs: Vec<Mbr>,
    /// Float probability mass per group.
    pub masses: Vec<f64>,
    /// Quantised (fixed-point) mass per group.
    pub caps: Vec<u64>,
}

impl LevelGroups {
    /// Number of groups at this level.
    pub fn len(&self) -> usize {
        self.mbrs.len()
    }

    /// Whether the level has no groups (never true for snapshots built
    /// over the non-empty local trees).
    pub fn is_empty(&self) -> bool {
        self.mbrs.is_empty()
    }
}

/// Per-object memo of every level's group partition, built once per
/// traversal and shared by all `(u, v)` pairs the object participates in.
///
/// Levels `1..=height+1` are materialised eagerly (level `height + 1` is
/// the finest, all-singleton partition; every deeper level is identical
/// to it, which is why [`LevelSnapshot::level`] clamps).
#[derive(Debug)]
pub struct LevelSnapshot {
    height: usize,
    levels: Vec<LevelGroups>,
}

impl LevelSnapshot {
    /// Height of the underlying local R-tree (single leaf root = 0).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The groups at `level` (1-based, as in `RTree::level_groups`);
    /// levels beyond `height + 1` return the finest partition, exactly as
    /// the tree itself would.
    ///
    /// # Panics
    /// Panics if `level == 0` — level 0 (the whole object as one group) is
    /// never consulted by the level-by-level descent.
    pub fn level(&self, level: usize) -> &LevelGroups {
        &self.levels[self.clamped(level)]
    }

    /// Number of materialised levels (`height + 1`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The index into the materialised levels that `level` resolves to;
    /// levels beyond `height + 1` clamp to the finest partition, so their
    /// derived state (bounds, caps) is shared with it.
    ///
    /// # Panics
    /// Panics if `level == 0` — level 0 (the whole object as one group) is
    /// never consulted by the level-by-level descent.
    pub fn clamped(&self, level: usize) -> usize {
        assert!(level >= 1, "level-by-level descent starts at level 1");
        level.min(self.levels.len()) - 1
    }
}

/// The derived state of one object, created on the object's first lookup.
#[derive(Default)]
struct Memo {
    /// The object's record in the query's warm table, found once per
    /// traversal: every warm field of the object is read through it.
    record: Option<Arc<Record>>,
    /// `U_Q`.
    dist_q: Option<Arc<DistanceDistribution>>,
    /// `U_q` for every query instance.
    per_q: Option<Arc<Vec<DistanceDistribution>>>,
    /// min/mean/max of `U_Q`.
    agg: Option<AggStats>,
    /// min/mean/max of each `U_q`.
    per_q_agg: Option<Arc<Vec<AggStats>>>,
    /// Quantised instance masses.
    quanta: Option<Arc<Vec<u64>>>,
    /// Distance-space image of the instances w.r.t. the query hull, plus an
    /// R-tree over it (for the §5.1.2 range-query network construction).
    mapped: Option<Arc<MappedInstances>>,
    /// Indices of instances lying inside `CH(Q)` (the geometric
    /// early-reject of the P-SD check).
    in_hull: Option<Arc<Vec<usize>>>,
    /// Level snapshot (group MBRs + masses + caps for every R-tree level).
    levels: Option<Arc<LevelSnapshot>>,
    /// Optimistic/pessimistic bounds on the whole `U_Q`, per clamped level
    /// (lazily sized to the snapshot's level count).
    bounds_whole: Vec<Option<Arc<BoundPair>>>,
    /// Optimistic/pessimistic bounds on each `U_q` (query-instance order),
    /// per clamped level.
    bounds_instance: Vec<Option<Arc<Vec<BoundPair>>>>,
}

/// Lazily-populated per-object derived state for one query.
///
/// The state lives in one [`Memo`] per object the query actually touches,
/// found through an id-indexed table of memo indices: creating the cache
/// zero-fills that table only, so a query pays for the objects it visits,
/// not for the size of the database.
pub struct DominanceCache {
    /// Object id → 1 + its memo's index in `memos`; 0 = not touched yet.
    index: Vec<usize>,
    /// Memos in first-touch order.
    memos: Vec<Memo>,
    /// Snapshot-scoped warm view, consulted only on the miss path of the
    /// getters whose values it can hold (`dist_q`, `per_q`, level bounds)
    /// so the per-query `Stats` hit/miss counters keep their exact
    /// semantics.
    warm: Option<WarmView>,
}

impl DominanceCache {
    /// Creates an empty cache for a database of `n` objects.
    pub fn new(n: usize) -> Self {
        Self::with_warm(n, None)
    }

    /// Creates an empty cache that resolves misses of query-keyed state
    /// through `warm` (a per-query view into the shared epoch-keyed cache)
    /// instead of rebuilding locally. `None` is the plain cold cache.
    pub fn with_warm(n: usize, warm: Option<WarmView>) -> Self {
        DominanceCache {
            index: vec![0; n],
            memos: Vec::new(),
            warm,
        }
    }

    /// The memo of `id`, if the query touched it.
    ///
    /// # Panics
    /// Panics if `id` is out of range, like indexing the database.
    fn memo(&self, id: usize) -> Option<&Memo> {
        match self.index[id] {
            0 => None,
            k => Some(&self.memos[k - 1]),
        }
    }

    /// The memo of `id`, created empty on first touch.
    fn memo_mut(&mut self, id: usize) -> &mut Memo {
        if self.index[id] == 0 {
            self.memos.push(Memo::default());
            self.index[id] = self.memos.len();
        }
        &mut self.memos[self.index[id] - 1]
    }

    /// The warm view this cache resolves misses through, if any.
    pub fn warm(&self) -> Option<&WarmView> {
        self.warm.as_ref()
    }

    /// `id`'s record in the warm query table, walked to once per traversal
    /// and then held by the object's memo; `None` without a table.
    fn record(&mut self, id: usize) -> Option<Arc<Record>> {
        if let Some(r) = self.memo(id).and_then(|m| m.record.as_ref()) {
            return Some(Arc::clone(r));
        }
        let r = self.warm.as_ref()?.record(id)?;
        self.memo_mut(id).record = Some(Arc::clone(&r));
        Some(r)
    }

    /// The full distance distribution `U_Q` of object `id`.
    ///
    /// A miss charges the frozen build cost (one comparison per instance
    /// pair) whether the value is then built or served warm, so `Stats`
    /// does not depend on the warm cache.
    pub fn dist_q(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        stats: &mut Stats,
        metrics: &mut QueryMetrics,
    ) -> Arc<DistanceDistribution> {
        if let Some(d) = self.memo(id).and_then(|m| m.dist_q.as_ref()) {
            stats.cache_hits += 1;
            return Arc::clone(d);
        }
        stats.cache_misses += 1;
        stats.instance_comparisons += (db.object(id).len() * query.len()) as u64;
        let d = match (self.record(id), &self.warm) {
            (r, Some(w)) => w.dist_q_of(r.as_deref(), db, query, id, metrics),
            (_, None) => Arc::new(build_dist_q(db, query, id)),
        };
        self.memo_mut(id).dist_q = Some(Arc::clone(&d));
        d
    }

    /// The per-query-instance distributions `U_q` of object `id`, in query
    /// instance order. Charged like [`Self::dist_q`].
    pub fn per_q(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        stats: &mut Stats,
        metrics: &mut QueryMetrics,
    ) -> Arc<Vec<DistanceDistribution>> {
        if let Some(d) = self.memo(id).and_then(|m| m.per_q.as_ref()) {
            stats.cache_hits += 1;
            return Arc::clone(d);
        }
        stats.cache_misses += 1;
        stats.instance_comparisons += (db.object(id).len() * query.len()) as u64;
        let d = match (self.record(id), &self.warm) {
            (r, Some(w)) => w.per_q_of(r.as_deref(), db, query, id, metrics),
            (_, None) => Arc::new(build_per_q(db, query, id)),
        };
        self.memo_mut(id).per_q = Some(Arc::clone(&d));
        d
    }

    /// min/mean/max of `U_Q`.
    pub fn agg(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        stats: &mut Stats,
        metrics: &mut QueryMetrics,
    ) -> AggStats {
        if let Some(a) = self.memo(id).and_then(|m| m.agg) {
            stats.cache_hits += 1;
            return a;
        }
        stats.cache_misses += 1;
        let d = self.dist_q(db, query, id, stats, metrics);
        let a = (d.min(), d.mean(), d.max());
        self.memo_mut(id).agg = Some(a);
        a
    }

    /// min/mean/max of each `U_q`.
    pub fn per_q_agg(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        stats: &mut Stats,
        metrics: &mut QueryMetrics,
    ) -> Arc<Vec<AggStats>> {
        if let Some(a) = self.memo(id).and_then(|m| m.per_q_agg.as_ref()) {
            stats.cache_hits += 1;
            return Arc::clone(a);
        }
        stats.cache_misses += 1;
        let per_q = self.per_q(db, query, id, stats, metrics);
        let a = Arc::new(
            per_q
                .iter()
                .map(|d| (d.min(), d.mean(), d.max()))
                .collect::<Vec<_>>(),
        );
        self.memo_mut(id).per_q_agg = Some(Arc::clone(&a));
        a
    }

    /// Fixed-point instance masses of object `id` (summing to `SCALE`),
    /// the index's copy ([`SpatialIndex::quanta`]).
    pub fn quanta(&mut self, db: &dyn SpatialIndex, id: usize, stats: &mut Stats) -> Arc<Vec<u64>> {
        if let Some(q) = self.memo(id).and_then(|m| m.quanta.as_ref()) {
            stats.cache_hits += 1;
            return Arc::clone(q);
        }
        stats.cache_misses += 1;
        let q = db.quanta(id);
        self.memo_mut(id).quanta = Some(Arc::clone(&q));
        q
    }

    /// Distance-space mapping of the instances of `id` w.r.t. the query hull
    /// (`u ↦ (δ(u, q_1), …, δ(u, q_k))`), one image row per instance. In
    /// this space `u ⪯_Q v` is coordinate-wise dominance (§5.1.2).
    pub fn mapped(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        stats: &mut Stats,
    ) -> Arc<MappedInstances> {
        if let Some(m) = self.memo(id).and_then(|m| m.mapped.as_ref()) {
            stats.cache_hits += 1;
            return Arc::clone(m);
        }
        stats.cache_misses += 1;
        let obj = db.object(id);
        let hull = query.hull();
        stats.instance_comparisons += (obj.len() * hull.len()) as u64;
        let m: Arc<MappedInstances> = Arc::new(
            obj.coords()
                .chunks_exact(obj.dim())
                .flat_map(|row| hull.iter().map(move |q| dist_slice(row, q.coords())))
                .collect(),
        );
        self.memo_mut(id).mapped = Some(Arc::clone(&m));
        m
    }

    /// The per-level group partition of object `id`'s local R-tree: MBRs,
    /// float masses and quantised caps for every level, computed in **one
    /// pass** per level over `level_groups` (the scalar path rebuilds all
    /// three for every `(u, v)` pair it checks). The index's copy
    /// ([`SpatialIndex::level_snapshot`]), memoized for the rest of the
    /// traversal.
    pub fn level_snapshot(
        &mut self,
        db: &dyn SpatialIndex,
        id: usize,
        stats: &mut Stats,
    ) -> Arc<LevelSnapshot> {
        if let Some(s) = self.memo(id).and_then(|m| m.levels.as_ref()) {
            stats.cache_hits += 1;
            return Arc::clone(s);
        }
        stats.cache_misses += 1;
        // The snapshot is built over the quantised masses, so its miss
        // counts the nested quanta lookup too.
        self.quanta(db, id, stats);
        let s = db.level_snapshot(id);
        self.memo_mut(id).levels = Some(Arc::clone(&s));
        s
    }

    /// Optimistic/pessimistic bounds on the whole `U_Q` of object `id` at
    /// R-tree `level`, memoized per clamped level for the rest of the
    /// traversal (the scalar path re-derives and re-sorts both
    /// distributions for every `(u, v)` pair the object appears in).
    ///
    /// The memo carries no comparison cost itself: the caller charges the
    /// frozen per-use cost (2 comparisons per query instance per group),
    /// exactly as the scalar rebuild would, so the `Stats` contract of the
    /// kernels path stays bit-identical.
    pub fn level_bounds_whole(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        level: usize,
        stats: &mut Stats,
        metrics: &mut QueryMetrics,
    ) -> Arc<BoundPair> {
        let snap = self.level_snapshot(db, id, stats);
        let idx = snap.clamped(level);
        let slot = &mut self.memo_mut(id).bounds_whole;
        if slot.is_empty() {
            slot.resize_with(snap.num_levels(), || None);
        }
        if let Some(b) = &slot[idx] {
            stats.cache_hits += 1;
            return Arc::clone(b);
        }
        stats.cache_misses += 1;
        let b = match (self.record(id), &self.warm) {
            (r, Some(w)) => w.bounds_whole(r.as_deref(), query, &snap, level, metrics),
            (_, None) => Arc::new(build_bounds_whole(query, snap.level(level))),
        };
        self.memo_mut(id).bounds_whole[idx] = Some(Arc::clone(&b));
        b
    }

    /// Optimistic/pessimistic bounds on each `U_q` of object `id` at R-tree
    /// `level`, in query-instance order, memoized per clamped level. Cost
    /// accounting follows [`Self::level_bounds_whole`]: the caller charges
    /// 2 comparisons per group per use of one instance's pair.
    pub fn level_bounds_instance(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        level: usize,
        stats: &mut Stats,
        metrics: &mut QueryMetrics,
    ) -> Arc<Vec<BoundPair>> {
        let snap = self.level_snapshot(db, id, stats);
        let idx = snap.clamped(level);
        let slot = &mut self.memo_mut(id).bounds_instance;
        if slot.is_empty() {
            slot.resize_with(snap.num_levels(), || None);
        }
        if let Some(b) = &slot[idx] {
            stats.cache_hits += 1;
            return Arc::clone(b);
        }
        stats.cache_misses += 1;
        let b = match (self.record(id), &self.warm) {
            (r, Some(w)) => w.bounds_instance(r.as_deref(), query, &snap, level, metrics),
            (_, None) => Arc::new(build_bounds_instance(query, snap.level(level))),
        };
        self.memo_mut(id).bounds_instance[idx] = Some(Arc::clone(&b));
        b
    }

    /// Indices of instances of `id` that lie inside (or on) the convex hull
    /// of the query. An instance inside `CH(Q)` can only be peer-dominated
    /// by a coincident instance (§5.1.2).
    pub fn in_hull_instances(
        &mut self,
        db: &dyn SpatialIndex,
        query: &PreparedQuery,
        id: usize,
        stats: &mut Stats,
    ) -> Arc<Vec<usize>> {
        if let Some(l) = self.memo(id).and_then(|m| m.in_hull.as_ref()) {
            stats.cache_hits += 1;
            return Arc::clone(l);
        }
        stats.cache_misses += 1;
        let obj = db.object(id);
        let hull = query.hull();
        stats.instance_comparisons += obj.len() as u64;
        let list: Vec<usize> = obj
            .coords()
            .chunks_exact(obj.dim())
            .enumerate()
            .filter(|(_, row)| {
                // Cheap MBR reject before the LP containment test.
                query.mbr().contains_row(row) && osd_geom::point_in_hull_row(row, hull)
            })
            .map(|(i, _)| i)
            .collect();
        let list = Arc::new(list);
        self.memo_mut(id).in_hull = Some(Arc::clone(&list));
        list
    }
}

/// Builds the full per-level group partition of object `id`'s local R-tree
/// — the single sanctioned [`LevelSnapshot`] constructor, which the index
/// runs once per object entry ([`SpatialIndex::level_snapshot`]). Charges
/// nothing: the quantisation it consumes is the object's `quanta`.
pub(crate) fn build_level_snapshot(
    db: &dyn SpatialIndex,
    id: usize,
    quanta: &[u64],
) -> LevelSnapshot {
    let obj = db.object(id);
    let tree = db.local_tree(id);
    let height = tree.height().unwrap_or(0);
    // Level height+1 is the all-singleton partition; deeper levels
    // repeat it, so materialising up to height+1 covers every request.
    let mut levels = Vec::with_capacity(height + 1);
    for level in 1..=height + 1 {
        let groups = tree.level_groups(level);
        let mut mbrs = Vec::with_capacity(groups.len());
        let mut masses = Vec::with_capacity(groups.len());
        let mut caps = Vec::with_capacity(groups.len());
        for (mbr, items) in groups {
            // Same member order and left-to-right fold as the scalar
            // `group_masses` / caps rebuilds — bit-identical sums.
            masses.push(items.iter().map(|&&i| obj.prob(i)).sum());
            caps.push(items.iter().map(|&&i| quanta[i]).sum());
            mbrs.push(mbr);
        }
        levels.push(LevelGroups { mbrs, masses, caps });
    }
    LevelSnapshot { height, levels }
}

/// Builds the kernel-path traversal key of object `id`: squared
/// `δ_min(V, Q)` from a pruned scan of its instance rows
/// ([`min_dist2_rows_multi`]), rounded through `sqrt` and squared again so
/// it equals the scalar path's squared nearest distances bit for bit.
/// `+∞` for an object or query without instances.
pub(crate) fn build_key(db: &dyn SpatialIndex, query: &PreparedQuery, id: usize) -> f64 {
    let object = db.object(id);
    let probes = query.instance_points();
    min_dist2_rows_multi(object.coords(), object.dim(), probes, object.mbr()).map_or(
        f64::INFINITY,
        |d2| {
            let d = d2.sqrt();
            d * d
        },
    )
}

/// Builds `U_Q` of object `id`: every query/object instance pair, query
/// instance outer.
pub(crate) fn build_dist_q(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    id: usize,
) -> DistanceDistribution {
    DistanceDistribution::between_ref(db.object(id), query.object())
}

/// Builds `U_q` of object `id` for every query instance, in query instance
/// order.
pub(crate) fn build_per_q(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    id: usize,
) -> Vec<DistanceDistribution> {
    let obj = db.object(id);
    query
        .object()
        .instances()
        .iter()
        .map(|q| DistanceDistribution::to_instance_ref(obj, &q.point))
        .collect()
}

/// Builds the whole-`U_Q` bound pair for one snapshot level with the same
/// atom order and left-to-right folds as the scalar per-pair rebuild in
/// `ops::level`, so the resulting distributions are bit-identical to it.
pub(crate) fn build_bounds_whole(query: &PreparedQuery, level: &LevelGroups) -> BoundPair {
    let mut lo = Vec::with_capacity(level.len() * query.len());
    let mut hi = Vec::with_capacity(level.len() * query.len());
    for q in query.object().instances() {
        for (mbr, &mass) in level.mbrs.iter().zip(level.masses.iter()) {
            lo.push((mbr.min_dist_point(&q.point), q.prob * mass));
            hi.push((mbr.max_dist_point(&q.point), q.prob * mass));
        }
    }
    (
        DistanceDistribution::from_atoms(lo),
        DistanceDistribution::from_atoms(hi),
    )
}

/// Builds the per-`U_q` bound pairs for one snapshot level, in query
/// instance order, with the scalar rebuild's atom order.
pub(crate) fn build_bounds_instance(query: &PreparedQuery, level: &LevelGroups) -> Vec<BoundPair> {
    query
        .object()
        .instances()
        .iter()
        .map(|q| {
            let mut lo = Vec::with_capacity(level.len());
            let mut hi = Vec::with_capacity(level.len());
            for (mbr, &mass) in level.mbrs.iter().zip(level.masses.iter()) {
                lo.push((mbr.min_dist_point(&q.point), mass));
                hi.push((mbr.max_dist_point(&q.point), mass));
            }
            (
                DistanceDistribution::from_atoms(lo),
                DistanceDistribution::from_atoms(hi),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn setup() -> (Database, PreparedQuery) {
        let db = Database::new(vec![
            UncertainObject::uniform(vec![p2(0.0, 0.0), p2(1.0, 0.0)]),
            UncertainObject::uniform(vec![p2(5.0, 5.0), p2(6.0, 5.0)]),
        ]);
        let q = PreparedQuery::new(UncertainObject::uniform(vec![p2(0.0, 1.0), p2(1.0, 1.0)]));
        (db, q)
    }

    #[test]
    fn caching_counts_cost_once() {
        let (db, q) = setup();
        let mut cache = DominanceCache::new(db.len());
        let mut stats = Stats::default();
        let mut metrics = QueryMetrics::new();
        let d1 = cache.dist_q(&db, &q, 0, &mut stats, &mut metrics);
        let after_first = stats.instance_comparisons;
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        let d2 = cache.dist_q(&db, &q, 0, &mut stats, &mut metrics);
        assert_eq!(
            stats.instance_comparisons, after_first,
            "second hit must be free"
        );
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert!(Arc::ptr_eq(&d1, &d2));
    }

    #[test]
    fn derived_getters_count_nested_lookups() {
        let (db, q) = setup();
        let mut cache = DominanceCache::new(db.len());
        let mut stats = Stats::default();
        let mut metrics = QueryMetrics::new();
        // agg misses, then builds dist_q (another miss).
        let _ = cache.agg(&db, &q, 0, &mut stats, &mut metrics);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 2));
        // Second agg is a single hit; dist_q is not consulted again.
        let _ = cache.agg(&db, &q, 0, &mut stats, &mut metrics);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));
    }

    #[test]
    fn per_q_matches_direct_construction() {
        let (db, q) = setup();
        let mut cache = DominanceCache::new(db.len());
        let mut stats = Stats::default();
        let mut metrics = QueryMetrics::new();
        let per_q = cache.per_q(&db, &q, 1, &mut stats, &mut metrics);
        assert_eq!(per_q.len(), 2);
        let direct = DistanceDistribution::to_instance_ref(db.object(1), &q.instance_points()[0]);
        assert!(per_q[0].approx_eq(&direct, 1e-12));
    }

    #[test]
    fn agg_matches_distribution_stats() {
        let (db, q) = setup();
        let mut cache = DominanceCache::new(db.len());
        let mut stats = Stats::default();
        let mut metrics = QueryMetrics::new();
        let (mn, mean, mx) = cache.agg(&db, &q, 0, &mut stats, &mut metrics);
        let d = cache.dist_q(&db, &q, 0, &mut stats, &mut metrics);
        assert_eq!(mn, d.min());
        assert_eq!(mean, d.mean());
        assert_eq!(mx, d.max());
    }

    #[test]
    fn level_snapshot_matches_scalar_rebuild_bitwise() {
        let objects: Vec<UncertainObject> = (0..3)
            .map(|k| {
                UncertainObject::uniform(
                    (0..9)
                        .map(|i| p2(k as f64 * 10.0 + i as f64 * 0.7, (i % 3) as f64))
                        .collect(),
                )
            })
            .collect();
        let db = Database::with_fanouts(objects, 4, 3);
        let q = PreparedQuery::new(UncertainObject::uniform(vec![p2(0.0, 1.0)]));
        let mut cache = DominanceCache::new(db.len());
        let mut stats = Stats::default();
        let mut metrics = QueryMetrics::new();
        for id in 0..db.len() {
            let snap = cache.level_snapshot(&db, id, &mut stats);
            let tree = db.local_tree(id);
            let obj = db.object(id);
            let quanta = cache.quanta(&db, id, &mut stats);
            assert_eq!(snap.height(), tree.height().unwrap_or(0));
            // Levels past height+1 clamp to the finest (singleton) level.
            assert_eq!(
                snap.level(snap.height() + 5).len(),
                obj.len(),
                "finest level is one group per instance"
            );
            for level in 1..=snap.height() + 1 {
                let groups = tree.level_groups(level);
                let lg = snap.level(level);
                assert_eq!(lg.len(), groups.len());
                for (g, (mbr, items)) in groups.iter().enumerate() {
                    let scalar_mass: f64 = items.iter().map(|&&i| obj.prob(i)).sum();
                    let scalar_cap: u64 = items.iter().map(|&&i| quanta[i]).sum();
                    assert_eq!(lg.masses[g].to_bits(), scalar_mass.to_bits());
                    assert_eq!(lg.caps[g], scalar_cap);
                    assert_eq!(&lg.mbrs[g], mbr);
                }
            }
        }
        // Second lookup is a pure cache hit.
        let hits_before = stats.cache_hits;
        let _ = cache.level_snapshot(&db, 0, &mut stats);
        assert_eq!(stats.cache_hits, hits_before + 1);

        // The memoized bound pairs equal a by-hand rebuild with the scalar
        // atom order, charge nothing at build time, and hit on re-lookup.
        let comparisons_before = stats.instance_comparisons;
        for id in 0..db.len() {
            let snap = cache.level_snapshot(&db, id, &mut stats);
            for level in 1..=snap.height() + 1 {
                let lg = snap.level(level);
                let bw = cache.level_bounds_whole(&db, &q, id, level, &mut stats, &mut metrics);
                let mut lo = Vec::new();
                let mut hi = Vec::new();
                for qi in q.object().instances() {
                    for (mbr, &mass) in lg.mbrs.iter().zip(lg.masses.iter()) {
                        lo.push((mbr.min_dist_point(&qi.point), qi.prob * mass));
                        hi.push((mbr.max_dist_point(&qi.point), qi.prob * mass));
                    }
                }
                assert!(bw.0.approx_eq(&DistanceDistribution::from_atoms(lo), 0.0));
                assert!(bw.1.approx_eq(&DistanceDistribution::from_atoms(hi), 0.0));
                let bi = cache.level_bounds_instance(&db, &q, id, level, &mut stats, &mut metrics);
                assert_eq!(bi.len(), q.len());
                let again = cache.level_bounds_whole(&db, &q, id, level, &mut stats, &mut metrics);
                assert!(Arc::ptr_eq(&bw, &again), "clamped level must be shared");
            }
        }
        assert_eq!(
            stats.instance_comparisons, comparisons_before,
            "bound memo construction must not charge frozen counters"
        );
    }

    #[test]
    fn mapped_dimensionality_is_hull_size() {
        let (db, q) = setup();
        let mut cache = DominanceCache::new(db.len());
        let mut stats = Stats::default();
        let m = cache.mapped(&db, &q, 0, &mut stats);
        let k = q.hull().len();
        assert_eq!(m.len(), 2 * k);
        // Bit-identical to δ(inst, h) per hull vertex h.
        for (row, inst) in m.chunks_exact(k).zip(db.object(0).coords().chunks_exact(2)) {
            for (x, h) in row.iter().zip(q.hull()) {
                assert_eq!(x.to_bits(), dist_slice(inst, h.coords()).to_bits());
            }
        }
    }
}
