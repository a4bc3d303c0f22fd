//! Per-query memos of derived object state, and the `CheckCtx` getters
//! that read it.
//!
//! A single NNC query compares each visited object against many candidates
//! (Algorithm 1), so the §5.1 state of each visited object — `U_Q`, `U_q`,
//! their statistic triples (Theorem 11), the distance-space image, the
//! in-hull list and the level bounds — is computed once per object per
//! query and shared across all pairwise checks.
//!
//! Each value has one getter, on [`CheckCtx`], and one home: a field of the
//! object's `Record` (`core::warm`). The memo of a touched object holds
//! that record and a bitmask of what this traversal has looked up; every
//! getter reads through one generic lookup. The record is the query
//! table's when the query is admitted, so its values are shared with the
//! next traversal of the same query on the same snapshot; otherwise it is
//! private to this traversal. The state that depends on the object alone
//! (quantised masses, level snapshots) lives in the index, beside each
//! object's local tree ([`SpatialIndex::quanta`],
//! [`SpatialIndex::level_snapshot`]); the memo keeps only its bit.
//!
//! Every getter records one cache hit or miss into [`Stats`](crate::Stats),
//! the only record of these counters, from the bitmask alone: a value the
//! query table served is a miss like a built one, and charges the same
//! frozen build cost, so `Stats` does not depend on the warm cache.
//! Derived getters (`agg` over `dist_q`, `per_q_agg` over `per_q`,
//! `level_snapshot` over `quanta`, the level bounds over `level_snapshot`)
//! count their nested lookups too, served or not — the counters measure
//! cache traffic, not distinct entries.
//!
//! This module holds the one constructor of each level snapshot, distance
//! distribution and bound distribution; the index builds through the same
//! functions, so a shared value is bit-identical to a privately built one.

use crate::ctx::CheckCtx;
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use crate::warm::{LevelBounds, LevelSlots, Record, Resident};
use osd_geom::{dist_slice, min_dist2_rows_multi, Mbr};
use osd_obs::AttrValue;
use osd_uncertain::DistanceDistribution;
use std::sync::{Arc, OnceLock};

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

/// What a traversal has looked up of one object, one bit per value (see
/// [`bound_bit`] for the level bounds).
const DIST_Q: u128 = 1;
const PER_Q: u128 = 1 << 1;
const AGG: u128 = 1 << 2;
const PER_Q_AGG: u128 = 1 << 3;
const MAPPED: u128 = 1 << 4;
const IN_HULL: u128 = 1 << 5;
const QUANTA: u128 = 1 << 6;
const LEVELS: u128 = 1 << 7;

/// The bit of the whole-`U_Q` (`kind` 0) or per-`U_q` (`kind` 1) bound
/// pair at clamped level `idx`. A local tree over fewer than 2⁵⁹
/// instances has at most 60 levels, so the bits fit.
fn bound_bit(idx: usize, kind: usize) -> u128 {
    1 << (8 + 2 * idx + kind)
}

/// One touched object's memo: its record, once a query-keyed value is
/// looked up, and what this traversal has looked up.
#[derive(Default)]
struct Memo {
    /// The query table's record of the object, or a private one.
    record: Option<Arc<Record>>,
    /// Whether `record` is the query table's, filled through the warm view.
    shared: bool,
    /// The bits of the values this traversal has looked up.
    looked: u128,
}

/// The per-query memos of one traversal, found through an id-indexed table
/// of memo indices: the first touch zero-fills that table only, so a query
/// pays for the objects it visits, not for the size of the database, and
/// a context that looks nothing up (a continuous repair whose rechecks all
/// prune on MBRs) pays nothing.
pub(crate) struct Memos {
    /// Objects in the database.
    n: usize,
    /// Object id → 1 + its memo's index in `memos`; 0 = not touched yet.
    /// Empty until the first touch.
    index: Vec<usize>,
    /// Memos in first-touch order.
    memos: Vec<Memo>,
}

impl Memos {
    /// No memos, over a database of `n` objects.
    pub(crate) fn new(n: usize) -> Memos {
        Memos {
            n,
            index: Vec::new(),
            memos: Vec::new(),
        }
    }

    /// The memo of `id`, created empty on first touch.
    ///
    /// # Panics
    /// Panics if `id` is out of range, like indexing the database.
    fn touch(&mut self, id: usize) -> &mut Memo {
        if self.index.is_empty() {
            self.index = vec![0; self.n];
        }
        if self.index[id] == 0 {
            self.memos.push(Memo::default());
            self.index[id] = self.memos.len();
        }
        &mut self.memos[self.index[id] - 1]
    }
}

/// A private copy of `r` holding the values `looked` marks, and its level
/// slots if it has them: the home of an object's values once the cache
/// holding its table record is sealed mid-traversal. The values were read
/// before the seal, and a published value never changes.
fn private_copy(r: &Record, looked: u128) -> Record {
    fn keep<V: Clone>(looked: bool, slot: &OnceLock<V>) -> OnceLock<V> {
        match slot.get() {
            Some(v) if looked => OnceLock::from(v.clone()),
            _ => OnceLock::new(),
        }
    }
    let has = |bit| looked & bit != 0;
    let levels = r.levels.get().map(|slots| {
        let slots = slots.iter().enumerate().map(|(i, (whole, instance))| {
            let whole = keep(has(bound_bit(i, 0)), whole);
            (whole, keep(has(bound_bit(i, 1)), instance))
        });
        LevelSlots::from_iter(slots)
    });
    Record {
        dist_q: keep(has(DIST_Q), &r.dist_q),
        per_q: keep(has(PER_Q), &r.per_q),
        agg: keep(has(AGG), &r.agg),
        per_q_agg: keep(has(PER_Q_AGG), &r.per_q_agg),
        mapped: keep(has(MAPPED), &r.mapped),
        in_hull: keep(has(IN_HULL), &r.in_hull),
        levels: levels.map_or_else(OnceLock::new, OnceLock::from),
    }
}

/// The getters of the per-object derived state. Each records one `Stats`
/// hit or miss; see the module docs.
impl CheckCtx<'_> {
    /// Charges a lookup of `id`'s value `bit`: a hit when this traversal
    /// has looked it up before, else a miss. Returns whether it hit.
    fn charge(&mut self, id: usize, bit: u128) -> bool {
        let memo = self.memos.touch(id);
        let hit = memo.looked & bit != 0;
        memo.looked |= bit;
        if hit {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }
        hit
    }

    /// `id`'s record, found or made on its first query-keyed lookup: the
    /// query table's when the query has one on an unsealed cache (`true`),
    /// else a private one no table holds.
    fn record(&mut self, id: usize) -> (Arc<Record>, bool) {
        let memo = self.memos.touch(id);
        if let Some(r) = &memo.record {
            return (Arc::clone(r), memo.shared);
        }
        let found = self.warm.as_ref().and_then(|w| w.record(id));
        memo.shared = found.is_some();
        let r = found.unwrap_or_default();
        memo.record = Some(Arc::clone(&r));
        (r, memo.shared)
    }

    /// The value in `field` of `id`'s record, built by `build` (and kept
    /// there) when the record does not hold it; `true` when it was built.
    /// A table record is filled through the warm view, counting a warm hit
    /// or miss when `tally` is set. When the view refuses, its cache being
    /// sealed, the object moves to a private copy of the record holding the
    /// values this traversal looked up, so none of them is built twice.
    fn fill<V: Resident>(
        &mut self,
        id: usize,
        field: impl Fn(&Record) -> Option<&OnceLock<V>>,
        build: impl FnOnce() -> V,
        tally: bool,
    ) -> (V, bool) {
        let (record, shared) = self.record(id);
        let Some(slot) = field(&record) else {
            return (build(), true);
        };
        if let (true, Some(view)) = (shared, &self.warm) {
            return match view.fill(slot, build) {
                Ok((v, hit)) => {
                    if tally {
                        view.tally(hit, &mut self.metrics);
                    }
                    (v, !hit)
                }
                Err(v) => {
                    let memo = self.memos.touch(id);
                    let private = Arc::new(private_copy(&record, memo.looked));
                    if let Some(slot) = field(&private) {
                        let _ = slot.set(v.clone());
                    }
                    (memo.record, memo.shared) = (Some(private), false);
                    (v, true)
                }
            };
        }
        match slot.get() {
            Some(v) => (v.clone(), false),
            None => {
                let v = build();
                let _ = slot.set(v.clone());
                (v, true)
            }
        }
    }

    /// Looks up `id`'s query-keyed value `bit`, held in `field` of its
    /// record: a `Stats` hit when this traversal has looked it up, else a
    /// miss that first runs `miss` (the value's frozen charge and nested
    /// lookups, made whether the value is then built or served) and hands
    /// its result to `build`. Returns the value and whether it was built.
    fn lookup<A, V: Resident>(
        &mut self,
        id: usize,
        bit: u128,
        field: impl Fn(&Record) -> Option<&OnceLock<V>>,
        miss: impl FnOnce(&mut Self) -> A,
        build: impl FnOnce(A) -> V,
    ) -> (V, bool) {
        let memo = self.memos.touch(id);
        let looked = memo.looked & bit != 0;
        let record = memo.record.as_deref().filter(|_| looked);
        if let Some(v) = record.and_then(&field).and_then(OnceLock::get) {
            self.stats.cache_hits += 1;
            return (v.clone(), false);
        }
        self.stats.cache_misses += 1;
        let a = miss(self);
        let found = self.fill(id, &field, || build(a), true);
        self.memos.touch(id).looked |= bit;
        found
    }

    /// Charges the frozen build cost of a distribution of `id`: one
    /// comparison per instance pair.
    fn charge_pairs(&mut self, id: usize) {
        self.stats.instance_comparisons += (self.db.object(id).len() * self.query.len()) as u64;
    }

    /// The full distance distribution `U_Q` of object `id`.
    ///
    /// A miss charges the frozen build cost (one comparison per instance
    /// pair) whether the value is then built or served from the query
    /// table, so `Stats` does not depend on the warm cache. A traced
    /// context marks each build with a `cache-build` instant.
    pub fn dist_q(&mut self, id: usize) -> Arc<DistanceDistribution> {
        let (db, query) = (self.db, self.query);
        let (dist, built) = self.lookup(
            id,
            DIST_Q,
            |r| Some(&r.dist_q),
            |ctx| ctx.charge_pairs(id),
            |()| Arc::new(build_dist_q(db, query, id)),
        );
        if built && self.trace.is_active() {
            let event = self.trace.instant("cache-build");
            self.trace
                .attr(event, "kind", AttrValue::Str("dist_q".into()));
            self.trace.attr(event, "id", AttrValue::U64(id as u64));
        }
        dist
    }

    /// The per-query-instance distributions `U_q` of object `id`, in query
    /// instance order. Charged like [`Self::dist_q`].
    pub fn per_q(&mut self, id: usize) -> Arc<Vec<DistanceDistribution>> {
        let (db, query) = (self.db, self.query);
        let build = |()| Arc::new(build_per_q(db, query, id));
        let charge = |ctx: &mut Self| ctx.charge_pairs(id);
        self.lookup(id, PER_Q, |r| Some(&r.per_q), charge, build).0
    }

    /// min/mean/max of `U_Q`; a miss looks `U_Q` up too.
    pub fn agg(&mut self, id: usize) -> AggStats {
        let agg = |d: Arc<DistanceDistribution>| (d.min(), d.mean(), d.max());
        self.lookup(id, AGG, |r| Some(&r.agg), |ctx| ctx.dist_q(id), agg)
            .0
    }

    /// min/mean/max of each `U_q`; a miss looks the `U_q` up too.
    pub fn per_q_agg(&mut self, id: usize) -> Arc<Vec<AggStats>> {
        let agg = |p: Arc<Vec<DistanceDistribution>>| {
            Arc::new(p.iter().map(|d| (d.min(), d.mean(), d.max())).collect())
        };
        let per_q = |ctx: &mut Self| ctx.per_q(id);
        self.lookup(id, PER_Q_AGG, |r| Some(&r.per_q_agg), per_q, agg)
            .0
    }

    /// Fixed-point instance masses of object `id` (summing to `SCALE`),
    /// the index's copy ([`SpatialIndex::quanta`]).
    pub fn quanta(&mut self, id: usize) -> Arc<Vec<u64>> {
        self.charge(id, QUANTA);
        self.db.quanta(id)
    }

    /// The per-level group partition of object `id`'s local R-tree: MBRs,
    /// float masses and quantised caps for every level, the index's copy
    /// ([`SpatialIndex::level_snapshot`]). It is built over the quantised
    /// masses, so a miss looks them up too.
    pub fn level_snapshot(&mut self, id: usize) -> Arc<LevelSnapshot> {
        if !self.charge(id, LEVELS) {
            self.quanta(id);
        }
        self.db.level_snapshot(id)
    }

    /// A bound pair of object `id` at R-tree `level`: `kind` 0 is the
    /// whole-`U_Q` pair, 1 the per-`U_q` pairs. Looks the level snapshot up
    /// first; a miss makes room for the object's level slots.
    fn level_bounds<V: Resident>(
        &mut self,
        id: usize,
        level: usize,
        kind: usize,
        slot: fn(&LevelBounds) -> &OnceLock<V>,
        build: fn(&PreparedQuery, &LevelGroups) -> V,
    ) -> V {
        let snap = self.level_snapshot(id);
        let idx = snap.clamped(level);
        let query = self.query;
        let room = |ctx: &mut Self| {
            let slots = || (0..snap.num_levels()).map(|_| Default::default()).collect();
            ctx.fill(id, |r| Some(&r.levels), slots, false);
        };
        let build = |()| build(query, snap.level(level));
        let bit = bound_bit(idx, kind);
        self.lookup(
            id,
            bit,
            |r| Some(slot(r.levels.get()?.get(idx)?)),
            room,
            build,
        )
        .0
    }

    /// Optimistic/pessimistic bounds on the whole `U_Q` of object `id` at
    /// R-tree `level`, memoized per clamped level (the scalar path
    /// re-derives and re-sorts both distributions for every `(u, v)` pair
    /// the object appears in).
    ///
    /// The lookup carries no comparison cost itself: the caller charges
    /// the frozen per-use cost (2 comparisons per query instance per
    /// group), exactly as the scalar rebuild would, so the `Stats` contract
    /// of the kernels path stays bit-identical.
    pub fn level_bounds_whole(&mut self, id: usize, level: usize) -> Arc<BoundPair> {
        let build = |q: &PreparedQuery, l: &LevelGroups| Arc::new(build_bounds_whole(q, l));
        self.level_bounds(id, level, 0, |l| &l.0, build)
    }

    /// Optimistic/pessimistic bounds on each `U_q` of object `id` at R-tree
    /// `level`, in query-instance order, memoized per clamped level. Cost
    /// accounting follows [`Self::level_bounds_whole`]: the caller charges
    /// 2 comparisons per group per use of one instance's pair.
    pub fn level_bounds_instance(&mut self, id: usize, level: usize) -> Arc<Vec<BoundPair>> {
        let build = |q: &PreparedQuery, l: &LevelGroups| Arc::new(build_bounds_instance(q, l));
        self.level_bounds(id, level, 1, |l| &l.1, build)
    }

    /// Distance-space mapping of the instances of `id` w.r.t. the query hull
    /// (`u ↦ (δ(u, q_1), …, δ(u, q_k))`), one image row per instance. In
    /// this space `u ⪯_Q v` is coordinate-wise dominance (§5.1.2).
    pub fn mapped(&mut self, id: usize) -> Arc<MappedInstances> {
        let (db, query) = (self.db, self.query);
        let charge = |ctx: &mut Self| {
            let pairs = db.object(id).len() * query.hull().len();
            ctx.stats.instance_comparisons += pairs as u64;
        };
        let build = |()| {
            let obj = db.object(id);
            let rows = obj.coords().chunks_exact(obj.dim());
            let hull = query.hull();
            Arc::new(
                rows.flat_map(|row| hull.iter().map(move |q| dist_slice(row, q.coords())))
                    .collect(),
            )
        };
        self.lookup(id, MAPPED, |r| Some(&r.mapped), charge, build)
            .0
    }

    /// Indices of instances of `id` that lie inside (or on) the convex hull
    /// of the query. An instance inside `CH(Q)` can only be peer-dominated
    /// by a coincident instance (§5.1.2).
    pub fn in_hull_instances(&mut self, id: usize) -> Arc<Vec<usize>> {
        let (db, query) = (self.db, self.query);
        let charge = |ctx: &mut Self| ctx.stats.instance_comparisons += db.object(id).len() as u64;
        let build = |()| {
            let obj = db.object(id);
            let rows = obj.coords().chunks_exact(obj.dim()).enumerate();
            // Cheap MBR reject before the LP containment test.
            let inside = rows.filter(|(_, row)| {
                query.mbr().contains_row(row) && osd_geom::point_in_hull_row(row, query.hull())
            });
            Arc::new(inside.map(|(i, _)| i).collect())
        };
        self.lookup(id, IN_HULL, |r| Some(&r.in_hull), charge, build)
            .0
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
fn build_dist_q(db: &dyn SpatialIndex, query: &PreparedQuery, id: usize) -> DistanceDistribution {
    DistanceDistribution::between_ref(db.object(id), query.object())
}

/// Builds `U_q` of object `id` for every query instance, in query instance
/// order.
fn build_per_q(
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
fn build_bounds_whole(query: &PreparedQuery, level: &LevelGroups) -> BoundPair {
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
fn build_bounds_instance(query: &PreparedQuery, level: &LevelGroups) -> Vec<BoundPair> {
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
    use crate::config::FilterConfig;
    use crate::db::Database;
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
        let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
        let d1 = ctx.dist_q(0);
        let after_first = ctx.stats.instance_comparisons;
        assert_eq!((ctx.stats.cache_hits, ctx.stats.cache_misses), (0, 1));
        let d2 = ctx.dist_q(0);
        assert_eq!(
            ctx.stats.instance_comparisons, after_first,
            "second hit must be free"
        );
        assert_eq!((ctx.stats.cache_hits, ctx.stats.cache_misses), (1, 1));
        assert!(Arc::ptr_eq(&d1, &d2));
    }

    #[test]
    fn derived_getters_count_nested_lookups() {
        let (db, q) = setup();
        let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
        // agg misses, then builds dist_q (another miss).
        let _ = ctx.agg(0);
        assert_eq!((ctx.stats.cache_hits, ctx.stats.cache_misses), (0, 2));
        // Second agg is a single hit; dist_q is not consulted again.
        let _ = ctx.agg(0);
        assert_eq!((ctx.stats.cache_hits, ctx.stats.cache_misses), (1, 2));
    }

    #[test]
    fn per_q_matches_direct_construction() {
        let (db, q) = setup();
        let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
        let per_q = ctx.per_q(1);
        assert_eq!(per_q.len(), 2);
        let direct = DistanceDistribution::to_instance_ref(db.object(1), &q.instance_points()[0]);
        assert!(per_q[0].approx_eq(&direct, 1e-12));
    }

    #[test]
    fn agg_matches_distribution_stats() {
        let (db, q) = setup();
        let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
        let (mn, mean, mx) = ctx.agg(0);
        let d = ctx.dist_q(0);
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
        let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
        for id in 0..db.len() {
            let snap = ctx.level_snapshot(id);
            let tree = db.local_tree(id);
            let obj = db.object(id);
            let quanta = ctx.quanta(id);
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
        let hits_before = ctx.stats.cache_hits;
        let _ = ctx.level_snapshot(0);
        assert_eq!(ctx.stats.cache_hits, hits_before + 1);

        // The memoized bound pairs equal a by-hand rebuild with the scalar
        // atom order, charge nothing at build time, and hit on re-lookup.
        let comparisons_before = ctx.stats.instance_comparisons;
        for id in 0..db.len() {
            let snap = ctx.level_snapshot(id);
            for level in 1..=snap.height() + 1 {
                let lg = snap.level(level);
                let bw = ctx.level_bounds_whole(id, level);
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
                let bi = ctx.level_bounds_instance(id, level);
                assert_eq!(bi.len(), q.len());
                let again = ctx.level_bounds_whole(id, level);
                assert!(Arc::ptr_eq(&bw, &again), "clamped level must be shared");
            }
        }
        assert_eq!(
            ctx.stats.instance_comparisons, comparisons_before,
            "bound memo construction must not charge frozen counters"
        );
    }

    #[test]
    fn mapped_dimensionality_is_hull_size() {
        let (db, q) = setup();
        let mut ctx = CheckCtx::new(&db, &q, FilterConfig::all());
        let m = ctx.mapped(0);
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
