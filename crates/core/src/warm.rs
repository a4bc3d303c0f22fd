//! Snapshot-scoped warm cache: cross-query reuse of snapshot-pure state.
//!
//! `core::cache` memoizes derived object state *per traversal*; everything
//! it holds that depends only on the snapshot — quantised masses, level
//! snapshots (group MBRs / masses / caps), object MBRs and the
//! per-(object, level) bound distributions of a repeated query — is
//! rebuilt from scratch by the next query. [`WarmCache`] promotes exactly
//! that subset to snapshot lifetime:
//!
//! * **Keying.** One cache is valid for one `(Arc::as_ptr(store), epoch)`
//!   pair. The cache pins its `Arc<InstanceStore>`, which both prevents
//!   pointer reuse (ABA) while the cache is alive and forces the epoch
//!   builders' `Arc::make_mut` down the clone path, so a published
//!   successor snapshot can never alias the pinned pointer.
//! * **Population.** Lock-free on read: a getter that finds its
//!   [`OnceLock`] slot empty builds the entry *off-lock* and publishes it
//!   with `set`, tolerating a lost race (the first published value wins;
//!   the loser adopts it). The query path never blocks on another
//!   builder.
//! * **Invalidation.** [`WarmPool::cache_for`] advances the cache to a
//!   newer epoch through [`EpochLog::changes_since`]: entries of objects
//!   untouched by the window are carried over (their derived state is
//!   bit-identical by construction), touched ids are evicted. When the
//!   log window is exhausted (`None`) — or the epoch regressed, i.e. the
//!   pool was fed a snapshot from a different chain — the whole cache is
//!   rebuilt, mirroring `ContinuousNnc`'s stale-window fallback.
//! * **Bit-identity.** Every entry is built by the same deterministic
//!   constructor as the cold path (`build_level_snapshot`,
//!   `build_bounds_*`, `quantize`), so a warm-served value is bit-for-bit
//!   the value the cold path would have built. Warm traffic is counted in
//!   the dedicated `warm_hits` / `warm_misses` counters; the legacy
//!   per-query `cache_hits` / `cache_misses` semantics are untouched.
//!
//! Bound distributions depend on the query as well as the snapshot, so
//! they live in per-query [`QueryBounds`] tables keyed by the query's
//! content fingerprint ([`PreparedQuery::fingerprint`]); the table is
//! resolved once per query into a [`WarmView`] and verified against the
//! full coordinate/probability bit pattern, so a 64-bit fingerprint
//! collision degrades to a private (unshared) table, never to wrong
//! bounds.
//!
//! One [`WarmPool`] must be fed snapshots of a single publish chain
//! (structurally guaranteed when the pool rides a `PublishedIndex`);
//! snapshots of unrelated indexes at coincidentally increasing epochs
//! would otherwise be taken for successors. The fallback rules above make
//! a mis-fed pool slow (full rebuilds), never wrong, as long as the two
//! chains' logs do not splice (`changes_since` of an unrelated log
//! answers `None` for a foreign epoch or describes different ids).

use crate::cache::{
    build_bounds_instance, build_bounds_whole, build_level_snapshot, BoundPair, LevelSnapshot,
};
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use osd_geom::Mbr;
use osd_obs::{Counter, QueryMetrics};
use osd_uncertain::{quantize, touched_ids, InstanceStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One lazily-published cache slot.
type Slot<T> = OnceLock<Arc<T>>;

/// Per-level slot array of one object (sized `num_levels` on first touch).
type LevelSlots<T> = Arc<[Slot<T>]>;

/// Publishes `value` into `slot`, tolerating a lost race: the first
/// published value wins and the loser adopts it. Returns the winning
/// value and whether *this* call published it (the publisher owns the
/// resident-bytes accounting).
fn publish<T>(slot: &Slot<T>, value: Arc<T>) -> (Arc<T>, bool) {
    match slot.set(Arc::clone(&value)) {
        Ok(()) => (value, true),
        Err(_) => (slot.get().map(Arc::clone).unwrap_or(value), false),
    }
}

fn empty_slots<T>(n: usize) -> Box<[Slot<T>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Gets or installs the per-level slot array of one object.
fn level_slots<T>(outer: &OnceLock<LevelSlots<T>>, num_levels: usize) -> LevelSlots<T> {
    if let Some(s) = outer.get() {
        return Arc::clone(s);
    }
    let fresh: LevelSlots<T> = (0..num_levels).map(|_| OnceLock::new()).collect();
    match outer.set(Arc::clone(&fresh)) {
        Ok(()) => fresh,
        Err(_) => outer.get().map(Arc::clone).unwrap_or(fresh),
    }
}

// ---- approximate resident sizes (gauge accounting, not allocator truth) ----

fn quanta_bytes(q: &[u64]) -> u64 {
    24 + 8 * q.len() as u64
}

fn mbr_bytes(m: &Mbr) -> u64 {
    16 * m.lo().len() as u64
}

fn snapshot_bytes(s: &LevelSnapshot) -> u64 {
    let mut b = 48u64;
    for idx in 1..=s.num_levels() {
        let lg = s.level(idx);
        b += 72;
        for m in &lg.mbrs {
            b += mbr_bytes(m) + 16;
        }
    }
    b
}

fn bound_pair_bytes(p: &BoundPair) -> u64 {
    64 + 16 * (p.0.support_size() + p.1.support_size()) as u64
}

fn bound_vec_bytes(v: &[BoundPair]) -> u64 {
    24 + v.iter().map(bound_pair_bytes).sum::<u64>()
}

/// Pool-level cumulative counters, for bench / CLI reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Lookups served from an already published entry.
    pub hits: u64,
    /// Lookups that built (or raced to build) the entry.
    pub misses: u64,
    /// Entries discarded by epoch invalidation (cumulative).
    pub evictions: u64,
    /// Approximate bytes resident in the current cache.
    pub resident_bytes: u64,
    /// Epoch of the current cache.
    pub epoch: u64,
}

/// The per-query bound tables of one warm cache, keyed by query content.
///
/// `whole[id]` / `instance[id]` hold, per clamped level of the object's
/// snapshot, the §5.1.1 optimistic/pessimistic bound distributions —
/// exactly the values `DominanceCache::level_bounds_*` would build cold.
pub struct QueryBounds {
    /// Exact coordinate/probability bit pattern of the owning query, used
    /// to verify fingerprint matches (collision ⇒ private table).
    key: Vec<u64>,
    whole: Box<[OnceLock<LevelSlots<BoundPair>>]>,
    instance: Box<[OnceLock<LevelSlots<Vec<BoundPair>>>]>,
}

impl std::fmt::Debug for QueryBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBounds")
            .field("objects", &self.whole.len())
            .finish_non_exhaustive()
    }
}

impl QueryBounds {
    fn new(n: usize, key: Vec<u64>) -> Self {
        QueryBounds {
            key,
            whole: (0..n).map(|_| OnceLock::new()).collect(),
            instance: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// The exact bit pattern of a query's instances — the collision-proof
/// identity its fingerprint abbreviates.
fn query_key(query: &PreparedQuery) -> Vec<u64> {
    let mut key = Vec::new();
    for inst in query.object().instances() {
        for &c in inst.point.coords() {
            key.push(c.to_bits());
        }
        key.push(inst.prob.to_bits());
    }
    key
}

/// A shared warm cache for one `(store pointer, epoch)` snapshot.
///
/// See the module docs for the keying / population / invalidation
/// protocol. All entry arrays are sized by the snapshot's logical id
/// space (`db.len()`, tombstones included), matching `DominanceCache`.
pub struct WarmCache {
    /// Pinned store snapshot: identity key half, ABA guard, and CoW
    /// forcing (a pinned refcount makes `Arc::make_mut` clone).
    store: Arc<InstanceStore>,
    epoch: u64,
    quanta: Box<[Slot<Vec<u64>>]>,
    levels: Box<[Slot<LevelSnapshot>]>,
    mbrs: Box<[Slot<Mbr>]>,
    bounds: Mutex<BTreeMap<u64, Arc<QueryBounds>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cumulative over the pool's lifetime (carried across advances).
    evictions: u64,
    resident_bytes: AtomicU64,
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmCache")
            .field("epoch", &self.epoch)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl WarmCache {
    /// A blank cache keyed to `db`'s current snapshot.
    fn blank(db: &dyn SpatialIndex) -> WarmCache {
        let n = db.len();
        WarmCache {
            store: Arc::clone(db.store()),
            epoch: db.epoch(),
            quanta: empty_slots(n),
            levels: empty_slots(n),
            mbrs: empty_slots(n),
            bounds: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// Whether this cache is keyed to exactly `db`'s current snapshot.
    pub fn matches(&self, db: &dyn SpatialIndex) -> bool {
        Arc::ptr_eq(&self.store, db.store()) && self.epoch == db.epoch()
    }

    /// The epoch this cache is keyed to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative warm hits served by this cache (carried on advance).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative warm misses (entries built; carried on advance).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative entries evicted by epoch invalidation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate bytes resident in this cache.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    fn stats(&self) -> WarmStats {
        WarmStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions,
            resident_bytes: self.resident_bytes(),
            epoch: self.epoch,
        }
    }

    fn add_bytes(&self, b: u64) {
        self.resident_bytes.fetch_add(b, Ordering::Relaxed);
    }

    fn quanta_entry(&self, db: &dyn SpatialIndex, id: usize) -> (Arc<Vec<u64>>, bool) {
        if let Some(q) = self.quanta[id].get() {
            return (Arc::clone(q), true);
        }
        let built = Arc::new(quantize(db.object(id).probs()));
        let (v, published) = publish(&self.quanta[id], built);
        if published {
            self.add_bytes(quanta_bytes(&v));
        }
        (v, false)
    }

    fn snapshot_entry(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        quanta: &[u64],
    ) -> (Arc<LevelSnapshot>, bool) {
        if let Some(s) = self.levels[id].get() {
            return (Arc::clone(s), true);
        }
        let built = Arc::new(build_level_snapshot(db, id, quanta));
        let (v, published) = publish(&self.levels[id], built);
        if published {
            self.add_bytes(snapshot_bytes(&v));
        }
        (v, false)
    }

    fn mbr_entry(&self, db: &dyn SpatialIndex, id: usize) -> (Arc<Mbr>, bool) {
        if let Some(m) = self.mbrs[id].get() {
            return (Arc::clone(m), true);
        }
        let built = Arc::new(db.object(id).mbr().clone());
        let (v, published) = publish(&self.mbrs[id], built);
        if published {
            self.add_bytes(mbr_bytes(&v));
        }
        (v, false)
    }

    /// The bound table of `query`, shared across equal repeated queries.
    /// A fingerprint collision (different content, same 64-bit key)
    /// returns a private unregistered table — correctness never rests on
    /// the hash.
    pub fn bounds_for(&self, query: &PreparedQuery) -> Arc<QueryBounds> {
        let key = query_key(query);
        let n = self.quanta.len();
        let mut map = self.bounds.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = map.get(&query.fingerprint()) {
            if t.key == key {
                return Arc::clone(t);
            }
            return Arc::new(QueryBounds::new(n, key));
        }
        let t = Arc::new(QueryBounds::new(n, key));
        map.insert(query.fingerprint(), Arc::clone(&t));
        t
    }

    /// Entries currently published (used to count a full-rebuild
    /// eviction).
    fn resident_entries(&self) -> u64 {
        let mut c = 0u64;
        c += self.quanta.iter().filter(|s| s.get().is_some()).count() as u64;
        c += self.levels.iter().filter(|s| s.get().is_some()).count() as u64;
        c += self.mbrs.iter().filter(|s| s.get().is_some()).count() as u64;
        let map = self.bounds.lock().unwrap_or_else(PoisonError::into_inner);
        for qb in map.values() {
            for outer in qb.whole.iter() {
                if let Some(slots) = outer.get() {
                    c += slots.iter().filter(|s| s.get().is_some()).count() as u64;
                }
            }
            for outer in qb.instance.iter() {
                if let Some(slots) = outer.get() {
                    c += slots.iter().filter(|s| s.get().is_some()).count() as u64;
                }
            }
        }
        c
    }

    /// Advances `old` to `db`'s snapshot: incremental carry + targeted
    /// eviction when the epoch log covers the window, full rebuild
    /// otherwise.
    fn advance(old: &WarmCache, db: &dyn SpatialIndex) -> WarmCache {
        let window = if db.epoch() > old.epoch {
            db.changes_since(old.epoch)
        } else {
            // Epoch regressed (or a same-epoch snapshot with a different
            // store pointer): not a successor of ours — start over.
            None
        };
        let mut next = WarmCache::blank(db);
        next.hits = AtomicU64::new(old.hits());
        next.misses = AtomicU64::new(old.misses());
        let Some(changes) = window else {
            next.evictions = old.evictions + old.resident_entries();
            return next;
        };
        let touched = touched_ids(&changes);
        let is_touched = |id: usize| touched.binary_search(&id).is_ok();
        let n = next.quanta.len();
        let mut evicted = 0u64;
        let mut bytes = 0u64;
        // Carry the snapshot-pure per-object entries of untouched ids.
        for id in 0..old.quanta.len() {
            let keep = id < n && !is_touched(id);
            if let Some(v) = old.quanta[id].get() {
                if keep && next.quanta[id].set(Arc::clone(v)).is_ok() {
                    bytes += quanta_bytes(v);
                } else {
                    evicted += 1;
                }
            }
            if let Some(v) = old.levels[id].get() {
                if keep && next.levels[id].set(Arc::clone(v)).is_ok() {
                    bytes += snapshot_bytes(v);
                } else {
                    evicted += 1;
                }
            }
            if let Some(v) = old.mbrs[id].get() {
                if keep && next.mbrs[id].set(Arc::clone(v)).is_ok() {
                    bytes += mbr_bytes(v);
                } else {
                    evicted += 1;
                }
            }
        }
        // Carry per-query bound tables the same way: untouched objects
        // keep their whole per-level slot array (values are bit-identical
        // across the window), touched objects are dropped.
        let old_map = old.bounds.lock().unwrap_or_else(PoisonError::into_inner);
        let mut new_map = BTreeMap::new();
        for (fp, qb) in old_map.iter() {
            let carried = QueryBounds::new(n, qb.key.clone());
            let mut any = false;
            for id in 0..qb.whole.len() {
                let keep = id < n && !is_touched(id);
                if let Some(slots) = qb.whole[id].get() {
                    let filled = slots.iter().filter(|s| s.get().is_some()).count() as u64;
                    if keep && carried.whole[id].set(Arc::clone(slots)).is_ok() {
                        for s in slots.iter().flat_map(|s| s.get()) {
                            bytes += bound_pair_bytes(s);
                        }
                        any = any || filled > 0;
                    } else {
                        evicted += filled;
                    }
                }
                if let Some(slots) = qb.instance[id].get() {
                    let filled = slots.iter().filter(|s| s.get().is_some()).count() as u64;
                    if keep && carried.instance[id].set(Arc::clone(slots)).is_ok() {
                        for s in slots.iter().flat_map(|s| s.get()) {
                            bytes += bound_vec_bytes(s);
                        }
                        any = any || filled > 0;
                    } else {
                        evicted += filled;
                    }
                }
            }
            if any {
                new_map.insert(*fp, Arc::new(carried));
            }
        }
        drop(old_map);
        next.evictions = old.evictions + evicted;
        next.resident_bytes = AtomicU64::new(bytes);
        next.bounds = Mutex::new(new_map);
        next
    }
}

/// A per-query window into a [`WarmCache`]: the cache plus the query's
/// resolved bound table. Cloning is two `Arc` bumps.
#[derive(Debug, Clone)]
pub struct WarmView {
    cache: Arc<WarmCache>,
    bounds: Arc<QueryBounds>,
}

impl WarmView {
    /// Resolves `query`'s bound table in `cache` (once per query).
    pub fn new(cache: Arc<WarmCache>, query: &PreparedQuery) -> WarmView {
        let bounds = cache.bounds_for(query);
        WarmView { cache, bounds }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<WarmCache> {
        &self.cache
    }

    fn tally(&self, hit: bool, metrics: &mut QueryMetrics) {
        if hit {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmHits);
        } else {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmMisses);
        }
    }

    /// Records the cache's eviction/resident gauges into `metrics`.
    pub fn record_gauges(&self, metrics: &mut QueryMetrics) {
        metrics.warm_cache(self.cache.evictions(), self.cache.resident_bytes());
    }

    /// Warm quantised masses of object `id`.
    pub fn quanta(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<Vec<u64>> {
        let (v, hit) = self.cache.quanta_entry(db, id);
        self.tally(hit, metrics);
        v
    }

    /// Warm level snapshot of object `id` (`quanta` is the caller's
    /// already-resolved quantisation — the nested legacy lookup the cold
    /// path performs anyway).
    pub fn level_snapshot(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        quanta: &[u64],
        metrics: &mut QueryMetrics,
    ) -> Arc<LevelSnapshot> {
        let (v, hit) = self.cache.snapshot_entry(db, id, quanta);
        self.tally(hit, metrics);
        v
    }

    /// Warm MBR of object `id` (the emission-time candidate MBR).
    pub fn object_mbr(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<Mbr> {
        let (v, hit) = self.cache.mbr_entry(db, id);
        self.tally(hit, metrics);
        v
    }

    /// Warm whole-`U_Q` bound pair of object `id` at `level`.
    pub fn bounds_whole(
        &self,
        query: &PreparedQuery,
        id: usize,
        snap: &LevelSnapshot,
        level: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<BoundPair> {
        let slots = level_slots(&self.bounds.whole[id], snap.num_levels());
        let idx = snap.clamped(level);
        if let Some(b) = slots[idx].get() {
            let v = Arc::clone(b);
            self.tally(true, metrics);
            return v;
        }
        let built = Arc::new(build_bounds_whole(query, snap.level(level)));
        let (v, published) = publish(&slots[idx], built);
        if published {
            self.cache.add_bytes(bound_pair_bytes(&v));
        }
        self.tally(false, metrics);
        v
    }

    /// Warm per-`U_q` bound pairs of object `id` at `level`.
    pub fn bounds_instance(
        &self,
        query: &PreparedQuery,
        id: usize,
        snap: &LevelSnapshot,
        level: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<Vec<BoundPair>> {
        let slots = level_slots(&self.bounds.instance[id], snap.num_levels());
        let idx = snap.clamped(level);
        if let Some(b) = slots[idx].get() {
            let v = Arc::clone(b);
            self.tally(true, metrics);
            return v;
        }
        let built = Arc::new(build_bounds_instance(query, snap.level(level)));
        let (v, published) = publish(&slots[idx], built);
        if published {
            self.cache.add_bytes(bound_vec_bytes(&v));
        }
        self.tally(false, metrics);
        v
    }
}

/// The shared home of a warm cache across queries and epochs.
///
/// Holds at most one [`WarmCache`] — the one keyed to the newest snapshot
/// it has been shown. [`WarmPool::cache_for`] swaps in an advanced cache
/// when the snapshot moves; queries still running against the old
/// snapshot keep their pinned `Arc<WarmCache>` and stay consistent.
#[derive(Debug, Default)]
pub struct WarmPool {
    current: Mutex<Option<Arc<WarmCache>>>,
}

impl WarmPool {
    /// An empty pool.
    pub const fn new() -> Self {
        WarmPool {
            current: Mutex::new(None),
        }
    }

    /// The cache keyed to `db`'s current snapshot, advancing (or
    /// rebuilding — see the module docs' fallback rules) as needed.
    pub fn cache_for(&self, db: &dyn SpatialIndex) -> Arc<WarmCache> {
        let mut cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = cur.as_ref() {
            if c.matches(db) {
                return Arc::clone(c);
            }
        }
        let next = Arc::new(match cur.take() {
            Some(old) => WarmCache::advance(&old, db),
            None => WarmCache::blank(db),
        });
        *cur = Some(Arc::clone(&next));
        next
    }

    /// A per-query view: the current cache plus `query`'s bound table.
    pub fn view_for(&self, db: &dyn SpatialIndex, query: &PreparedQuery) -> WarmView {
        WarmView::new(self.cache_for(db), query)
    }

    /// Cumulative pool counters (zero if no query has warmed the pool).
    pub fn stats(&self) -> WarmStats {
        let cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        cur.as_ref().map(|c| c.stats()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::publish::PublishedIndex;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn obj(x: f64) -> UncertainObject {
        UncertainObject::uniform(vec![p2(x, 0.0), p2(x + 1.0, 0.5), p2(x, 1.0)])
    }

    fn query() -> PreparedQuery {
        PreparedQuery::new(UncertainObject::uniform(vec![p2(0.0, 0.0), p2(0.5, 0.5)]))
    }

    #[test]
    fn same_snapshot_reuses_the_cache_and_its_entries() {
        let db = Database::new(vec![obj(1.0), obj(5.0)]);
        let pool = WarmPool::new();
        let q = query();
        let mut metrics = QueryMetrics::new();
        let v1 = pool.view_for(&db, &q);
        let a = v1.quanta(&db, 0, &mut metrics);
        let v2 = pool.view_for(&db, &q);
        assert!(Arc::ptr_eq(v1.cache(), v2.cache()), "same (ptr, epoch) key");
        let b = v2.quanta(&db, 0, &mut metrics);
        assert!(Arc::ptr_eq(&a, &b), "entry survives across views");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn bounds_tables_are_shared_by_equal_queries_only() {
        let db = Database::new(vec![obj(1.0)]);
        let pool = WarmPool::new();
        let q1 = query();
        let q2 = query(); // equal content, distinct allocation
        let q3 = PreparedQuery::new(UncertainObject::uniform(vec![p2(9.0, 9.0)]));
        let v1 = pool.view_for(&db, &q1);
        let v2 = pool.view_for(&db, &q2);
        let v3 = pool.view_for(&db, &q3);
        assert!(Arc::ptr_eq(&v1.bounds, &v2.bounds));
        assert!(!Arc::ptr_eq(&v1.bounds, &v3.bounds));
    }

    #[test]
    fn update_evicts_only_the_touched_object() {
        let idx = PublishedIndex::new(Database::new(vec![obj(1.0), obj(5.0)]));
        let pool = WarmPool::new();
        let q = query();
        let mut metrics = QueryMetrics::new();
        let snap0 = idx.pin();
        let v0 = pool.view_for(snap0.as_ref(), &q);
        let q0 = v0.quanta(snap0.as_ref(), 0, &mut metrics);
        let q1 = v0.quanta(snap0.as_ref(), 1, &mut metrics);
        idx.update(1, obj(7.0)).expect("update");
        let snap1 = idx.pin();
        let v1 = pool.view_for(snap1.as_ref(), &q);
        assert!(
            !Arc::ptr_eq(v0.cache(), v1.cache()),
            "stale (ptr, epoch) key must not be served"
        );
        let q0b = v1.quanta(snap1.as_ref(), 0, &mut metrics);
        assert!(Arc::ptr_eq(&q0, &q0b), "untouched object carried over");
        let q1b = v1.quanta(snap1.as_ref(), 1, &mut metrics);
        assert!(!Arc::ptr_eq(&q1, &q1b), "touched object rebuilt");
        assert!(pool.stats().evictions >= 1);
    }

    #[test]
    fn foreign_snapshot_forces_a_full_rebuild() {
        let a = Database::new(vec![obj(1.0)]);
        let b = Database::new(vec![obj(2.0)]); // unrelated chain, same epoch 0
        let pool = WarmPool::new();
        let q = query();
        let mut metrics = QueryMetrics::new();
        let va = pool.view_for(&a, &q);
        let _ = va.quanta(&a, 0, &mut metrics);
        let vb = pool.view_for(&b, &q);
        assert!(!Arc::ptr_eq(va.cache(), vb.cache()));
        let fresh = vb.quanta(&b, 0, &mut metrics);
        assert_eq!(fresh.len(), 3);
        assert_eq!(pool.stats().evictions, 1, "old entry counted as evicted");
    }
}
