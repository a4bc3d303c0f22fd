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
//! * **Layout.** Every per-id table — `quanta`, `levels`, `mbrs`, and the
//!   `whole`/`instance` tables of each query — is a persistent
//!   `core::chunked::ChunkedVec` of [`OnceLock`] slots, the same chunked
//!   table the index keeps its local trees and `slot` map in.
//! * **Population.** Lock-free on read: a getter that finds its slot
//!   empty builds the entry *off-lock* and publishes it with `set`,
//!   tolerating a lost race (the first published value wins; the loser
//!   adopts it). The query path never blocks on another builder.
//! * **Invalidation.** [`WarmPool::cache_for`] advances the cache to a
//!   newer epoch through [`EpochLog::changes_since`]. The successor clones
//!   each table's chunk list and, for each touched id whose slot holds an
//!   entry, copies that one chunk with the slot cleared; every other
//!   chunk — the touched id's own when its slot is empty — is shared with
//!   the old cache. The entries of untouched ids are bit-identical in both
//!   epochs, so sharing them is the carry argument one level up. Evictions
//!   and resident bytes are kept by subtracting the evicted entries, so an
//!   advance costs O(touched + tables · n / [`CHUNK`]), not O(tables · n).
//!   When the log window is exhausted (`None`) — or the snapshot is not a
//!   successor (a same-or-higher epoch over a different store chain) —
//!   the whole cache is rebuilt, mirroring `ContinuousNnc`'s stale-window
//!   fallback. Chunks are never shared across ids or tables: a fresh
//!   table allocates its own slots.
//! * **Sealing.** A shared chunk may hold an *empty* slot of a touched
//!   id, and both caches could fill it, each with its own epoch's value.
//!   So the advance first seals the old cache: publishers hold
//!   `publishing` shared, the seal takes it exclusively, and from then on
//!   the old cache neither publishes nor serves a hit (a value read after
//!   the seal may be its successor's) — its in-flight readers build
//!   privately, bit-identically. At most one unsealed cache of a chain
//!   writes the shared chunks: the pool's current one.
//! * **Never backwards.** A snapshot older than the pool's current cache
//!   (a straggler still pinning an old epoch) gets a private, uninstalled
//!   blank cache; the pool keeps its epoch, entries and counters.
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
//! collision degrades to a private (unshared, uncounted) table, never to
//! wrong bounds.
//!
//! One [`WarmPool`] must be fed snapshots of a single publish chain
//! (structurally guaranteed when the pool rides a `PublishedIndex`);
//! snapshots of unrelated indexes at coincidentally increasing epochs
//! would otherwise be taken for successors. The fallback rules above make
//! a mis-fed pool slow (full rebuilds, private caches), never wrong, as
//! long as the two chains' logs do not splice (`changes_since` of an
//! unrelated log answers `None` for a foreign epoch or describes
//! different ids).
//!
//! [`EpochLog::changes_since`]: osd_uncertain::EpochLog::changes_since
//! [`CHUNK`]: osd_uncertain::CHUNK

use crate::cache::{
    build_bounds_instance, build_bounds_whole, build_level_snapshot, BoundPair, LevelSnapshot,
};
use crate::chunked::ChunkedVec;
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use osd_geom::Mbr;
use osd_obs::{Counter, QueryMetrics};
use osd_uncertain::{quantize, touched_ids, InstanceStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// Per-level slot array of one object (sized `num_levels` on first touch).
type LevelSlots<T> = Arc<[OnceLock<Arc<T>>]>;

/// One warm table: a lazily published slot per logical id.
type Table<V> = ChunkedVec<OnceLock<V>>;

fn empty_table<V>(n: usize) -> Table<V> {
    ChunkedVec::from_fn(n, |_| OnceLock::new())
}

// ---- approximate resident sizes (gauge accounting, not allocator truth) ----

/// Entries and approximate bytes held by published values.
#[derive(Debug, Clone, Copy, Default)]
struct Weight {
    entries: u64,
    bytes: u64,
}

impl std::ops::AddAssign for Weight {
    fn add_assign(&mut self, w: Weight) {
        self.entries += w.entries;
        self.bytes += w.bytes;
    }
}

/// A value a warm slot can hold, with what it adds to the gauges.
trait Resident: Clone {
    fn weight(&self) -> Weight;
}

fn one(bytes: u64) -> Weight {
    Weight { entries: 1, bytes }
}

fn mbr_bytes(m: &Mbr) -> u64 {
    16 * m.lo().len() as u64
}

impl Resident for Arc<Vec<u64>> {
    fn weight(&self) -> Weight {
        one(24 + 8 * self.len() as u64)
    }
}

impl Resident for Arc<Mbr> {
    fn weight(&self) -> Weight {
        one(mbr_bytes(self))
    }
}

impl Resident for Arc<LevelSnapshot> {
    fn weight(&self) -> Weight {
        let mut b = 48u64;
        for idx in 1..=self.num_levels() {
            let lg = self.level(idx);
            b += 72;
            for m in &lg.mbrs {
                b += mbr_bytes(m) + 16;
            }
        }
        one(b)
    }
}

fn bound_pair_bytes(p: &BoundPair) -> u64 {
    64 + 16 * (p.0.support_size() + p.1.support_size()) as u64
}

impl Resident for Arc<BoundPair> {
    fn weight(&self) -> Weight {
        one(bound_pair_bytes(self))
    }
}

impl Resident for Arc<Vec<BoundPair>> {
    fn weight(&self) -> Weight {
        one(24 + self.iter().map(bound_pair_bytes).sum::<u64>())
    }
}

/// A per-level array holds what its filled slots hold (a fresh one,
/// nothing).
impl<T> Resident for LevelSlots<T>
where
    Arc<T>: Resident,
{
    fn weight(&self) -> Weight {
        let mut w = Weight::default();
        for v in self.iter().filter_map(OnceLock::get) {
            w += v.weight();
        }
        w
    }
}

/// `old`'s successor table over `n` ids: the chunk list cloned, each
/// touched id's chunk copied with its slot cleared — only where that slot
/// holds an entry — and new ids appended empty. Adds what it evicts to
/// `evicted`.
fn carry<V: Resident>(
    old: &Table<V>,
    touched: &[usize],
    n: usize,
    evicted: &mut Weight,
) -> Table<V> {
    let mut table = old.clone();
    for &id in touched {
        let Some(w) = table.get(id).and_then(OnceLock::get).map(Resident::weight) else {
            continue;
        };
        *evicted += w;
        table.set(id, OnceLock::new());
    }
    table.extend((table.len()..n).map(|_| OnceLock::new()));
    table
}

/// Publishes `value` into a slot no other cache shares, tolerating a lost
/// race: the first published value wins and the loser adopts it.
fn adopt<V: Clone>(slot: &OnceLock<V>, value: V) -> V {
    match slot.set(value.clone()) {
        Ok(()) => value,
        Err(_) => slot.get().cloned().unwrap_or(value),
    }
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
    whole: Table<LevelSlots<BoundPair>>,
    instance: Table<LevelSlots<Vec<BoundPair>>>,
    /// Entries published into this table (an advance drops a table it
    /// empties); `None` for a private table, which the cache neither
    /// counts nor carries.
    entries: Option<AtomicU64>,
}

impl std::fmt::Debug for QueryBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBounds")
            .field("objects", &self.whole.len())
            .finish_non_exhaustive()
    }
}

impl QueryBounds {
    fn new(n: usize, key: Vec<u64>, shared: bool) -> Self {
        QueryBounds {
            key,
            whole: empty_table(n),
            instance: empty_table(n),
            entries: shared.then(|| AtomicU64::new(0)),
        }
    }

    /// This table's successor (see [`carry`]); `None` once it holds no
    /// entry.
    fn carry(&self, touched: &[usize], n: usize, evicted: &mut Weight) -> Option<QueryBounds> {
        let mut gone = Weight::default();
        let whole = carry(&self.whole, touched, n, &mut gone);
        let instance = carry(&self.instance, touched, n, &mut gone);
        *evicted += gone;
        let left = self.entries.as_ref()?.load(Ordering::Relaxed) - gone.entries;
        (left > 0).then(|| QueryBounds {
            key: self.key.clone(),
            whole,
            instance,
            entries: Some(AtomicU64::new(left)),
        })
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

/// One warm table's layout, as [`WarmCache::audit`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableAudit {
    /// `"quanta"`, `"levels"`, `"mbrs"`, `"whole"` or `"instance"`.
    pub table: &'static str,
    /// The owning query's fingerprint, for `"whole"` and `"instance"`.
    pub query: Option<u64>,
    /// The address of each chunk allocation, in id order. Two live caches
    /// share a chunk exactly when they list the same address for it.
    pub chunks: Vec<usize>,
    /// The ids whose slot holds an entry, ascending.
    pub filled: Vec<usize>,
}

/// A from-scratch walk of a [`WarmCache`]: every table's layout plus the
/// resident entries and bytes recounted slot by slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmAudit {
    /// `quanta`, `levels`, `mbrs`, then `whole` and `instance` of each
    /// query table in fingerprint order.
    pub tables: Vec<TableAudit>,
    /// Published entries (a bound table counts its filled levels).
    pub entries: u64,
    /// Approximate resident bytes, as [`WarmStats::resident_bytes`]
    /// counts them.
    pub resident_bytes: u64,
}

impl WarmAudit {
    fn walk<V: Resident>(&mut self, table: &'static str, query: Option<u64>, t: &Table<V>) {
        let mut filled = Vec::new();
        for id in 0..t.len() {
            if let Some(v) = t[id].get() {
                filled.push(id);
                let w = v.weight();
                self.entries += w.entries;
                self.resident_bytes += w.bytes;
            }
        }
        let chunks = t
            .chunks()
            .iter()
            .map(|c| Arc::as_ptr(c).cast::<()>() as usize)
            .collect();
        self.tables.push(TableAudit {
            table,
            query,
            chunks,
            filled,
        });
    }
}

/// A shared warm cache for one `(store pointer, epoch)` snapshot.
///
/// See the module docs for the keying / population / invalidation
/// protocol. All tables are sized by the snapshot's logical id space
/// (`db.len()`, tombstones included), matching `DominanceCache`.
pub struct WarmCache {
    /// Pinned store snapshot: identity key half, ABA guard, and CoW
    /// forcing (a pinned refcount makes `Arc::make_mut` clone).
    store: Arc<InstanceStore>,
    epoch: u64,
    quanta: Table<Arc<Vec<u64>>>,
    levels: Table<Arc<LevelSnapshot>>,
    mbrs: Table<Arc<Mbr>>,
    bounds: Mutex<BTreeMap<u64, Arc<QueryBounds>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cumulative over the pool's lifetime (carried across advances).
    evictions: u64,
    resident_bytes: AtomicU64,
    /// Set once, when a successor starts sharing this cache's chunks.
    sealed: AtomicBool,
    /// Held shared by every publish and exclusively by the seal, so no
    /// publish straddles it.
    publishing: RwLock<()>,
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
        WarmCache::with_tables(db, empty_table(n), empty_table(n), empty_table(n))
    }

    fn with_tables(
        db: &dyn SpatialIndex,
        quanta: Table<Arc<Vec<u64>>>,
        levels: Table<Arc<LevelSnapshot>>,
        mbrs: Table<Arc<Mbr>>,
    ) -> WarmCache {
        WarmCache {
            store: Arc::clone(db.store()),
            epoch: db.epoch(),
            quanta,
            levels,
            mbrs,
            bounds: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            resident_bytes: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
            publishing: RwLock::new(()),
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

    /// Walks every slot of every table: the layout and the recounted
    /// gauges. O(tables · n); [`WarmCache::resident_bytes`] and
    /// [`WarmCache::evictions`] keep the same figures incrementally.
    pub fn audit(&self) -> WarmAudit {
        let mut audit = WarmAudit {
            tables: Vec::new(),
            entries: 0,
            resident_bytes: 0,
        };
        audit.walk("quanta", None, &self.quanta);
        audit.walk("levels", None, &self.levels);
        audit.walk("mbrs", None, &self.mbrs);
        let map = self.bounds.lock().unwrap_or_else(PoisonError::into_inner);
        for (&fp, qb) in map.iter() {
            audit.walk("whole", Some(fp), &qb.whole);
            audit.walk("instance", Some(fp), &qb.instance);
        }
        audit
    }

    /// The entry in `slot`, unless this cache is sealed: a value read
    /// after the seal may be the successor's, built for a touched id.
    fn lookup<V: Clone>(&self, slot: &OnceLock<V>) -> Option<V> {
        let v = slot.get()?.clone();
        // A successor publishes only after the seal's Release store (the
        // pool mutex orders its creation after `seal`), and `get` acquires
        // that publish, so a successor's value is always seen sealed.
        (!self.sealed.load(Ordering::Acquire)).then_some(v)
    }

    /// Publishes `value` into `slot` and counts it (also into a query
    /// table's `table` count) — unless this cache is sealed, when the value
    /// stays private to the caller. A lost race adopts the winner.
    fn publish<V: Resident>(&self, slot: &OnceLock<V>, value: V, table: Option<&AtomicU64>) -> V {
        // The lock guards no data, so a poisoned one is still sound.
        let _open = self
            .publishing
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        // `seal` stores under the write lock, so the read lock orders it.
        if self.sealed.load(Ordering::Relaxed) {
            return value;
        }
        if slot.set(value.clone()).is_err() {
            return slot.get().cloned().unwrap_or(value);
        }
        let w = value.weight();
        self.resident_bytes.fetch_add(w.bytes, Ordering::Relaxed);
        if let Some(t) = table {
            t.fetch_add(w.entries, Ordering::Relaxed);
        }
        value
    }

    /// The entry of `slot`, built by `build` on a miss; `true` on a hit.
    fn entry<V: Resident>(
        &self,
        slot: &OnceLock<V>,
        table: Option<&AtomicU64>,
        build: impl FnOnce() -> V,
    ) -> (V, bool) {
        match self.lookup(slot) {
            Some(v) => (v, true),
            None => (self.publish(slot, build(), table), false),
        }
    }

    /// Stops this cache publishing and serving hits, once every publish
    /// in flight has landed.
    fn seal(&self) {
        let _closed = self
            .publishing
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        self.sealed.store(true, Ordering::Release);
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
            return Arc::new(QueryBounds::new(n, key, false));
        }
        let t = Arc::new(QueryBounds::new(n, key, true));
        map.insert(query.fingerprint(), Arc::clone(&t));
        t
    }

    /// Advances `old` to `db`'s snapshot: shared chunks plus targeted
    /// eviction when the epoch log covers the window, full rebuild
    /// otherwise.
    fn advance(old: &WarmCache, db: &dyn SpatialIndex) -> WarmCache {
        let n = db.len();
        let window = if db.epoch() > old.epoch && n >= old.quanta.len() {
            db.changes_since(old.epoch)
        } else {
            // A same-epoch snapshot with a different store pointer: not a
            // successor of ours — start over.
            None
        };
        let Some(changes) = window else {
            let mut next = WarmCache::blank(db);
            next.hits = AtomicU64::new(old.hits());
            next.misses = AtomicU64::new(old.misses());
            next.evictions = old.evictions + old.audit().entries;
            return next;
        };
        // Sealing waits out every publish in flight, so the old cache's
        // counters and slots read below are final.
        old.seal();
        let touched = touched_ids(&changes);
        let mut evicted = Weight::default();
        let quanta = carry(&old.quanta, &touched, n, &mut evicted);
        let levels = carry(&old.levels, &touched, n, &mut evicted);
        let mbrs = carry(&old.mbrs, &touched, n, &mut evicted);
        let bounds = old
            .bounds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter_map(|(&fp, qb)| Some((fp, Arc::new(qb.carry(&touched, n, &mut evicted)?))))
            .collect();
        let mut next = WarmCache::with_tables(db, quanta, levels, mbrs);
        next.bounds = Mutex::new(bounds);
        next.hits = AtomicU64::new(old.hits());
        next.misses = AtomicU64::new(old.misses());
        next.evictions = old.evictions + evicted.entries;
        next.resident_bytes = AtomicU64::new(old.resident_bytes() - evicted.bytes);
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

    fn tally<V>(&self, (v, hit): (V, bool), metrics: &mut QueryMetrics) -> V {
        if hit {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmHits);
        } else {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmMisses);
        }
        v
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
        let e = self.cache.entry(&self.cache.quanta[id], None, || {
            Arc::new(quantize(db.object(id).probs()))
        });
        self.tally(e, metrics)
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
        let e = self.cache.entry(&self.cache.levels[id], None, || {
            Arc::new(build_level_snapshot(db, id, quanta))
        });
        self.tally(e, metrics)
    }

    /// Warm MBR of object `id` (the emission-time candidate MBR).
    pub fn object_mbr(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<Mbr> {
        let e = self.cache.entry(&self.cache.mbrs[id], None, || {
            Arc::new(db.object(id).mbr().clone())
        });
        self.tally(e, metrics)
    }

    /// The entry of a query-table `slot`: through the cache (counted,
    /// sealable) for a shared table, adopted in place for a private one.
    fn bound_entry<V: Resident>(&self, slot: &OnceLock<V>, build: impl FnOnce() -> V) -> (V, bool) {
        match &self.bounds.entries {
            Some(count) => self.cache.entry(slot, Some(count), build),
            None => match slot.get() {
                Some(v) => (v.clone(), true),
                None => (adopt(slot, build()), false),
            },
        }
    }

    /// Gets or installs the per-level slot array of one object.
    fn level_slots<T>(&self, outer: &OnceLock<LevelSlots<T>>, num_levels: usize) -> LevelSlots<T>
    where
        Arc<T>: Resident,
    {
        self.bound_entry(outer, || (0..num_levels).map(|_| OnceLock::new()).collect())
            .0
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
        let slots = self.level_slots::<BoundPair>(&self.bounds.whole[id], snap.num_levels());
        let e = self.bound_entry(&slots[snap.clamped(level)], || {
            Arc::new(build_bounds_whole(query, snap.level(level)))
        });
        self.tally(e, metrics)
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
        let slots =
            self.level_slots::<Vec<BoundPair>>(&self.bounds.instance[id], snap.num_levels());
        let e = self.bound_entry(&slots[snap.clamped(level)], || {
            Arc::new(build_bounds_instance(query, snap.level(level)))
        });
        self.tally(e, metrics)
    }
}

/// The shared home of a warm cache across queries and epochs.
///
/// Holds at most one [`WarmCache`] — the one keyed to the newest snapshot
/// it has been shown. [`WarmPool::cache_for`] swaps in an advanced cache
/// when the snapshot moves forward; queries still running against the old
/// snapshot keep their pinned `Arc<WarmCache>` and stay consistent (a
/// sealed cache builds privately, see the module docs).
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
    /// rebuilding — see the module docs' fallback rules) as needed. A
    /// snapshot older than the current cache gets a private blank cache:
    /// the pool never moves backwards.
    pub fn cache_for(&self, db: &dyn SpatialIndex) -> Arc<WarmCache> {
        let mut cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = cur.as_ref() {
            if c.matches(db) {
                return Arc::clone(c);
            }
            if db.epoch() < c.epoch {
                drop(cur);
                return Arc::new(WarmCache::blank(db));
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
    use crate::config::FilterConfig;
    use crate::db::Database;
    use crate::nnc::{nn_candidates, nn_candidates_warm, NncResult};
    use crate::ops::Operator;
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

    fn answer(r: &NncResult) -> (Vec<(usize, u64)>, crate::config::Stats) {
        let ids = r.candidates.iter().map(|c| (c.id, c.min_dist.to_bits()));
        (ids.collect(), r.stats)
    }

    #[test]
    fn an_older_snapshot_never_moves_the_pool_backwards() {
        let objects = (0..8).map(|i| obj(2.0 * i as f64)).collect();
        let idx = PublishedIndex::new(Database::new(objects));
        let pool = idx.warm_pool();
        let (q, op, cfg) = (query(), Operator::PSd, FilterConfig::all());
        let snap0 = idx.pin();
        let cold0 = answer(&nn_candidates(&*snap0, &q, op, &cfg));
        nn_candidates_warm(&*snap0, &q, op, &cfg, pool);
        idx.update(3, obj(0.5)).expect("update");
        let snap1 = idx.pin();
        nn_candidates_warm(&*snap1, &q, op, &cfg, pool);
        let before = pool.stats();
        assert_eq!(before.epoch, 1);
        assert!(before.resident_bytes > 0, "entries were carried to e1");

        // A straggler still pinning e0: answered cold-identically from a
        // private cache, leaving the pool where it was.
        let straggler = nn_candidates_warm(&*snap0, &q, op, &cfg, pool);
        assert_eq!(answer(&straggler), cold0);
        assert_eq!(pool.stats(), before, "the pool moved for a straggler");
        assert!(!pool.cache_for(&*snap0).matches(&*snap1));

        // The next e1 query is all hits: nothing was evicted or rebuilt.
        nn_candidates_warm(&*snap1, &q, op, &cfg, pool);
        let after = pool.stats();
        assert_eq!((after.epoch, after.evictions), (1, before.evictions));
        assert_eq!(after.misses, before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn a_sealed_cache_neither_publishes_nor_serves() {
        let idx = PublishedIndex::new(Database::new(vec![obj(1.0), obj(5.0)]));
        let q = query();
        let mut metrics = QueryMetrics::new();
        let snap0 = idx.pin();
        let v0 = idx.warm_pool().view_for(&*snap0, &q);
        let carried = v0.quanta(&*snap0, 0, &mut metrics);
        idx.update(1, obj(7.0)).expect("update");
        let snap1 = idx.pin();
        let v1 = idx.warm_pool().view_for(&*snap1, &q);
        // Object 1's slot was empty: its chunk is shared, and the new
        // cache fills it with the e1 value.
        let new1 = v1.quanta(&*snap1, 1, &mut metrics);
        let old1 = v0.quanta(&*snap0, 1, &mut metrics);
        assert!(!Arc::ptr_eq(&new1, &old1), "e0 reader served an e1 entry");
        assert_eq!(*old1, quantize(snap0.object(1).probs()));
        // Nor does the sealed e0 cache publish what it builds, or serve
        // even a carried entry.
        assert!(!Arc::ptr_eq(&v0.quanta(&*snap0, 1, &mut metrics), &old1));
        assert!(!Arc::ptr_eq(&v0.quanta(&*snap0, 0, &mut metrics), &carried));
        assert!(Arc::ptr_eq(&v1.quanta(&*snap1, 0, &mut metrics), &carried));
    }
}
