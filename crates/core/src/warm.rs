//! Snapshot-scoped warm cache: cross-query reuse of query-keyed state.
//!
//! Every query-keyed value of one (query, object) — the distance
//! distributions `U_Q` and `U_q`, their statistic triples (Theorem 11), the
//! distance-space image, the in-hull list and the per-level bound pairs of
//! §5.1.1 — has one home: that object's `Record`. A traversal's per-query
//! memo holds the record of each object it touches (`core::cache`). For a
//! query without a table the record is private to the traversal; for an
//! admitted query it is the query table's, so the next traversal of the
//! same query on the same snapshot is served what this one built. The
//! state that depends on the object alone (quantised masses, level
//! snapshots) lives in the index, beside each object's local tree, and is
//! shared by every query and snapshot that reads it. [`WarmCache`] holds
//! the query tables:
//!
//! * **Keying.** One cache is valid for one `(Arc::as_ptr(store), epoch)`
//!   pair. The cache pins its `Arc<InstanceStore>`, which both prevents
//!   pointer reuse (ABA) while the cache is alive and forces the epoch
//!   builders' `Arc::make_mut` down the clone path, so a published
//!   successor snapshot can never alias the pinned pointer.
//! * **Layout.** The cache holds one table per admitted query. A table's
//!   records are a list of chunks of [`CHUNK_SLOTS`] [`OnceLock`] slots,
//!   one chunk per run of that many ids, each allocated on its first
//!   write: a run without records costs one pointer, so a table's storage
//!   follows its records, not `n`.
//! * **Query tables.** A query table holds the traversal keys and the
//!   records of one query. Its key list holds, sorted by id, the traversal
//!   key (squared `δ_min(V, Q)`, the kernel path's bits) of every object
//!   the query's traversals pushed, stamped with the epoch they were built
//!   at; a traversal reads it once (`TraversalKeys`), and one that built
//!   keys replaces it with a merged list when it ends. Its records hold,
//!   per object the query read a query-keyed value of, every such value as
//!   a lazily published slot. A traversal walks to an object's record once
//!   and holds it in its per-query memo, so all the record's fields are
//!   read through one chunk walk per (query, object). An object whose
//!   checks all decide on MBRs reads no query-keyed value, so a key needs
//!   no record. A query is admitted on repeat: its first sighting only
//!   records its fingerprint (in a ring of the last [`QUERY_TABLES`]
//!   sightings), its second gets a table. The cache holds at most
//!   [`QUERY_TABLES`] tables; admitting one more drops the least recently
//!   used. A query without a table (first sighting, fingerprint collision,
//!   sealed cache) fills private records, publishing nothing shared; its
//!   traversal decides that once and keys objects with the kernel alone.
//! * **Population.** Lock-free on read: a lookup that finds its slot
//!   empty builds the value *off-lock* and publishes it, with its chunk if
//!   that is missing, through `OnceLock`s, tolerating a lost race (the
//!   first published value wins; the loser adopts it). The query path
//!   never blocks on another builder.
//!   A key list is the exception: a traversal takes its lock once to read
//!   it, and once more to publish the keys it built.
//! * **Invalidation.** [`WarmPool::cache_for`] advances the cache to a
//!   newer epoch through [`EpochLog::changes_since`]. A query table that
//!   holds no touched id's record is shared whole. Any other table's
//!   successor copies the chunk list and each chunk holding a touched id's
//!   record, with the slot cleared and a chunk that leaves empty dropped;
//!   every other chunk is shared with the old cache. The records of
//!   untouched ids are bit-identical in both epochs, so sharing them is the
//!   carry argument one level up. The evicted entries are counted as they
//!   go, so an advance costs O(tables · touched) plus a list copy of
//!   `n / CHUNK_SLOTS` pointers per table it evicts from, never a slot per
//!   id. A key list is carried as
//!   it is, at the epoch it was built: a traversal checks it against the
//!   epoch log when it reads it, and the first traversal of the new epoch
//!   publishes it without the touched ids' keys. When the
//!   log window is exhausted (`None`) — or the snapshot is not a successor
//!   (a same-or-higher epoch over a different store chain) — the whole
//!   cache is rebuilt, mirroring `ContinuousNnc`'s stale-window fallback.
//!   Chunks are never shared across tables: a fresh table allocates its
//!   own.
//! * **Sealing.** A shared table (or a shared chunk) may hold an *empty*
//!   slot of a touched id, and both caches could fill it, each with its
//!   own epoch's value. So
//!   the advance first seals the old cache: publishers hold `publishing`
//!   shared, the seal takes it exclusively, and from then on the old cache
//!   neither publishes nor serves a hit (a value read after the seal may be
//!   its successor's) nor admits a query. An in-flight traversal that
//!   meets the seal moves the object to a private record holding what it
//!   has already looked up, and fills that from then on, so it still builds
//!   each value at most once, bit-identically. At most one unsealed cache
//!   of a chain writes the shared chunks: the pool's current one. A shared
//!   query table's key list follows the same rule: a traversal on a sealed
//!   cache publishes no keys (it may read a list; one built at another
//!   epoch is checked against its epoch log).
//! * **Memory.** A query table's entries and bytes — published values,
//!   its chunk list, chunks and records, its own key and its key list —
//!   are counted by one walk of its chunks, on demand: read by
//!   [`WarmCache::resident_bytes`], [`WarmCache::audit`] and the eviction
//!   count of a table the bound drops; nothing is kept as the table
//!   fills. The footprint is at most [`QUERY_TABLES`] tables, each holding
//!   a list of `n / CHUNK_SLOTS` chunk pointers, a record per object its
//!   query read a query-keyed value of and 16 bytes per object it pushed.
//! * **Never backwards.** A snapshot older than the pool's current cache
//!   (a straggler still pinning an old epoch) gets a private, uninstalled
//!   blank cache; the pool keeps its epoch, entries and counters.
//! * **Bit-identity.** Every value is built by the constructor the cold
//!   path runs (`core::cache` holds them, the traversal key's included), so
//!   a value served from a table is bit-for-bit the value a private record
//!   would hold. Table traffic is counted in the dedicated `warm_hits` /
//!   `warm_misses` counters; the per-query `cache_hits` / `cache_misses`
//!   count the traversal's own lookups, served or built alike.
//!
//! A query table is found once per query, by the query's content
//! fingerprint ([`PreparedQuery::fingerprint`]), into a [`WarmView`], and
//! verified against the full coordinate/probability bit pattern, so a
//! 64-bit fingerprint collision degrades to no table, never to wrong
//! values.
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

use crate::cache::{build_key, AggStats, BoundPair, MappedInstances};
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use osd_obs::{Counter, QueryMetrics};
use osd_uncertain::{touched_ids, DistanceDistribution, InstanceStore};
use std::collections::{BTreeMap, VecDeque};
use std::mem::size_of;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// The most query tables one cache holds, and the most once-sighted
/// queries it remembers. Admitting a query past the bound drops the least
/// recently used table, so a pool serving any number of distinct queries
/// holds at most this many tables, and an advance carries at most this
/// many.
///
/// The value is a memory cap, not a fitted optimum: it is the hot-set size
/// of `osdbench`'s one repeated-query workload, `psd-hot`, whose 64 tables
/// hold 76 MB. Past it, reuse falls off with the traffic's skew (DESIGN.md
/// §6.8 has the measured curve), down to none for cyclic traffic over more
/// than 64 queries.
pub const QUERY_TABLES: usize = 64;

/// Slots per chunk of a warm table. A chunk is allocated on its first
/// write, so a table costs one chunk per run of this many ids that holds an
/// entry; the ids a query touches are scattered over the id space, so a
/// small chunk keeps a query table's storage close to its records.
pub const CHUNK_SLOTS: usize = 16;

/// Bytes of an `Arc`'s two counts.
const ARC_BYTES: u64 = 2 * size_of::<usize>() as u64;

// ---- approximate resident sizes (a recount, not allocator truth) ----

/// Entries and approximate bytes held by a slot, record or table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Weight {
    entries: u64,
    bytes: u64,
}

impl std::ops::AddAssign for Weight {
    fn add_assign(&mut self, w: Weight) {
        self.entries += w.entries;
        self.bytes += w.bytes;
    }
}

/// A value a warm slot can hold, with what it adds to its table's weight.
pub(crate) trait Resident: Clone {
    fn weight(&self) -> Weight;
}

fn one(bytes: u64) -> Weight {
    Weight { entries: 1, bytes }
}

fn dist_bytes(d: &DistanceDistribution) -> u64 {
    24 + 16 * d.support_size() as u64
}

impl Resident for Arc<DistanceDistribution> {
    fn weight(&self) -> Weight {
        one(dist_bytes(self))
    }
}

impl Resident for Arc<Vec<DistanceDistribution>> {
    fn weight(&self) -> Weight {
        one(24 + self.iter().map(dist_bytes).sum::<u64>())
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

/// A statistic triple is held inline in its record: an entry, no bytes of
/// its own.
impl Resident for AggStats {
    fn weight(&self) -> Weight {
        one(0)
    }
}

/// Flat lists: the vector header plus their elements.
macro_rules! resident_flat_vec {
    ($($t:ty),*) => {$(
        impl Resident for Arc<Vec<$t>> {
            fn weight(&self) -> Weight {
                one(24 + (self.len() * size_of::<$t>()) as u64)
            }
        }
    )*};
}
resident_flat_vec!(AggStats, f64, usize);

/// The bound slots of one level: the whole-`U_Q` pair and the per-`U_q`
/// pairs.
pub(crate) type LevelBounds = (OnceLock<Arc<BoundPair>>, OnceLock<Arc<Vec<BoundPair>>>);

/// The bound slots of each level of an object's local tree, indexed by
/// clamped level.
pub(crate) type LevelSlots = Arc<[LevelBounds]>;

/// The one home of every query-keyed value of one (query, object), each a
/// slot filled on its first lookup. A traversal's per-query memo holds the
/// record of each object it touches: the query table's when the query is
/// admitted ([`WarmView::record`]), else a private one no table holds.
#[derive(Default)]
pub(crate) struct Record {
    /// `U_Q`.
    pub(crate) dist_q: OnceLock<Arc<DistanceDistribution>>,
    /// `U_q` for every query instance, in query instance order.
    pub(crate) per_q: OnceLock<Arc<Vec<DistanceDistribution>>>,
    /// min/mean/max of `U_Q`.
    pub(crate) agg: OnceLock<AggStats>,
    /// min/mean/max of each `U_q`.
    pub(crate) per_q_agg: OnceLock<Arc<Vec<AggStats>>>,
    /// Distance-space image of the instances w.r.t. the query hull.
    pub(crate) mapped: OnceLock<Arc<MappedInstances>>,
    /// Indices of the instances inside `CH(Q)`.
    pub(crate) in_hull: OnceLock<Arc<Vec<usize>>>,
    /// The bound slots of each level, sized by the first bound lookup,
    /// which has the object's level snapshot at hand.
    pub(crate) levels: OnceLock<LevelSlots>,
}

/// Adds what `slot` holds, if filled, to `w`.
fn add_filled<V: Resident>(w: &mut Weight, slot: &OnceLock<V>) {
    if let Some(v) = slot.get() {
        *w += v.weight();
    }
}

/// A slot array holds its own storage plus what its filled slots hold.
impl Resident for LevelSlots {
    fn weight(&self) -> Weight {
        let mut w = Weight {
            entries: 0,
            bytes: ARC_BYTES + (self.len() * size_of::<LevelBounds>()) as u64,
        };
        for (whole, instance) in self.iter() {
            add_filled(&mut w, whole);
            add_filled(&mut w, instance);
        }
        w
    }
}

/// A record holds its own storage plus what its filled fields hold (a
/// fresh one, its storage only).
impl Resident for Arc<Record> {
    fn weight(&self) -> Weight {
        let mut w = Weight {
            entries: 0,
            bytes: ARC_BYTES + size_of::<Record>() as u64,
        };
        add_filled(&mut w, &self.dist_q);
        add_filled(&mut w, &self.per_q);
        add_filled(&mut w, &self.agg);
        add_filled(&mut w, &self.per_q_agg);
        add_filled(&mut w, &self.mapped);
        add_filled(&mut w, &self.in_hull);
        add_filled(&mut w, &self.levels);
        w
    }
}

/// The lazily published slots of `CHUNK_SLOTS` consecutive ids.
type Chunk<V> = Arc<[OnceLock<V>]>;

/// One warm table: a chunk of slots per `CHUNK_SLOTS` logical ids, each
/// allocated on its first write.
struct Table<V> {
    /// Chunk `c` holds the slots of ids `c * CHUNK_SLOTS ..`; an
    /// unallocated one stands for empty slots. Shared by a successor that
    /// evicts nothing from this table.
    chunks: Arc<[OnceLock<Chunk<V>>]>,
}

impl<V: Resident> Table<V> {
    /// Bytes of one allocated chunk.
    const CHUNK_BYTES: u64 = ARC_BYTES + (CHUNK_SLOTS * size_of::<OnceLock<V>>()) as u64;

    /// Bytes of a chunk list of `len` chunks.
    fn list_bytes(len: usize) -> u64 {
        ARC_BYTES + (len * size_of::<OnceLock<Chunk<V>>>()) as u64
    }

    /// An empty table over `n` ids: its chunk list only.
    fn new(n: usize) -> Table<V> {
        let len = n.div_ceil(CHUNK_SLOTS);
        Table {
            chunks: (0..len).map(|_| OnceLock::new()).collect(),
        }
    }

    /// What the table holds, recounted: its chunk list, its allocated
    /// chunks and the values in their filled slots. O(chunks).
    fn weight(&self) -> Weight {
        let allocated = self.chunks.iter().filter(|c| c.get().is_some()).count();
        let mut w = Weight {
            entries: 0,
            bytes: Self::list_bytes(self.chunks.len()) + allocated as u64 * Self::CHUNK_BYTES,
        };
        self.for_each(|_, v| w += v.weight());
        w
    }

    /// The value in `id`'s slot; `None` if it is empty or past the end.
    fn get(&self, id: usize) -> Option<&V> {
        self.chunks.get(id / CHUNK_SLOTS)?.get()?[id % CHUNK_SLOTS].get()
    }

    /// `id`'s slot, allocating its chunk on first write; a chunk another
    /// caller allocated first is adopted.
    fn slot(&self, id: usize) -> &OnceLock<V> {
        let chunk = self.chunks[id / CHUNK_SLOTS]
            .get_or_init(|| (0..CHUNK_SLOTS).map(|_| OnceLock::new()).collect());
        &chunk[id % CHUNK_SLOTS]
    }

    /// Every filled slot, in id order.
    fn for_each<'a>(&'a self, mut f: impl FnMut(usize, &'a V)) {
        for (c, chunk) in self.chunks.iter().enumerate() {
            let slots = chunk.get().into_iter().flat_map(|s| s.iter().enumerate());
            for (k, slot) in slots {
                if let Some(v) = slot.get() {
                    f(c * CHUNK_SLOTS + k, v);
                }
            }
        }
    }

    /// This table's successor over `n` ids with the entries of `touched`
    /// (ascending) evicted, added to `evicted`; `None` when it holds no
    /// touched id and already spans `n`, so it can be shared whole. Copies
    /// the chunk list and each chunk it evicts from; a chunk left empty is
    /// dropped.
    fn carry(&self, touched: &[usize], n: usize, evicted: &mut Weight) -> Option<Table<V>> {
        let held: Vec<usize> = touched
            .iter()
            .copied()
            .filter(|&id| self.get(id).is_some())
            .collect();
        let len = n.div_ceil(CHUNK_SLOTS).max(self.chunks.len());
        if held.is_empty() && len == self.chunks.len() {
            return None;
        }
        let mut chunks = self.chunks.to_vec();
        chunks.resize_with(len, OnceLock::new);
        for ids in held.chunk_by(|a, b| a / CHUNK_SLOTS == b / CHUNK_SLOTS) {
            let c = ids[0] / CHUNK_SLOTS;
            // A held id's chunk is allocated.
            let Some(old) = chunks[c].take() else {
                continue;
            };
            let mut copy = Vec::with_capacity(CHUNK_SLOTS);
            for (k, slot) in old.iter().enumerate() {
                if ids.contains(&(c * CHUNK_SLOTS + k)) {
                    *evicted += slot.get().map(Resident::weight).unwrap_or_default();
                    copy.push(OnceLock::new());
                } else {
                    copy.push(slot.clone());
                }
            }
            if copy.iter().any(|s| s.get().is_some()) {
                chunks[c] = OnceLock::from(Chunk::<V>::from(copy));
            }
        }
        Some(Table {
            chunks: chunks.into(),
        })
    }
}

/// Pool-level cumulative counters, for bench / CLI reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Lookups served from an already published entry.
    pub hits: u64,
    /// Lookups that built (or raced to build) the entry.
    pub misses: u64,
    /// Entries discarded by epoch invalidation or with a query table the
    /// [`QUERY_TABLES`] bound dropped (cumulative).
    pub evictions: u64,
    /// Approximate bytes resident in the current cache: published values
    /// and the chunk lists, chunks, records and query keys that hold them.
    pub resident_bytes: u64,
    /// Epoch of the current cache.
    pub epoch: u64,
}

/// The traversal keys of a query table: `(id, squared δ_min(V, Q))` pairs
/// sorted by id, built at snapshot `epoch`. Never changed in place: a
/// traversal that built keys, or found some stale, publishes a merged
/// list.
#[derive(Clone, Default)]
struct Keys {
    epoch: u64,
    list: Arc<Vec<(usize, f64)>>,
}

impl Keys {
    /// What the keys add to their table's weight: an entry per key, and
    /// the list's storage.
    fn weight(&self) -> Weight {
        let slots = self.list.capacity() * size_of::<(usize, f64)>();
        Weight {
            entries: self.list.len() as u64,
            bytes: ARC_BYTES + (size_of::<Vec<(usize, f64)>>() + slots) as u64,
        }
    }

    /// The list at `epoch`: these keys less the `stale` ones (ascending),
    /// merged with `fresh` (sorted by id), and how many keys it dropped as
    /// stale. A key in both has the same bits in both: it was built for
    /// the same snapshot and query.
    fn merged(&self, stale: &[usize], fresh: Vec<(usize, f64)>, epoch: u64) -> (Keys, u64) {
        let held = self.list.iter().copied();
        let live = |&(id, _): &(usize, f64)| stale.binary_search(&id).is_err();
        let dropped = self.list.iter().filter(|e| !live(e)).count() as u64;
        let mut old = held.filter(live).peekable();
        let mut new = fresh.into_iter().peekable();
        let mut list = Vec::with_capacity(self.list.len() + new.len());
        while let (Some(&(a, _)), Some(&(b, _))) = (old.peek(), new.peek()) {
            match a.cmp(&b) {
                std::cmp::Ordering::Less => list.extend(old.next()),
                std::cmp::Ordering::Greater => list.extend(new.next()),
                std::cmp::Ordering::Equal => {
                    list.extend(old.next());
                    new.next();
                }
            }
        }
        list.extend(old.chain(new));
        let keys = Keys {
            epoch,
            list: Arc::new(list),
        };
        (keys, dropped)
    }
}

/// The query-keyed table of one admitted query: the traversal key of
/// every object its traversals pushed, and a record per object they read
/// a query-keyed value of, holding exactly the values a private record
/// would (the `CheckCtx` getters fill both).
pub struct QueryTable {
    /// Exact coordinate/probability bit pattern of the owning query, used
    /// to verify fingerprint matches (collision ⇒ no table).
    key: Vec<u64>,
    records: Table<Arc<Record>>,
    /// The traversal keys, read once per traversal ([`TraversalKeys`]).
    /// An object whose checks all decide on MBRs reads no query-keyed
    /// value, so a key needs no record, and a dense list costs 16 bytes a key
    /// where a chunk slot would cost its whole chunk (the ids a query
    /// pushes are scattered).
    keys: Mutex<Keys>,
}

impl std::fmt::Debug for QueryTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTable")
            .field("entries", &self.weight().entries)
            .finish_non_exhaustive()
    }
}

impl QueryTable {
    fn new(key: Vec<u64>, n: usize) -> QueryTable {
        QueryTable {
            key,
            records: Table::new(n),
            keys: Mutex::default(),
        }
    }

    /// What the table holds, recounted: its header and its query's key,
    /// its records' table and its key list. The one count of a table's
    /// footprint: resident bytes, audits and the eviction count of a
    /// dropped table all read it.
    fn weight(&self) -> Weight {
        let mut w = self.records.weight();
        w.bytes += ARC_BYTES + (size_of::<QueryTable>() + 8 * self.key.len()) as u64;
        w += self.keys().weight();
        w
    }

    /// The current keys.
    fn keys(&self) -> Keys {
        self.keys
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// This table's successor (see [`Table::carry`]): the same table when
    /// its records hold no touched id. Its keys are shared as they are: a
    /// traversal checks them against the epoch log when it reads them.
    fn carry(self: &Arc<Self>, touched: &[usize], n: usize, evicted: &mut Weight) -> Arc<Self> {
        match self.records.carry(touched, n, evicted) {
            Some(records) => Arc::new(QueryTable {
                key: self.key.clone(),
                records,
                keys: Mutex::new(self.keys()),
            }),
            None => Arc::clone(self),
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

/// The admitted query tables of a cache and the queries sighted once.
#[derive(Debug, Default)]
struct Queries {
    /// Admitted tables by fingerprint, each with its last use on `clock`.
    tables: BTreeMap<u64, (Arc<QueryTable>, u64)>,
    /// Fingerprints sighted once and not admitted, oldest first.
    sighted: VecDeque<u64>,
    /// Ticks once per table lookup.
    clock: u64,
}

/// One query table's layout, as [`WarmCache::audit`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableAudit {
    /// The owning query's fingerprint.
    pub query: u64,
    /// The address of each chunk of [`CHUNK_SLOTS`] ids, in id order, or 0
    /// where the chunk holds no record. Two live caches share a chunk
    /// exactly when they list the same non-zero address.
    pub chunks: Vec<usize>,
    /// The ids whose slot holds a record, ascending.
    pub filled: Vec<usize>,
    /// The ids whose traversal key the key list holds, ascending. A list
    /// is checked against the epoch log when a traversal reads it, so it
    /// may still hold the keys of ids changed since it was built.
    pub keys: Vec<usize>,
    /// Approximate bytes the table holds: its chunk list, chunks and
    /// records, its own key and its key list.
    pub bytes: u64,
}

/// A from-scratch walk of a [`WarmCache`]: every query table's layout plus
/// the resident entries and bytes recounted chunk by chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmAudit {
    /// Each query table, in fingerprint order.
    pub tables: Vec<TableAudit>,
    /// Published entries (a record counts its filled fields, a key list
    /// its keys).
    pub entries: u64,
    /// Approximate resident bytes, as [`WarmStats::resident_bytes`]
    /// counts them.
    pub resident_bytes: u64,
}

impl WarmAudit {
    /// Recounts query table `t` (fingerprint `fp`, spanning `n` ids): its
    /// own storage, its records and its key list.
    fn walk(&mut self, fp: u64, t: &QueryTable, n: usize) {
        let records = &t.records;
        let mut filled = Vec::new();
        records.for_each(|id, _| filled.push(id));
        let held = t.weight();
        self.entries += held.entries;
        self.resident_bytes += held.bytes;
        self.tables.push(TableAudit {
            query: fp,
            chunks: (0..n.div_ceil(CHUNK_SLOTS))
                .map(|c| {
                    let chunk = records.chunks.get(c).and_then(OnceLock::get);
                    chunk.map_or(0, |c| Arc::as_ptr(c).cast::<()>() as usize)
                })
                .collect(),
            filled,
            keys: t.keys().list.iter().map(|&(id, _)| id).collect(),
            bytes: held.bytes,
        });
    }
}

/// A shared warm cache for one `(store pointer, epoch)` snapshot.
///
/// See the module docs for the keying / population / invalidation
/// protocol. All tables span the snapshot's logical id space (`db.len()`,
/// tombstones included), matching a traversal's per-query memos.
pub struct WarmCache {
    /// Pinned store snapshot: identity key half, ABA guard, and CoW
    /// forcing (a pinned refcount makes `Arc::make_mut` clone).
    store: Arc<InstanceStore>,
    epoch: u64,
    /// Logical ids of the snapshot.
    len: usize,
    queries: Mutex<Queries>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cumulative over the pool's lifetime (carried across advances).
    evictions: AtomicU64,
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
        WarmCache::with_queries(db, Queries::default())
    }

    fn with_queries(db: &dyn SpatialIndex, queries: Queries) -> WarmCache {
        WarmCache {
            store: Arc::clone(db.store()),
            epoch: db.epoch(),
            len: db.len(),
            queries: Mutex::new(queries),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
            publishing: RwLock::new(()),
        }
    }

    fn queries(&self) -> std::sync::MutexGuard<'_, Queries> {
        self.queries.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Cumulative entries evicted by epoch invalidation or with a dropped
    /// query table.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The admitted query tables by fingerprint, read under the lock and
    /// walked after it is released.
    fn tables(&self) -> Vec<(u64, Arc<QueryTable>)> {
        let queries = self.queries();
        queries
            .tables
            .iter()
            .map(|(&fp, (t, _))| (fp, Arc::clone(t)))
            .collect()
    }

    /// What this cache holds, recounted table by table. O(chunks).
    fn weight(&self) -> Weight {
        let mut w = Weight::default();
        for (_, t) in self.tables() {
            w += t.weight();
        }
        w
    }

    /// Approximate bytes resident in this cache, as [`WarmCache::audit`]
    /// counts them. O(chunks).
    pub fn resident_bytes(&self) -> u64 {
        self.weight().bytes
    }

    fn stats(&self) -> WarmStats {
        WarmStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            resident_bytes: self.resident_bytes(),
            epoch: self.epoch,
        }
    }

    /// Walks every chunk of every query table: the layout and the
    /// recounted entries and bytes. O(chunks).
    pub fn audit(&self) -> WarmAudit {
        let mut audit = WarmAudit {
            tables: Vec::new(),
            entries: 0,
            resident_bytes: 0,
        };
        for (fp, t) in self.tables() {
            audit.walk(fp, &t, self.len);
        }
        audit
    }

    /// The value found in a slot, unless this cache is sealed: a value
    /// read after the seal may be the successor's, built for a touched id.
    fn lookup<V: Clone>(&self, found: Option<&V>) -> Option<V> {
        let v = found?.clone();
        // A successor publishes only after the seal's Release store (the
        // pool mutex orders its creation after `seal`), and `get` acquires
        // that publish, so a successor's value is always seen sealed.
        (!self.sealed.load(Ordering::Acquire)).then_some(v)
    }

    /// Publishes `value` into the slot `find` resolves (allocating its
    /// chunk, for a table slot); a lost race adopts the winner. `Err` with
    /// `value` when this cache is sealed: the value stays private to the
    /// caller.
    fn publish<'s, V: Clone + 's>(
        &self,
        value: V,
        find: impl FnOnce() -> &'s OnceLock<V>,
    ) -> Result<V, V> {
        // The lock guards no data, so a poisoned one is still sound.
        let _open = self
            .publishing
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        // `seal` stores under the write lock, so the read lock orders it.
        if self.sealed.load(Ordering::Relaxed) {
            return Err(value);
        }
        let slot = find();
        if slot.set(value.clone()).is_err() {
            return Ok(slot.get().cloned().unwrap_or(value));
        }
        Ok(value)
    }

    /// Stops this cache publishing, serving hits and admitting queries,
    /// once every publish in flight has landed.
    fn seal(&self) {
        let _closed = self
            .publishing
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        self.sealed.store(true, Ordering::Release);
    }

    /// The query table of `query`, shared across equal repeated queries:
    /// admitted on the query's second sighting, dropping the least
    /// recently used table past [`QUERY_TABLES`]. `None` for a first
    /// sighting, a fingerprint collision (different content, same 64-bit
    /// key — correctness never rests on the hash) or a sealed cache.
    pub fn table_for(&self, query: &PreparedQuery) -> Option<Arc<QueryTable>> {
        if self.sealed.load(Ordering::Relaxed) {
            return None;
        }
        let (fp, key) = (query.fingerprint(), query_key(query));
        let mut queries = self.queries();
        queries.clock += 1;
        let now = queries.clock;
        if let Some((t, used)) = queries.tables.get_mut(&fp) {
            *used = now;
            return (t.key == key).then(|| Arc::clone(t));
        }
        let Some(at) = queries.sighted.iter().position(|&f| f == fp) else {
            if queries.sighted.len() >= QUERY_TABLES {
                queries.sighted.pop_front();
            }
            queries.sighted.push_back(fp);
            return None;
        };
        queries.sighted.remove(at);
        let mut dropped = None;
        if queries.tables.len() >= QUERY_TABLES {
            let lru = queries.tables.iter().min_by_key(|(_, (_, used))| *used);
            let lru = lru.map(|(&f, _)| f);
            dropped = lru.and_then(|f| queries.tables.remove(&f));
        }
        let t = Arc::new(QueryTable::new(key, self.len));
        queries.tables.insert(fp, (Arc::clone(&t), now));
        // The dropped table is weighed and freed off the lock.
        drop(queries);
        if let Some((old, _)) = dropped {
            let entries = old.weight().entries;
            self.evictions.fetch_add(entries, Ordering::Relaxed);
        }
        Some(t)
    }

    /// Advances `old` to `db`'s snapshot: shared chunks plus targeted
    /// eviction when the epoch log covers the window, full rebuild
    /// otherwise.
    fn advance(old: &WarmCache, db: &dyn SpatialIndex) -> WarmCache {
        let n = db.len();
        let window = if db.epoch() > old.epoch && n >= old.len {
            db.changes_since(old.epoch)
        } else {
            // A same-epoch snapshot with a different store pointer: not a
            // successor of ours — start over.
            None
        };
        let Some(changes) = window else {
            let next = WarmCache::blank(db);
            next.hits.store(old.hits(), Ordering::Relaxed);
            next.misses.store(old.misses(), Ordering::Relaxed);
            let evicted = old.evictions() + old.weight().entries;
            next.evictions.store(evicted, Ordering::Relaxed);
            return next;
        };
        // Sealing waits out every publish in flight, so the old cache's
        // slots read below are final.
        old.seal();
        let touched = touched_ids(&changes);
        let mut evicted = Weight::default();
        let queries = {
            let was = old.queries();
            let tables = was
                .tables
                .iter()
                .map(|(&fp, (t, used))| (fp, (t.carry(&touched, n, &mut evicted), *used)));
            Queries {
                tables: tables.collect(),
                sighted: was.sighted.clone(),
                clock: was.clock,
            }
        };
        let next = WarmCache::with_queries(db, queries);
        next.hits.store(old.hits(), Ordering::Relaxed);
        next.misses.store(old.misses(), Ordering::Relaxed);
        next.evictions
            .store(old.evictions() + evicted.entries, Ordering::Relaxed);
        next
    }
}

/// A per-query window into a [`WarmCache`]: the cache plus the query's
/// table, if it was admitted. Cloning is two `Arc` bumps.
#[derive(Debug, Clone)]
pub struct WarmView {
    cache: Arc<WarmCache>,
    table: Option<Arc<QueryTable>>,
}

impl WarmView {
    /// Finds `query`'s table in `cache` (once per query).
    pub fn new(cache: Arc<WarmCache>, query: &PreparedQuery) -> WarmView {
        let table = cache.table_for(query);
        WarmView { cache, table }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<WarmCache> {
        &self.cache
    }

    /// Counts one lookup of a table record's field: a warm hit when the
    /// table served it, else a warm miss.
    pub(crate) fn tally(&self, hit: bool, metrics: &mut QueryMetrics) {
        if hit {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmHits);
        } else {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmMisses);
        }
    }

    /// `id`'s record in the query table, created empty on first touch;
    /// `None` for a query without a table or on a sealed cache, whose
    /// traversal fills a private record instead. One chunk walk: a
    /// traversal holds the record in its per-query memo and reads every
    /// field through it.
    pub(crate) fn record(&self, id: usize) -> Option<Arc<Record>> {
        let t = self.table.as_deref()?;
        if let Some(r) = self.cache.lookup(t.records.get(id)) {
            return Some(r);
        }
        let fresh = Arc::new(Record::default());
        self.cache.publish(fresh, || t.records.slot(id)).ok()
    }

    /// The value of `slot`, a field of one of this view's table records:
    /// served when published (`true`), else built by `build` and published
    /// (`false`). `Err` with the built value when the cache is sealed (it
    /// neither serves nor publishes) or the view has no table: the caller
    /// keeps the value privately.
    pub(crate) fn fill<V: Clone>(
        &self,
        slot: &OnceLock<V>,
        build: impl FnOnce() -> V,
    ) -> Result<(V, bool), V> {
        if self.table.is_none() {
            return Err(build());
        }
        if let Some(v) = self.cache.lookup(slot.get()) {
            return Ok((v, true));
        }
        let v = self.cache.publish(build(), || slot)?;
        Ok((v, false))
    }

    /// The traversal keys of this view's query table, for one traversal
    /// of `db`; `None` for a query without a table. A list built at another
    /// snapshot is checked against `db`'s epoch log: the keys of the ids
    /// changed since are stale, and all of them are when the log cannot
    /// say which (it no longer reaches back to the list, or the list is a
    /// successor's, in a table the advance shared).
    pub(crate) fn traversal_keys(&self, db: &dyn SpatialIndex) -> Option<TraversalKeys> {
        let held = self.table.as_deref()?.keys();
        let epoch = db.epoch();
        let stale = if held.epoch == epoch {
            Vec::new()
        } else if let Some(changes) = db.changes_since(held.epoch) {
            touched_ids(&changes)
        } else {
            held.list.iter().map(|&(id, _)| id).collect()
        };
        Some(TraversalKeys {
            view: self.clone(),
            epoch,
            held,
            stale,
            built: Vec::new(),
            served: 0,
        })
    }
}

/// One traversal's window on its query table's keys: the list held when
/// it started, less the keys the epoch log shows stale, and the keys it
/// built since, published when it ends.
pub(crate) struct TraversalKeys {
    view: WarmView,
    /// The traversal's snapshot epoch.
    epoch: u64,
    held: Keys,
    /// Ids changed since `held` was built, ascending.
    stale: Vec<usize>,
    /// Keys built on a miss, in push order.
    built: Vec<(usize, f64)>,
    /// Keys served from `held`.
    served: u64,
}

impl TraversalKeys {
    /// The traversal key of object `id`: from the table's list, or built
    /// by [`build_key`] (the cold kernel path's function) and kept for
    /// [`TraversalKeys::finish`].
    pub(crate) fn get(&mut self, db: &dyn SpatialIndex, query: &PreparedQuery, id: usize) -> f64 {
        if let Ok(at) = self.held.list.binary_search_by_key(&id, |&(k, _)| k) {
            if self.stale.binary_search(&id).is_err() {
                self.served += 1;
                return self.held.list[at].1;
            }
        }
        let key = build_key(db, query, id);
        self.built.push((id, key));
        key
    }

    /// Counts the traversal's key hits and misses, and publishes the list
    /// at its epoch, unless the cache is sealed: the table's current list,
    /// less its stale keys (counted as evicted) and merged with the keys
    /// the traversal built, replaces it. Called once, when the traversal
    /// ends; a traversal that built nothing and found the list current
    /// publishes nothing.
    pub(crate) fn finish(self, metrics: &mut QueryMetrics) {
        let TraversalKeys {
            view,
            epoch,
            held,
            stale,
            built: mut fresh,
            served,
        } = self;
        let cache = &view.cache;
        let misses = fresh.len() as u64;
        cache.hits.fetch_add(served, Ordering::Relaxed);
        cache.misses.fetch_add(misses, Ordering::Relaxed);
        metrics.incr_by(Counter::WarmHits, served);
        metrics.incr_by(Counter::WarmMisses, misses);
        let current = fresh.is_empty() && held.epoch == epoch;
        let Some(t) = view.table.as_deref().filter(|_| !current) else {
            return;
        };
        fresh.sort_unstable_by_key(|&(id, _)| id);
        // As in `WarmCache::publish`.
        let _open = cache
            .publishing
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        if cache.sealed.load(Ordering::Relaxed) {
            return;
        }
        let mut keys = t.keys.lock().unwrap_or_else(PoisonError::into_inner);
        // Another traversal of this epoch may have published meanwhile,
        // already without the stale keys.
        let stale: &[usize] = if keys.epoch == held.epoch {
            &stale
        } else {
            &[]
        };
        let (next, dropped) = keys.merged(stale, fresh, epoch);
        cache.evictions.fetch_add(dropped, Ordering::Relaxed);
        *keys = next;
    }
}

/// The shared home of a warm cache across queries and epochs.
///
/// Holds at most one [`WarmCache`] — the one keyed to the newest snapshot
/// it has been shown. [`WarmPool::cache_for`] swaps in an advanced cache
/// when the snapshot moves forward; queries still running against the old
/// snapshot keep their pinned `Arc<WarmCache>` and stay consistent (a
/// traversal on a sealed cache fills private records, see the module
/// docs).
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
        let old = cur.take();
        let next = Arc::new(match &old {
            Some(old) => WarmCache::advance(old, db),
            None => WarmCache::blank(db),
        });
        *cur = Some(Arc::clone(&next));
        // Freeing the superseded cache costs more than the advance; do it
        // after the lock is released, not while other readers wait on it.
        drop(cur);
        drop(old);
        next
    }

    /// A per-query view: the current cache plus `query`'s table.
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
    use crate::ctx::CheckCtx;
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

    fn query_at(x: f64) -> PreparedQuery {
        PreparedQuery::new(UncertainObject::uniform(vec![p2(x, 0.0), p2(x, 1.0)]))
    }

    /// A fresh traversal context of `q` over `db` that reads through `view`.
    fn ctx<'a>(db: &'a dyn SpatialIndex, q: &'a PreparedQuery, view: &WarmView) -> CheckCtx<'a> {
        CheckCtx::with_warm(db, q, FilterConfig::all(), Some(view.clone()))
    }

    /// The values of the [`Table`] fixtures below: `[id]` in slot `id`.
    impl Resident for Arc<Vec<u64>> {
        fn weight(&self) -> Weight {
            one(24 + 8 * self.len() as u64)
        }
    }

    #[test]
    fn same_snapshot_reuses_the_cache_and_its_entries() {
        let db = Database::new(vec![obj(1.0), obj(5.0)]);
        let pool = WarmPool::new();
        let q = query();
        // The second sighting admits the query's table.
        pool.view_for(&db, &q);
        let v1 = pool.view_for(&db, &q);
        let a = ctx(&db, &q, &v1).dist_q(0);
        let v2 = pool.view_for(&db, &q);
        assert!(Arc::ptr_eq(v1.cache(), v2.cache()), "same (ptr, epoch) key");
        let b = ctx(&db, &q, &v2).dist_q(0);
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
        // First sightings get no table; a repeat is admitted.
        let v1 = pool.view_for(&db, &q1);
        let v3 = pool.view_for(&db, &q3);
        assert!(v1.table.is_none() && v3.table.is_none());
        let v2 = pool.view_for(&db, &q2);
        let v1 = pool.view_for(&db, &q1);
        let v3 = pool.view_for(&db, &q3);
        let table = |v: &WarmView| Arc::clone(v.table.as_ref().expect("admitted"));
        assert!(Arc::ptr_eq(&table(&v1), &table(&v2)));
        assert!(!Arc::ptr_eq(&table(&v1), &table(&v3)));
        assert_eq!(v1.cache().queries().tables.len(), 2);
    }

    #[test]
    fn the_table_bound_drops_the_least_recently_used() {
        let db = Database::new(vec![obj(1.0), obj(5.0)]);
        let pool = WarmPool::new();
        let queries: Vec<PreparedQuery> = (0..=QUERY_TABLES).map(|i| query_at(i as f64)).collect();
        for q in &queries[..QUERY_TABLES] {
            pool.view_for(&db, q);
            let v = pool.view_for(&db, q);
            ctx(&db, q, &v).dist_q(0);
        }
        // Query 0 is used again, so query 1 is the least recently used.
        assert!(pool.view_for(&db, &queries[0]).table.is_some());
        let cache = pool.cache_for(&db);
        let held = cache.audit().entries;
        let last = &queries[QUERY_TABLES];
        pool.view_for(&db, last);
        assert!(pool.view_for(&db, last).table.is_some());
        let admitted = cache.queries();
        assert_eq!(admitted.tables.len(), QUERY_TABLES);
        assert!(!admitted.tables.contains_key(&queries[1].fingerprint()));
        assert!(admitted.tables.contains_key(&queries[0].fingerprint()));
        drop(admitted);
        // Query 1's record was evicted with its table; a dropped query
        // starts over as a first sighting.
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.audit().entries, held - 1);
        assert!(pool.view_for(&db, &queries[1]).table.is_none());
    }

    #[test]
    fn a_record_holds_every_query_keyed_field_and_is_weighed_exactly() {
        let objects = (0..40).map(|i| obj(3.0 * i as f64)).collect();
        let db = Database::with_fanouts(objects, 4, 2);
        let pool = WarmPool::new();
        let q = query();
        pool.view_for(&db, &q);
        let v = pool.view_for(&db, &q);
        let cache = Arc::clone(v.cache());
        let mut cold = CheckCtx::new(&db, &q, FilterConfig::all());
        for id in [3, 17, 39] {
            let mut warm = ctx(&db, &q, &v);
            let d = warm.dist_q(id);
            let p = warm.per_q(id);
            assert_eq!(*d, *cold.dist_q(id));
            assert_eq!(*p, *cold.per_q(id));
            assert_eq!(warm.agg(id), cold.agg(id));
            assert_eq!(warm.per_q_agg(id), cold.per_q_agg(id));
            assert_eq!(warm.mapped(id), cold.mapped(id));
            assert_eq!(warm.in_hull_instances(id), cold.in_hull_instances(id));
            let levels = db.level_snapshot(id).num_levels();
            for level in 1..=levels + 1 {
                warm.level_bounds_whole(id, level);
                warm.level_bounds_instance(id, level);
            }
            assert!(Arc::ptr_eq(&d, &ctx(&db, &q, &v).dist_q(id)));
            assert!(Arc::ptr_eq(&p, &ctx(&db, &q, &v).per_q(id)));
        }
        let audit = cache.audit();
        assert_eq!(audit.tables.len(), 1, "one query table");
        assert_eq!(audit.tables[0].filled, vec![3, 17, 39]);
        assert_eq!(audit.resident_bytes, cache.resident_bytes());
        let per_record = 6 + 2 * db.level_snapshot(3).num_levels() as u64;
        assert_eq!(audit.entries, 3 * per_record);
    }

    #[test]
    fn keys_are_served_bit_identically_and_weighed_exactly() {
        let objects = (0..40).map(|i| obj(3.0 * i as f64)).collect();
        let db = Database::with_fanouts(objects, 4, 2);
        let pool = WarmPool::new();
        let q = query();
        let mut m = QueryMetrics::new();
        // A query without a table has no keys to read.
        assert!(pool.view_for(&db, &q).traversal_keys(&db).is_none());
        let v = pool.view_for(&db, &q);
        let cold = |id| {
            let mut stats = crate::config::Stats::default();
            crate::nnc::object_min_dist2(&db, &q, true, id, &mut stats).to_bits()
        };
        let mut keys = v.traversal_keys(&db).expect("an admitted table");
        for id in [17, 3, 39] {
            assert_eq!(keys.get(&db, &q, id).to_bits(), cold(id));
        }
        keys.finish(&mut m);
        assert_eq!((pool.stats().hits, pool.stats().misses), (0, 3));
        // The next traversal is served what the last one built, and adds
        // what it builds itself.
        let mut keys = v.traversal_keys(&db).expect("an admitted table");
        for id in [3, 17, 39, 5] {
            assert_eq!(keys.get(&db, &q, id).to_bits(), cold(id));
        }
        keys.finish(&mut m);
        assert_eq!((pool.stats().hits, pool.stats().misses), (3, 4));
        let cache = Arc::clone(v.cache());
        let audit = cache.audit();
        let table = audit.tables.first().expect("a query table");
        assert_eq!(table.keys, vec![3, 5, 17, 39]);
        assert!(table.filled.is_empty(), "a key made a record");
        assert_eq!(audit.entries, 4);
        assert_eq!(audit.resident_bytes, cache.resident_bytes());
    }

    /// A table of `ids` (each holding `[id]`), spanning `n` ids.
    fn filled(ids: &[usize], n: usize) -> Table<Arc<Vec<u64>>> {
        let t = Table::new(n);
        for &id in ids {
            let _ = t.slot(id).set(Arc::new(vec![id as u64]));
        }
        t
    }

    fn contents(t: &Table<Arc<Vec<u64>>>) -> Vec<usize> {
        let mut out = Vec::new();
        t.for_each(|id, v| {
            assert_eq!(**v, [id as u64]);
            out.push(id);
        });
        out
    }

    fn allocated(t: &Table<Arc<Vec<u64>>>) -> Vec<bool> {
        t.chunks.iter().map(|c| c.get().is_some()).collect()
    }

    #[test]
    fn storage_follows_the_entries() {
        let t = filled(&[], 20_000);
        let list = Table::<Arc<Vec<u64>>>::list_bytes(20_000usize.div_ceil(CHUNK_SLOTS));
        assert_eq!(t.weight().bytes, list);
        let t = filled(&[12_345, 12_346], 20_000);
        assert_eq!(allocated(&t).iter().filter(|&&a| a).count(), 1);
        let chunk = Table::<Arc<Vec<u64>>>::CHUNK_BYTES;
        let values = 2 * Arc::new(vec![0u64]).weight().bytes;
        assert_eq!(t.weight().bytes, list + chunk + values);
        assert!(t.get(12_347).is_none() && t.get(1 << 20).is_none());
        assert_eq!(contents(&t), vec![12_345, 12_346]);
    }

    #[test]
    fn carry_copies_only_the_chunks_it_evicts_from() {
        let n = 3 * CHUNK_SLOTS + 5;
        let old = filled(
            &[3, CHUNK_SLOTS + 7, CHUNK_SLOTS + 9, 2 * CHUNK_SLOTS + 1],
            n,
        );
        let mut evicted = Weight::default();
        assert!(
            old.carry(&[4, 3 * CHUNK_SLOTS], n, &mut evicted).is_none(),
            "nothing held"
        );
        let touched = [CHUNK_SLOTS + 7, 2 * CHUNK_SLOTS + 1];
        let new = old.carry(&touched, n, &mut evicted).expect("two held");
        assert_eq!(evicted.entries, 2);
        assert_eq!(contents(&new), vec![3, CHUNK_SLOTS + 9]);
        assert_eq!(contents(&old).len(), 4, "the source is untouched");
        let ptr = |t: &Table<Arc<Vec<u64>>>, c: usize| t.chunks[c].get().map(Arc::as_ptr);
        assert_eq!(ptr(&old, 0), ptr(&new, 0), "untouched chunk shared");
        assert_ne!(
            ptr(&old, 1),
            ptr(&new, 1),
            "chunk of an evicted entry copied"
        );
        // Chunk 2 held one entry: it is dropped.
        assert_eq!(allocated(&new), vec![true, true, false, false]);
        let chunk = Table::<Arc<Vec<u64>>>::CHUNK_BYTES;
        assert_eq!(
            old.weight().bytes - new.weight().bytes,
            evicted.bytes + chunk
        );
        // Growing past the last chunk copies the list and shares the chunks.
        let grown = new
            .carry(&[], n + CHUNK_SLOTS, &mut evicted)
            .expect("grown");
        assert_eq!(allocated(&grown), vec![true, true, false, false, false]);
        assert_eq!(ptr(&grown, 1), ptr(&new, 1));
        assert!(grown.carry(&[n], n + 1, &mut evicted).is_none(), "in span");
    }

    #[test]
    fn update_evicts_only_the_touched_object() {
        let idx = PublishedIndex::new(Database::new(vec![obj(1.0), obj(5.0)]));
        let pool = WarmPool::new();
        let q = query();
        let snap0 = idx.pin();
        pool.view_for(snap0.as_ref(), &q);
        let v0 = pool.view_for(snap0.as_ref(), &q);
        let d0 = ctx(snap0.as_ref(), &q, &v0).dist_q(0);
        let d1 = ctx(snap0.as_ref(), &q, &v0).dist_q(1);
        idx.update(1, obj(7.0)).expect("update");
        let snap1 = idx.pin();
        let v1 = pool.view_for(snap1.as_ref(), &q);
        assert!(
            !Arc::ptr_eq(v0.cache(), v1.cache()),
            "stale (ptr, epoch) key must not be served"
        );
        let d0b = ctx(snap1.as_ref(), &q, &v1).dist_q(0);
        assert!(Arc::ptr_eq(&d0, &d0b), "untouched object carried over");
        let d1b = ctx(snap1.as_ref(), &q, &v1).dist_q(1);
        assert!(!Arc::ptr_eq(&d1, &d1b), "touched object rebuilt");
        assert!(pool.stats().evictions >= 1);
    }

    #[test]
    fn foreign_snapshot_forces_a_full_rebuild() {
        let a = Database::new(vec![obj(1.0)]);
        let b = Database::new(vec![obj(2.0)]); // unrelated chain, same epoch 0
        let pool = WarmPool::new();
        let q = query();
        pool.view_for(&a, &q);
        let va = pool.view_for(&a, &q);
        let held = ctx(&a, &q, &va).dist_q(0);
        let vb = pool.view_for(&b, &q);
        assert!(!Arc::ptr_eq(va.cache(), vb.cache()));
        let fresh = ctx(&b, &q, &vb).dist_q(0);
        assert_eq!(
            *fresh,
            *CheckCtx::new(&b, &q, FilterConfig::all()).dist_q(0)
        );
        assert_ne!(*fresh, *held);
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
        let snap0 = idx.pin();
        idx.warm_pool().view_for(&*snap0, &q);
        let v0 = idx.warm_pool().view_for(&*snap0, &q);
        let carried = ctx(&*snap0, &q, &v0).dist_q(0);
        idx.update(1, obj(7.0)).expect("update");
        let snap1 = idx.pin();
        let v1 = idx.warm_pool().view_for(&*snap1, &q);
        // Object 1's slot was empty: the table is shared, and the new
        // cache fills the slot with the e1 value.
        let new1 = ctx(&*snap1, &q, &v1).dist_q(1);
        let old1 = ctx(&*snap0, &q, &v0).dist_q(1);
        assert!(!Arc::ptr_eq(&new1, &old1), "e0 reader served an e1 entry");
        assert_eq!(
            *old1,
            *CheckCtx::new(&*snap0, &q, FilterConfig::all()).dist_q(1)
        );
        // Nor does the sealed e0 cache publish what it builds, serve even
        // a carried entry, or admit a query.
        assert!(!Arc::ptr_eq(&ctx(&*snap0, &q, &v0).dist_q(1), &old1));
        assert!(!Arc::ptr_eq(&ctx(&*snap0, &q, &v0).dist_q(0), &carried));
        assert!(Arc::ptr_eq(&ctx(&*snap1, &q, &v1).dist_q(0), &carried));
        assert!(v0.cache().table_for(&q).is_none());
    }

    #[test]
    fn a_traversal_sealed_mid_run_builds_each_value_once() {
        let idx = PublishedIndex::new(Database::new(vec![obj(1.0), obj(5.0)]));
        let (q, pool) = (query(), idx.warm_pool());
        let snap0 = idx.pin();
        pool.view_for(&*snap0, &q);
        let mut run = ctx(&*snap0, &q, &pool.view_for(&*snap0, &q));
        let mut cold = CheckCtx::new(&*snap0, &q, FilterConfig::all());
        let d = run.dist_q(0);
        idx.update(1, obj(7.0)).expect("update");
        let snap1 = idx.pin();
        let v1 = pool.view_for(&*snap1, &q);
        // The seal stops the e0 traversal publishing: object 0 moves to a
        // private record that keeps its `U_Q`, and object 1 gets one.
        let p = run.per_q(0);
        let d1 = run.dist_q(1);
        // The e1 cache shares object 0's record: it is served the carried
        // `U_Q` and fills `U_q` with a value of its own.
        let mut next = ctx(&*snap1, &q, &v1);
        assert!(Arc::ptr_eq(&d, &next.dist_q(0)));
        assert!(!Arc::ptr_eq(&p, &next.per_q(0)));
        assert!(!Arc::ptr_eq(&d1, &next.dist_q(1)));
        // Each value was built once: repeats hit, and `Stats` match a cold
        // traversal's.
        assert!(Arc::ptr_eq(&d, &run.dist_q(0)));
        assert!(Arc::ptr_eq(&p, &run.per_q(0)));
        assert!(Arc::ptr_eq(&d1, &run.dist_q(1)));
        assert_eq!(*d, *cold.dist_q(0));
        assert_eq!(*p, *cold.per_q(0));
        assert_eq!(*d1, *cold.dist_q(1));
        // The repeats, which hit.
        cold.dist_q(0);
        cold.per_q(0);
        cold.dist_q(1);
        assert_eq!(run.stats, cold.stats);
    }
}
