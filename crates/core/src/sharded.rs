//! [`ObjectIndex`]: the index — §6's `n + 1` R-trees over a
//! columnar store, with the object set space-partitioned into STR tiles,
//! each tile owning its own global R-tree.
//!
//! The paper's index is one global R-tree over every object MBR plus one
//! local R-tree per object. At million-object scale that global tree's
//! upper levels become a serial bottleneck and the columnar store a
//! single cache-hostile span. This layout instead
//!
//! 1. runs the Sort-Tile-Recursive slicing of the bulk loader **once at
//!    the object-MBR level** ([`osd_rtree::str_partition`]) to cut the
//!    object set into `shards` spatially coherent tiles,
//! 2. **permutes the columnar store shard-major** so each tile's objects
//!    occupy one contiguous run of rows right after the build (readers of
//!    one shard touch one contiguous memory range), and
//! 3. bulk-loads one **global R-tree per tile** whose payloads are the
//!    *logical* (pre-permutation) object ids.
//!
//! Object ids stay logical everywhere: `object(id)` resolves through the
//! `slot` map to the permuted row, and shard-tree payloads carry logical
//! ids, so NNC results are directly comparable with — and bit-identical
//! to — any other tiling of the same data (`tests/shard_identity.rs`).
//!
//! **One shard is the flat layout.** With `shards <= 1` the STR order is
//! the identity: the base `Arc<InstanceStore>` is reused uncopied and the
//! one tree is bulk-loaded over the objects in id order — the paper's
//! global R-tree. So both layouts are one type, whose zero-sized layout
//! marker picks only the constructor family: [`ShardedDatabase`]
//! (`ObjectIndex<Sharded>`) is built from a [`ShardConfig`], and
//! [`FlatDatabase`](crate::FlatDatabase) (`ObjectIndex<Flat>`) by the
//! historical fan-out constructors of `core::db`, which build one shard.
//! The build, the mutators and the [`SpatialIndex`] impl are written once,
//! here; this module is the only place an index is built or mutated.
//!
//! **Per-id tables.** The local R-trees and the `slot` map are
//! `core::chunked::ChunkedVec`s, the one chunked table type of the index:
//! cloning the index (every publish does) bumps one
//! count per 256 ids, and a mutation copies only the chunk holding the id
//! it writes.
//!
//! **Derived state per object.** An object's local-tree entry also holds
//! the state that depends on the object alone: its quantised masses and
//! the per-level partition of its local tree ([`LevelSnapshot`]), each
//! built on first use ([`SpatialIndex::quanta`],
//! [`SpatialIndex::level_snapshot`]). A publish shares the entries of the
//! ids it does not write, so every snapshot, query and cache reading an
//! object shares one copy; a written id gets a fresh entry, so a stale
//! copy is never reachable from the new snapshot.
//!
//! **Inserts** append a row to the store (copying its last chunk) and go
//! to the shard whose tree MBR needs the least volume enlargement (ties:
//! smaller volume, then lower shard id) — R-tree subtree choice at shard
//! granularity. The contiguous runs describe the bulk build only.
//! **Deletes** tombstone the object's row; store rows never move, so no
//! other id's row changes.

use crate::cache::{build_level_snapshot, LevelSnapshot};
use crate::chunked::ChunkedVec;
use crate::index::{DbError, IndexStats, ShardStats, SpatialIndex};
use osd_geom::Mbr;
use osd_rtree::{str_partition, Entry, RTree};
use osd_uncertain::{epoch, quantize, Change, EpochLog, InstanceStore, ObjectRef, UncertainObject};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Default fan-out of the global (per-shard) R-trees.
pub const DEFAULT_GLOBAL_FANOUT: usize = 32;
/// Fan-out of the per-object local R-trees (matches the paper's setting).
pub const DEFAULT_LOCAL_FANOUT: usize = 4;

/// Aborts a panicking constructor or mutator with the invariant violation
/// `e` — the ergonomic path for trusted data (`try_*` is the fallible
/// one), and the single place this crate waives its `clippy::panic`
/// policy (mirroring `UncertainObject`).
#[cold]
#[track_caller]
#[allow(clippy::panic)]
pub(crate) fn invalid(e: DbError) -> ! {
    panic!("{e}")
}

/// One object's local R-tree, with the derived state that depends on the
/// object alone, each slot filled on first use.
#[derive(Debug)]
struct Local {
    tree: RTree<usize>,
    quanta: OnceLock<Arc<Vec<u64>>>,
    levels: OnceLock<Arc<LevelSnapshot>>,
}

impl Local {
    /// The table slot of a live object whose instance rows are `coords`.
    fn new(fanout: usize, dim: usize, coords: &[f64]) -> Option<Arc<Local>> {
        Some(Arc::new(Local {
            tree: RTree::bulk_load_rows(fanout, dim, coords),
            quanta: OnceLock::new(),
            levels: OnceLock::new(),
        }))
    }
}

/// The value in `slot`, built by `build` off-lock if it is empty. A caller
/// that loses the race to fill it takes the winner's value, so every
/// reader of the slot shares one copy and none blocks on another's build.
fn fill<T: Clone>(slot: &OnceLock<T>, build: impl FnOnce() -> T) -> T {
    if let Some(v) = slot.get() {
        return v.clone();
    }
    let v = build();
    match slot.set(v.clone()) {
        Ok(()) => v,
        Err(_) => slot.get().cloned().unwrap_or(v),
    }
}

/// Layout parameters of an [`ObjectIndex`] build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Requested number of STR tiles. The slicing may produce a few more
    /// groups than requested (slab rounding); `shard_count()` reports the
    /// actual number. `0` and `1` both mean unsharded.
    pub shards: usize,
    /// Fan-out of each shard's global R-tree.
    pub global_fanout: usize,
    /// Fan-out of the per-object local R-trees.
    pub local_fanout: usize,
}

impl ShardConfig {
    /// `shards` tiles with the default fan-outs.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            global_fanout: DEFAULT_GLOBAL_FANOUT,
            local_fanout: DEFAULT_LOCAL_FANOUT,
        }
    }
}

/// Layout marker of [`ShardedDatabase`]: an index built from a
/// [`ShardConfig`].
#[derive(Debug, Clone)]
pub struct Sharded;

/// Layout marker of [`FlatDatabase`](crate::FlatDatabase): an index of one
/// global R-tree, built by the fan-out constructors of `core::db`.
#[derive(Debug, Clone)]
pub struct Flat;

/// A set of multi-instance objects indexed as STR tiles, each with its own
/// global R-tree, over a shard-major-permuted columnar store.
///
/// The layout marker `L` ([`Sharded`] or [`Flat`]) selects the
/// constructors and nothing else: every other method is shared.
///
/// Instance data is held in an `Arc<InstanceStore>` snapshot; the database
/// itself only owns the index structures.
///
/// Mutations go through the epoch seam (`uncertain::epoch`): every
/// insert/delete/update builds the next snapshot copy-on-write, copying
/// the one store chunk it touches, and bumps the epoch. Ids are logical
/// and never reused — a delete tombstones the object's store row (its
/// instances are compacted out of that chunk) and its id, so `len()`
/// (id-space size) and `live_len()` (live objects) diverge after the
/// first delete.
#[derive(Debug, Clone)]
pub struct ObjectIndex<L> {
    /// Shard-major permutation of the input store (or the input `Arc`
    /// itself when the permutation is the identity).
    store: Arc<InstanceStore>,
    /// Local instance trees and their derived state, by logical id
    /// (`None` = tombstone). A write copies the one chunk holding the id
    /// and gives the id a fresh entry; every other entry is shared.
    local: ChunkedVec<Option<Arc<Local>>>,
    /// One global R-tree per tile; payloads are logical object ids, live
    /// entries only.
    shards: Vec<RTree<usize>>,
    /// Logical id → store row (`None` = tombstone). Store rows are
    /// stable, so an entry is written once on build or insert and cleared
    /// on delete; no other mutation touches it. Chunked like `local`, so a
    /// publish copies one chunk of it, not all `n` entries.
    slot: ChunkedVec<Option<usize>>,
    /// Fan-out of the local trees built on insert and update.
    local_fanout: usize,
    /// Published-mutation log; its length is the snapshot epoch.
    epochs: EpochLog,
    /// The constructor family; `fn() -> L` keeps the index `Send + Sync`
    /// whatever the marker.
    layout: PhantomData<fn() -> L>,
}

/// The index built into STR tiles by a [`ShardConfig`].
pub type ShardedDatabase = ObjectIndex<Sharded>;

impl ShardedDatabase {
    /// Indexes `objects` into (about) `shards` STR tiles with default
    /// fan-outs.
    ///
    /// # Panics
    /// Panics if `objects` is empty or dimensionalities are inconsistent.
    /// Use [`ShardedDatabase::try_new`] for untrusted data.
    #[track_caller]
    pub fn new(objects: Vec<UncertainObject>, shards: usize) -> Self {
        match Self::try_new(objects, shards) {
            Ok(db) => db,
            Err(e) => invalid(e),
        }
    }

    /// Fallible variant of [`ShardedDatabase::new`].
    ///
    /// # Errors
    /// Returns a [`DbError`] describing the first violated invariant.
    pub fn try_new(objects: Vec<UncertainObject>, shards: usize) -> Result<Self, DbError> {
        Self::try_with_config(objects, ShardConfig::with_shards(shards))
    }

    /// Fallible constructor with explicit layout parameters.
    ///
    /// # Errors
    /// Returns a [`DbError`] describing the first violated invariant.
    pub fn try_with_config(
        objects: Vec<UncertainObject>,
        cfg: ShardConfig,
    ) -> Result<Self, DbError> {
        Self::build(objects, cfg)
    }

    /// Indexes the live objects of an existing columnar snapshot; logical
    /// id `k` is its `k`-th live object in row order. When the STR order
    /// turns out to be the identity on the store's rows (always the case
    /// for `shards <= 1` over a store without tombstones), the snapshot
    /// `Arc` is reused without copying — the database shares the
    /// allocation with every other holder of the `Arc`.
    ///
    /// # Errors
    /// [`DbError::Empty`] if the store holds no objects.
    pub fn from_store(store: Arc<InstanceStore>, cfg: ShardConfig) -> Result<Self, DbError> {
        Self::build_from_store(store, cfg)
    }
}

impl<L> ObjectIndex<L> {
    /// Indexes `objects` under `cfg`: the build behind every constructor
    /// taking objects.
    ///
    /// # Errors
    /// Returns a [`DbError`] describing the first violated invariant.
    pub(crate) fn build(objects: Vec<UncertainObject>, cfg: ShardConfig) -> Result<Self, DbError> {
        if objects.is_empty() {
            return Err(DbError::Empty);
        }
        let store = InstanceStore::from_objects(&objects).map_err(|e| {
            // The store reports what is wrong; find which input tripped it.
            let dim = objects[0].dim();
            let object = objects
                .iter()
                .position(|o| InstanceStore::check_object(dim, o).is_err())
                .unwrap_or(0);
            DbError::from_store(e, object)
        })?;
        Self::build_from_store(Arc::new(store), cfg)
    }

    /// Indexes the live objects of `store` under `cfg` (see
    /// [`ShardedDatabase::from_store`]): the build behind every
    /// constructor.
    ///
    /// # Errors
    /// [`DbError::Empty`] if the store holds no objects.
    pub(crate) fn build_from_store(
        store: Arc<InstanceStore>,
        cfg: ShardConfig,
    ) -> Result<Self, DbError> {
        if store.is_empty() {
            return Err(DbError::Empty);
        }
        let dim = store.dim();
        let (rows, mbrs): (Vec<usize>, Vec<Mbr>) =
            store.iter().map(|o| (o.id(), o.mbr().clone())).unzip();
        let groups = str_partition(&mbrs, cfg.shards);
        // ids[r] is the logical id of the object that lands in row r.
        let ids: Vec<usize> = groups.iter().flatten().copied().collect();
        let order: Vec<usize> = ids.iter().map(|&id| rows[id]).collect();
        let identity = order.iter().enumerate().all(|(r, &row)| r == row);
        let store = if identity {
            store
        } else {
            Arc::new(store.permuted(&order))
        };
        let mut slot = vec![None; ids.len()];
        // Build the local trees in row (STR) order, so the trees of the
        // objects in one global-tree leaf lie close together in memory,
        // then file them by id.
        let mut local = vec![None; ids.len()];
        for (row, &id) in ids.iter().enumerate() {
            slot[id] = Some(row);
            local[id] = Local::new(cfg.local_fanout, dim, store.object(row).coords());
        }
        let shards = groups
            .iter()
            .map(|group| {
                let entries: Vec<Entry<usize>> = group
                    .iter()
                    .map(|&id| Entry {
                        mbr: mbrs[id].clone(),
                        item: id,
                    })
                    .collect();
                RTree::bulk_load(cfg.global_fanout, entries)
            })
            .collect();
        Ok(ObjectIndex {
            store,
            local: ChunkedVec::from_fn(ids.len(), |id| local[id].take()),
            shards,
            slot: ChunkedVec::from_fn(ids.len(), |id| slot[id]),
            local_fanout: cfg.local_fanout,
            epochs: EpochLog::default(),
            layout: PhantomData,
        })
    }

    /// The permuted row holding live logical object `id`.
    ///
    /// # Panics
    /// Panics if `id` is tombstoned or out of range.
    pub fn row_of(&self, id: usize) -> usize {
        match self.row_of_checked(id) {
            Ok(row) => row,
            Err(e) => invalid(e),
        }
    }

    /// The permuted row holding live object `id`.
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is tombstoned or out of range.
    fn row_of_checked(&self, id: usize) -> Result<usize, DbError> {
        self.slot
            .get(id)
            .copied()
            .flatten()
            .ok_or(DbError::Dead { object: id })
    }

    /// Appends a new object, routing it to the shard whose tree MBR needs
    /// the least volume enlargement. Returns the new (logical) object id.
    ///
    /// # Panics
    /// Panics if the object's dimensionality differs from the database's.
    /// Use [`Self::try_insert_object`] for untrusted data.
    #[track_caller]
    pub fn insert_object(&mut self, object: UncertainObject) -> usize {
        match self.try_insert_object(object) {
            Ok(id) => id,
            Err(e) => invalid(e),
        }
    }

    /// Fallible variant of [`Self::insert_object`].
    ///
    /// The object takes a new store row; only the store's last chunk is
    /// copied, and existing readers keep the old snapshot unchanged. The
    /// new object's local tree is bulk-loaded at the configured local
    /// fan-out.
    ///
    /// # Errors
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch;
    /// [`DbError::CoordinateOutOfRange`] on a non-finite or out-of-range
    /// coordinate.
    pub fn try_insert_object(&mut self, object: UncertainObject) -> Result<usize, DbError> {
        let id = self.slot.len();
        let row =
            epoch::append(&mut self.store, &object).map_err(|e| DbError::from_store(e, id))?;
        let view = self.store.object(row);
        let mbr = view.mbr().clone();
        self.local
            .push(Local::new(self.local_fanout, view.dim(), view.coords()));
        self.slot.push(Some(row));
        let shard = self.choose_shard(&mbr);
        self.shards[shard].insert(mbr, id);
        self.epochs.record(Change::Inserted(id));
        Ok(id)
    }

    /// Deletes live object `id`: its store row is tombstoned (copying one
    /// chunk — pinned readers keep the old snapshot), the owning shard's
    /// tree entry is removed with condensation, and its id is tombstoned,
    /// never to be reused. No other id's row changes.
    ///
    /// # Panics
    /// Panics if `id` is not live or the delete would empty the database.
    /// Use [`Self::try_delete_object`] for untrusted input.
    #[track_caller]
    pub fn delete_object(&mut self, id: usize) {
        if let Err(e) = self.try_delete_object(id) {
            invalid(e)
        }
    }

    /// Fallible variant of [`Self::delete_object`].
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is tombstoned or out of range;
    /// [`DbError::Empty`] when the delete would leave no live objects.
    pub fn try_delete_object(&mut self, id: usize) -> Result<(), DbError> {
        let row = self.row_of_checked(id)?;
        if self.store.len() == 1 {
            return Err(DbError::Empty);
        }
        let mbr = self.store.object(row).mbr().clone();
        self.remove_from_shards(&mbr, id);
        epoch::remove(&mut self.store, row);
        self.local.set(id, None);
        self.slot.set(id, None);
        self.epochs.record(Change::Deleted(id));
        Ok(())
    }

    /// Replaces live object `id` in place (same logical id and row): its
    /// chunk of the snapshot is rebuilt (copy-on-write), its local tree
    /// rebuilt, and the global entry re-routed to the shard whose tree MBR
    /// needs the least enlargement — the same rule as insert.
    ///
    /// # Panics
    /// Panics if `id` is not live or dimensionalities mismatch. Use
    /// [`Self::try_update_object`] for untrusted input.
    #[track_caller]
    pub fn update_object(&mut self, id: usize, object: UncertainObject) {
        if let Err(e) = self.try_update_object(id, object) {
            invalid(e)
        }
    }

    /// Fallible variant of [`Self::update_object`].
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is tombstoned or out of range;
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch;
    /// [`DbError::CoordinateOutOfRange`] on a non-finite or out-of-range
    /// coordinate.
    pub fn try_update_object(&mut self, id: usize, object: UncertainObject) -> Result<(), DbError> {
        let row = self.row_of_checked(id)?;
        let old_mbr = self.store.object(row).mbr().clone();
        epoch::replace(&mut self.store, row, &object).map_err(|e| DbError::from_store(e, id))?;
        self.remove_from_shards(&old_mbr, id);
        let view = self.store.object(row);
        self.local
            .set(id, Local::new(self.local_fanout, view.dim(), view.coords()));
        let mbr = view.mbr().clone();
        let shard = self.choose_shard(&mbr);
        self.shards[shard].insert(mbr, id);
        self.epochs.record(Change::Updated(id));
        Ok(())
    }

    /// The local-tree entry of live object `id`.
    ///
    /// # Panics
    /// Panics if `id` is tombstoned or out of range.
    fn local_entry(&self, id: usize) -> &Local {
        match self.local.get(id).and_then(Option::as_deref) {
            Some(local) => local,
            None => invalid(DbError::Dead { object: id }),
        }
    }

    /// Removes live `id` from the one shard tree holding it, with
    /// condensation; the other trees stay untouched. `mbr` is the stored
    /// object's box, bit-equal to the box the entry was indexed under (an
    /// update reads it before replacing the row). `RTree::remove_item`
    /// searches by containment, so a tree that does not hold the entry is
    /// usually left at its root.
    fn remove_from_shards(&mut self, mbr: &Mbr, id: usize) {
        let removed = self
            .shards
            .iter_mut()
            .any(|tree| tree.remove_item(mbr, |&x| x == id).is_some());
        debug_assert!(removed, "live id {id} must be in some shard tree");
    }

    /// The shard whose tree MBR needs the least volume enlargement to
    /// admit `mbr` (ties: smaller current volume, then lower shard id).
    fn choose_shard(&self, mbr: &Mbr) -> usize {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, tree) in self.shards.iter().enumerate() {
            let key = match tree.mbr() {
                Some(current) => {
                    let grown = current.union(mbr).volume();
                    (grown - current.volume(), current.volume())
                }
                // An empty shard admits anything for free.
                None => (0.0, 0.0),
            };
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

impl<L> SpatialIndex for ObjectIndex<L> {
    fn len(&self) -> usize {
        self.slot.len()
    }

    fn epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    fn live_len(&self) -> usize {
        self.store.len()
    }

    fn is_live(&self, id: usize) -> bool {
        self.slot.get(id).copied().flatten().is_some()
    }

    fn changes_since(&self, since: u64) -> Option<Vec<Change>> {
        self.epochs.changes_since(since)
    }

    fn try_insert(&mut self, object: UncertainObject) -> Result<usize, DbError> {
        self.try_insert_object(object)
    }

    fn try_delete(&mut self, id: usize) -> Result<(), DbError> {
        self.try_delete_object(id)
    }

    fn try_update(&mut self, id: usize, object: UncertainObject) -> Result<(), DbError> {
        self.try_update_object(id, object)
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn store(&self) -> &Arc<InstanceStore> {
        &self.store
    }

    fn object(&self, id: usize) -> ObjectRef<'_> {
        self.store.object(self.row_of(id))
    }

    fn local_tree(&self, id: usize) -> &RTree<usize> {
        &self.local_entry(id).tree
    }

    fn quanta(&self, id: usize) -> Arc<Vec<u64>> {
        fill(&self.local_entry(id).quanta, || {
            Arc::new(quantize(self.object(id).probs()))
        })
    }

    fn level_snapshot(&self, id: usize) -> Arc<LevelSnapshot> {
        fill(&self.local_entry(id).levels, || {
            Arc::new(build_level_snapshot(self, id, &self.quanta(id)))
        })
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_tree(&self, shard: usize) -> &RTree<usize> {
        &self.shards[shard]
    }

    fn index_stats(&self) -> IndexStats {
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|tree| shard_stats_of(self, tree))
            .collect();
        IndexStats {
            objects: self.live_len(),
            instances: self.store.instance_count(),
            shards,
        }
    }
}

/// Computes the [`ShardStats`] of one shard's global tree over the objects
/// it indexes.
fn shard_stats_of<L>(db: &ObjectIndex<L>, tree: &RTree<usize>) -> ShardStats {
    let mut instances = 0;
    let mut approx_bytes = 0;
    for &id in tree.items() {
        let view = db.object(id);
        instances += view.len();
        approx_bytes += view.approx_bytes();
    }
    ShardStats {
        objects: tree.len(),
        instances,
        tree_nodes: tree.node_count(),
        tree_height: tree.height(),
        approx_bytes,
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::db::Database;
    use osd_geom::Point;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    fn grid(n: usize) -> Vec<UncertainObject> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 3.0;
                let y = (i / 10) as f64 * 3.0;
                obj(&[(x, y), (x + 1.0, y + 1.0)])
            })
            .collect()
    }

    /// The build-time layout: in shard order, each shard tree's ids occupy
    /// one contiguous run of rows, and the runs tile the store.
    fn assert_shard_major(db: &ShardedDatabase) {
        let mut lo = 0;
        for s in 0..db.shard_count() {
            let mut rows: Vec<usize> = db
                .shard_tree(s)
                .items()
                .into_iter()
                .map(|&id| db.row_of(id))
                .collect();
            rows.sort_unstable();
            assert_eq!(rows, (lo..lo + rows.len()).collect::<Vec<_>>(), "shard {s}");
            lo += rows.len();
        }
        assert_eq!(lo, db.live_len());
    }

    /// Every observable of an index: epoch, id-space sizes, the change
    /// log, the stats, each shard tree's entries (id and MBR bits, in tree
    /// order), and each live id's coordinate and probability bits and
    /// local-tree height.
    #[allow(clippy::type_complexity)]
    fn observables<L>(
        db: &ObjectIndex<L>,
    ) -> (
        (u64, usize, usize, Option<Vec<Change>>, IndexStats),
        Vec<Vec<(usize, Vec<u64>)>>,
        Vec<(usize, Vec<u64>, Vec<u64>, Option<usize>)>,
    ) {
        fn bits(xs: &[f64]) -> Vec<u64> {
            xs.iter().map(|x| x.to_bits()).collect()
        }
        fn walk(node: &osd_rtree::Node<usize>, out: &mut Vec<(usize, Vec<u64>)>) {
            match node {
                osd_rtree::Node::Leaf(es) => out.extend(
                    es.iter()
                        .map(|e| (e.item, [bits(e.mbr.lo()), bits(e.mbr.hi())].concat())),
                ),
                osd_rtree::Node::Inner(cs) => cs.iter().for_each(|c| walk(&c.node, out)),
            }
        }
        let trees = (0..db.shard_count())
            .map(|s| {
                let mut entries = Vec::new();
                if let Some(root) = db.shard_tree(s).root() {
                    walk(root, &mut entries);
                }
                entries
            })
            .collect();
        let objects = (0..db.len())
            .filter(|&id| db.is_live(id))
            .map(|id| {
                let o = db.object(id);
                let height = db.local_tree(id).height();
                (id, bits(o.coords()), bits(o.probs()), height)
            })
            .collect();
        let header = (
            db.epoch(),
            db.len(),
            db.live_len(),
            db.changes_since(0),
            db.index_stats(),
        );
        (header, trees, objects)
    }

    /// The flat constructors build the one-shard index, and the same
    /// mutation script keeps the two equal after every step.
    #[test]
    fn flat_constructors_build_the_one_shard_index() {
        let store = Arc::new(InstanceStore::from_objects(&grid(30)).unwrap());
        let mut flat = crate::FlatDatabase::from_store(Arc::clone(&store), 32, 4).unwrap();
        let cfg = ShardConfig {
            shards: 1,
            global_fanout: 32,
            local_fanout: 4,
        };
        let mut sharded = ShardedDatabase::from_store(store, cfg).unwrap();
        assert_eq!(observables(&flat), observables(&sharded), "built");
        // Five instances: local trees of fan-out 4 get a second level.
        fn wide(x: f64) -> UncertainObject {
            obj(&[
                (x, x),
                (x + 0.5, x),
                (x, x + 0.5),
                (x + 0.5, x + 0.5),
                (x, 0.0),
            ])
        }
        type Step = fn(&mut dyn SpatialIndex) -> Result<(), DbError>;
        let script: [(&str, Step); 7] = [
            ("insert", |db| db.try_insert(wide(40.0)).map(drop)),
            ("insert", |db| db.try_insert(obj(&[(-5.0, 1.0)])).map(drop)),
            ("update", |db| db.try_update(3, wide(12.0))),
            ("delete", |db| db.try_delete(7)),
            ("update an insert", |db| {
                db.try_update(30, obj(&[(2.0, 2.0)]))
            }),
            ("delete an insert", |db| db.try_delete(31)),
            ("delete dead", |db| db.try_delete(7)),
        ];
        for (step, run) in script {
            let a = run(&mut flat);
            let b = run(&mut sharded);
            assert_eq!(a, b, "{step}");
            assert_eq!(a.is_err(), step == "delete dead", "{step}");
            assert_eq!(observables(&flat), observables(&sharded), "{step}");
        }
    }

    #[test]
    fn one_shard_reuses_the_flat_snapshot_arc() {
        let flat = Database::new(grid(25));
        let sharded =
            ShardedDatabase::from_store(Arc::clone(flat.store()), ShardConfig::with_shards(1))
                .unwrap();
        // Identity permutation: the snapshot is shared, not copied.
        assert!(Arc::ptr_eq(sharded.store(), flat.store()));
        assert_eq!(sharded.shard_count(), 1);
        assert_shard_major(&sharded);
        for id in 0..25 {
            assert_eq!(sharded.row_of(id), id);
        }
    }

    #[test]
    fn sharding_permutes_but_preserves_logical_objects() {
        let objects = grid(40);
        let flat = Database::new(objects.clone());
        let sharded = ShardedDatabase::new(objects, 4);
        assert!(sharded.shard_count() >= 4);
        assert_eq!(sharded.len(), 40);
        // Every logical id resolves to bit-identical instance data.
        for id in 0..40 {
            let a = flat.object(id);
            let b = sharded.object(id);
            assert_eq!(a.coords(), b.coords(), "object {id}");
            assert_eq!(a.probs(), b.probs(), "object {id}");
            assert_eq!(a.mbr(), b.mbr(), "object {id}");
        }
        // Shard trees partition the logical id space.
        let mut seen: Vec<usize> = (0..sharded.shard_count())
            .flat_map(|s| sharded.shard_tree(s).items().into_iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        // Each shard owns one contiguous run of the permuted store.
        assert_shard_major(&sharded);
    }

    #[test]
    fn more_shards_than_objects_yields_singletons() {
        let sharded = ShardedDatabase::new(grid(3), 64);
        assert_eq!(sharded.shard_count(), 3);
        for s in 0..3 {
            assert_eq!(sharded.shard_tree(s).len(), 1);
        }
        let stats = sharded.index_stats();
        assert_eq!(stats.objects, 3);
        assert_eq!(stats.instances, 6);
        assert_eq!(stats.shards.len(), 3);
        assert!(stats.shards.iter().all(|s| s.objects == 1));
    }

    #[test]
    fn coincident_objects_still_partition_cleanly() {
        // All objects in one tile position: STR still cuts the run into
        // groups (by sort order), and every id must survive the round trip.
        let objects: Vec<_> = (0..12).map(|_| obj(&[(5.0, 5.0), (5.5, 5.5)])).collect();
        let sharded = ShardedDatabase::new(objects, 3);
        let mut seen: Vec<usize> = (0..sharded.shard_count())
            .flat_map(|s| sharded.shard_tree(s).items().into_iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        for id in 0..12 {
            assert_eq!(sharded.object(id).row(0), &[5.0, 5.0]);
        }
    }

    #[test]
    fn insert_after_sharding_extends_one_shard() {
        let mut sharded = ShardedDatabase::new(grid(20), 4);
        let before: usize = (0..sharded.shard_count())
            .map(|s| sharded.shard_tree(s).len())
            .sum();
        let id = sharded.insert_object(obj(&[(2.0, 2.0), (2.5, 2.5)]));
        assert_eq!(id, 20);
        assert_eq!(sharded.len(), 21);
        assert_eq!(sharded.object(20).row(0), &[2.0, 2.0]);
        let after: usize = (0..sharded.shard_count())
            .map(|s| sharded.shard_tree(s).len())
            .sum();
        assert_eq!(after, before + 1);
        // The local tree exists and serves NN queries.
        let q = Point::new(vec![2.1, 2.1]);
        assert!(sharded.local_tree(20).nearest(&q).is_some());
    }

    #[test]
    fn insert_is_copy_on_write_for_shared_snapshots() {
        let mut sharded = ShardedDatabase::new(grid(8), 2);
        let before = Arc::clone(sharded.store());
        sharded.insert_object(obj(&[(50.0, 50.0)]));
        assert_eq!(before.len(), 8);
        assert_eq!(sharded.store().len(), 9);
        assert!(!Arc::ptr_eq(sharded.store(), &before));
    }

    #[test]
    fn insert_wrong_dim_reports_would_be_id() {
        let mut sharded = ShardedDatabase::new(grid(4), 2);
        let e = sharded
            .try_insert_object(UncertainObject::uniform(vec![Point::new(vec![1.0])]))
            .unwrap_err();
        assert_eq!(
            e,
            DbError::DimensionMismatch {
                object: 4,
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn empty_and_mixed_inputs_are_rejected() {
        assert_eq!(
            ShardedDatabase::try_new(vec![], 4).unwrap_err(),
            DbError::Empty
        );
        let mixed = vec![
            obj(&[(0.0, 0.0)]),
            UncertainObject::uniform(vec![Point::new(vec![1.0])]),
        ];
        assert_eq!(
            ShardedDatabase::try_new(mixed, 4).unwrap_err(),
            DbError::DimensionMismatch {
                object: 1,
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn delete_condenses_the_owning_shard() {
        let mut sharded = ShardedDatabase::new(grid(24), 4);
        assert_shard_major(&sharded);
        let before_live = sharded.live_len();
        sharded.delete_object(7);
        assert_eq!(sharded.len(), 24);
        assert_eq!(sharded.live_len(), before_live - 1);
        assert!(!sharded.is_live(7));
        sharded.store().validate().unwrap();
        // Shard trees partition the surviving id space.
        let mut seen: Vec<usize> = (0..sharded.shard_count())
            .flat_map(|s| sharded.shard_tree(s).items().into_iter().copied())
            .collect();
        seen.sort_unstable();
        let want: Vec<usize> = (0..24).filter(|&i| i != 7).collect();
        assert_eq!(seen, want);
        // Every survivor resolves to its original bits.
        for id in want {
            let x = (id % 10) as f64 * 3.0;
            let y = (id / 10) as f64 * 3.0;
            assert_eq!(sharded.object(id).row(0), &[x, y], "object {id}");
        }
    }

    #[test]
    fn update_reroutes_to_the_best_shard() {
        let mut sharded = ShardedDatabase::new(grid(20), 4);
        // Move object 3 across the plane; it should leave its old shard
        // tree and appear in exactly one tree under the same id.
        sharded.update_object(3, obj(&[(27.0, 27.0), (27.5, 27.5)]));
        assert_eq!(sharded.len(), 20);
        assert_eq!(sharded.live_len(), 20);
        sharded.store().validate().unwrap();
        assert_eq!(sharded.object(3).row(0), &[27.0, 27.0]);
        let holders: Vec<usize> = (0..sharded.shard_count())
            .filter(|&s| sharded.shard_tree(s).items().into_iter().any(|&i| i == 3))
            .collect();
        assert_eq!(holders.len(), 1);
        // The full id set is still partitioned across the trees.
        let total: usize = (0..sharded.shard_count())
            .map(|s| sharded.shard_tree(s).len())
            .sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn interleaved_mutations_keep_epoch_log_consistent() {
        let mut sharded = ShardedDatabase::new(grid(9), 3);
        assert_shard_major(&sharded);
        sharded.delete_object(2);
        let id = sharded.insert_object(obj(&[(40.0, 40.0)]));
        assert_eq!(id, 9, "tombstoned ids are never reused");
        sharded.update_object(id, obj(&[(41.0, 41.0)]));
        assert_eq!(sharded.epoch(), 3);
        assert_eq!(
            sharded.changes_since(0),
            Some(vec![
                Change::Deleted(2),
                Change::Inserted(9),
                Change::Updated(9)
            ])
        );
        assert_eq!(
            sharded.try_delete_object(2).unwrap_err(),
            DbError::Dead { object: 2 }
        );
        // Deleting a tail insert leaves every bulk-built row in place.
        let bulk: Vec<usize> = (0..9).filter(|&i| i != 2).collect();
        let rows: Vec<usize> = bulk.iter().map(|&i| sharded.row_of(i)).collect();
        sharded.delete_object(9);
        let after: Vec<usize> = bulk.iter().map(|&i| sharded.row_of(i)).collect();
        assert_eq!(rows, after);
        sharded.store().validate().unwrap();
    }

    #[test]
    fn from_store_indexes_the_live_objects_of_a_store_with_tombstones() {
        let objects = grid(12);
        let mut db = ShardedDatabase::new(objects.clone(), 1);
        db.delete_object(4);
        let rebuilt =
            ShardedDatabase::from_store(Arc::clone(db.store()), ShardConfig::with_shards(3))
                .unwrap();
        rebuilt.store().validate().unwrap();
        assert_eq!((rebuilt.len(), rebuilt.live_len()), (11, 11));
        // Logical id k is the k-th live object, in row order.
        let live: Vec<&UncertainObject> =
            (0..12).filter(|&i| i != 4).map(|i| &objects[i]).collect();
        for (id, o) in live.into_iter().enumerate() {
            assert_eq!(rebuilt.object(id).row(0), o.instances()[0].point.coords());
        }
    }

    #[test]
    fn index_stats_cover_all_shards() {
        let sharded = ShardedDatabase::new(grid(30), 3);
        let stats = sharded.index_stats();
        assert_eq!(stats.objects, 30);
        assert_eq!(stats.instances, 60);
        assert_eq!(stats.shards.len(), sharded.shard_count());
        assert_eq!(stats.shards.iter().map(|s| s.objects).sum::<usize>(), 30);
        assert_eq!(stats.shards.iter().map(|s| s.instances).sum::<usize>(), 60);
        let whole = sharded.store().approx_bytes();
        let summed: usize = stats.shards.iter().map(|s| s.approx_bytes).sum();
        assert_eq!(summed, whole);
    }
}
