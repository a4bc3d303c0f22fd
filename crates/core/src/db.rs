//! The object database: `n + 1` R-trees as in §6, over a columnar store.
//!
//! A global R-tree organises the objects' MBRs (driving the best-first NNC
//! search of Algorithm 1); each object keeps a small local R-tree over its
//! instances (fan-out 4 in the paper), supplying nearest/furthest-neighbour
//! primitives and the node partitions of the level-by-level techniques.
//!
//! Instance data lives in one flat [`InstanceStore`] snapshot behind an
//! `Arc`: the database is a thin index over it, [`Database::object`] hands
//! out zero-copy [`ObjectRef`] views, and cloning the snapshot for another
//! reader (or another thread) is a reference-count bump, never a copy of
//! the coordinates.

use crate::index::{shard_stats_of, IndexStats, SpatialIndex};
use crate::local::LocalTrees;
use osd_rtree::{Entry, RTree};
use osd_uncertain::{epoch, Change, EpochLog, InstanceStore, ObjectRef, UncertainObject};
use std::sync::Arc;

// `DbError` lives with the `SpatialIndex` trait (whose default mutators
// return it) and is re-exported here, its historical home.
pub use crate::index::DbError;

/// Default fan-out of the global R-tree.
pub const DEFAULT_GLOBAL_FANOUT: usize = 32;
/// Fan-out of the per-object local R-trees (matches the paper's setting).
pub const DEFAULT_LOCAL_FANOUT: usize = 4;

/// A set of multi-instance objects indexed for NN-candidate search with
/// **one** global R-tree — the flat (unsharded) [`SpatialIndex`] layout.
///
/// Instance data is held in an `Arc<InstanceStore>` snapshot; the database
/// itself only owns the index structures. For the space-partitioned
/// alternative see [`ShardedDatabase`](crate::ShardedDatabase).
///
/// Mutations go through the epoch seam (`uncertain::epoch`): every
/// insert/delete/update builds the next snapshot copy-on-write and bumps
/// the epoch. Ids are logical and never reused — a delete compacts the
/// object's rows out of the columns (later rows shift down by one) and
/// leaves a tombstone in the id space, so `len()` (id-space size) and
/// `live_len()` (row count) diverge after the first delete.
#[derive(Debug, Clone)]
pub struct FlatDatabase {
    store: Arc<InstanceStore>,
    /// Local instance trees, by logical id.
    local: LocalTrees,
    /// Global object-MBR tree; payloads are logical ids, live entries only.
    global: RTree<usize>,
    /// Logical id → store row (`None` = tombstone).
    slot: Vec<Option<usize>>,
    /// Store row → logical id.
    ext: Vec<usize>,
    /// Fan-out for local trees rebuilt on update.
    local_fanout: usize,
    /// Published-mutation log; its length is the snapshot epoch.
    epochs: EpochLog,
}

/// The historical name of [`FlatDatabase`] — the default database layout.
pub type Database = FlatDatabase;

impl FlatDatabase {
    /// Indexes `objects` with default fan-outs.
    ///
    /// A thin panicking front over [`Database::try_new`] for trusted,
    /// programmatic data; `#[track_caller]` points the panic at the caller.
    ///
    /// # Panics
    /// Panics if `objects` is empty or dimensionalities are inconsistent.
    /// Use [`Database::try_new`] for untrusted data.
    #[track_caller]
    pub fn new(objects: Vec<UncertainObject>) -> Self {
        match Self::try_new(objects) {
            Ok(db) => db,
            Err(e) => Self::invalid(e),
        }
    }

    /// Fallible variant of [`Database::new`] for untrusted input.
    ///
    /// # Errors
    /// Returns a [`DbError`] describing the first violated invariant.
    pub fn try_new(objects: Vec<UncertainObject>) -> Result<Self, DbError> {
        Self::try_with_fanouts(objects, DEFAULT_GLOBAL_FANOUT, DEFAULT_LOCAL_FANOUT)
    }

    /// Indexes `objects` with explicit global/local R-tree fan-outs.
    ///
    /// A thin panicking front over [`Database::try_with_fanouts`];
    /// `#[track_caller]` points the panic at the caller.
    ///
    /// # Panics
    /// Panics if `objects` is empty or dimensionalities are inconsistent.
    /// Use [`Database::try_with_fanouts`] for untrusted data.
    #[track_caller]
    pub fn with_fanouts(
        objects: Vec<UncertainObject>,
        global_fanout: usize,
        local_fanout: usize,
    ) -> Self {
        match Self::try_with_fanouts(objects, global_fanout, local_fanout) {
            Ok(db) => db,
            Err(e) => Self::invalid(e),
        }
    }

    /// Fallible variant of [`Database::with_fanouts`].
    ///
    /// # Errors
    /// Returns a [`DbError`] describing the first violated invariant.
    pub fn try_with_fanouts(
        objects: Vec<UncertainObject>,
        global_fanout: usize,
        local_fanout: usize,
    ) -> Result<Self, DbError> {
        if objects.is_empty() {
            return Err(DbError::Empty);
        }
        let store = InstanceStore::from_objects(&objects).map_err(|e| {
            // The store reports the mismatch; find which input tripped it.
            let object = objects
                .iter()
                .position(|o| o.dim() != objects[0].dim())
                .unwrap_or(0);
            DbError::from_store(e, object)
        })?;
        Self::from_store(Arc::new(store), global_fanout, local_fanout)
    }

    /// Indexes an existing columnar snapshot directly — no instance data is
    /// copied; the database shares the allocation with every other holder
    /// of the `Arc`.
    ///
    /// # Errors
    /// [`DbError::Empty`] if the store holds no objects.
    pub fn from_store(
        store: Arc<InstanceStore>,
        global_fanout: usize,
        local_fanout: usize,
    ) -> Result<Self, DbError> {
        if store.is_empty() {
            return Err(DbError::Empty);
        }
        let dim = store.dim();
        let local = LocalTrees::new(
            store
                .iter()
                .map(|o| RTree::bulk_load_rows(local_fanout, dim, o.coords())),
        );
        let global_entries: Vec<Entry<usize>> = store
            .iter()
            .enumerate()
            .map(|(id, o)| Entry {
                mbr: o.mbr().clone(),
                item: id,
            })
            .collect();
        let global = RTree::bulk_load(global_fanout, global_entries);
        let n = store.len();
        Ok(FlatDatabase {
            store,
            local,
            global,
            slot: (0..n).map(Some).collect(),
            ext: (0..n).collect(),
            local_fanout,
            epochs: EpochLog::default(),
        })
    }

    /// The store row holding live object `id`.
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is tombstoned or out of range.
    fn row_of(&self, id: usize) -> Result<usize, DbError> {
        self.slot
            .get(id)
            .copied()
            .flatten()
            .ok_or(DbError::Dead { object: id })
    }

    /// Aborts a panicking constructor with the invariant violation `e`.
    ///
    /// The panicking constructors stay the ergonomic path for trusted,
    /// programmatic data; the `try_*` variants are the fallible path. This
    /// is the single place this crate's `clippy::panic` policy is waived to
    /// honour that contract (mirroring `UncertainObject`).
    #[cold]
    #[track_caller]
    #[allow(clippy::panic)]
    pub(crate) fn invalid(e: DbError) -> ! {
        panic!("{e}")
    }

    /// Size of the logical id space (live objects + tombstones).
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Never true: databases are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dimensionality of the instance space.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// The columnar instance snapshot this database indexes. Cloning the
    /// `Arc` shares the allocation with zero copies.
    pub fn store(&self) -> &Arc<InstanceStore> {
        &self.store
    }

    /// Zero-copy view of live object `id`.
    ///
    /// # Panics
    /// Panics if `id` is tombstoned or out of range.
    pub fn object(&self, id: usize) -> ObjectRef<'_> {
        match self.row_of(id) {
            Ok(row) => self.store.object(row),
            Err(e) => Self::invalid(e),
        }
    }

    /// Local R-tree over the instances of live object `id` (payload =
    /// instance index).
    ///
    /// # Panics
    /// Panics if `id` is tombstoned or out of range.
    pub fn local_tree(&self, id: usize) -> &RTree<usize> {
        match self.local.get(id) {
            Some(tree) => tree,
            None => Self::invalid(DbError::Dead { object: id }),
        }
    }

    /// The global R-tree over object MBRs (payload = object id).
    pub fn global_tree(&self) -> &RTree<usize> {
        &self.global
    }

    /// Appends a new object, indexing it incrementally (local R-tree built
    /// by bulk load, global R-tree by insertion). Returns the new object id.
    ///
    /// # Panics
    /// Panics if the object's dimensionality differs from the database's.
    /// Use [`Database::try_insert_object`] for untrusted data.
    #[track_caller]
    pub fn insert_object(&mut self, object: UncertainObject) -> usize {
        self.insert_object_with_fanout(object, DEFAULT_LOCAL_FANOUT)
    }

    /// As [`Database::insert_object`] with an explicit local fan-out.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    #[track_caller]
    pub fn insert_object_with_fanout(
        &mut self,
        object: UncertainObject,
        local_fanout: usize,
    ) -> usize {
        match self.try_insert_object_with_fanout(object, local_fanout) {
            Ok(id) => id,
            Err(e) => Self::invalid(e),
        }
    }

    /// Fallible variant of [`Database::insert_object`].
    ///
    /// # Errors
    /// [`DbError::DimensionMismatch`] if the object's dimensionality
    /// differs from the database's.
    pub fn try_insert_object(&mut self, object: UncertainObject) -> Result<usize, DbError> {
        self.try_insert_object_with_fanout(object, DEFAULT_LOCAL_FANOUT)
    }

    /// Fallible variant of [`Database::insert_object_with_fanout`].
    ///
    /// If the snapshot is currently shared (other `Arc` holders exist), the
    /// columns are cloned once before the append — copy-on-write; existing
    /// readers keep the old snapshot unchanged.
    ///
    /// # Errors
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch.
    pub fn try_insert_object_with_fanout(
        &mut self,
        object: UncertainObject,
        local_fanout: usize,
    ) -> Result<usize, DbError> {
        let id = self.slot.len();
        let row =
            epoch::append(&mut self.store, &object).map_err(|e| DbError::from_store(e, id))?;
        debug_assert_eq!(row, self.ext.len(), "appends land at the store tail");
        let view = self.store.object(row);
        self.local.push(RTree::bulk_load_rows(
            local_fanout,
            view.dim(),
            view.coords(),
        ));
        self.global.insert(view.mbr().clone(), id);
        self.slot.push(Some(row));
        self.ext.push(id);
        self.epochs.record(Change::Inserted(id));
        Ok(id)
    }

    /// Deletes live object `id`: its rows are compacted out of the
    /// columnar snapshot (copy-on-write — pinned readers keep the old
    /// snapshot), its global-tree entry is removed with condensation, and
    /// its id is tombstoned, never to be reused.
    ///
    /// # Panics
    /// Panics if `id` is not live or the delete would empty the database.
    /// Use [`Database::try_delete_object`] for untrusted input.
    #[track_caller]
    pub fn delete_object(&mut self, id: usize) {
        if let Err(e) = self.try_delete_object(id) {
            Self::invalid(e)
        }
    }

    /// Fallible variant of [`Database::delete_object`].
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is tombstoned or out of range;
    /// [`DbError::Empty`] when the delete would leave no live objects.
    pub fn try_delete_object(&mut self, id: usize) -> Result<(), DbError> {
        let row = self.row_of(id)?;
        if self.store.len() == 1 {
            return Err(DbError::Empty);
        }
        let mbr = self.store.object(row).mbr().clone();
        let removed = self.global.remove_item(&mbr, |&x| x == id);
        debug_assert!(removed.is_some(), "live id {id} must be in the global tree");
        epoch::remove(&mut self.store, row);
        self.local.set(id, None);
        self.ext.remove(row);
        self.slot[id] = None;
        for s in self.slot.iter_mut().flatten() {
            if *s > row {
                *s -= 1;
            }
        }
        self.epochs.record(Change::Deleted(id));
        Ok(())
    }

    /// Replaces live object `id` in place (same logical id): the rows are
    /// respliced in the snapshot (copy-on-write), the local tree rebuilt,
    /// and the global-tree entry removed with condensation and
    /// re-inserted under the new MBR.
    ///
    /// # Panics
    /// Panics if `id` is not live or dimensionalities mismatch. Use
    /// [`Database::try_update_object`] for untrusted input.
    #[track_caller]
    pub fn update_object(&mut self, id: usize, object: UncertainObject) {
        if let Err(e) = self.try_update_object(id, object) {
            Self::invalid(e)
        }
    }

    /// Fallible variant of [`Database::update_object`].
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is tombstoned or out of range;
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch.
    pub fn try_update_object(&mut self, id: usize, object: UncertainObject) -> Result<(), DbError> {
        let row = self.row_of(id)?;
        let old_mbr = self.store.object(row).mbr().clone();
        epoch::replace(&mut self.store, row, &object).map_err(|e| DbError::from_store(e, id))?;
        let removed = self.global.remove_item(&old_mbr, |&x| x == id);
        debug_assert!(removed.is_some(), "live id {id} must be in the global tree");
        let view = self.store.object(row);
        self.local.set(
            id,
            Some(RTree::bulk_load_rows(
                self.local_fanout,
                view.dim(),
                view.coords(),
            )),
        );
        self.global.insert(view.mbr().clone(), id);
        self.epochs.record(Change::Updated(id));
        Ok(())
    }
}

impl SpatialIndex for FlatDatabase {
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
        FlatDatabase::object(self, id)
    }

    fn local_tree(&self, id: usize) -> &RTree<usize> {
        FlatDatabase::local_tree(self, id)
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn shard_tree(&self, shard: usize) -> &RTree<usize> {
        assert_eq!(shard, 0, "a flat database has exactly one shard");
        &self.global
    }

    fn index_stats(&self) -> IndexStats {
        let stats = shard_stats_of(self, &self.global);
        IndexStats {
            objects: stats.objects,
            instances: stats.instances,
            shards: vec![stats],
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use osd_geom::{Mbr, Point};

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    #[test]
    fn builds_all_trees() {
        let objs = vec![
            obj(&[(0.0, 0.0), (1.0, 1.0)]),
            obj(&[(5.0, 5.0), (6.0, 6.0), (7.0, 5.0)]),
        ];
        let db = Database::new(objs);
        assert_eq!(db.len(), 2);
        assert_eq!(db.dim(), 2);
        assert_eq!(db.local_tree(0).len(), 2);
        assert_eq!(db.local_tree(1).len(), 3);
        assert_eq!(db.global_tree().len(), 2);
    }

    #[test]
    fn local_tree_supports_nn_and_fn() {
        let db = Database::new(vec![obj(&[(0.0, 0.0), (4.0, 0.0), (9.0, 0.0)])]);
        let q = Point::new(vec![3.0, 0.0]);
        let (idx, d) = db.local_tree(0).nearest(&q).unwrap();
        assert_eq!(*idx, 1);
        assert_eq!(d, 1.0);
        let (idx, d) = db.local_tree(0).furthest(&q).unwrap();
        assert_eq!(*idx, 2);
        assert_eq!(d, 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_rejected() {
        let _ = Database::new(vec![]);
    }

    #[test]
    fn try_new_reports_structured_errors() {
        assert_eq!(Database::try_new(vec![]).unwrap_err(), DbError::Empty);
        let mixed = vec![
            obj(&[(0.0, 0.0)]),
            UncertainObject::uniform(vec![Point::new(vec![1.0])]),
        ];
        assert_eq!(
            Database::try_new(mixed).unwrap_err(),
            DbError::DimensionMismatch {
                object: 1,
                expected: 2,
                found: 1
            }
        );
        assert!(Database::try_new(vec![obj(&[(0.0, 0.0)])]).is_ok());
    }

    #[test]
    fn db_error_display_matches_panic_contract() {
        assert!(format!("{}", DbError::Empty).contains("at least one object"));
        let e = DbError::DimensionMismatch {
            object: 7,
            expected: 2,
            found: 3,
        };
        let msg = format!("{e}");
        assert!(msg.contains("dimensionality must match"));
        assert!(msg.contains("object 7"), "{msg}");
    }

    #[test]
    fn object_views_share_the_snapshot() {
        let db = Database::new(vec![
            obj(&[(0.0, 0.0), (1.0, 1.0)]),
            obj(&[(5.0, 5.0), (6.0, 6.0)]),
        ]);
        let snapshot = Arc::clone(db.store());
        // Views index the same allocation as the snapshot clone.
        let base = snapshot.coords().as_ptr();
        assert!(std::ptr::eq(base, db.object(0).coords().as_ptr()));
        assert_eq!(db.object(1).len(), 2);
        assert_eq!(db.object(1).row(1), &[6.0, 6.0]);
    }

    #[test]
    fn from_store_reuses_the_allocation() {
        let store =
            Arc::new(InstanceStore::from_objects(&[obj(&[(0.0, 0.0), (1.0, 1.0)])]).unwrap());
        let db = Database::from_store(Arc::clone(&store), 8, 4).unwrap();
        assert!(Arc::ptr_eq(db.store(), &store));
        assert_eq!(db.local_tree(0).len(), 2);
    }

    #[test]
    fn insert_object_extends_all_indexes() {
        let mut db = Database::new(vec![obj(&[(0.0, 0.0), (1.0, 1.0)])]);
        let id = db.insert_object(obj(&[(5.0, 5.0), (6.0, 6.0), (7.0, 5.0)]));
        assert_eq!(id, 1);
        assert_eq!(db.len(), 2);
        assert_eq!(db.local_tree(1).len(), 3);
        assert_eq!(db.global_tree().len(), 2);
        // The global tree can find the new object by proximity.
        let hits = db
            .global_tree()
            .range_intersecting(&Mbr::new(vec![4.0, 4.0], vec![8.0, 8.0]));
        assert!(hits.into_iter().any(|&h| h == 1));
    }

    #[test]
    fn insert_is_copy_on_write_for_shared_snapshots() {
        let mut db = Database::new(vec![obj(&[(0.0, 0.0), (1.0, 1.0)])]);
        let before = Arc::clone(db.store());
        db.insert_object(obj(&[(5.0, 5.0)]));
        // The old snapshot is untouched; the database now owns a new one.
        assert_eq!(before.len(), 1);
        assert_eq!(db.store().len(), 2);
        assert!(!Arc::ptr_eq(db.store(), &before));
    }

    #[test]
    #[should_panic(expected = "dimensionality must match")]
    fn insert_wrong_dim_rejected() {
        let mut db = Database::new(vec![obj(&[(0.0, 0.0)])]);
        db.insert_object(UncertainObject::uniform(vec![Point::new(vec![
            1.0, 2.0, 3.0,
        ])]));
    }

    #[test]
    fn delete_compacts_rows_and_tombstones_the_id() {
        let mut db = Database::new(vec![
            obj(&[(0.0, 0.0), (1.0, 1.0)]),
            obj(&[(5.0, 5.0)]),
            obj(&[(9.0, 9.0), (9.5, 9.0)]),
        ]);
        db.delete_object(1);
        // Id space keeps the tombstone; the row space compacts.
        assert_eq!(db.len(), 3);
        assert_eq!(db.live_len(), 2);
        assert_eq!(db.tombstone_count(), 1);
        assert!(db.is_live(0) && !db.is_live(1) && db.is_live(2));
        db.store().validate().unwrap();
        // Survivors are addressable under their old ids, bits unchanged.
        assert_eq!(db.object(0).row(1), &[1.0, 1.0]);
        assert_eq!(db.object(2).row(0), &[9.0, 9.0]);
        assert_eq!(db.local_tree(2).len(), 2);
        // The global tree no longer serves the deleted id.
        assert_eq!(db.global_tree().len(), 2);
        let hits = db
            .global_tree()
            .range_intersecting(&Mbr::new(vec![4.0, 4.0], vec![6.0, 6.0]));
        assert!(hits.is_empty());
        // Ids are never reused: the next insert gets a fresh id.
        let id = db.insert_object(obj(&[(3.0, 3.0)]));
        assert_eq!(id, 3);
        assert!(!db.is_live(1));
    }

    #[test]
    fn update_reroutes_the_global_entry() {
        let mut db = Database::new(vec![obj(&[(0.0, 0.0), (1.0, 1.0)]), obj(&[(5.0, 5.0)])]);
        db.update_object(0, obj(&[(20.0, 20.0), (21.0, 21.0), (22.0, 20.0)]));
        assert_eq!(db.len(), 2);
        assert_eq!(db.live_len(), 2);
        db.store().validate().unwrap();
        assert_eq!(db.object(0).len(), 3);
        assert_eq!(db.object(0).row(0), &[20.0, 20.0]);
        assert_eq!(db.local_tree(0).len(), 3);
        // Neighbour bits untouched.
        assert_eq!(db.object(1).row(0), &[5.0, 5.0]);
        // The global tree serves the new MBR, not the old one.
        let hits = db
            .global_tree()
            .range_intersecting(&Mbr::new(vec![19.0, 19.0], vec![23.0, 23.0]));
        assert!(hits.into_iter().any(|&h| h == 0));
        let old = db
            .global_tree()
            .range_intersecting(&Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]));
        assert!(old.is_empty());
    }

    #[test]
    fn delete_refuses_dead_ids_and_emptying() {
        let mut db = Database::new(vec![obj(&[(0.0, 0.0)]), obj(&[(5.0, 5.0)])]);
        assert_eq!(
            db.try_delete_object(7).unwrap_err(),
            DbError::Dead { object: 7 }
        );
        db.delete_object(0);
        assert_eq!(
            db.try_delete_object(0).unwrap_err(),
            DbError::Dead { object: 0 }
        );
        assert_eq!(
            db.try_update_object(0, obj(&[(1.0, 1.0)])).unwrap_err(),
            DbError::Dead { object: 0 }
        );
        // The last live object cannot be deleted.
        assert_eq!(db.try_delete_object(1).unwrap_err(), DbError::Empty);
        assert_eq!(db.live_len(), 1);
    }

    #[test]
    fn mutations_bump_the_epoch_and_log_changes() {
        let mut db = Database::new(vec![obj(&[(0.0, 0.0)]), obj(&[(5.0, 5.0)])]);
        assert_eq!(db.epoch(), 0);
        let id = db.insert_object(obj(&[(9.0, 9.0)]));
        db.update_object(id, obj(&[(8.0, 8.0)]));
        db.delete_object(0);
        assert_eq!(db.epoch(), 3);
        assert_eq!(
            db.changes_since(0),
            Some(vec![
                Change::Inserted(2),
                Change::Updated(2),
                Change::Deleted(0)
            ])
        );
        assert_eq!(db.changes_since(3), Some(vec![]));
        assert_eq!(db.changes_since(9), None);
        // Failed mutations publish nothing.
        assert!(db.try_delete_object(0).is_err());
        assert_eq!(db.epoch(), 3);
    }

    #[test]
    fn delete_is_copy_on_write_for_shared_snapshots() {
        let mut db = Database::new(vec![obj(&[(0.0, 0.0)]), obj(&[(5.0, 5.0)])]);
        let pinned = Arc::clone(db.store());
        db.delete_object(0);
        // Pinned readers keep the pre-delete snapshot bit-for-bit.
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned.object(0).row(0), &[0.0, 0.0]);
        assert_eq!(db.store().len(), 1);
        assert!(!Arc::ptr_eq(db.store(), &pinned));
    }
}
