//! The flat object database: §6's `n + 1` R-trees — one global R-tree
//! over the object MBRs (driving Algorithm 1's best-first search) plus one
//! local R-tree per object (fan-out 4 in the paper) — over a columnar
//! [`InstanceStore`] snapshot shared behind an `Arc`.
//!
//! That is exactly a one-tile STR partition, so [`FlatDatabase`] is a
//! stateless front over a one-shard [`ShardedDatabase`], the single index
//! implementation: its constructors build `ShardConfig { shards: 1, .. }`
//! and every other method forwards.

use crate::cache::LevelSnapshot;
use crate::index::{IndexStats, SpatialIndex};
use crate::sharded::{invalid, ShardConfig, ShardedDatabase};
use osd_rtree::RTree;
use osd_uncertain::{Change, InstanceStore, ObjectRef, UncertainObject};
use std::sync::Arc;

// `DbError` lives with the `SpatialIndex` trait (whose default mutators
// return it) and is re-exported here, its historical home; so are the
// default fan-outs, which live with the index implementation.
pub use crate::index::DbError;
pub use crate::sharded::{DEFAULT_GLOBAL_FANOUT, DEFAULT_LOCAL_FANOUT};

/// A set of multi-instance objects indexed for NN-candidate search with
/// **one** global R-tree — the flat (unsharded) [`SpatialIndex`] layout.
///
/// A one-shard [`ShardedDatabase`] under the historical constructors: the
/// identity STR order reuses the store `Arc` uncopied and bulk-loads the
/// one global tree over the objects in id order. Mutations, epochs and
/// tombstones behave exactly as documented on [`ShardedDatabase`].
#[derive(Debug, Clone)]
pub struct FlatDatabase(ShardedDatabase);

/// The historical name of [`FlatDatabase`] — the default database layout.
pub type Database = FlatDatabase;

/// The one-shard layout with the given fan-outs.
fn one_shard(global_fanout: usize, local_fanout: usize) -> ShardConfig {
    ShardConfig {
        shards: 1,
        global_fanout,
        local_fanout,
    }
}

impl FlatDatabase {
    /// Indexes `objects` with default fan-outs.
    ///
    /// # Panics
    /// Panics if `objects` is empty or dimensionalities are inconsistent.
    /// Use [`Database::try_new`] for untrusted data.
    #[track_caller]
    pub fn new(objects: Vec<UncertainObject>) -> Self {
        match Self::try_new(objects) {
            Ok(db) => db,
            Err(e) => invalid(e),
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
            Err(e) => invalid(e),
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
        ShardedDatabase::try_with_config(objects, one_shard(global_fanout, local_fanout))
            .map(FlatDatabase)
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
        ShardedDatabase::from_store(store, one_shard(global_fanout, local_fanout)).map(FlatDatabase)
    }

    /// Size of the logical id space (live objects + tombstones).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Never true: databases are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dimensionality of the instance space.
    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    /// The columnar instance snapshot this database indexes.
    pub fn store(&self) -> &Arc<InstanceStore> {
        self.0.store()
    }

    /// Zero-copy view of live object `id` (panics if `id` is not live).
    pub fn object(&self, id: usize) -> ObjectRef<'_> {
        self.0.object(id)
    }

    /// Local R-tree over the instances of live object `id` (panics if `id`
    /// is not live).
    pub fn local_tree(&self, id: usize) -> &RTree<usize> {
        self.0.local_tree(id)
    }

    /// As [`ShardedDatabase::insert_object`]: appends an object and
    /// returns its id.
    #[track_caller]
    pub fn insert_object(&mut self, object: UncertainObject) -> usize {
        self.0.insert_object(object)
    }

    /// As [`ShardedDatabase::try_insert_object`].
    ///
    /// # Errors
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch;
    /// [`DbError::CoordinateOutOfRange`] on a non-finite or out-of-range
    /// coordinate.
    pub fn try_insert_object(&mut self, object: UncertainObject) -> Result<usize, DbError> {
        self.0.try_insert_object(object)
    }

    /// As [`ShardedDatabase::delete_object`]: deletes live object `id`.
    #[track_caller]
    pub fn delete_object(&mut self, id: usize) {
        self.0.delete_object(id);
    }

    /// As [`ShardedDatabase::try_delete_object`].
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is not live; [`DbError::Empty`] when the
    /// delete would leave no live objects.
    pub fn try_delete_object(&mut self, id: usize) -> Result<(), DbError> {
        self.0.try_delete_object(id)
    }

    /// As [`ShardedDatabase::update_object`]: replaces live object `id`
    /// in place.
    #[track_caller]
    pub fn update_object(&mut self, id: usize, object: UncertainObject) {
        self.0.update_object(id, object);
    }

    /// As [`ShardedDatabase::try_update_object`].
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is not live;
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch;
    /// [`DbError::CoordinateOutOfRange`] on a non-finite or out-of-range
    /// coordinate.
    pub fn try_update_object(&mut self, id: usize, object: UncertainObject) -> Result<(), DbError> {
        self.0.try_update_object(id, object)
    }
}

impl SpatialIndex for FlatDatabase {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    fn live_len(&self) -> usize {
        self.0.live_len()
    }

    fn is_live(&self, id: usize) -> bool {
        self.0.is_live(id)
    }

    fn changes_since(&self, since: u64) -> Option<Vec<Change>> {
        self.0.changes_since(since)
    }

    fn try_insert(&mut self, object: UncertainObject) -> Result<usize, DbError> {
        self.0.try_insert(object)
    }

    fn try_delete(&mut self, id: usize) -> Result<(), DbError> {
        self.0.try_delete(id)
    }

    fn try_update(&mut self, id: usize, object: UncertainObject) -> Result<(), DbError> {
        self.0.try_update(id, object)
    }

    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn store(&self) -> &Arc<InstanceStore> {
        self.0.store()
    }

    fn object(&self, id: usize) -> ObjectRef<'_> {
        self.0.object(id)
    }

    fn local_tree(&self, id: usize) -> &RTree<usize> {
        self.0.local_tree(id)
    }

    fn quanta(&self, id: usize) -> Arc<Vec<u64>> {
        self.0.quanta(id)
    }

    fn level_snapshot(&self, id: usize) -> Arc<LevelSnapshot> {
        self.0.level_snapshot(id)
    }

    fn shard_count(&self) -> usize {
        self.0.shard_count()
    }

    fn shard_tree(&self, shard: usize) -> &RTree<usize> {
        self.0.shard_tree(shard)
    }

    fn index_stats(&self) -> IndexStats {
        self.0.index_stats()
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
        assert_eq!(db.shard_tree(0).len(), 2);
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
        let base = snapshot.object(0).coords().as_ptr();
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
        let mut db = Database::with_fanouts(
            vec![obj(&[(0.0, 0.0), (1.0, 1.0)])],
            DEFAULT_GLOBAL_FANOUT,
            2,
        );
        let pts: Vec<(f64, f64)> = (0..12)
            .map(|i| (5.0 + f64::from(i % 4) * 0.5, 5.0 + f64::from(i / 4)))
            .collect();
        let id = db.insert_object(obj(&pts));
        assert_eq!(id, 1);
        assert_eq!(db.len(), 2);
        assert_eq!(db.local_tree(1).len(), 12);
        // The new local tree is built at the database's local fan-out.
        let rows = db.object(1);
        let expected = RTree::bulk_load_rows(2, rows.dim(), rows.coords());
        assert_eq!(db.local_tree(1).height(), expected.height());
        assert_eq!(db.shard_tree(0).len(), 2);
        // The global tree can find the new object by proximity.
        let hits = db
            .shard_tree(0)
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
        // Id space and store rows keep the tombstone; the live count drops.
        assert_eq!(db.len(), 3);
        assert_eq!(db.live_len(), 2);
        assert_eq!(db.tombstone_count(), 1);
        assert!(db.is_live(0) && !db.is_live(1) && db.is_live(2));
        assert_eq!((db.store().rows(), db.store().instance_count()), (3, 4));
        db.store().validate().unwrap();
        // Survivors are addressable under their old ids, bits unchanged.
        assert_eq!(db.object(0).row(1), &[1.0, 1.0]);
        assert_eq!(db.object(2).row(0), &[9.0, 9.0]);
        assert_eq!(db.local_tree(2).len(), 2);
        // The global tree no longer serves the deleted id.
        assert_eq!(db.shard_tree(0).len(), 2);
        let hits = db
            .shard_tree(0)
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
            .shard_tree(0)
            .range_intersecting(&Mbr::new(vec![19.0, 19.0], vec![23.0, 23.0]));
        assert!(hits.into_iter().any(|&h| h == 0));
        let old = db
            .shard_tree(0)
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
