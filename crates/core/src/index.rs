//! The [`SpatialIndex`] trait: what the dominance search needs from a
//! database, abstracted over its physical layout.
//!
//! One implementation exists, [`ObjectIndex`](crate::ObjectIndex): the
//! columnar store space-partitioned into STR tiles, each tile owning its
//! own global R-tree. With one tile it is §6's flat layout — one global
//! R-tree over every object MBR. Its layout marker picks only the
//! constructors: [`ShardedDatabase`](crate::ShardedDatabase) takes a shard
//! configuration, and [`FlatDatabase`](crate::FlatDatabase) (alias
//! `Database`, the default) the fan-outs of a one-tile build.
//!
//! The search algorithms ([`nn_candidates`](crate::nn_candidates),
//! [`k_nn_candidates`](crate::k_nn_candidates), the caches and the check
//! contexts) take `&dyn SpatialIndex` and are oblivious to the layout:
//! a sharded index simply exposes *several* global trees
//! ([`SpatialIndex::shard_tree`]), and the best-first traversal seeds its
//! heap with all shard roots, so the cross-shard candidate pruning is one
//! prune bound shared by every shard.
//!
//! Everything else — object ids, local instance trees and the state
//! derived from each object alone, the columnar snapshot — is
//! layout-independent: ids address the same logical objects
//! in every implementation, which is what makes flat and sharded results
//! bit-identical (see `tests/shard_identity.rs`).

use crate::cache::LevelSnapshot;
use osd_rtree::RTree;
use osd_uncertain::{Change, InstanceStore, ObjectRef, StoreError, UncertainObject};
use std::fmt;
use std::sync::Arc;

/// Why an index could not be built or mutated.
///
/// Lives with the trait (not a concrete layout) because the
/// [`SpatialIndex`] mutators return it; `crate::db` re-exports it from its
/// historical home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// No objects were supplied.
    Empty,
    /// An object disagrees with the database's dimensionality.
    DimensionMismatch {
        /// Id (input position, or would-be id on insert) of the offending
        /// object.
        object: usize,
        /// Dimensionality of the database (set by the first object).
        expected: usize,
        /// Dimensionality of the offending object.
        found: usize,
    },
    /// An instance coordinate of the object is non-finite or beyond
    /// ±[`osd_geom::MAX_INPUT_COORD`].
    CoordinateOutOfRange {
        /// Id (input position, or would-be id on insert) of the offending
        /// object.
        object: usize,
    },
    /// The addressed id is tombstoned (deleted) or was never assigned.
    Dead {
        /// The offending logical object id.
        object: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Empty => write!(f, "a database needs at least one object"),
            DbError::DimensionMismatch {
                object,
                expected,
                found,
            } => write!(
                f,
                "object {object}: dimensionality must match the database: \
                 expected {expected}, found {found}"
            ),
            DbError::CoordinateOutOfRange { object } => write!(
                f,
                "object {object}: non-finite coordinate, or one beyond ±{:e}",
                osd_geom::MAX_INPUT_COORD
            ),
            DbError::Dead { object } => write!(
                f,
                "object {object} is not live (deleted, or never inserted)"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// Lifts a columnar-store error, attaching the id of the offending
    /// object (the store reports *what* went wrong, the database knows
    /// *which* object tripped it).
    pub fn from_store(e: StoreError, object: usize) -> Self {
        match e {
            StoreError::Empty => DbError::Empty,
            StoreError::DimensionMismatch { expected, found } => DbError::DimensionMismatch {
                object,
                expected,
                found,
            },
            StoreError::CoordinateOutOfRange => DbError::CoordinateOutOfRange { object },
        }
    }
}

/// Per-shard size statistics (one entry per shard; a flat database reports
/// exactly one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Objects indexed by this shard's global tree.
    pub objects: usize,
    /// Instances owned by those objects.
    pub instances: usize,
    /// Nodes (leaves + inner) of the shard's global R-tree — an upper bound
    /// on the node visits any single descent of that tree can charge.
    pub tree_nodes: usize,
    /// Height of the shard's global R-tree (`None` when empty).
    pub tree_height: Option<usize>,
    /// Approximate bytes of columnar instance data owned by the shard
    /// (coords + probs + spans + MBRs; excludes the R-trees).
    pub approx_bytes: usize,
}

/// Size statistics of a whole index, per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Total objects.
    pub objects: usize,
    /// Total instances.
    pub instances: usize,
    /// One entry per shard.
    pub shards: Vec<ShardStats>,
}

/// What the NN-candidate search needs from a database, independent of its
/// physical layout (one global R-tree, or many shard trees over a
/// space-partitioned store).
///
/// Object ids are *logical* and layout-independent: `object(id)` denotes
/// the same object in every implementation over the same data, so result
/// sets (candidate ids, distances, emission order) are comparable — and,
/// by the frozen-counter contract, bit-identical — across layouts.
pub trait SpatialIndex: Send + Sync {
    /// Size of the *logical id space*: one slot per object ever inserted,
    /// live or tombstoned. Ids are stable and never reused, so per-query
    /// structures sized by `len()` (caches, scratch) stay addressable
    /// across mutations.
    fn len(&self) -> usize;

    /// Whether the index holds no objects (never true for the concrete
    /// databases, which are non-empty by construction).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Epoch of the current snapshot: the number of mutations ever
    /// published. A never-mutated index reports 0.
    fn epoch(&self) -> u64;

    /// Number of *live* objects (`len()` minus tombstones).
    fn live_len(&self) -> usize;

    /// Whether logical id `id` currently denotes a live object.
    fn is_live(&self, id: usize) -> bool;

    /// Number of tombstoned (deleted) ids in the logical id space.
    fn tombstone_count(&self) -> usize {
        self.len() - self.live_len()
    }

    /// The mutations published after epoch `since`, oldest first, or
    /// `None` when the delta is no longer reconstructible (the reader
    /// fell behind the retained change window and must refresh fully).
    fn changes_since(&self, since: u64) -> Option<Vec<Change>>;

    /// Publishes an insert, returning the new object's logical id.
    ///
    /// # Errors
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch;
    /// [`DbError::CoordinateOutOfRange`] on a non-finite or out-of-range
    /// coordinate.
    fn try_insert(&mut self, object: UncertainObject) -> Result<usize, DbError>;

    /// Publishes a delete: the object's store row is tombstoned (its
    /// instances compacted out of that row's chunk), its global-tree entry
    /// condensed away, and its id tombstoned (never reused).
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is not live; [`DbError::Empty`] when the
    /// delete would leave the index empty.
    fn try_delete(&mut self, id: usize) -> Result<(), DbError>;

    /// Publishes an update: the object is replaced in place under the
    /// same logical id, and its index entries are re-routed like an
    /// insert.
    ///
    /// # Errors
    /// [`DbError::Dead`] if `id` is not live;
    /// [`DbError::DimensionMismatch`] on dimensionality mismatch;
    /// [`DbError::CoordinateOutOfRange`] on a non-finite or out-of-range
    /// coordinate.
    fn try_update(&mut self, id: usize, object: UncertainObject) -> Result<(), DbError>;

    /// Dimensionality of the instance space.
    fn dim(&self) -> usize;

    /// The columnar instance snapshot behind the index. Cloning the `Arc`
    /// shares the allocation with zero copies.
    fn store(&self) -> &Arc<InstanceStore>;

    /// Zero-copy view of object `id`.
    fn object(&self, id: usize) -> ObjectRef<'_>;

    /// Local R-tree over the instances of object `id` (payload = instance
    /// index *within the object*).
    fn local_tree(&self, id: usize) -> &RTree<usize>;

    /// Fixed-point instance masses of live object `id` (summing to
    /// `SCALE`), built by `osd_uncertain::quantize` on first use. Held
    /// beside `id`'s local tree, so every snapshot sharing that tree
    /// shares them.
    fn quanta(&self, id: usize) -> Arc<Vec<u64>>;

    /// The per-level group partition of live object `id`'s local tree,
    /// built on first use from [`SpatialIndex::quanta`] and held like it.
    fn level_snapshot(&self, id: usize) -> Arc<LevelSnapshot>;

    /// Number of global-tree shards (1 for a flat database).
    fn shard_count(&self) -> usize;

    /// Global R-tree of shard `shard` (payload = logical object id).
    fn shard_tree(&self, shard: usize) -> &RTree<usize>;

    /// Per-shard size statistics.
    fn index_stats(&self) -> IndexStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    #[test]
    fn flat_database_is_a_one_shard_index() {
        let db = Database::new(vec![
            obj(&[(0.0, 0.0), (1.0, 1.0)]),
            obj(&[(5.0, 5.0), (6.0, 6.0), (7.0, 5.0)]),
        ]);
        let index: &dyn SpatialIndex = &db;
        assert_eq!(index.shard_count(), 1);
        assert_eq!(index.shard_tree(0).len(), 2);
        let stats = index.index_stats();
        assert_eq!(stats.objects, 2);
        assert_eq!(stats.instances, 5);
        assert_eq!(stats.shards.len(), 1);
        assert_eq!(stats.shards[0].objects, 2);
        assert_eq!(stats.shards[0].instances, 5);
        assert!(stats.shards[0].tree_nodes >= 1);
        assert!(stats.shards[0].approx_bytes > 0);
    }
}
