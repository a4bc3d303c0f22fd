//! Structural sharing between published snapshots: a publish copies only
//! what its mutation changes. After `update(id, ..)` on a flat and on a
//! sharded [`PublishedIndex`]:
//!
//! * every other live object's local R-tree is the *same allocation* in the
//!   old and the new pinned snapshot, and `id`'s is not;
//! * every shard tree that never held `id` is shared whole, and inside the
//!   tree(s) that did, every top-level subtree whose items the update left
//!   alone is shared, while a subtree holding `id` is a fresh copy;
//! * the old pinned snapshot still answers bit-identically.
//!
//! The instance store is shared the same way, in chunks of 256 rows. After
//! an insert, a delete and an update on an index of more than three chunks,
//! every live object outside the written chunk has the *same* coordinate
//! allocation in the old and the new snapshot, every object inside it
//! (the touched one included) has a fresh copy, and the old snapshot still
//! answers bit-identically.
//!
//! The state derived from one object alone (its quantised masses and
//! level snapshot) lives beside its local tree and follows the same rule:
//! after an update, an insert and a delete, every other live object's
//! entries, once built, are the same allocation in the old and the new
//! snapshot; the written id's are fresh and equal a direct rebuild of the
//! new object, while the old snapshot still reads its own. A cold query
//! and a pooled one on one snapshot read the same copy.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_core::cache::LevelSnapshot;
use osd_core::{
    nn_candidates, nn_candidates_warm, CheckCtx, FilterConfig, FlatDatabase, Operator,
    PreparedQuery, PublishedIndex, ShardConfig, ShardedDatabase, SpatialIndex,
};
use osd_geom::Point;
use osd_rtree::{Node, RTree};
use osd_uncertain::{quantize, UncertainObject};
use std::sync::Arc;

/// Global fan-out small enough that every tree has inner levels below an
/// inner root.
const GLOBAL_FANOUT: usize = 4;

/// A three-instance object near `(x, y)`.
fn object(x: f64, y: f64) -> UncertainObject {
    UncertainObject::uniform(vec![
        Point::new(vec![x, y]),
        Point::new(vec![x + 1.0, y + 1.0]),
        Point::new(vec![x + 0.5, y + 2.0]),
    ])
}

/// A 28 × 16 grid of well-separated objects.
fn grid() -> Vec<UncertainObject> {
    (0..448)
        .map(|k| object((k % 28) as f64 * 10.0, (k / 28) as f64 * 10.0))
        .collect()
}

/// `(id, min_dist bits)` of a P-SD NNC query, plus its cost counters.
fn answer(db: &dyn SpatialIndex, q: &PreparedQuery) -> (Vec<(usize, u64)>, osd_core::Stats) {
    let r = nn_candidates(db, q, Operator::PSd, &FilterConfig::all());
    let ids = r
        .candidates
        .iter()
        .map(|c| (c.id, c.min_dist.to_bits()))
        .collect();
    (ids, r.stats)
}

fn items(node: &Node<usize>) -> Vec<usize> {
    let mut items = Vec::new();
    node.collect_items(&mut items);
    let mut items: Vec<usize> = items.into_iter().copied().collect();
    items.sort_unstable();
    items
}

/// The root's child subtrees (an inner root is required).
fn top_level(tree: &RTree<usize>) -> Vec<&Node<usize>> {
    match tree.root() {
        Some(Node::Inner(cs)) => cs.iter().map(|c| c.node.as_ref()).collect(),
        other => panic!("expected an inner root, got {other:?}"),
    }
}

/// Asserts the sharing contract of one global (or shard) tree across an
/// update of `id`: a tree that never held `id` is shared whole; otherwise
/// every top-level subtree that keeps its exact item set without holding
/// `id` is shared, and every subtree holding `id` is a fresh copy.
/// Returns how many top-level subtrees are shared.
fn assert_tree_shared(old: &RTree<usize>, new: &RTree<usize>, id: usize) -> usize {
    let (before, after) = (top_level(old), top_level(new));
    let holds = |n: &Node<usize>| items(n).binary_search(&id).is_ok();
    if !before.iter().chain(&after).any(|n| holds(n)) {
        assert!(
            std::ptr::eq(old.root().unwrap(), new.root().unwrap()),
            "a tree the update never touched must be shared whole"
        );
        return before.len();
    }
    let mut shared = 0;
    for b in &after {
        let same = before.iter().find(|a| items(a) == items(b));
        if holds(b) {
            assert!(
                !before.iter().any(|a| std::ptr::eq(*a, *b)),
                "a subtree on {id}'s insert path was shared"
            );
        } else if let Some(a) = same {
            assert!(std::ptr::eq(*a, *b), "an untouched subtree was copied");
            shared += 1;
        }
    }
    shared
}

/// Publishes an update of `id` that nudges the object within its grid
/// cell, then checks local trees, global trees and the old snapshot.
fn check_update_shares<D: SpatialIndex + Clone>(db: D, id: usize) {
    let published = PublishedIndex::new(db);
    let query = PreparedQuery::new(object(42.0, 57.0));
    let old = published.pin();
    let before = answer(&*old, &query);

    let moved = object((id % 28) as f64 * 10.0 + 0.25, (id / 28) as f64 * 10.0);
    published.update(id, moved).expect("live id updates");
    let new = published.pin();
    assert_eq!(new.epoch(), old.epoch() + 1);

    for other in (0..old.len()).filter(|&o| o != id) {
        assert!(
            std::ptr::eq(old.local_tree(other), new.local_tree(other)),
            "local tree of untouched object {other} was copied"
        );
    }
    assert!(
        !std::ptr::eq(old.local_tree(id), new.local_tree(id)),
        "the updated object's local tree must be rebuilt"
    );

    assert_eq!(old.shard_count(), new.shard_count());
    let shared: usize = (0..old.shard_count())
        .map(|s| assert_tree_shared(old.shard_tree(s), new.shard_tree(s), id))
        .sum();
    assert!(shared > 0, "no top-level subtree was shared");

    assert_eq!(
        answer(&*old, &query),
        before,
        "the pinned snapshot changed under a publish"
    );
}

#[test]
fn flat_publish_shares_untouched_trees() {
    let db = FlatDatabase::with_fanouts(grid(), GLOBAL_FANOUT, 4);
    for id in [0, 137, 300, 447] {
        check_update_shares(db.clone(), id);
    }
}

#[test]
fn sharded_publish_shares_untouched_trees() {
    let cfg = ShardConfig {
        shards: 4,
        global_fanout: GLOBAL_FANOUT,
        local_fanout: 4,
    };
    let db = ShardedDatabase::try_with_config(grid(), cfg).expect("grid builds");
    assert!(db.shard_count() > 1);
    for id in [0, 137, 300, 447] {
        check_update_shares(db.clone(), id);
    }
}

/// Rows per store chunk: a write copies exactly the chunk it touches.
const STORE_CHUNK: usize = 256;

/// A 30 × 30 grid: 900 objects, three full store chunks and part of a
/// fourth.
fn big_grid() -> Vec<UncertainObject> {
    (0..900)
        .map(|k| object((k % 30) as f64 * 10.0, (k / 30) as f64 * 10.0))
        .collect()
}

/// The store chunk holding live `id`'s row.
fn chunk_of(db: &dyn SpatialIndex, id: usize) -> usize {
    db.object(id).id() / STORE_CHUNK
}

/// Asserts the store-sharing contract between two snapshots around one
/// write to store chunk `written`: every id live in both snapshots shares
/// its coordinate rows iff its row lies outside `written`.
fn assert_store_shared(old: &dyn SpatialIndex, new: &dyn SpatialIndex, written: usize) {
    for id in (0..old.len()).filter(|&id| old.is_live(id) && new.is_live(id)) {
        let (a, b) = (old.object(id), new.object(id));
        assert_eq!(a.id(), b.id(), "rows are stable");
        let same = std::ptr::eq(a.coords().as_ptr(), b.coords().as_ptr());
        if chunk_of(old, id) == written {
            assert!(!same, "object {id} in the written chunk was not copied");
        } else {
            assert!(same, "object {id} outside the written chunk was copied");
        }
    }
}

/// Publishes an insert, a delete of `victim` and an update of `moved`,
/// checking store sharing and the old snapshot's answers after each.
fn check_store_shares<D: SpatialIndex + Clone>(db: D, victim: usize, moved: usize) {
    assert!(db.store().rows() > 3 * STORE_CHUNK);
    let published = PublishedIndex::new(db);
    let query = PreparedQuery::new(object(42.0, 57.0));

    // Insert: the new row lands in the last, partly filled chunk.
    let old = published.pin();
    let before = answer(&*old, &query);
    let id = published.insert(object(55.0, 55.0)).expect("insert");
    let new = published.pin();
    let written = chunk_of(&*new, id);
    assert_eq!(written, old.store().rows() / STORE_CHUNK);
    assert_store_shared(&*old, &*new, written);
    assert_eq!(answer(&*old, &query), before, "insert changed the old pin");

    // Delete: the victim's chunk is copied, its row tombstoned.
    let old = published.pin();
    let before = answer(&*old, &query);
    let written = chunk_of(&*old, victim);
    published.delete(victim).expect("delete");
    let new = published.pin();
    assert!(!new.is_live(victim));
    assert_eq!(new.store().rows(), old.store().rows());
    assert_store_shared(&*old, &*new, written);
    assert_eq!(answer(&*old, &query), before, "delete changed the old pin");

    // Update: the touched object gets fresh rows, with its chunk-mates.
    let old = published.pin();
    let before = answer(&*old, &query);
    let written = chunk_of(&*old, moved);
    published
        .update(moved, object(43.0, 58.0))
        .expect("live id updates");
    let new = published.pin();
    assert!(!std::ptr::eq(
        old.object(moved).coords().as_ptr(),
        new.object(moved).coords().as_ptr()
    ));
    assert_store_shared(&*old, &*new, written);
    assert_eq!(answer(&*old, &query), before, "update changed the old pin");
}

#[test]
fn flat_publish_copies_one_store_chunk() {
    let db = FlatDatabase::with_fanouts(big_grid(), GLOBAL_FANOUT, 4);
    check_store_shares(db, 300, 600);
}

#[test]
fn sharded_publish_copies_one_store_chunk() {
    let cfg = ShardConfig {
        shards: 4,
        global_fanout: GLOBAL_FANOUT,
        local_fanout: 4,
    };
    let db = ShardedDatabase::try_with_config(big_grid(), cfg).expect("grid builds");
    assert!(db.shard_count() > 1);
    check_store_shares(db, 300, 600);
}

/// An object's quantised masses and level snapshot.
type Derived = (Arc<Vec<u64>>, Arc<LevelSnapshot>);

/// The derived state of every live object of `db`, built where missing.
fn derived(db: &dyn SpatialIndex) -> Vec<Option<Derived>> {
    (0..db.len())
        .map(|id| {
            db.is_live(id)
                .then(|| (db.quanta(id), db.level_snapshot(id)))
        })
        .collect()
}

/// Asserts that live `id`'s derived state in `db` equals a direct rebuild
/// from its instances and local tree, bit for bit.
fn assert_rebuilt(db: &dyn SpatialIndex, id: usize) {
    let obj = db.object(id);
    let quanta = quantize(obj.probs());
    assert_eq!(*db.quanta(id), quanta, "quanta of {id}");
    let (snap, tree) = (db.level_snapshot(id), db.local_tree(id));
    assert_eq!(snap.height(), tree.height().unwrap_or(0));
    for level in 1..=snap.height() + 1 {
        let (groups, lg) = (tree.level_groups(level), snap.level(level));
        assert_eq!(lg.len(), groups.len(), "level {level} of {id}");
        for (g, (mbr, items)) in groups.iter().enumerate() {
            let mass: f64 = items.iter().map(|&&i| obj.prob(i)).sum();
            let cap: u64 = items.iter().map(|&&i| quanta[i]).sum();
            assert_eq!(lg.masses[g].to_bits(), mass.to_bits());
            assert_eq!((lg.caps[g], &lg.mbrs[g]), (cap, mbr));
        }
    }
}

/// Asserts that every id live in both snapshots except `written` shares
/// its built entries, that `written`'s entries are fresh in `new`, and
/// that `old` still reads the entries `before` took from it.
fn assert_derived_shared(
    old: &dyn SpatialIndex,
    new: &dyn SpatialIndex,
    before: &[Option<Derived>],
    written: usize,
) {
    let shared = |a: &Derived, b: &Derived| Arc::ptr_eq(&a.0, &b.0) && Arc::ptr_eq(&a.1, &b.1);
    let after = derived(new);
    for (id, (b, a)) in before.iter().zip(&after).enumerate() {
        let (Some(b), Some(a)) = (b, a) else {
            continue;
        };
        if id == written {
            assert!(!Arc::ptr_eq(&b.0, &a.0), "quanta of {id} carried");
            assert!(!Arc::ptr_eq(&b.1, &a.1), "level snapshot of {id} carried");
            assert_rebuilt(new, id);
        } else {
            assert!(shared(b, a), "derived state of untouched {id} was copied");
        }
    }
    for (id, b) in before.iter().enumerate() {
        if let Some(b) = b {
            let own = (old.quanta(id), old.level_snapshot(id));
            assert!(shared(b, &own), "the old snapshot lost {id}'s entries");
        }
    }
}

/// Publishes an update of `moved`, an insert and a delete of `victim`,
/// checking the derived state after each; first, a cold and a pooled
/// query on one snapshot read the same level snapshots.
fn check_derived_state<D: SpatialIndex + Clone>(db: D, moved: usize, victim: usize) {
    let published = PublishedIndex::new(db);
    let query = PreparedQuery::new(object(42.0, 57.0));
    let cfg = FilterConfig::all();
    let op = Operator::PSd;

    let snap = published.pin();
    let cold = nn_candidates(&*snap, &query, op, &cfg);
    let warm = nn_candidates_warm(&*snap, &query, op, &cfg, published.warm_pool());
    assert_eq!(cold.ids(), warm.ids());
    let view = published.warm_pool().view_for(&*snap, &query);
    let mut cold_ctx = CheckCtx::new(&*snap, &query, cfg);
    let mut pooled_ctx = CheckCtx::with_warm(&*snap, &query, cfg, Some(view));
    for id in cold.ids() {
        let a = cold_ctx.level_snapshot(id);
        assert!(Arc::ptr_eq(&a, &pooled_ctx.level_snapshot(id)), "{id}");
        assert!(Arc::ptr_eq(&a, &snap.level_snapshot(id)), "{id}");
    }

    let old = published.pin();
    let before = derived(&*old);
    published
        .update(moved, object(43.0, 58.0))
        .expect("live id updates");
    assert_derived_shared(&*old, &*published.pin(), &before, moved);
    assert_rebuilt(&*old, moved);

    let old = published.pin();
    let before = derived(&*old);
    let id = published.insert(object(55.0, 55.0)).expect("insert");
    let new = published.pin();
    assert_derived_shared(&*old, &*new, &before, id);
    assert_rebuilt(&*new, id);

    let old = published.pin();
    let before = derived(&*old);
    published.delete(victim).expect("delete");
    let new = published.pin();
    assert!(!new.is_live(victim));
    assert_derived_shared(&*old, &*new, &before, victim);
}

#[test]
fn flat_publish_shares_derived_state() {
    let db = FlatDatabase::with_fanouts(big_grid(), GLOBAL_FANOUT, 4);
    check_derived_state(db, 600, 300);
}

#[test]
fn sharded_publish_shares_derived_state() {
    let cfg = ShardConfig {
        shards: 4,
        global_fanout: GLOBAL_FANOUT,
        local_fanout: 4,
    };
    let db = ShardedDatabase::try_with_config(big_grid(), cfg).expect("grid builds");
    assert!(db.shard_count() > 1);
    check_derived_state(db, 600, 300);
}
