//! Structural sharing of the warm cache's roll-forward. A publish moves the
//! pool's [`WarmCache`] to the next epoch by cloning each query table's
//! chunk list and copying only the chunks it must evict from. After
//! `update(id)` (or `delete(id)`) on a flat and on a sharded
//! [`PublishedIndex`] of more than three chunks:
//!
//! * every chunk of every query table except `id`'s is the *same
//!   allocation* in the old and the new cache;
//! * a table whose slot for `id` held an entry copies that one chunk and
//!   clears the slot; a table whose slot was empty shares even that chunk;
//! * every other id keeps exactly its entries.
//!
//! After an insert, the new id starts empty and every full chunk is shared.
//!
//! The gauges are kept incrementally — an advance subtracts what it
//! evicts instead of recounting — so over a seeded 30-publish
//! insert/delete/update script, the pool's `evictions` and
//! `resident_bytes` must equal a from-scratch recount
//! ([`WarmCache::audit`]) after every advance and every read.
//!
//! Last, a reader still on the old snapshot keeps filling records after
//! the advance while a reader on the new snapshot queries. The old cache is
//! sealed by the advance, so no value built for a touched id at the old
//! epoch ever appears in the new cache, and both readers answer
//! bit-identically to cold runs on their own snapshots. (The state that
//! depends on the object alone lives in the index; `publish_sharing`
//! covers it.)

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_core::warm::CHUNK_SLOTS as CHUNK;
use osd_core::{
    nn_candidates, nn_candidates_warm, CheckCtx, FilterConfig, FlatDatabase, Operator,
    PreparedQuery, ProgressiveNnc, PublishedIndex, ShardConfig, ShardedDatabase, SpatialIndex,
    TableAudit, WarmAudit, WarmView,
};
use osd_geom::Point;
use osd_uncertain::{DistanceDistribution, UncertainObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

const OP: Operator = Operator::PSd;

/// A three-instance object near `(x, y)`.
fn object(x: f64, y: f64) -> UncertainObject {
    UncertainObject::uniform(vec![
        Point::new(vec![x, y]),
        Point::new(vec![x + 1.0, y + 1.0]),
        Point::new(vec![x + 0.5, y + 2.0]),
    ])
}

/// A four-instance object near `(x, y)`: its masses quantise differently
/// from [`object`]'s.
fn object4(x: f64, y: f64) -> UncertainObject {
    UncertainObject::uniform(vec![
        Point::new(vec![x, y]),
        Point::new(vec![x + 1.5, y]),
        Point::new(vec![x, y + 1.5]),
        Point::new(vec![x + 1.0, y + 1.0]),
    ])
}

/// A 30 × 30 grid: 900 objects, three full chunks and part of a fourth.
fn big_grid() -> Vec<UncertainObject> {
    (0..900)
        .map(|k| object((k % 30) as f64 * 10.0, (k / 30) as f64 * 10.0))
        .collect()
}

fn flat() -> FlatDatabase {
    FlatDatabase::with_fanouts(big_grid(), 4, 4)
}

fn sharded() -> ShardedDatabase {
    let cfg = ShardConfig {
        shards: 4,
        global_fanout: 4,
        local_fanout: 4,
    };
    ShardedDatabase::try_with_config(big_grid(), cfg).expect("grid builds")
}

fn queries() -> Vec<PreparedQuery> {
    [(42.0, 57.0), (200.0, 150.0), (120.0, 260.0)]
        .into_iter()
        .map(|(x, y)| PreparedQuery::new(object(x, y)))
        .collect()
}

/// `(id, min_dist bits)` of a traversal's candidates.
fn answer(c: impl IntoIterator<Item = osd_core::Candidate>) -> Vec<(usize, u64)> {
    c.into_iter()
        .map(|c| (c.id, c.min_dist.to_bits()))
        .collect()
}

/// Every query answered warm through `published`'s pool; returns the
/// candidate ids.
fn warm_reads<D: SpatialIndex + Clone>(published: &PublishedIndex<D>) -> Vec<usize> {
    let snap = published.pin();
    let cfg = FilterConfig::all();
    let mut hot = Vec::new();
    for q in queries() {
        let r = nn_candidates_warm(&*snap, &q, OP, &cfg, published.warm_pool());
        hot.extend(r.candidates.iter().map(|c| c.id));
    }
    hot
}

fn tables(a: &WarmAudit) -> BTreeMap<u64, &TableAudit> {
    a.tables.iter().map(|t| (t.query, t)).collect()
}

/// The pool's current cache audit, and the audit after publishing
/// `mutate` (which rolls the pool forward).
fn around<D: SpatialIndex + Clone>(
    published: &PublishedIndex<D>,
    mutate: impl FnOnce(&PublishedIndex<D>),
) -> (WarmAudit, WarmAudit) {
    let pool = published.warm_pool();
    let before = pool.cache_for(&*published.pin()).audit();
    mutate(published);
    let snap = published.pin();
    let after = pool.cache_for(&*snap);
    assert_eq!(after.epoch(), snap.epoch());
    (before, after.audit())
}

/// Asserts the sharing contract of an advance that evicted `id`, and
/// returns how many tables shared `id`'s chunk because its slot was empty.
fn assert_evicts_one(old: &WarmAudit, new: &WarmAudit, id: usize) -> usize {
    let (old, new) = (tables(old), tables(new));
    assert!(
        new.keys().all(|k| old.contains_key(k)),
        "an advance made a table"
    );
    let mut shared_empty = 0;
    for (key, o) in &old {
        let rest: Vec<usize> = o.filled.iter().copied().filter(|&f| f != id).collect();
        let Some(t) = new.get(key) else {
            assert!(rest.is_empty(), "{key:?}: a table with entries was dropped");
            continue;
        };
        assert_eq!(t.filled, rest, "{key:?}: entries other than {id}'s changed");
        assert_eq!(t.chunks.len(), o.chunks.len(), "{key:?}");
        let held = o.filled.binary_search(&id).is_ok();
        for (c, (a, b)) in o.chunks.iter().zip(&t.chunks).enumerate() {
            if c != id / CHUNK {
                assert_eq!(a, b, "{key:?}: chunk {c} without {id} was copied");
            } else if held {
                assert_ne!(a, b, "{key:?}: {id}'s entry was evicted in place");
            } else {
                assert_eq!(
                    a, b,
                    "{key:?}: {id}'s slot was empty, yet its chunk was copied"
                );
                shared_empty += 1;
            }
        }
    }
    shared_empty
}

/// Update and delete a warm id, update a cold one, and insert, checking
/// the sharing contract after each.
fn check_advance_shares<D: SpatialIndex + Clone>(db: D) {
    let n = db.len();
    assert!(n > 3 * CHUNK);
    let published = PublishedIndex::new(db);
    // The second reads admit the queries' tables and fill them.
    warm_reads(&published);
    warm_reads(&published);
    let audit = published.warm_pool().cache_for(&*published.pin()).audit();
    let mut filled: Vec<usize> = audit.tables.iter().flat_map(|t| t.filled.clone()).collect();
    filled.sort_unstable();
    filled.dedup();
    let warm = |k: usize| filled[k * filled.len() / 4];
    // An id no table holds.
    let cold = (0..n)
        .rev()
        .find(|id| audit.tables.iter().all(|t| !t.filled.contains(id)))
        .expect("a cold id");

    let id = warm(1);
    let (old, new) = around(&published, |p| p.update(id, object(7.0, 7.0)).unwrap());
    assert!(
        assert_evicts_one(&old, &new, id) > 0,
        "no table had an empty slot for {id}"
    );
    let (old, new) = around(&published, |p| p.update(cold, object(3.0, 3.0)).unwrap());
    // Every table shares every chunk, `cold`'s included.
    assert_eq!(assert_evicts_one(&old, &new, cold), old.tables.len());
    warm_reads(&published);
    let id = warm(2);
    let (old, new) = around(&published, |p| p.delete(id).unwrap());
    assert_evicts_one(&old, &new, id);

    warm_reads(&published);
    let mut inserted = 0;
    let (old, new) = around(&published, |p| {
        inserted = p.insert(object(45.0, 55.0)).unwrap();
    });
    assert_eq!(inserted, n);
    let new = tables(&new);
    for (key, o) in tables(&old) {
        // An advance drops a query table that holds nothing.
        let Some(t) = new.get(&key) else {
            assert!(
                o.filled.is_empty(),
                "{key:?}: a table with entries was dropped"
            );
            continue;
        };
        assert_eq!(t.filled, o.filled, "{key:?}: an insert evicted");
        let full = n / CHUNK;
        assert_eq!(
            t.chunks[..full],
            o.chunks[..full],
            "{key:?}: full chunk copied"
        );
        assert_eq!(t.chunks.len(), (n + 1).div_ceil(CHUNK));
    }
}

#[test]
fn flat_advance_shares_every_untouched_chunk() {
    check_advance_shares(flat());
}

#[test]
fn sharded_advance_shares_every_untouched_chunk() {
    check_advance_shares(sharded());
}

/// Thirty seeded publishes, each followed by warm reads; after every
/// advance and every read the incremental gauges equal a recount.
fn check_gauges<D: SpatialIndex + Clone>(db: D, seed: u64) {
    let published = PublishedIndex::new(db);
    let pool = published.warm_pool();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hot = warm_reads(&published);
    let mut evicted = 0;
    for step in 0..30 {
        let before = pool.stats();
        let snap = published.pin();
        let live: Vec<usize> = (0..snap.len()).filter(|&id| snap.is_live(id)).collect();
        // Half the deletes and updates hit an id the last reads used.
        let hit = hot.iter().rev().copied().find(|&id| snap.is_live(id));
        let target = match hit {
            Some(id) if rng.gen_range(0..2) == 0 => id,
            _ => live[rng.gen_range(0..live.len())],
        };
        let x = rng.gen_range(0.0..290.0);
        let y = rng.gen_range(0.0..290.0);
        let (old, new) = around(&published, |p| match rng.gen_range(0..3) {
            0 => {
                p.insert(object(x, y)).unwrap();
            }
            1 => p.delete(target).unwrap(),
            _ => p.update(target, object(x, y)).unwrap(),
        });
        let after = pool.stats();
        assert_eq!(
            after.evictions - before.evictions,
            old.entries - new.entries,
            "step {step}: evictions drifted from the recount"
        );
        assert_eq!(
            after.resident_bytes, new.resident_bytes,
            "step {step}: resident bytes drifted from the recount"
        );
        evicted += old.entries - new.entries;
        hot = warm_reads(&published);
        let audit = pool.cache_for(&*published.pin()).audit();
        assert_eq!(pool.stats().resident_bytes, audit.resident_bytes);
    }
    assert!(evicted > 0, "the script never evicted");
}

#[test]
fn flat_gauges_match_a_recount() {
    check_gauges(flat(), 0x5eed);
}

#[test]
fn sharded_gauges_match_a_recount() {
    check_gauges(sharded(), 0x5eed);
}

/// `U_Q` of `id` built cold on `db`, to compare warm values against.
fn cold_dist_q(db: &dyn SpatialIndex, q: &PreparedQuery, id: usize) -> DistanceDistribution {
    DistanceDistribution::between_ref(db.object(id), q.object())
}

/// `U_Q` of `id` as a fresh traversal of `q` reading through `view` looks
/// it up.
fn warm_dist_q(
    db: &dyn SpatialIndex,
    q: &PreparedQuery,
    view: &WarmView,
    id: usize,
) -> Arc<DistanceDistribution> {
    CheckCtx::with_warm(db, q, FilterConfig::all(), Some(view.clone())).dist_q(id)
}

/// An old-snapshot reader fills records after the advance, concurrently
/// with a new-snapshot reader.
fn check_old_epoch_fills<D: SpatialIndex + Clone + Send + Sync>(db: D) {
    let published = PublishedIndex::new(db);
    let pool = published.warm_pool();
    let cfg = FilterConfig::all();
    let q = PreparedQuery::new(object(42.0, 57.0));
    let snap0 = published.pin();
    // The second run admits the query's table and fills it; the view,
    // found before the advance, keeps the table.
    nn_candidates_warm(&*snap0, &q, OP, &cfg, pool);
    nn_candidates_warm(&*snap0, &q, OP, &cfg, pool);
    let old_view = pool.view_for(&*snap0, &q);
    let old_cache = pool.cache_for(&*snap0);
    // Touch an id the table holds a record of and two whose slots are
    // empty in a chunk that holds another record: the advance copies the
    // held id's chunk and shares the other with the old cache.
    let audit = old_cache.audit();
    let fp = q.fingerprint();
    let filled = &tables(&audit)[&fp].filled;
    let held = filled[0];
    let shared = |id: &usize| {
        let c = id / CHUNK;
        c != held / CHUNK && filled.iter().any(|l| l / CHUNK == c)
    };
    let empty: Vec<usize> = (0..900)
        .filter(|id| !filled.contains(id) && shared(id))
        .collect();
    assert!(empty.len() >= 2, "no chunk of the table has empty slots");
    let touched = [held, empty[0], empty[empty.len() - 1]];
    for &id in &touched {
        let (x, y) = ((id % 30) as f64 * 10.0, (id / 30) as f64 * 10.0);
        published.update(id, object4(x + 0.5, y)).unwrap();
    }
    let snap1 = published.pin();
    let new_cache = pool.cache_for(&*snap1);
    assert_eq!(new_cache.epoch(), snap0.epoch() + touched.len() as u64);
    let new_audit = new_cache.audit();
    let old_chunks = &tables(&audit)[&fp].chunks;
    let new_chunks = &tables(&new_audit)[&fp].chunks;
    for &id in &touched[1..] {
        let c = id / CHUNK;
        assert_ne!(old_chunks[c], 0, "{id}'s chunk holds records");
        assert_eq!(old_chunks[c], new_chunks[c], "{id}'s chunk was copied");
    }
    let cold0 = answer(ProgressiveNnc::new(&*snap0, &q, OP, &cfg));
    let cold1 = answer(nn_candidates(&*snap1, &q, OP, &cfg).candidates);

    // The old reader goes first once, then both run at once.
    let mut old_built = Vec::new();
    let old_fill = |built: &mut Vec<_>| {
        let view = old_view.clone();
        for &id in &touched {
            let dist = warm_dist_q(&*snap0, &q, &view, id);
            assert_eq!(*dist, cold_dist_q(&*snap0, &q, id));
            built.push(dist);
        }
        view
    };
    old_fill(&mut old_built);
    let start = Barrier::new(2);
    let (old_answers, new_answers) = std::thread::scope(|s| {
        let old = s.spawn(|| {
            let (mut built, mut answers) = (Vec::new(), Vec::new());
            start.wait();
            for _ in 0..20 {
                let view = old_fill(&mut built);
                let run = ProgressiveNnc::with_warm(&*snap0, &q, OP, &cfg, Some(view));
                answers.push(answer(run));
            }
            (built, answers)
        });
        let new = s.spawn(|| {
            let mut answers = Vec::new();
            start.wait();
            for _ in 0..20 {
                let view = pool.view_for(&*snap1, &q);
                for &id in &touched {
                    let dist = warm_dist_q(&*snap1, &q, &view, id);
                    assert_eq!(*dist, cold_dist_q(&*snap1, &q, id));
                }
                let r = nn_candidates_warm(&*snap1, &q, OP, &cfg, pool);
                answers.push(answer(r.candidates));
            }
            answers
        });
        let (built, old_answers) = old.join().unwrap();
        old_built.extend(built);
        (old_answers, new.join().unwrap())
    });
    assert!(
        old_answers.iter().all(|a| *a == cold0),
        "e0 answer diverged"
    );
    assert!(
        new_answers.iter().all(|a| *a == cold1),
        "e1 answer diverged"
    );

    // Both tables are full now: the old one still serves only e0 values.
    let view = pool.view_for(&*snap1, &q);
    assert!(Arc::ptr_eq(view.cache(), &new_cache));
    for &id in &touched {
        let dist = warm_dist_q(&*snap0, &q, &old_view, id);
        assert_eq!(*dist, cold_dist_q(&*snap0, &q, id), "id {id}");
    }
    for &id in &touched {
        let dist = warm_dist_q(&*snap1, &q, &view, id);
        assert_eq!(*dist, cold_dist_q(&*snap1, &q, id), "id {id}");
        for d0 in &old_built {
            assert!(!Arc::ptr_eq(d0, &dist), "e0 U_Q of {id} at e1");
        }
    }
    assert_eq!(
        pool.stats().resident_bytes,
        new_cache.audit().resident_bytes
    );
}

#[test]
fn flat_old_epoch_fills_never_reach_the_new_cache() {
    check_old_epoch_fills(flat());
}

#[test]
fn sharded_old_epoch_fills_never_reach_the_new_cache() {
    check_old_epoch_fills(sharded());
}

/// Keys read and built on one side of a seal stay on that side. The
/// query's table is admitted but empty when an update reshapes its first
/// candidate, so the advance shares the table whole: it holds nothing
/// touched. A reader that found the table before the seal must neither be
/// served the keys a new-snapshot traversal published there (the updated
/// object's among them), nor, when its traversal started before the seal
/// and ends after it, publish its old-snapshot keys there: the sealed
/// cache publishes nothing.
fn check_keys_respect_the_seal<D: SpatialIndex + Clone>(db: D, new_first: bool) {
    let published = PublishedIndex::new(db);
    let pool = published.warm_pool();
    let cfg = FilterConfig::all();
    let q = PreparedQuery::new(object(42.0, 57.0));
    let snap0 = published.pin();
    pool.view_for(&*snap0, &q);
    // The second sighting admits the table; the view keeps it.
    let old_view = pool.view_for(&*snap0, &q);
    let cold0 = answer(ProgressiveNnc::new(&*snap0, &q, OP, &cfg));
    let first = cold0[0].0;
    let old_run = ProgressiveNnc::with_warm(&*snap0, &q, OP, &cfg, Some(old_view.clone()));
    let (x, y) = ((first % 30) as f64 * 10.0, (first / 30) as f64 * 10.0);
    published.update(first, object4(x + 0.5, y + 0.25)).unwrap();
    let snap1 = published.pin();
    // The advance, which seals the old cache.
    pool.cache_for(&*snap1);
    let cold1 = answer(nn_candidates(&*snap1, &q, OP, &cfg).candidates);
    assert_ne!(cold0, cold1, "the update moved no answer");
    let new = || answer(nn_candidates_warm(&*snap1, &q, OP, &cfg, pool).candidates);
    if new_first {
        assert_eq!(new(), cold1);
        let late = ProgressiveNnc::with_warm(&*snap0, &q, OP, &cfg, Some(old_view));
        assert_eq!(answer(late), cold0, "an old reader was served new keys");
    } else {
        assert_eq!(answer(old_run), cold0);
        let audit = pool.cache_for(&*snap1).audit();
        let table = audit.tables.iter().find(|t| t.query == q.fingerprint());
        assert!(
            table.unwrap().keys.is_empty(),
            "a sealed cache published keys"
        );
        assert_eq!(new(), cold1, "old keys reached the new cache");
    }
    assert_eq!(new(), cold1);
}

#[test]
fn keys_respect_the_seal_flat() {
    for new_first in [true, false] {
        check_keys_respect_the_seal(flat(), new_first);
    }
}

#[test]
fn keys_respect_the_seal_sharded() {
    for new_first in [true, false] {
        check_keys_respect_the_seal(sharded(), new_first);
    }
}
