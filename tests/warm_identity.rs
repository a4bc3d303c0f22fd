//! Warm-cache identity: queries answered through a snapshot-scoped
//! [`WarmPool`] are **bit-identical** — candidate ids, `min_dist` bit
//! patterns, emission order and [`Stats`] counters — to fully cold runs
//! on the same snapshot, across an interleaved insert/delete/update
//! churn driven through [`PublishedIndex`], for both physical layouts.
//!
//! Also pinned here: the epoch-keying contract. A cache built for one
//! `(store, epoch)` pair can never serve entries to a different store or
//! a later epoch — invalidation evicts exactly what the epoch log
//! touched, and a foreign store forces a full rebuild (no cross-store
//! hits, ever).
//!
//! Everything runs under both feature configs: with `obs` off the warm
//! counters compile to no-ops but the result contract is unchanged.

// Integration test: exact values and aborts are intentional.
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use osd_core::{
    nn_candidates, nn_candidates_warm, ContinuousNnc, Database, FilterConfig, NncResult, Operator,
    PreparedQuery, PublishedIndex, ShardedDatabase, SpatialIndex, WarmPool,
};
use osd_datagen::{generate_objects, CenterDistribution, SynthParams};
use osd_geom::Point;
use osd_uncertain::UncertainObject;
use std::collections::BTreeSet;

/// A randomized A-N (anti-correlated) pool, the paper's main data family.
fn an_objects(n: usize, instances: usize, seed: u64) -> Vec<UncertainObject> {
    generate_objects(&SynthParams {
        n,
        dim: 2,
        instances,
        edge: 800.0,
        centers: CenterDistribution::AntiCorrelated,
        seed,
    })
}

fn queries_for(objects: &[UncertainObject], seed: u64) -> Vec<PreparedQuery> {
    let pool = generate_objects(&SynthParams {
        n: 4,
        dim: 2,
        instances: 5,
        edge: 800.0,
        centers: CenterDistribution::Independent,
        seed,
    });
    let _ = objects;
    pool.into_iter().map(PreparedQuery::new).collect()
}

/// The bit-identity fingerprint: ids, `min_dist` bits, and the exact
/// [`osd_core::Stats`] counters (the warm path must charge every
/// per-use comparison identically).
fn fingerprint(r: &NncResult) -> (Vec<(usize, u64)>, osd_core::Stats) {
    (
        r.candidates
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect(),
        r.stats,
    )
}

/// Interleaved churn on one layout: after every published epoch, every
/// query answered warm (through the index's own pool) must fingerprint-
/// match a cold run on the same pinned snapshot, and a standing
/// [`ContinuousNnc`] refreshed warm must match a cold full re-query.
fn churn_identity(shards: usize) {
    let objects = an_objects(160, 5, 0x3aa);
    let pool = an_objects(40, 5, 77);
    let queries = queries_for(&objects, 31);
    let cfg = FilterConfig::all();
    let op = Operator::PSd;
    let n0 = objects.len();

    let idx = PublishedIndex::new(ShardedDatabase::new(objects, shards));
    let mut handle = ContinuousNnc::new(&*idx.pin(), queries[0].clone(), op, cfg);
    let mut alive: Vec<usize> = (0..n0).collect();

    for i in 0..24usize {
        match i % 3 {
            0 => {
                let id = idx.insert(pool[i % pool.len()].clone()).unwrap();
                alive.push(id);
            }
            1 => {
                let victim = alive.remove((i * 7) % alive.len());
                idx.delete(victim).unwrap();
            }
            _ => {
                let target = alive[(i * 5) % alive.len()];
                idx.update(target, pool[(i + 1) % pool.len()].clone())
                    .unwrap();
            }
        }
        let snap = idx.pin();
        for q in &queries {
            let warm = nn_candidates_warm(&*snap, q, op, &cfg, idx.warm_pool());
            let cold = nn_candidates(&*snap, q, op, &cfg);
            assert_eq!(
                fingerprint(&warm),
                fingerprint(&cold),
                "warm diverged from cold at epoch {} ({} shards)",
                snap.epoch(),
                shards
            );
        }
        handle.refresh_with(&*snap, Some(idx.warm_pool()));
        let requery = nn_candidates(&*snap, handle.query(), op, &cfg);
        let repaired: Vec<(usize, u64)> = handle
            .candidates()
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect();
        let queried: Vec<(usize, u64)> = requery
            .candidates
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect();
        assert_eq!(
            repaired,
            queried,
            "warm continuous repair diverged at epoch {} ({} shards)",
            snap.epoch(),
            shards
        );
    }
}

#[test]
fn warm_matches_cold_across_churn_flat() {
    churn_identity(1);
}

#[test]
fn warm_matches_cold_across_churn_sharded() {
    churn_identity(3);
}

/// A pool keyed to one store can never serve entries to another store:
/// the foreign snapshot forces a full rebuild, so the second run's
/// misses repeat and no cross-store hit is ever recorded. The query is
/// run twice on each store, so the warm traffic counted is its query
/// table's (a first sighting builds privately and counts nothing).
#[test]
fn foreign_store_never_serves_stale_entries() {
    let objects = an_objects(80, 4, 5);
    let q = queries_for(&objects, 9).remove(0);
    let cfg = FilterConfig::all();
    let op = Operator::SSd;

    let a = Database::new(objects.clone());
    let b = Database::new(objects);
    let pool = WarmPool::new();

    nn_candidates_warm(&a, &q, op, &cfg, &pool);
    let on_a = nn_candidates_warm(&a, &q, op, &cfg, &pool);
    let after_a = pool.stats();

    // Same bytes, different store: the (ptr, epoch) key must not match.
    nn_candidates_warm(&b, &q, op, &cfg, &pool);
    let on_b = nn_candidates_warm(&b, &q, op, &cfg, &pool);
    let after_b = pool.stats();

    assert_eq!(fingerprint(&on_a), fingerprint(&on_b));
    assert_eq!(
        after_b.hits, after_a.hits,
        "a hit after the store swap means a stale entry was served"
    );
    assert!(
        after_b.misses > after_a.misses,
        "the foreign store must rebuild, not reuse"
    );

    // Re-running on the *same* store now hits.
    let again = nn_candidates_warm(&b, &q, op, &cfg, &pool);
    assert_eq!(fingerprint(&on_b), fingerprint(&again));
    let after_again = pool.stats();
    assert!(
        after_again.hits > after_b.hits,
        "same-snapshot reuse must hit"
    );
}

/// Epoch invalidation through the published chain: a mutation that
/// touches a cached object evicts its entries; the stale epoch key never
/// answers on the new snapshot (the pool's cache epoch always tracks
/// the snapshot it serves). The query is run twice first, so its table
/// holds the entries the mutation evicts.
#[test]
fn swapped_epoch_evicts_touched_entries() {
    let objects = an_objects(100, 4, 11);
    let q = queries_for(&objects, 13).remove(0);
    let cfg = FilterConfig::all();
    let op = Operator::PSd;

    let idx = PublishedIndex::new(ShardedDatabase::new(objects, 2));
    nn_candidates_warm(&*idx.pin(), &q, op, &cfg, idx.warm_pool());
    let warm0 = nn_candidates_warm(&*idx.pin(), &q, op, &cfg, idx.warm_pool());
    let victim = warm0.candidates.first().map(|c| c.id).unwrap();
    let stats0 = idx.warm_pool().stats();
    assert_eq!(stats0.epoch, 0);

    idx.delete(victim).unwrap();
    let snap = idx.pin();
    let warm1 = nn_candidates_warm(&*snap, &q, op, &cfg, idx.warm_pool());
    let cold1 = nn_candidates(&*snap, &q, op, &cfg);
    let stats1 = idx.warm_pool().stats();

    assert_eq!(fingerprint(&warm1), fingerprint(&cold1));
    assert!(
        warm1.candidates.iter().all(|c| c.id != victim),
        "a tombstoned object leaked out of the warm path"
    );
    assert_eq!(
        stats1.epoch,
        snap.epoch(),
        "the pool must key to the snapshot it serves"
    );
    assert!(
        stats1.evictions > stats0.evictions,
        "deleting a cached candidate must evict its warm entries"
    );
}

/// An object updated after the pool already holds its warm entries — its
/// records in admitted query tables — is re-read warm: every such entry
/// must have been evicted, so the warm answers match cold ones on the new
/// snapshot.
/// The pool is churned first (inserts and deletes between warm reads,
/// each query read twice so its query table is admitted), and the update
/// reshapes the object in place (one instance fewer, shifted) so any entry
/// left over from the old object changes what the warm path computes.
#[test]
fn object_updated_after_its_entries_are_held_reads_fresh() {
    for shards in [1, 3] {
        let objects = an_objects(160, 5, 0x51a);
        let pool = an_objects(8, 5, 91);
        let queries = queries_for(&objects, 17);
        let cfg = FilterConfig::all();
        let op = Operator::PSd;
        let idx = PublishedIndex::new(ShardedDatabase::new(objects, shards));
        let read_all = |check: bool| {
            let snap = idx.pin();
            for q in &queries {
                for _ in 0..2 {
                    let warm = nn_candidates_warm(&*snap, q, op, &cfg, idx.warm_pool());
                    if check {
                        let cold = nn_candidates(&*snap, q, op, &cfg);
                        assert_eq!(
                            fingerprint(&warm),
                            fingerprint(&cold),
                            "warm diverged from cold at epoch {} ({} shards)",
                            snap.epoch(),
                            shards
                        );
                    }
                }
            }
        };
        for (i, o) in pool.iter().enumerate() {
            idx.insert(o.clone()).unwrap();
            idx.delete(7 + 19 * i).unwrap();
            read_all(false);
        }

        // Ids whose query-table records the pool holds.
        let audit = idx.warm_pool().cache_for(&*idx.pin()).audit();
        let held: Vec<usize> = audit
            .tables
            .iter()
            .flat_map(|t| t.filled.iter().copied())
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        assert!(held.len() >= 3, "the churned pool must hold query records");

        for k in 0..3 {
            let id = held[k * held.len() / 3];
            let old = idx.pin().object(id).to_object();
            let reshaped: Vec<Point> = old.instances()[1..]
                .iter()
                .map(|inst| {
                    Point::new(
                        inst.point
                            .coords()
                            .iter()
                            .enumerate()
                            .map(|(d, c)| c + 23.5 - 17.0 * d as f64)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            idx.update(id, UncertainObject::uniform(reshaped)).unwrap();
            read_all(true);
        }
    }
}

/// Traversal keys held by an admitted query table are dropped with the
/// objects they key. Each query is read twice between mutations, so its
/// table is admitted and holds the key of every object its traversal
/// pushed. Then candidates whose keys the tables hold are updated in
/// place (shifted, one instance fewer, so their `δ_min` moves) or
/// deleted, and every warm answer must still match a cold run on the
/// same snapshot, `min_dist` bits included.
#[test]
fn keys_held_by_query_tables_follow_updates() {
    for shards in [1, 3] {
        let objects = an_objects(160, 5, 0x6b7);
        let queries = queries_for(&objects, 23);
        let cfg = FilterConfig::all();
        let op = Operator::PSd;
        let idx = PublishedIndex::new(ShardedDatabase::new(objects, shards));
        let read_all = || {
            let snap = idx.pin();
            for q in &queries {
                let cold = nn_candidates(&*snap, q, op, &cfg);
                for _ in 0..2 {
                    let warm = nn_candidates_warm(&*snap, q, op, &cfg, idx.warm_pool());
                    assert_eq!(
                        fingerprint(&warm),
                        fingerprint(&cold),
                        "warm diverged from cold at epoch {} ({} shards)",
                        snap.epoch(),
                        shards
                    );
                }
            }
        };
        read_all();
        for round in 0..3 {
            let snap = idx.pin();
            let audit = idx.warm_pool().cache_for(&*snap).audit();
            let keyed: BTreeSet<usize> = audit
                .tables
                .iter()
                .flat_map(|t| t.keys.iter().copied())
                .collect();
            let mut targets: Vec<usize> = queries
                .iter()
                .flat_map(|q| nn_candidates(&*snap, q, op, &cfg).ids())
                .filter(|id| keyed.contains(id))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            assert!(
                targets.len() >= 4,
                "round {round}: too few keyed candidates"
            );
            let step = targets.len() / 4;
            for (k, &id) in targets.iter().step_by(step).take(4).enumerate() {
                if k % 2 == 0 {
                    let old = snap.object(id).to_object();
                    let shifted: Vec<Point> = old.instances()[1..]
                        .iter()
                        .map(|inst| {
                            let c = inst.point.coords();
                            Point::new(vec![c[0] + 6.5, c[1] - 4.0])
                        })
                        .collect();
                    idx.update(id, UncertainObject::uniform(shifted)).unwrap();
                } else {
                    idx.delete(id).unwrap();
                }
            }
            read_all();
        }
    }
}

/// A key list older than the epoch log's window is dropped whole: the log
/// can no longer say which of its keys went stale. The query's first
/// candidate is updated, then more changes than the log keeps are
/// published while the pool rolls forward without reading the query, so
/// its table (and the list holding the candidate's old key) is carried
/// along. The next warm answer must match a cold one.
#[test]
fn keys_older_than_the_epoch_log_are_dropped() {
    let objects = an_objects(60, 4, 0x10c);
    let q = queries_for(&objects, 41).remove(0);
    let cfg = FilterConfig::all();
    let op = Operator::SSd;
    let idx = PublishedIndex::new(Database::new(objects));
    for _ in 0..2 {
        nn_candidates_warm(&*idx.pin(), &q, op, &cfg, idx.warm_pool());
    }
    let first = nn_candidates(&*idx.pin(), &q, op, &cfg).candidates[0].id;
    let shifted = |id: usize, dx: f64| {
        let old = idx.pin().object(id).to_object();
        let points = old.instances()[1..].iter().map(|inst| {
            let c = inst.point.coords();
            Point::new(vec![c[0] + dx, c[1] + dx])
        });
        UncertainObject::uniform(points.collect())
    };
    idx.update(first, shifted(first, 3.0)).unwrap();
    let other = (first + 30) % 60;
    let shapes = [shifted(other, 0.0), shifted(other, 1.0)];
    for k in 0..osd_uncertain::DEFAULT_LOG_CAP + 8 {
        idx.update(other, shapes[k % 2].clone()).unwrap();
        idx.warm_pool().cache_for(&*idx.pin());
    }
    let snap = idx.pin();
    assert!(
        snap.changes_since(1).is_none(),
        "the log still covers the list"
    );
    let warm = nn_candidates_warm(&*snap, &q, op, &cfg, idx.warm_pool());
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&nn_candidates(&*snap, &q, op, &cfg))
    );
}
