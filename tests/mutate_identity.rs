//! Mutation identity: an index that grew through interleaved
//! insert/delete/update publishes **bit-identical** query results to an
//! index rebuilt from scratch over the surviving objects — ids (through
//! the tombstone-aware id map), `min_dist` bits, and emission order — for
//! both physical layouts. A standing [`ContinuousNnc`] handle refreshed
//! across the same epochs must match a full re-query on every snapshot.
//!
//! Everything here also runs under `--features strict-invariants`, where
//! the store audits and R-tree structure checks ride along with every
//! mutation.

// Integration test: exact values and aborts are intentional.
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use osd_core::{
    k_nn_candidates, nn_candidates, ContinuousNnc, Database, FilterConfig, Operator, PreparedQuery,
    PublishedIndex, Repair, ShardedDatabase, SpatialIndex,
};
use osd_datagen::{
    clustered_centers_2d, generate_objects, object_around, objects_from_centers,
    CenterDistribution, SynthParams,
};
use osd_uncertain::UncertainObject;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// One scripted mutation; `pick` indexes into the live id set, `fresh`
/// into the replacement-object pool.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { fresh: usize },
    Delete { pick: usize },
    Update { pick: usize, fresh: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..3, 0usize..1000, 0usize..1000).prop_map(|(kind, pick, fresh)| match kind {
        0 => Op::Insert { fresh },
        1 => Op::Delete { pick },
        _ => Op::Update { pick, fresh },
    })
}

/// The rebuild-from-scratch oracle: a fresh flat database over the live
/// objects in logical-id order, plus the dense→logical id map. The map is
/// monotone, so `(δ, id)` tie-breaks agree between the two id spaces.
fn oracle_of(shadow: &[Option<UncertainObject>]) -> (Database, Vec<usize>) {
    let mut logical_of = Vec::new();
    let mut live = Vec::new();
    for (id, slot) in shadow.iter().enumerate() {
        if let Some(obj) = slot {
            logical_of.push(id);
            live.push(obj.clone());
        }
    }
    (Database::new(live), logical_of)
}

/// Asserts the mutated index and the rebuilt oracle emit bit-identical
/// candidates (ids through the id map, `min_dist` bits, order).
fn assert_matches_oracle(
    db: &dyn SpatialIndex,
    shadow: &[Option<UncertainObject>],
    query: &PreparedQuery,
    op: Operator,
) {
    let cfg = FilterConfig::all();
    let mutated = nn_candidates(db, query, op, &cfg);
    let (oracle, logical_of) = oracle_of(shadow);
    let fresh = nn_candidates(&oracle, query, op, &cfg);
    let got: Vec<(usize, u64)> = mutated
        .candidates
        .iter()
        .map(|c| (c.id, c.min_dist.to_bits()))
        .collect();
    let want: Vec<(usize, u64)> = fresh
        .candidates
        .iter()
        .map(|c| (logical_of[c.id], c.min_dist.to_bits()))
        .collect();
    assert_eq!(got, want, "{op:?}: mutated index diverged from rebuild");

    // k-NNC (k = 2): ids, min_dist bits, order AND dominator counts.
    let mutated_k = k_nn_candidates(db, query, op, 2, &cfg);
    let fresh_k = k_nn_candidates(&oracle, query, op, 2, &cfg);
    let got_k: Vec<(usize, u64, usize)> = mutated_k
        .candidates
        .iter()
        .map(|(c, doms)| (c.id, c.min_dist.to_bits(), *doms))
        .collect();
    let want_k: Vec<(usize, u64, usize)> = fresh_k
        .candidates
        .iter()
        .map(|(c, doms)| (logical_of[c.id], c.min_dist.to_bits(), *doms))
        .collect();
    assert_eq!(got_k, want_k, "{op:?}: mutated k-NNC diverged from rebuild");
}

/// Asserts a refreshed standing handle is bit-identical to a full
/// re-query on the same snapshot.
fn assert_handle_matches(handle: &ContinuousNnc, db: &dyn SpatialIndex) {
    let full = nn_candidates(db, handle.query(), handle.op(), &FilterConfig::all());
    let got: Vec<(usize, u64)> = handle
        .candidates()
        .iter()
        .map(|c| (c.id, c.min_dist.to_bits()))
        .collect();
    let want: Vec<(usize, u64)> = full
        .candidates
        .iter()
        .map(|c| (c.id, c.min_dist.to_bits()))
        .collect();
    assert_eq!(
        got,
        want,
        "continuous repair diverged from full re-query at epoch {}",
        db.epoch()
    );
}

/// Drives one scripted run against both layouts, checking the oracle and
/// the standing handles after every published epoch.
fn run_script(seed: u64, ops: &[Op], op: Operator, shards: usize) {
    let pool = an_objects(64, 3, seed ^ 0x9e37_79b9);
    let mut next_fresh = 0usize;
    let mut take = |fresh: usize| {
        let obj = pool[(fresh + next_fresh) % pool.len()].clone();
        next_fresh += 1;
        obj
    };

    let seed_objects = an_objects(24, 3, seed);
    let mut shadow: Vec<Option<UncertainObject>> = seed_objects.iter().cloned().map(Some).collect();
    let mut flat = Database::new(seed_objects.clone());
    let mut sharded = ShardedDatabase::new(seed_objects, shards);

    let query = PreparedQuery::new(pool[pool.len() - 1].clone());
    let mut flat_handle = ContinuousNnc::new(&flat, query.clone(), op, FilterConfig::all());
    let mut sharded_handle = ContinuousNnc::new(&sharded, query.clone(), op, FilterConfig::all());

    for &scripted in ops {
        let live: Vec<usize> = (0..shadow.len()).filter(|&i| shadow[i].is_some()).collect();
        match scripted {
            Op::Insert { fresh } => {
                let obj = take(fresh);
                let id_flat = flat.try_insert(obj.clone()).expect("insert");
                let id_sharded = sharded.try_insert(obj.clone()).expect("insert");
                assert_eq!(id_flat, shadow.len(), "ids are dense over the id space");
                assert_eq!(id_flat, id_sharded, "layouts must agree on ids");
                shadow.push(Some(obj));
            }
            Op::Delete { pick } => {
                if live.len() <= 1 {
                    continue;
                }
                let id = live[pick % live.len()];
                flat.try_delete(id).expect("live id deletes");
                sharded.try_delete(id).expect("live id deletes");
                shadow[id] = None;
            }
            Op::Update { pick, fresh } => {
                let id = live[pick % live.len()];
                let obj = take(fresh);
                flat.try_update(id, obj.clone()).expect("live id updates");
                sharded
                    .try_update(id, obj.clone())
                    .expect("live id updates");
                shadow[id] = Some(obj);
            }
        }
        assert_eq!(flat.epoch(), sharded.epoch(), "epochs advance in lockstep");
        assert_matches_oracle(&flat, &shadow, &query, op);
        assert_matches_oracle(&sharded, &shadow, &query, op);
        flat_handle.refresh(&flat);
        sharded_handle.refresh(&sharded);
        assert_handle_matches(&flat_handle, &flat);
        assert_handle_matches(&sharded_handle, &sharded);
        assert_eq!(
            flat_handle.ids(),
            sharded_handle.ids(),
            "standing handles agree across layouts"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings, flat and 3-way sharded, peer dominance.
    #[test]
    fn prop_interleaved_mutations_match_rebuild_psd(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(op_strategy(), 1..14),
    ) {
        run_script(seed, &ops, Operator::PSd, 3);
    }

    /// Same scripts under strict stochastic dominance and more shards.
    #[test]
    fn prop_interleaved_mutations_match_rebuild_ssd(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(op_strategy(), 1..10),
    ) {
        run_script(seed, &ops, Operator::SSd, 4);
    }
}

/// Every operator survives a fixed interleaving touching all three
/// mutation kinds (cheap determinism on top of the randomized runs).
#[test]
fn all_operators_survive_a_fixed_interleaving() {
    let script = [
        Op::Insert { fresh: 3 },
        Op::Delete { pick: 5 },
        Op::Update { pick: 2, fresh: 11 },
        Op::Insert { fresh: 29 },
        Op::Delete { pick: 0 },
        Op::Update { pick: 7, fresh: 41 },
    ];
    for op in Operator::ALL {
        run_script(7, &script, op, 3);
    }
}

/// The USA surrogate (2-d, 64 clusters) with `m_d = 4` instances per
/// object at edge 400.
fn usa_objects(n: usize, seed: u64) -> Vec<UncertainObject> {
    objects_from_centers(&clustered_centers_2d(n, 64, seed), 4, 400.0, seed ^ 0x33)
}

/// Churn on a published 8-shard USA index while two reader threads query
/// pinned snapshots: insert, delete and update round-robin, each published
/// as one epoch. Readers never see a dead candidate; after every publish
/// the standing handle repairs once and matches a full re-query.
#[test]
fn published_churn_under_concurrent_readers() {
    let (n, mutations, shards, readers) = (600, 60, 8, 2);
    let seed = 0x06e7;
    let objects = usa_objects(n, seed);
    let pool = usa_objects(n, seed ^ 0x00c0_ffee);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    let queries: Vec<PreparedQuery> = (0..8)
        .map(|_| {
            let center = objects[rng.gen_range(0..objects.len())].mbr().center();
            PreparedQuery::new(object_around(&mut rng, center.coords(), 2, 3, 200.0))
        })
        .collect();
    let op = Operator::SSd;
    let cfg = FilterConfig::all();

    let published = PublishedIndex::new(ShardedDatabase::new(objects, shards));
    let mut handle = ContinuousNnc::new(&*published.pin(), queries[0].clone(), op, cfg);
    let mut alive: Vec<usize> = (0..n).collect();
    let mut repairs = 0usize;
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(readers);
        for r in 0..readers {
            let (published, queries, cfg, stop, reads) =
                (&published, &queries, &cfg, &stop, &reads);
            handles.push(s.spawn(move || {
                let mut q = r;
                while !stop.load(Ordering::Relaxed) {
                    let snap = published.pin();
                    let res = nn_candidates(&*snap, &queries[q % queries.len()], op, cfg);
                    assert!(
                        res.candidates.iter().all(|c| snap.is_live(c.id)),
                        "reader saw a dead candidate through a pinned snapshot"
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                    q += 1;
                }
            }));
        }

        for i in 0..mutations {
            // Publish mutation i only once the readers have finished i + 1
            // queries, so reads interleave with the churn. A reader that
            // finished early has panicked; the scope re-raises it.
            while reads.load(Ordering::Relaxed) <= i as u64
                && !handles.iter().any(|h| h.is_finished())
            {
                std::thread::yield_now();
            }
            match i % 3 {
                0 => alive.push(
                    published
                        .insert(pool[i % pool.len()].clone())
                        .expect("insert"),
                ),
                1 => {
                    let victim = alive.remove((i * 7) % alive.len());
                    published.delete(victim).expect("live id deletes");
                }
                _ => {
                    let target = alive[(i * 5) % alive.len()];
                    let obj = pool[(i + 1) % pool.len()].clone();
                    published.update(target, obj).expect("live id updates");
                }
            }
            let snap = published.pin();
            match handle.refresh(&*snap) {
                Repair::Incremental { .. } | Repair::Full => repairs += 1,
                Repair::UpToDate => {}
            }
            assert_handle_matches(&handle, &*snap);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let last = published.pin();
    assert_eq!(last.epoch(), mutations as u64, "every mutation publishes");
    assert_eq!(
        last.tombstone_count(),
        mutations.div_ceil(3),
        "one tombstone per delete in the script"
    );
    assert!(
        reads.load(Ordering::Relaxed) > 0,
        "readers made no progress during churn"
    );
    assert_eq!(repairs, mutations, "every epoch repairs exactly once");
}

/// Every shard tree holds exactly the live ids it owns: each live id sits
/// in exactly one shard tree, no dead id sits in any, and every tree
/// validates.
fn assert_shards_partition_live_ids(db: &ShardedDatabase, context: &str) {
    let mut owners = vec![0usize; db.len()];
    for s in 0..db.shard_count() {
        let tree = db.shard_tree(s);
        tree.validate_structure()
            .unwrap_or_else(|e| panic!("{context}: shard {s} invalid: {e}"));
        for &id in tree.items() {
            owners[id] += 1;
        }
    }
    for (id, &count) in owners.iter().enumerate() {
        assert_eq!(
            count,
            usize::from(db.is_live(id)),
            "{context}: id {id} (live: {}) sits in {count} shard trees",
            db.is_live(id)
        );
    }
}

/// Removal finds a shard-tree entry by containment of the box the entry
/// was indexed under, probing every shard until one holds it. On an
/// 8-shard USA surrogate whose trees have inner nodes, an
/// insert/delete/update script must leave every live id in exactly one
/// shard tree and every tree valid after each step: a box looked up on
/// delete or update that differed from the indexed one would leave the
/// old entry behind.
#[test]
fn sharded_removal_keeps_live_ids_partitioned() {
    let (n, shards, mutations) = (2000, 8, 240);
    let seed = 0x5a4d;
    let pool = usa_objects(n, seed ^ 0x0bad);
    let mut db = ShardedDatabase::new(usa_objects(n, seed), shards);
    assert!(
        (0..db.shard_count()).all(|s| db.shard_tree(s).height() >= Some(1)),
        "every shard tree needs inner nodes"
    );
    assert_shards_partition_live_ids(&db, "build");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alive: Vec<usize> = (0..n).collect();
    for step in 0..mutations {
        let obj = pool[rng.gen_range(0..pool.len())].clone();
        match step % 3 {
            0 => alive.push(db.try_insert(obj).expect("insert")),
            1 => {
                let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
                db.try_delete(victim).expect("live id deletes");
            }
            _ => {
                let target = alive[rng.gen_range(0..alive.len())];
                db.try_update(target, obj).expect("live id updates");
            }
        }
        assert_eq!(db.live_len(), alive.len());
        assert_shards_partition_live_ids(&db, &format!("step {step}"));
    }
}
