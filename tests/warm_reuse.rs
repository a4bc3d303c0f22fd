//! Warm-cache reuse gate: a repeated-query P-SD workload answered through
//! a snapshot-scoped [`WarmPool`] must be bit-identical to the cold path —
//! candidate ids, `min_dist` bits, order and [`osd_core::Stats`] — on a
//! flat index, on an 8-tile sharded index, and at every epoch of an
//! insert/delete/update churn driven through [`PublishedIndex`]. The pool
//! must also do its job: the repeats hit, first touches miss, and the
//! churn evicts touched entries.
//!
//! The workload is 250 A-N objects (10 instances each, `h_d = 400`) and
//! four queries (6 instances, `h_q = 200`) repeated three times,
//! interleaved so reuse is across queries, not just adjacent duplicates.
//! Churn publishes 12 mutations, deleting and updating ids the last warm
//! batch returned as candidates, so the cache certainly holds their
//! entries.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_core::{
    FilterConfig, NncResult, Operator, PreparedQuery, PublishedIndex, QueryEngine, ShardedDatabase,
    SpatialIndex, Stats, WarmPool,
};
use osd_datagen::{generate_objects, object_around, CenterDistribution, SynthParams};
use osd_uncertain::UncertainObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x0aa7;
const SHARDS: usize = 8;
const OP: Operator = Operator::PSd;

fn objects() -> Vec<UncertainObject> {
    generate_objects(&SynthParams {
        n: 250,
        dim: 2,
        instances: 10,
        edge: 400.0,
        centers: CenterDistribution::AntiCorrelated,
        seed: SEED,
    })
}

/// Four queries centred on randomly drawn objects.
fn base_queries(objects: &[UncertainObject]) -> Vec<PreparedQuery> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x9e37);
    (0..4)
        .map(|_| {
            let center = objects[rng.gen_range(0..objects.len())].mbr().center();
            let q = object_around(&mut rng, center.coords(), 2, 6, 200.0);
            PreparedQuery::new(q)
        })
        .collect()
}

/// `base` three times over, interleaved (q0 q1 … q3 q0 q1 …).
fn repeated(base: &[PreparedQuery]) -> Vec<PreparedQuery> {
    (0..3).flat_map(|_| base.iter().cloned()).collect()
}

type Fingerprint = (Vec<(usize, u64)>, Stats);

fn fingerprints(results: &[NncResult]) -> Vec<Fingerprint> {
    results
        .iter()
        .map(|r| {
            let ids = r.candidates.iter().map(|c| (c.id, c.min_dist.to_bits()));
            (ids.collect(), r.stats)
        })
        .collect()
}

/// Answers `queries` cold and warm through `pool`, asserting the warm
/// answers match; returns the warm results.
fn warm_matches_cold(
    db: &dyn SpatialIndex,
    queries: &[PreparedQuery],
    pool: &WarmPool,
    what: &str,
) -> Vec<NncResult> {
    let cold = QueryEngine::with_config(db, OP, FilterConfig::all()).run_batch(queries, 1);
    let warm = QueryEngine::with_config(db, OP, FilterConfig::all())
        .with_warm(pool)
        .run_batch(queries, 1);
    assert_eq!(
        fingerprints(&warm),
        fingerprints(&cold),
        "{what}: warm diverged from cold"
    );
    warm
}

#[test]
fn repeated_queries_are_bit_identical_and_hit_flat_and_sharded() {
    let objects = objects();
    let queries = repeated(&base_queries(&objects));
    for shards in [1, SHARDS] {
        let db = ShardedDatabase::new(objects.clone(), shards);
        let pool = WarmPool::new();
        warm_matches_cold(&db, &queries, &pool, &format!("{shards} shards"));
        let stats = pool.stats();
        assert!(stats.hits > 0, "{shards} shards: repeats must hit");
        assert!(stats.misses > 0, "{shards} shards: first touches miss");
        assert!(stats.resident_bytes > 0);
    }
}

#[test]
fn churn_epochs_stay_bit_identical_and_evict() {
    let objects = objects();
    let base = base_queries(&objects);
    let published = PublishedIndex::new(ShardedDatabase::new(objects.clone(), SHARDS));
    let mut alive: Vec<usize> = (0..objects.len()).collect();
    let snap = published.pin();
    let mut hot = candidates(&warm_matches_cold(
        &*snap,
        &base,
        published.warm_pool(),
        "epoch 0",
    ));
    for i in 0..12 {
        // A live id the last warm batch returned, else any live id.
        let pick = |fallback: usize, alive: &[usize], hot: &[usize]| {
            hot.iter()
                .copied()
                .find(|id| alive.contains(id))
                .unwrap_or(alive[fallback % alive.len()])
        };
        match i % 3 {
            0 => alive.push(
                published
                    .insert(objects[(i * 13) % objects.len()].clone())
                    .unwrap(),
            ),
            1 => {
                let victim = pick(i * 7, &alive, &hot);
                alive.retain(|&id| id != victim);
                published.delete(victim).unwrap();
            }
            _ => {
                let target = pick(i * 5, &alive, &hot);
                let moved = objects[(i + 1) % objects.len()].clone();
                published.update(target, moved).unwrap();
            }
        }
        let snap = published.pin();
        let what = format!("epoch {}", snap.epoch());
        hot = candidates(&warm_matches_cold(
            &*snap,
            &base,
            published.warm_pool(),
            &what,
        ));
    }
    let stats = published.warm_pool().stats();
    assert_eq!(stats.epoch, 12);
    assert!(stats.hits > 0 && stats.misses > 0);
    assert!(stats.evictions > 0, "churn must evict touched warm entries");
}

fn candidates(results: &[NncResult]) -> Vec<usize> {
    results
        .iter()
        .flat_map(|r| r.candidates.iter().map(|c| c.id))
        .collect()
}
