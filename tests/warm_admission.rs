//! Query-table admission: a [`WarmPool`] keeps query-keyed state (`U_Q`,
//! `U_q`, level bounds) only for queries it has seen before, and for at
//! most [`QUERY_TABLES`] of them.
//!
//! * A stream of distinct queries, each asked twice as a fresh query is
//!   (NNC, then k-NNC), never holds more than [`QUERY_TABLES`] tables, and
//!   the pool's gauge equals a recount after every step. Asked once each,
//!   they leave no query table at all.
//! * An admitted query serves `U_Q` and `U_q` warm from its third run on
//!   (its second run fills its table), with answers and [`Stats`]
//!   bit-identical to cold runs, under every operator that reads them.
//! * A first sighting publishes nothing query-keyed: its distributions are
//!   built privately, uncounted.
//! * Past the bound, reuse falls to the queries repeated within the last
//!   [`QUERY_TABLES`] distinct ones: a hot set of [`QUERY_TABLES`] asked
//!   in rounds is always served, one query more in the same cycle never
//!   is, and under skew the popular queries keep their tables while the
//!   rare ones are dropped before their next use.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_core::warm::QUERY_TABLES;
use osd_core::{
    k_nn_candidates, k_nn_candidates_warm, nn_candidates, nn_candidates_warm, Database,
    DominanceCache, FilterConfig, NncResult, Operator, PreparedQuery, QueryMetrics, Stats,
    WarmAudit, WarmPool,
};
use osd_datagen::{generate_objects, object_around, CenterDistribution, SynthParams};
use osd_uncertain::UncertainObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SEED: u64 = 0x0ad3;

fn objects() -> Vec<UncertainObject> {
    generate_objects(&SynthParams {
        n: 200,
        dim: 2,
        instances: 5,
        edge: 800.0,
        centers: CenterDistribution::AntiCorrelated,
        seed: SEED,
    })
}

/// `count` distinct queries, each around a random object.
fn queries(objects: &[UncertainObject], count: usize) -> Vec<PreparedQuery> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x51);
    (0..count)
        .map(|_| {
            let center = objects[rng.gen_range(0..objects.len())].mbr().center();
            PreparedQuery::new(object_around(&mut rng, center.coords(), 2, 4, 400.0))
        })
        .collect()
}

fn query_tables(audit: &WarmAudit) -> usize {
    audit.tables.len()
}

type Answer = (Vec<(usize, u64)>, Stats);

fn answer(r: &NncResult) -> Answer {
    let ids = r.candidates.iter().map(|c| (c.id, c.min_dist.to_bits()));
    (ids.collect(), r.stats)
}

#[test]
fn distinct_queries_stay_under_the_table_bound() {
    let objects = objects();
    let db = Database::new(objects.clone());
    let (op, cfg) = (Operator::PSd, FilterConfig::all());
    let qs = queries(&objects, 4 * QUERY_TABLES + 44);

    // Asked once each: no query table, ever.
    let pool = WarmPool::new();
    for q in &qs {
        nn_candidates_warm(&db, q, op, &cfg, &pool);
    }
    let audit = pool.cache_for(&db).audit();
    assert_eq!(query_tables(&audit), 0, "a first sighting got a table");
    assert_eq!(pool.stats().resident_bytes, audit.resident_bytes);

    // Asked twice each (NNC, then k-NNC): every query is admitted, and the
    // least recently used table makes room.
    let twice = |pool: &WarmPool, q: &PreparedQuery| {
        nn_candidates_warm(&db, q, op, &cfg, pool);
        k_nn_candidates_warm(&db, q, op, 2, &cfg, pool);
    };
    let pool = WarmPool::new();
    for (i, q) in qs.iter().enumerate() {
        twice(&pool, q);
        let audit = pool.cache_for(&db).audit();
        assert_eq!(query_tables(&audit), (i + 1).min(QUERY_TABLES), "query {i}");
        assert_eq!(
            pool.stats().resident_bytes,
            audit.resident_bytes,
            "query {i}: the gauge drifted from the recount"
        );
    }
    assert!(
        pool.stats().evictions > 0,
        "dropped tables count as evicted"
    );
    // Past the bound the pool holds the tables of the last QUERY_TABLES
    // queries and nothing else: byte for byte what a pool that served only
    // those queries holds.
    let reference = WarmPool::new();
    for q in &qs[qs.len() - QUERY_TABLES..] {
        twice(&reference, q);
    }
    let held = |pool: &WarmPool| {
        let audit = pool.cache_for(&db).audit();
        audit
            .tables
            .into_iter()
            .map(|t| (t.query, t.filled, t.bytes))
            .collect::<Vec<_>>()
    };
    assert_eq!(held(&pool), held(&reference));
}

/// For each lookup of `order` (indices into `qs`), whether it found an
/// admitted table.
fn served(db: &Database, qs: &[PreparedQuery], order: &[usize]) -> Vec<bool> {
    let cache = WarmPool::new().cache_for(db);
    order
        .iter()
        .map(|&i| cache.table_for(&qs[i]).is_some())
        .collect()
}

#[test]
fn reuse_past_the_bound_falls_to_the_recently_repeated() {
    let objects = objects();
    let db = Database::new(objects.clone());
    let qs = queries(&objects, 2 * QUERY_TABLES);
    let rounds =
        |hot: usize, count: usize| -> Vec<usize> { (0..count * hot).map(|i| i % hot).collect() };

    // A hot set of QUERY_TABLES asked round after round: the first round
    // sights it, every later lookup finds a table.
    let got = served(&db, &qs, &rounds(QUERY_TABLES, 4));
    assert!(got[..QUERY_TABLES].iter().all(|&t| !t));
    assert!(got[QUERY_TABLES..].iter().all(|&t| t));

    // One more query in the same cycle, and no lookup finds a table: each
    // repeat comes QUERY_TABLES first sightings later, when the ring of
    // sightings has just forgotten it. Cyclic access past the bound is
    // least-recently-used eviction's worst case.
    let got = served(&db, &qs, &rounds(QUERY_TABLES + 1, 4));
    assert!(got.iter().all(|&t| !t));

    // 2 × QUERY_TABLES hot queries, skewed: 16 popular ones, one in every
    // three lookups, between 112 rare ones, each asked twice in a row (as
    // a fresh query is, NNC then k-NNC) and then not for 336 lookups. The
    // popular ones keep their tables; each rare one is admitted by its
    // second ask and dropped, least recently used, before it comes again.
    let (popular, rare) = (16, 2 * QUERY_TABLES - 16);
    let order: Vec<usize> = (0..4 * rare)
        .flat_map(|i| [i % popular, popular + i % rare, popular + i % rare])
        .collect();
    let got = served(&db, &qs, &order);
    for (i, step) in got.chunks(3).enumerate().skip(popular) {
        assert!(step[0], "popular query {} lost its table", i % popular);
        assert_eq!((step[1], step[2]), (false, true), "rare query {}", i % rare);
    }
}

#[test]
fn an_admitted_query_serves_its_distributions_warm_and_bit_identically() {
    let objects = objects();
    let db = Database::new(objects.clone());
    let cfg = FilterConfig::all();
    let q = queries(&objects, 1).remove(0);
    // P-SD reads the aggregates of both, S-SD `U_Q`, SS-SD `U_q`.
    for op in [Operator::PSd, Operator::SSd, Operator::SsSd] {
        let cold = answer(&nn_candidates(&db, &q, op, &cfg));
        let cold_k = k_nn_candidates(&db, &q, op, 2, &cfg);
        let pool = WarmPool::new();
        let first = nn_candidates_warm(&db, &q, op, &cfg, &pool);
        assert_eq!(answer(&first), cold, "{op:?}: first sighting");
        let filling = nn_candidates_warm(&db, &q, op, &cfg, &pool);
        assert_eq!(answer(&filling), cold, "{op:?}: admitting run");
        let filled = pool.stats();
        let again = nn_candidates_warm(&db, &q, op, &cfg, &pool);
        assert_eq!(answer(&again), cold, "{op:?}: warm run");
        let served = pool.stats();
        assert_eq!(served.misses, filled.misses, "{op:?}: a repeat rebuilt");
        assert!(served.hits > filled.hits, "{op:?}");
        let warm_k = k_nn_candidates_warm(&db, &q, op, 2, &cfg, &pool);
        assert_eq!(warm_k.candidates.len(), cold_k.candidates.len());
        for ((a, da), (b, db_)) in warm_k.candidates.iter().zip(&cold_k.candidates) {
            assert_eq!(
                (a.id, a.min_dist.to_bits(), da),
                (b.id, b.min_dist.to_bits(), db_)
            );
        }
        assert_eq!(warm_k.stats, cold_k.stats, "{op:?}: k-NNC stats");

        // The runs published `U_Q` of every object they checked (each
        // check reads it first, for the statistic filter), and `U_q` where
        // the operator reads it: looking them up now hits.
        let audit = pool.cache_for(&db).audit();
        let records = audit.tables.first().unwrap();
        assert!(!records.filled.is_empty(), "{op:?}: nothing recorded");
        let (v1, v2) = (pool.view_for(&db, &q), pool.view_for(&db, &q));
        let (mut stats, mut m) = (Stats::default(), QueryMetrics::new());
        let before = pool.stats();
        let served: Vec<_> = records
            .filled
            .iter()
            .map(|&id| v1.dist_q(&db, &q, id, &mut m))
            .collect();
        assert_eq!(pool.stats().misses, before.misses, "{op:?}: U_Q missing");
        let mut per_q_hits = 0;
        for &id in &records.filled {
            let misses = pool.stats().misses;
            v1.per_q(&db, &q, id, &mut m);
            per_q_hits += usize::from(pool.stats().misses == misses);
        }
        assert_eq!(per_q_hits > 0, op != Operator::SSd, "{op:?}: U_q");
        // They hold the cold values, shared.
        let mut cold_cache = DominanceCache::new(db.len());
        for (&id, d) in records.filled.iter().zip(&served) {
            assert!(Arc::ptr_eq(d, &v2.dist_q(&db, &q, id, &mut m)));
            assert_eq!(**d, *cold_cache.dist_q(&db, &q, id, &mut stats, &mut m));
            let p = v1.per_q(&db, &q, id, &mut m);
            assert!(Arc::ptr_eq(&p, &v2.per_q(&db, &q, id, &mut m)));
            assert_eq!(*p, *cold_cache.per_q(&db, &q, id, &mut stats, &mut m));
        }
    }
}

#[test]
fn a_first_sighting_publishes_nothing_shared() {
    let objects = objects();
    let db = Database::new(objects.clone());
    let q = queries(&objects, 1).remove(0);
    let pool = WarmPool::new();
    let view = pool.view_for(&db, &q);
    let before = pool.stats();
    let mut m = QueryMetrics::new();
    let (a, b) = (
        view.dist_q(&db, &q, 7, &mut m),
        view.dist_q(&db, &q, 7, &mut m),
    );
    assert!(!Arc::ptr_eq(&a, &b), "a private build was shared");
    assert_eq!(*a, *b);
    view.per_q(&db, &q, 7, &mut m);
    assert_eq!(pool.stats(), before, "a private build was counted");
    let audit = pool.cache_for(&db).audit();
    assert_eq!(query_tables(&audit), 0);
    assert_eq!(audit.entries, 0);
}

/// A query's first run publishes nothing, keys included: with another
/// query sighted, it leaves the pool's resident bytes and layout as they
/// were, and its ids, `min_dist` bits and [`Stats`] equal a cold run's.
#[test]
fn a_first_run_publishes_nothing_and_answers_cold() {
    let objects = objects();
    let db = Database::new(objects.clone());
    let cfg = FilterConfig::all();
    let qs = queries(&objects, 2);
    for op in [Operator::PSd, Operator::SSd, Operator::SsSd] {
        let pool = WarmPool::new();
        pool.view_for(&db, &qs[0]);
        let before = pool.cache_for(&db).audit();
        let first = nn_candidates_warm(&db, &qs[1], op, &cfg, &pool);
        assert_eq!(
            answer(&first),
            answer(&nn_candidates(&db, &qs[1], op, &cfg)),
            "{op:?}"
        );
        let after = pool.cache_for(&db).audit();
        assert_eq!(pool.stats().resident_bytes, before.resident_bytes, "{op:?}");
        assert_eq!(after, before, "{op:?}: a first run published");
    }
}
