//! End-to-end pipeline tests: generated datasets → indexed database →
//! NN-candidate search, checked for the Figure 5 inclusion chain, oracle
//! agreement, and the multi-valued-object normalisation claim of §1.

// Integration test: exact values and aborts are intentional.
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use osd::core::{ShardedDatabase, SpatialIndex};
use osd::datagen::semireal::{clustered_centers_2d, objects_from_centers};
use osd::datagen::{
    generate_objects, generate_queries, gowalla_like, nba_like, CenterDistribution, SynthParams,
};
use osd::prelude::*;
use std::collections::BTreeSet;

fn candidate_sets(db: &Database, q: &PreparedQuery) -> Vec<BTreeSet<usize>> {
    Operator::ALL
        .iter()
        .map(|&op| {
            nn_candidates(db, q, op, &FilterConfig::all())
                .ids()
                .into_iter()
                .collect()
        })
        .collect()
}

#[test]
fn synthetic_pipeline_inclusion_and_oracle() {
    let params = SynthParams {
        n: 150,
        dim: 3,
        instances: 6,
        edge: 800.0,
        centers: CenterDistribution::AntiCorrelated,
        seed: 11,
    };
    let objects = generate_objects(&params);
    let queries = generate_queries(&params, 3, 5, 400.0, 77);
    let db = Database::new(objects);
    for q in queries {
        let pq = PreparedQuery::new(q);
        let sets = candidate_sets(&db, &pq);
        // Figure 5: NNC(S-SD) ⊆ NNC(SS-SD) ⊆ NNC(P-SD) ⊆ NNC(F-SD) ⊆ NNC(F⁺-SD).
        for w in sets.windows(2) {
            assert!(
                w[0].is_subset(&w[1]),
                "inclusion chain broken: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        assert!(!sets[0].is_empty(), "candidate sets are never empty");
        // Algorithm 1 agrees with the O(n²) oracle.
        for (i, &op) in Operator::ALL.iter().enumerate() {
            let (brute, _) = nn_candidates_bruteforce(&db, &pq, op, &FilterConfig::all());
            let brute: BTreeSet<usize> = brute.into_iter().collect();
            assert_eq!(sets[i], brute, "oracle mismatch for {op:?}");
        }
    }
}

#[test]
fn overlapping_dataset_pipeline() {
    // NBA-like data is the adversarial case: heavy overlap, big candidate
    // sets.
    let objects = nba_like(60, 12, 5);
    let db = Database::new(objects);
    let pq = PreparedQuery::new(UncertainObject::uniform(vec![
        Point::from([5_000.0, 3_000.0, 4_000.0]),
        Point::from([5_200.0, 3_100.0, 4_100.0]),
    ]));
    let sets = candidate_sets(&db, &pq);
    for w in sets.windows(2) {
        assert!(w[0].is_subset(&w[1]));
    }
    // Overlap makes F-SD nearly useless (the paper's NBA/GW observation):
    // its candidate set should be much larger than S-SD's.
    assert!(
        sets[3].len() >= sets[0].len(),
        "FSD should not beat SSD on overlapping data"
    );
}

#[test]
fn clustered_2d_pipeline() {
    let objects = gowalla_like(120, 8, 6);
    let db = Database::new(objects);
    let pq = PreparedQuery::new(UncertainObject::uniform(vec![
        Point::from([5_000.0, 5_000.0]),
        Point::from([5_050.0, 4_950.0]),
    ]));
    let sets = candidate_sets(&db, &pq);
    for w in sets.windows(2) {
        assert!(w[0].is_subset(&w[1]));
    }
    for (i, &op) in Operator::ALL.iter().enumerate() {
        let (brute, _) = nn_candidates_bruteforce(&db, &pq, op, &FilterConfig::all());
        let brute: BTreeSet<usize> = brute.into_iter().collect();
        assert_eq!(sets[i], brute, "oracle mismatch for {op:?}");
    }
}

/// The sharded bit-identity gate at a size where the shard trees have
/// inner nodes: on the USA surrogate (2-d clustered centres, 4 instances
/// per object) an 8-tile index searched as one merged forest emits the
/// same candidate ids and `min_dist` bits as the flat index, for every
/// operator. The shared prune bound then discards inner nodes across
/// shards, which the few-object `shard_identity` properties never reach.
#[test]
fn usa_surrogate_sharded_matches_flat() {
    const N: usize = 2_000;
    const SHARDS: usize = 8;
    let centers = clustered_centers_2d(N, 64, 0x0517);
    let objects = objects_from_centers(&centers, 4, 400.0, 0x0517 ^ 0x33);
    let query_centers: Vec<Vec<f64>> = centers.iter().step_by(N / 5).cloned().collect();
    let queries = objects_from_centers(&query_centers, 3, 200.0, 0x9e37);

    let flat = Database::new(objects.clone());
    let sharded = ShardedDatabase::new(objects, SHARDS);
    let stats = sharded.index_stats();
    // STR packing may overshoot the requested tile count, never undershoot.
    assert!(stats.shards.len() >= SHARDS, "{} tiles", stats.shards.len());
    assert_eq!(stats.shards.iter().map(|s| s.objects).sum::<usize>(), N);
    assert!(
        stats.shards.iter().all(|s| s.tree_height >= Some(1)),
        "every shard tree must have inner nodes"
    );

    let cfg = FilterConfig::all();
    for q in queries {
        let pq = PreparedQuery::new(q);
        for op in Operator::ALL {
            let bits = |r: &NncResult| -> Vec<(usize, u64)> {
                r.candidates
                    .iter()
                    .map(|c| (c.id, c.min_dist.to_bits()))
                    .collect()
            };
            let base = bits(&nn_candidates(&flat, &pq, op, &cfg));
            let merged = bits(&nn_candidates(&sharded, &pq, op, &cfg));
            assert_eq!(merged, base, "{op:?}: sharded diverged from flat");
        }
    }
}

/// §1 / §2.1: multi-valued objects are normalised to probabilities for
/// dominance checking; the NN candidates must be identical whether weights
/// arrive raw or pre-normalised (equal total masses).
#[test]
fn multivalued_normalisation_preserves_candidates() {
    let raw: Vec<Vec<(Point, f64)>> = vec![
        vec![
            (Point::from([1.0, 1.0]), 2.0),
            (Point::from([2.0, 1.5]), 4.0),
            (Point::from([1.5, 2.0]), 2.0),
        ],
        vec![
            (Point::from([3.0, 3.0]), 6.0),
            (Point::from([4.0, 2.0]), 2.0),
        ],
        vec![
            (Point::from([8.0, 8.0]), 4.0),
            (Point::from([9.0, 9.0]), 4.0),
        ],
    ];
    let weighted: Vec<UncertainObject> = raw
        .iter()
        .map(|insts| UncertainObject::from_weighted(insts.clone()))
        .collect();
    let normalised: Vec<UncertainObject> = raw
        .iter()
        .map(|insts| {
            let total: f64 = insts.iter().map(|(_, w)| w).sum();
            UncertainObject::new(insts.iter().map(|(p, w)| (p.clone(), w / total)).collect())
        })
        .collect();
    let q = PreparedQuery::new(UncertainObject::uniform(vec![Point::from([0.0, 0.0])]));
    let db_w = Database::new(weighted);
    let db_n = Database::new(normalised);
    for op in Operator::ALL {
        let a = nn_candidates(&db_w, &q, op, &FilterConfig::all()).ids();
        let b = nn_candidates(&db_n, &q, op, &FilterConfig::all()).ids();
        assert_eq!(a, b, "normalisation changed candidates for {op:?}");
    }
}

/// The filter ablation ladder returns identical candidate sets at database
/// scale (the §5.1 filters are exactness-preserving end to end).
#[test]
fn filter_ladder_consistent_at_scale() {
    let params = SynthParams {
        n: 80,
        dim: 2,
        instances: 5,
        edge: 1000.0,
        centers: CenterDistribution::Independent,
        seed: 21,
    };
    let objects = generate_objects(&params);
    let queries = generate_queries(&params, 2, 4, 500.0, 13);
    let db = Database::new(objects);
    for q in queries {
        let pq = PreparedQuery::new(q);
        for op in [Operator::SSd, Operator::SsSd, Operator::PSd] {
            let baseline: BTreeSet<usize> = nn_candidates(&db, &pq, op, &FilterConfig::bf())
                .ids()
                .into_iter()
                .collect();
            for (name, cfg) in FilterConfig::ablation_ladder() {
                let got: BTreeSet<usize> = nn_candidates(&db, &pq, op, &cfg)
                    .ids()
                    .into_iter()
                    .collect();
                assert_eq!(got, baseline, "{op:?} under {name} changed the candidates");
            }
        }
    }
}

/// Query preparation invariants on generated data: hull ⊆ instances and
/// dominance answers identical with/without the hull reduction (covered by
/// the geometric flag inside the ladder, asserted here at object level).
#[test]
fn query_hull_reduction_is_lossless() {
    let params = SynthParams {
        n: 30,
        dim: 2,
        instances: 8,
        edge: 900.0,
        centers: CenterDistribution::Independent,
        seed: 31,
    };
    let objects = generate_objects(&params);
    let queries = generate_queries(&params, 5, 12, 600.0, 17);
    for q in queries {
        let pq = PreparedQuery::new(q);
        assert!(pq.hull().len() <= pq.instance_points().len());
        for u in objects.iter().take(6) {
            for v in objects.iter().take(6) {
                let full = osd::geom::closer_to_all(
                    &u.instances()[0].point,
                    &v.instances()[0].point,
                    pq.instance_points(),
                );
                let hull = osd::geom::closer_to_all(
                    &u.instances()[0].point,
                    &v.instances()[0].point,
                    pq.hull(),
                );
                assert_eq!(full, hull, "hull reduction changed ⪯_Q");
            }
        }
    }
}
