//! Bit-identity between the flat and sharded index paths.
//!
//! The sharding refactor's frozen contract: for every dominance operator
//! and every shard count, the merged-forest traversal's candidate set —
//! ids, `δ_min` **bits**, emission order, and k-NNC dominator counts —
//! must equal the flat `Database` baseline. Traversal *cost counters*
//! depend on the tiling, so they are deliberately not compared here.
//!
//! These databases hold at most 14 objects, so every shard tree is a
//! single leaf. The USA-surrogate case in the workspace's
//! `tests/pipeline.rs` (`usa_surrogate_sharded_matches_flat`) covers the
//! multi-level trees whose inner nodes the shared bound prunes across
//! shards.
//!
//! Run with `--features strict-invariants` too: the CI matrix exercises
//! both, so the R-tree structural validator audits every sharded build.

use osd_core::{
    k_nn_candidates, nn_candidates, Database, FilterConfig, Operator, PreparedQuery,
    ShardedDatabase, SpatialIndex,
};
use osd_geom::Point;
use osd_uncertain::UncertainObject;
use proptest::prelude::*;

fn object_strategy(max_m: usize) -> impl Strategy<Value = UncertainObject> {
    prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..max_m).prop_map(|pts| {
        UncertainObject::uniform(
            pts.into_iter()
                .map(|(x, y)| Point::new(vec![x, y]))
                .collect(),
        )
    })
}

fn db_strategy() -> impl Strategy<Value = (Vec<UncertainObject>, UncertainObject, usize)> {
    (
        prop::collection::vec(object_strategy(4), 2..14),
        object_strategy(4),
        1usize..6,
    )
}

/// (id, δ_min bits) per candidate, in emission order — the NNC contract.
fn nnc_fingerprint(r: &osd_core::NncResult) -> Vec<(usize, u64)> {
    r.candidates
        .iter()
        .map(|c| (c.id, c.min_dist.to_bits()))
        .collect()
}

/// (id, δ_min bits, dominator count) in emission order — the k-NNC contract.
fn knnc_fingerprint(r: &osd_core::KnncResult) -> Vec<(usize, u64, usize)> {
    r.candidates
        .iter()
        .map(|(c, d)| (c.id, c.min_dist.to_bits(), *d))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NNC over a sharded index is bit-identical to the flat baseline for
    /// every operator.
    #[test]
    fn prop_nnc_sharded_matches_flat((objects, query, shards) in db_strategy()) {
        let flat = Database::new(objects.clone());
        let sharded = ShardedDatabase::new(objects, shards);
        prop_assert_eq!(flat.len(), sharded.len());
        let pq = PreparedQuery::new(query);
        let cfg = FilterConfig::all();
        for op in Operator::ALL {
            let base = nnc_fingerprint(&nn_candidates(&flat, &pq, op, &cfg));
            let merged = nnc_fingerprint(&nn_candidates(&sharded, &pq, op, &cfg));
            prop_assert_eq!(&merged, &base, "merged {:?} @ {} shards", op, shards);
        }
    }

    /// k-NNC over a sharded index matches the flat baseline — ids, bits,
    /// order and dominator counts — for every operator.
    #[test]
    fn prop_knnc_sharded_matches_flat(
        (objects, query, shards) in db_strategy(),
        k in 1usize..4,
    ) {
        let flat = Database::new(objects.clone());
        let sharded = ShardedDatabase::new(objects, shards);
        let pq = PreparedQuery::new(query);
        let cfg = FilterConfig::all();
        for op in Operator::ALL {
            let base = knnc_fingerprint(&k_nn_candidates(&flat, &pq, op, k, &cfg));
            let merged = knnc_fingerprint(&k_nn_candidates(&sharded, &pq, op, k, &cfg));
            prop_assert_eq!(&merged, &base, "merged {:?} k={} @ {} shards", op, k, shards);
        }
    }

    /// Identity survives post-build inserts: interleaving `try_insert`
    /// calls after sharding keeps both stores logically equal.
    #[test]
    fn prop_identity_survives_inserts(
        (objects, query, shards) in db_strategy(),
        extra in prop::collection::vec(object_strategy(3), 1..4),
    ) {
        let mut flat = Database::new(objects.clone());
        let mut sharded = ShardedDatabase::new(objects, shards);
        for o in extra {
            flat.try_insert_object(o.clone()).unwrap();
            sharded.try_insert_object(o).unwrap();
        }
        let pq = PreparedQuery::new(query);
        let cfg = FilterConfig::all();
        for op in [Operator::SSd, Operator::FPlusSd] {
            let base = nnc_fingerprint(&nn_candidates(&flat, &pq, op, &cfg));
            let merged = nnc_fingerprint(&nn_candidates(&sharded, &pq, op, &cfg));
            prop_assert_eq!(&merged, &base, "{:?} after inserts @ {} shards", op, shards);
        }
    }
}
