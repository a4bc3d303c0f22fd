//! End-to-end exercise of the `strict-invariants` audit layer.
//!
//! With the feature on, every `dominates` call re-checks the Theorem 2
//! cover chain via `debug_assert!`, every R-tree mutation re-validates the
//! structure, and the relational spot-checkers of `osd_core::invariants`
//! become available. This test drives all of them across randomized
//! databases — it exists so `cargo test --features strict-invariants -q`
//! demonstrably runs the audit code, not just compiles it.
#![cfg(feature = "strict-invariants")]
// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd::core::invariants::{irreflexivity_spot_check, transitivity_spot_check};
use osd::prelude::*;
use osd_core::{dominance_matrix, FilterConfig, Operator};
use osd_geom::Mbr;
use osd_rtree::{Entry, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../crates/rtree/tests/common/mod.rs"]
mod condense;

fn random_objects(rng: &mut StdRng, n: usize, instances: usize) -> Vec<UncertainObject> {
    (0..n)
        .map(|_| {
            UncertainObject::uniform(
                (0..instances)
                    .map(|_| Point::new(vec![rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)]))
                    .collect(),
            )
        })
        .collect()
}

/// Every `dominates` call below runs the Theorem 2 cover-chain
/// `debug_assert!`; the spot-checkers then audit Theorem 9 and the
/// equal-twin guard over the same databases.
#[test]
fn dominance_audits_hold_over_random_databases() {
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..5 {
        let mut objects = random_objects(&mut rng, 7, 4);
        // An exact twin pair exercises the irreflexivity guard.
        objects.push(objects[0].clone());
        let db = Database::new(objects);
        let query = PreparedQuery::new(UncertainObject::uniform(vec![Point::new(vec![
            rng.gen_range(0.0..30.0),
            rng.gen_range(0.0..30.0),
        ])]));
        let cfg = FilterConfig::all();
        for op in Operator::ALL {
            // The matrix fires a cover-chain audit per dominating pair.
            let m = dominance_matrix(&db, &query, op, &cfg);
            assert_eq!(m.len(), db.len(), "round {round}");
            assert_eq!(
                transitivity_spot_check(&db, &query, op, &cfg),
                Ok(()),
                "Theorem 9 violated for {op:?} in round {round}"
            );
            assert_eq!(
                irreflexivity_spot_check(&db, &query, op, &cfg),
                Ok(()),
                "equal-twin guard violated for {op:?} in round {round}"
            );
        }
    }
}

/// The parallel batch executor under the audit layer: every `dominates`
/// call inside every worker thread re-runs the Theorem 2 cover-chain
/// `debug_assert!`, so a cover-chain break anywhere in the parallel path
/// aborts this test. The answers must still match the sequential run.
#[test]
fn batch_executor_audits_hold_across_threads() {
    let mut rng = StdRng::seed_from_u64(23);
    let db = Database::new(random_objects(&mut rng, 60, 4));
    let queries: Vec<PreparedQuery> = (0..8)
        .map(|_| {
            PreparedQuery::new(UncertainObject::uniform(vec![Point::new(vec![
                rng.gen_range(0.0..30.0),
                rng.gen_range(0.0..30.0),
            ])]))
        })
        .collect();
    for op in Operator::ALL {
        let engine = QueryEngine::new(&db, op);
        let sequential = engine.run_batch(&queries, 1);
        let parallel = engine.run_batch(&queries, 4);
        let seq_ids: Vec<Vec<usize>> = sequential.iter().map(|r| r.ids()).collect();
        let par_ids: Vec<Vec<usize>> = parallel.iter().map(|r| r.ids()).collect();
        assert_eq!(par_ids, seq_ids, "{op:?} diverged under strict-invariants");
    }
}

/// Insertions and deletions re-validate the R-tree structure after every
/// mutation (debug_assert! in insert/remove under this feature); the final
/// explicit validation confirms the API surface.
#[test]
fn rtree_structure_audits_hold_under_churn() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut tree: RTree<usize> = RTree::new(4);
    let mut live: Vec<(usize, Point)> = Vec::new();
    for i in 0..250usize {
        let p = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
        tree.insert(Mbr::from_point(&p), i);
        live.push((i, p));
        // Interleave deletions to exercise condensation and re-insertion.
        if i % 3 == 2 {
            let victim = live.remove(rng.gen_range(0..live.len()));
            let removed = tree.remove_item(&Mbr::from_point(&victim.1), |&x| x == victim.0);
            assert_eq!(removed, Some(victim.0));
        }
    }
    assert_eq!(tree.len(), live.len());
    tree.validate_structure().expect("tree structure intact");

    // Bulk loading validates too.
    let entries: Vec<Entry<usize>> = live
        .iter()
        .map(|(i, p)| Entry {
            mbr: Mbr::from_point(p),
            item: *i,
        })
        .collect();
    let bulk = RTree::bulk_load(6, entries);
    bulk.validate_structure()
        .expect("bulk-loaded structure intact");
}

/// The same audits from a packed start: STR-loaded trees whose slabs end in
/// short nodes, under interleaved inserts and deletes that dissolve inner
/// nodes, so their children go back in as whole subtrees at their own
/// level. After every step the tree validates (equal leaf depths
/// included), and its items and `nearest` answer match a tree bulk-rebuilt
/// from the live points.
#[test]
fn rtree_structure_audits_hold_under_packed_churn() {
    let mut rng = StdRng::seed_from_u64(12);
    let random_point =
        |rng: &mut StdRng| Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
    let entries_of = |live: &[(usize, Point)]| -> Vec<Entry<usize>> {
        live.iter()
            .map(|(i, p)| Entry {
                mbr: Mbr::from_point(p),
                item: *i,
            })
            .collect()
    };
    for fanout in [4usize, 5, 8] {
        let mut live: Vec<(usize, Point)> = (0..333).map(|i| (i, random_point(&mut rng))).collect();
        let mut tree = RTree::bulk_load(fanout, entries_of(&live));
        let mut next_id = live.len();
        let mut inner_dissolves = 0;
        for step in 0..450 {
            // Two deletes per insert, so nodes shrink below half fan-out.
            if step % 3 == 0 {
                let p = random_point(&mut rng);
                tree.insert(Mbr::from_point(&p), next_id);
                live.push((next_id, p));
                next_id += 1;
            } else {
                let (victim, p) = live.swap_remove(rng.gen_range(0..live.len()));
                let target = Mbr::from_point(&p);
                let path = condense::removal_path(&tree, &target, victim);
                if condense::dissolved_levels(&path, fanout / 2) >= 2 {
                    inner_dissolves += 1;
                }
                assert_eq!(tree.remove_item(&target, |&x| x == victim), Some(victim));
            }
            tree.validate_structure()
                .unwrap_or_else(|e| panic!("fan-out {fanout}, step {step}: {e}"));
            let rebuilt = RTree::bulk_load(fanout, entries_of(&live));
            let mut got: Vec<usize> = tree.items().into_iter().copied().collect();
            let mut want: Vec<usize> = rebuilt.items().into_iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "fan-out {fanout}, step {step}: items");
            let q = random_point(&mut rng);
            assert_eq!(
                tree.nearest(&q).map(|(_, d)| d.to_bits()),
                rebuilt.nearest(&q).map(|(_, d)| d.to_bits()),
                "fan-out {fanout}, step {step}: nearest"
            );
        }
        assert!(
            inner_dissolves > 0,
            "fan-out {fanout}: no inner node dissolved"
        );
    }
}
