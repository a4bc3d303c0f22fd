//! Property tests for `RTree::remove_item` condensation: random remove
//! sequences must leave a tree that is structurally valid and
//! query-equivalent to a tree bulk-rebuilt from the survivors. Mutating a
//! clone must never show through to the tree it was cloned from.
//!
//! Run with `--features strict-invariants` to additionally audit the tree
//! after every internal mutation step (the delete path self-validates).

use osd_geom::{Mbr, Point};
use osd_rtree::{Entry, RTree};
use proptest::prelude::*;

mod common;
use common::{dissolved_levels, removal_path};

fn pt(x: f64, y: f64) -> Point {
    Point::new(vec![x, y])
}

fn point_tree(points: &[(f64, f64)], fanout: usize) -> RTree<usize> {
    let entries: Vec<Entry<usize>> = points
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| Entry {
            mbr: Mbr::from_point(&pt(x, y)),
            item: i,
        })
        .collect();
    RTree::bulk_load(fanout, entries)
}

/// Sorted item set of a tree.
fn sorted_items(t: &RTree<usize>) -> Vec<usize> {
    let mut items: Vec<usize> = t.items().into_iter().copied().collect();
    items.sort_unstable();
    items
}

/// `nearest` answer as comparable bits: (item, distance bits).
fn nearest_bits(t: &RTree<usize>, q: &Point) -> Option<(usize, u64)> {
    t.nearest(q).map(|(&item, d)| (item, d.to_bits()))
}

fn survivor_tree(points: &[(f64, f64)], alive: &[usize], fanout: usize) -> RTree<usize> {
    let entries: Vec<Entry<usize>> = alive
        .iter()
        .map(|&i| Entry {
            mbr: Mbr::from_point(&pt(points[i].0, points[i].1)),
            item: i,
        })
        .collect();
    RTree::bulk_load(fanout, entries)
}

/// Churn from a packed start: bulk-loads `pts` (STR leaves the last node
/// of each slab short), then applies `ops`: `(0, _, x, y)` inserts the
/// point `(x, y)`, anything else deletes the live item `pick` selects.
/// After every step the tree validates, leaf depths included, and its items
/// and `nearest(q)` match a tree bulk-rebuilt from the live points.
/// Returns how many deletes dissolved an inner node.
fn packed_churn(
    pts: &[(f64, f64)],
    ops: &[(usize, usize, f64, f64)],
    fanout: usize,
    q: &Point,
) -> Result<usize, TestCaseError> {
    let mut t = point_tree(pts, fanout);
    let mut all = pts.to_vec();
    let mut alive: Vec<usize> = (0..pts.len()).collect();
    let mut inner_dissolves = 0;
    for &(kind, pick, x, y) in ops {
        if kind == 0 || alive.len() <= 1 {
            let id = all.len();
            all.push((x, y));
            t.insert(Mbr::from_point(&pt(x, y)), id);
            alive.push(id);
        } else {
            let victim = alive.swap_remove(pick % alive.len());
            let target = Mbr::from_point(&pt(all[victim].0, all[victim].1));
            let path = removal_path(&t, &target, victim);
            if dissolved_levels(&path, (fanout / 2).max(1)) >= 2 {
                inner_dissolves += 1;
            }
            prop_assert_eq!(t.remove_item(&target, |&x| x == victim), Some(victim));
        }
        t.validate_structure()
            .map_err(|e| TestCaseError::fail(format!("invalid after {:?}: {e}", (kind, pick))))?;
        let rebuilt = survivor_tree(&all, &alive, fanout);
        prop_assert_eq!(sorted_items(&t), sorted_items(&rebuilt));
        prop_assert_eq!(
            t.nearest(q).map(|(_, d)| d.to_bits()),
            rebuilt.nearest(q).map(|(_, d)| d.to_bits())
        );
    }
    Ok(inner_dissolves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every removal of a random sequence, the tree validates and
    /// answers nearest/min-dist queries identically to a tree bulk-rebuilt
    /// from the surviving items.
    #[test]
    fn prop_remove_sequence_matches_bulk_rebuild(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..60),
        order in prop::collection::vec(0usize..1000, 1..60),
        qx in -10.0f64..110.0, qy in -10.0f64..110.0,
        fanout in 2usize..7,
    ) {
        let mut t = point_tree(&pts, fanout);
        let mut alive: Vec<usize> = (0..pts.len()).collect();
        let q = pt(qx, qy);
        for &pick in &order {
            if alive.len() <= 1 {
                break;
            }
            let victim = alive[pick % alive.len()];
            let target = Mbr::from_point(&pt(pts[victim].0, pts[victim].1));
            prop_assert_eq!(t.remove_item(&target, |&x| x == victim), Some(victim));
            alive.retain(|&x| x != victim);

            t.validate_structure().map_err(|e| {
                TestCaseError::fail(format!("invalid after removing {victim}: {e}"))
            })?;
            let rebuilt = survivor_tree(&pts, &alive, fanout);
            prop_assert_eq!(t.len(), rebuilt.len());

            let mut got: Vec<usize> = t.items().into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = rebuilt.items().into_iter().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(&got, &want, "item sets diverge after removing {}", victim);

            // Query equivalence: the condensed tree and the rebuilt tree
            // agree exactly on nearest distances (both are exact searches
            // over the same point set).
            let dn = t.nearest(&q).map(|(_, d)| d);
            let dn_rebuilt = rebuilt.nearest(&q).map(|(_, d)| d);
            prop_assert_eq!(dn, dn_rebuilt);
            let mut visits = 0u64;
            let d2 = t.min_dist2_multi(std::slice::from_ref(&q), &mut visits);
            let mut visits_rebuilt = 0u64;
            let d2_rebuilt =
                rebuilt.min_dist2_multi(std::slice::from_ref(&q), &mut visits_rebuilt);
            prop_assert_eq!(d2, d2_rebuilt);
        }
    }

    /// A predicate that matches nothing returns `None` and leaves the tree
    /// untouched — the "try each shard's tree" owner-discovery contract of
    /// the sharded delete path.
    #[test]
    fn prop_no_match_means_no_mutation(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40),
        pick in 0usize..1000,
        fanout in 2usize..7,
    ) {
        let mut t = point_tree(&pts, fanout);
        let victim = pick % pts.len();
        let target = Mbr::from_point(&pt(pts[victim].0, pts[victim].1));
        // Right place, wrong payload: probes the exact leaf region the
        // entry lives in, so the no-match path walks the full descent.
        prop_assert_eq!(t.remove_item(&target, |&x| x == pts.len() + 7), None);
        prop_assert_eq!(t.len(), pts.len());
        t.validate_structure().map_err(|e| {
            TestCaseError::fail(format!("no-match removal mutated the tree: {e}"))
        })?;
        let mut got: Vec<usize> = t.items().into_iter().copied().collect();
        got.sort_unstable();
        prop_assert_eq!(got, (0..pts.len()).collect::<Vec<_>>());
    }

    /// Removing everything but one item in random order never wedges the
    /// tree: condensation keeps every intermediate tree valid down to a
    /// single-entry root, and re-inserting afterwards works.
    #[test]
    fn prop_drain_then_reuse(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..40),
        seed in 0usize..1000,
        fanout in 2usize..6,
    ) {
        let mut t = point_tree(&pts, fanout);
        let mut alive: Vec<usize> = (0..pts.len()).collect();
        while alive.len() > 1 {
            let victim = alive[(seed + alive.len()) % alive.len()];
            let target = Mbr::from_point(&pt(pts[victim].0, pts[victim].1));
            prop_assert_eq!(t.remove_item(&target, |&x| x == victim), Some(victim));
            alive.retain(|&x| x != victim);
        }
        prop_assert_eq!(t.len(), 1);
        t.validate_structure().map_err(|e| {
            TestCaseError::fail(format!("invalid after drain: {e}"))
        })?;
        // The condensed tree keeps working as an insertion target.
        for (i, &(x, y)) in pts.iter().enumerate() {
            t.insert(Mbr::from_point(&pt(x, y)), pts.len() + i);
        }
        prop_assert_eq!(t.len(), 1 + pts.len());
        t.validate_structure().map_err(|e| {
            TestCaseError::fail(format!("invalid after refill: {e}"))
        })?;
    }

    /// Persistence: a seeded sequence of inserts and removals applied to a
    /// clone leaves the original's items, structure check and `nearest`
    /// answers unchanged after every step, while the clone keeps matching
    /// a tree bulk-rebuilt from its own live items.
    #[test]
    fn prop_mutating_a_clone_leaves_the_original_intact(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..60),
        ops in prop::collection::vec((0usize..2, 0usize..1000, 0.0f64..100.0, 0.0f64..100.0), 1..50),
        qx in -10.0f64..110.0, qy in -10.0f64..110.0,
        fanout in 2usize..7,
    ) {
        let original = point_tree(&pts, fanout);
        let q = pt(qx, qy);
        let items_before = sorted_items(&original);
        let structure_before = original.validate_structure();
        let nearest_before = nearest_bits(&original, &q);

        let mut clone = original.clone();
        let mut all = pts.clone();
        let mut alive: Vec<usize> = (0..pts.len()).collect();
        for &(kind, pick, x, y) in &ops {
            if kind == 0 || alive.len() <= 1 {
                let id = all.len();
                all.push((x, y));
                clone.insert(Mbr::from_point(&pt(x, y)), id);
                alive.push(id);
            } else {
                let victim = alive[pick % alive.len()];
                let target = Mbr::from_point(&pt(all[victim].0, all[victim].1));
                prop_assert_eq!(clone.remove_item(&target, |&x| x == victim), Some(victim));
                alive.retain(|&x| x != victim);
            }

            prop_assert_eq!(sorted_items(&original), items_before.clone());
            prop_assert_eq!(original.len(), pts.len());
            prop_assert_eq!(original.validate_structure(), structure_before.clone());
            prop_assert_eq!(nearest_bits(&original, &q), nearest_before);

            clone.validate_structure().map_err(|e| {
                TestCaseError::fail(format!("clone invalid after a mutation: {e}"))
            })?;
            let rebuilt = survivor_tree(&all, &alive, fanout);
            prop_assert_eq!(sorted_items(&clone), sorted_items(&rebuilt));
            prop_assert_eq!(
                clone.nearest(&q).map(|(_, d)| d.to_bits()),
                rebuilt.nearest(&q).map(|(_, d)| d.to_bits())
            );
        }
    }

    /// Interleaved inserts and deletes from a packed start with short STR
    /// tails: the tree stays valid and query-equivalent to a bulk rebuild
    /// after every step, whatever nodes the deletes dissolve.
    #[test]
    fn prop_packed_churn_matches_bulk_rebuild(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 20..120),
        ops in prop::collection::vec((0usize..3, 0usize..1000, 0.0f64..100.0, 0.0f64..100.0), 1..80),
        qx in -10.0f64..110.0, qy in -10.0f64..110.0,
        fanout in 4usize..9,
    ) {
        packed_churn(&pts, &ops, fanout, &pt(qx, qy))?;
    }
}

/// A seeded packed-start churn that dissolves inner nodes, so their
/// children go back in as whole subtrees at their own level.
#[test]
fn packed_churn_reinserts_whole_subtrees() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut coord = move || (next() % 10_000) as f64 / 100.0;
    for fanout in [4usize, 6, 8] {
        let pts: Vec<(f64, f64)> = (0..300).map(|_| (coord(), coord())).collect();
        // Two deletes per insert, so nodes shrink below half fan-out.
        let ops: Vec<(usize, usize, f64, f64)> = (0..450)
            .map(|i| (i % 3, (coord() * 10.0) as usize, coord(), coord()))
            .collect();
        let inner_dissolves = packed_churn(&pts, &ops, fanout, &pt(50.0, 50.0));
        assert!(
            matches!(inner_dissolves, Ok(n) if n > 0),
            "fan-out {fanout}: want an inner-node dissolve, got {inner_dissolves:?}"
        );
    }
}
