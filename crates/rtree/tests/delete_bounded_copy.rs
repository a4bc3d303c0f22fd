//! Bounded copying of `RTree::remove_item` on an STR-packed tree.
//!
//! STR packs the last run of every slab short, so a freshly bulk-loaded
//! tree has inner nodes below half fan-out. A removal may copy only the
//! nodes on its own path and on the reinsertion paths of the orphans it
//! creates: O(`min_fill` × height) nodes. Flattening an underfull subtree
//! that the removal did not shrink, and reinserting its entries one by one,
//! copies hundreds.
//!
//! With `--features strict-invariants` every removal also audits the whole
//! tree.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_geom::{Mbr, Point};
use osd_rtree::{Entry, Node, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

mod common;
use common::{dissolved_levels, removal_path};

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(vec![
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ])
        })
        .collect()
}

/// Address of every node below (and including) `node`.
fn node_addresses(node: &Node<usize>, out: &mut HashSet<*const Node<usize>>) {
    out.insert(node);
    if let Node::Inner(children) = node {
        for c in children {
            node_addresses(&c.node, out);
        }
    }
}

/// Nodes of the tree under `node` that are not shared with the tree whose
/// node addresses are `original`. A shared node's whole subtree is shared.
fn unshared_nodes(node: &Node<usize>, original: &HashSet<*const Node<usize>>) -> usize {
    if original.contains(&(node as *const Node<usize>)) {
        return 0;
    }
    match node {
        Node::Leaf(_) => 1,
        Node::Inner(children) => {
            1 + children
                .iter()
                .map(|c| unshared_nodes(&c.node, original))
                .sum::<usize>()
        }
    }
}

/// Whether some non-root inner node holds fewer than `min_fill` slots.
fn has_underfull_inner(node: &Node<usize>, min_fill: usize, is_root: bool) -> bool {
    match node {
        Node::Leaf(_) => false,
        Node::Inner(children) => {
            (!is_root && children.len() < min_fill)
                || children
                    .iter()
                    .any(|c| has_underfull_inner(&c.node, min_fill, false))
        }
    }
}

/// Removes `victim` (indexed under `target`) from a clone of `before` and
/// checks the result: the items are `before`'s minus the victim, the
/// structure validates, and the number of nodes not shared with `before`
/// is the root-to-leaf path when nothing dissolves, and O(`min_fill` ×
/// height) otherwise. Returns the new tree and how many nodes dissolved.
fn remove_and_check(before: &RTree<usize>, target: &Mbr, victim: usize) -> (RTree<usize>, usize) {
    let min_fill = before.max_entries() / 2;
    let height = before.height().expect("non-empty tree");
    let root = before.root().expect("non-empty tree");
    let path = removal_path(before, target, victim);
    assert!(!path.is_empty(), "{victim} is stored");
    let dissolved = dissolved_levels(&path, min_fill);

    let mut after = before.clone();
    assert_eq!(after.remove_item(target, |&x| x == victim), Some(victim));
    after
        .validate_structure()
        .unwrap_or_else(|e| panic!("invalid after removing {victim}: {e}"));
    // Count the copies of each id stored after the removal.
    let ids = before.items().into_iter().max().map_or(0, |&m| m + 1);
    let mut stored = vec![0u8; ids];
    for &item in after.items() {
        stored[item] += 1;
    }
    for &item in before.items() {
        let want = u8::from(item != victim);
        assert_eq!(
            stored[item], want,
            "copies of {item} after removing {victim}"
        );
    }
    assert_eq!(after.len(), before.len() - 1);
    let mut addresses = HashSet::new();
    node_addresses(root, &mut addresses);
    let copied = unshared_nodes(after.root().expect("non-empty tree"), &addresses);
    if dissolved == 0 {
        // Nothing shrinks below half fan-out, so nothing is condensed: the
        // removal copies its root-to-leaf path and no other node, however
        // underfull STR left the nodes on it.
        assert_eq!(
            copied,
            height + 1,
            "removing {victim} (path slots {path:?}) copied more than its path"
        );
    } else {
        // Each orphan placement copies one root-to-target path, and its
        // splits add at most one node per level; each dissolved node
        // leaves at most `min_fill - 1` orphans.
        let bound = (height + 1) + dissolved * (min_fill - 1) * 2 * (height + 1);
        assert!(
            copied <= bound,
            "removing {victim} (path slots {path:?}) copied {copied} nodes, bound {bound}"
        );
    }
    (after, dissolved)
}

/// On a 20k-point STR tree: removes a sample of the entries, each from a
/// fresh clone, then drains the entries under the first height-1 node one
/// by one, so leaves and inner nodes shrink below half fan-out.
fn check_packed_removals(fanout: usize) {
    let n = 20_000;
    let points = random_points(n, 20);
    let entries: Vec<Entry<usize>> = points
        .iter()
        .enumerate()
        .map(|(i, p)| Entry {
            mbr: Mbr::from_point(p),
            item: i,
        })
        .collect();
    let original = RTree::bulk_load(fanout, entries);
    original
        .validate_structure()
        .expect("bulk-loaded tree is valid");
    let root = original.root().expect("non-empty tree");
    assert!(
        original.height() >= Some(2) && has_underfull_inner(root, fanout / 2, true),
        "STR must leave an underfull inner node for this test to mean anything"
    );

    for victim in (0..n).step_by(53) {
        remove_and_check(&original, &Mbr::from_point(&points[victim]), victim);
    }

    let mut first = root;
    while let Node::Inner(children) = first {
        if let Node::Leaf(_) = children[0].node.as_ref() {
            break;
        }
        first = &children[0].node;
    }
    let mut drain = Vec::new();
    first.collect_items(&mut drain);
    let mut tree = original.clone();
    let mut dissolved_inner = false;
    for &victim in drain {
        let (after, dissolved) = remove_and_check(&tree, &Mbr::from_point(&points[victim]), victim);
        tree = after;
        if dissolved >= 2 {
            dissolved_inner = true;
            break;
        }
    }
    assert!(dissolved_inner, "the drain must dissolve an inner node");

    // No removal shows through to the original.
    assert_eq!(original.len(), n);
    original.validate_structure().expect("original intact");
}

/// Fan-out 32, the global trees' default: height 2.
#[test]
fn removal_from_a_packed_tree_copies_its_path() {
    check_packed_removals(32);
}

/// Fan-out 8: height 4, so an underfull subtree holds hundreds of entries.
#[test]
fn removal_from_a_tall_packed_tree_copies_its_path() {
    check_packed_removals(8);
}
