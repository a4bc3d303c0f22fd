//! Entry deletion with Guttman's CondenseTree, fitted to packed trees.
//!
//! **Search by containment.** The removal descends only into children
//! whose box contains the target box. Every recorded box is the tight
//! union of its subtree (`validate_structure` checks it), so an entry whose
//! box contains the target lies only below boxes that contain it too: the
//! search is exact, and a tree that does not hold the entry usually stops
//! at its root.
//!
//! **Condense only what the removal shrank.** A node on the removal path
//! is dissolved only when this removal takes it from `min_fill` (half the
//! fan-out) to `min_fill − 1` slots, or empties it. STR packing leaves the
//! last node of each slab short; such a node keeps its slots while it has
//! any, so a delete never pays for an underfill it did not cause.
//!
//! **Reinsert orphans whole.** The slots of a dissolved node go back in at
//! their own level: entries into leaves, the children of an inner node as
//! whole subtrees into nodes one level above them, so every leaf stays at
//! the tree's leaf depth. One dissolve therefore costs at most
//! `min_fill − 1` insertions of O(height) each. As in Guttman's algorithm
//! the orphans are reinserted before a root left with a single child is
//! collapsed.
//!
//! Like insertion, deletion is path-copying: the search is read-only, and
//! only the nodes on the path to the removed entry and on the reinsertion
//! paths are copied.

use crate::insert::Slot;
use crate::node::{Child, Node, RTree};
use osd_geom::Mbr;
use std::cmp::Reverse;
use std::sync::Arc;

impl<T: Clone> RTree<T> {
    /// Removes one entry whose MBR contains `mbr` and whose item matches
    /// `pred`, returning it. Pass the box the entry was indexed under.
    ///
    /// A node on the removal path that this removal shrinks below half
    /// fan-out is dissolved and its slots reinserted at their own level;
    /// a root left with a single child is collapsed.
    ///
    /// A miss copies nothing; a hit copies the O(height) nodes on the path
    /// to the removed entry, plus the O(height) reinsertion path of each
    /// orphan. Clones of the tree taken earlier are unaffected.
    pub fn remove_item(&mut self, mbr: &Mbr, pred: impl Fn(&T) -> bool) -> Option<T> {
        let root = self.root.as_ref().filter(|r| r.mbr.contains(mbr))?;
        let min_fill = (self.max_entries / 2).max(1);
        let mut orphans = Vec::new();
        let removal = remove_rec(
            &root.node,
            root.node.height(),
            mbr,
            &pred,
            min_fill,
            &mut orphans,
        )?;
        self.len -= 1;
        self.root = (removal.node.slot_count() > 0).then(|| Child {
            mbr: removal.node.mbr(),
            node: Arc::new(removal.node),
        });

        // Tallest subtrees first: if the root emptied, the first orphan
        // becomes the new root and every later one fits at or below it.
        orphans.sort_by_key(|o| Reverse(o.parent_height()));
        for orphan in orphans {
            self.place(orphan);
        }

        // Collapse chains of single-child inner roots.
        while let Some(Node::Inner(cs)) = self.root() {
            let [only] = cs.as_slice() else { break };
            self.root = Some(only.clone());
        }
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate_structure() {
            debug_assert!(false, "R-tree invariant broken after removal: {e}");
        }
        Some(removal.item)
    }
}

/// A copy of a node with one entry removed below it.
struct Removal<T> {
    /// The copied node.
    node: Node<T>,
    /// The removed item.
    item: T,
    /// Whether `node` has one slot fewer than the node it copies.
    shrank: bool,
}

/// Removes a matching entry below `node`, which sits `height` levels above
/// the leaves, without touching it: returns a copy of `node` with the entry
/// gone, or `None` if no entry matched. A child on the copied path that the
/// removal shrinks from `min_fill` to `min_fill − 1` slots, or empties, is
/// dissolved; its slots go to `orphans`.
fn remove_rec<T: Clone>(
    node: &Node<T>,
    height: usize,
    mbr: &Mbr,
    pred: &impl Fn(&T) -> bool,
    min_fill: usize,
    orphans: &mut Vec<Slot<T>>,
) -> Option<Removal<T>> {
    match node {
        Node::Leaf(entries) => {
            let idx = entries
                .iter()
                .position(|e| e.mbr.contains(mbr) && pred(&e.item))?;
            let mut entries = entries.clone();
            let item = entries.remove(idx).item;
            Some(Removal {
                node: Node::Leaf(entries),
                item,
                shrank: true,
            })
        }
        Node::Inner(children) => {
            let (i, child) = children.iter().enumerate().find_map(|(i, c)| {
                if !c.mbr.contains(mbr) {
                    return None;
                }
                let child = remove_rec(&c.node, height - 1, mbr, pred, min_fill, orphans)?;
                Some((i, child))
            })?;
            let mut children = children.clone();
            let left = child.node.slot_count();
            let dissolve = child.shrank && (left == 0 || left + 1 == min_fill);
            if dissolve {
                children.remove(i);
                match child.node {
                    Node::Leaf(entries) => orphans.extend(entries.into_iter().map(Slot::Entry)),
                    Node::Inner(grandchildren) => orphans.extend(
                        grandchildren
                            .into_iter()
                            .map(|c| Slot::Subtree(c, height - 2)),
                    ),
                }
            } else {
                children[i] = Child {
                    mbr: child.node.mbr(),
                    node: Arc::new(child.node),
                };
            }
            Some(Removal {
                node: Node::Inner(children),
                item: child.item,
                shrank: dissolve,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::node::Entry;
    use osd_geom::Point;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn build(points: &[(f64, f64)], fanout: usize) -> RTree<usize> {
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

    #[test]
    fn remove_and_query() {
        let pts: Vec<(f64, f64)> = (0..40).map(|i| ((i % 8) as f64, (i / 8) as f64)).collect();
        let mut t = build(&pts, 4);
        let target = Mbr::from_point(&pt(3.0, 2.0)); // item 19
        let removed = t.remove_item(&target, |&i| i == 19);
        assert_eq!(removed, Some(19));
        assert_eq!(t.len(), 39);
        let hits: Vec<usize> = t.range_intersecting(&target).into_iter().copied().collect();
        assert!(!hits.contains(&19));
    }

    #[test]
    fn remove_missing_is_none() {
        let mut t = build(&[(0.0, 0.0), (1.0, 1.0)], 4);
        let missing = Mbr::from_point(&pt(9.0, 9.0));
        assert_eq!(t.remove_item(&missing, |_| true), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_everything() {
        let pts: Vec<(f64, f64)> = (0..25).map(|i| (i as f64, (i * 3 % 7) as f64)).collect();
        let mut t = build(&pts, 3);
        for (i, &(x, y)) in pts.iter().enumerate() {
            let target = Mbr::from_point(&pt(x, y));
            assert_eq!(t.remove_item(&target, |&x| x == i), Some(i), "removing {i}");
            assert_eq!(t.len(), 25 - i - 1);
            // Remaining queries stay consistent with a scan.
            let all: Vec<usize> = t.items().into_iter().copied().collect();
            assert_eq!(all.len(), t.len());
            assert!(!all.contains(&i));
        }
        assert!(t.is_empty());
        assert!(t.root().is_none());
    }

    #[test]
    fn nearest_still_exact_after_removals() {
        let pts: Vec<(f64, f64)> = (0..60)
            .map(|i| (((i * 37) % 101) as f64, ((i * 61) % 97) as f64))
            .collect();
        let mut t = build(&pts, 4);
        let mut alive: Vec<usize> = (0..60).collect();
        for k in [5usize, 17, 33, 42, 58, 0, 12] {
            let target = Mbr::from_point(&pt(pts[k].0, pts[k].1));
            assert_eq!(t.remove_item(&target, |&x| x == k), Some(k));
            alive.retain(|&x| x != k);
            let q = pt(50.0, 50.0);
            let (got, d) = t.nearest(&q).unwrap();
            let want = alive
                .iter()
                .map(|&i| q.dist(&pt(pts[i].0, pts[i].1)))
                .fold(f64::INFINITY, f64::min);
            assert!((d - want).abs() < 1e-9, "nearest broken after removing {k}");
            assert!(alive.contains(got));
        }
    }

    /// A root whose only child dissolves is rebuilt from the orphans: the
    /// tallest subtrees come first, and two of them at the root's level
    /// join under a new root.
    #[test]
    fn remove_refills_an_emptied_root() {
        let entry = |i: usize| Entry {
            mbr: Mbr::from_point(&pt(i as f64, 0.0)),
            item: i,
        };
        let leaf = |items: &[usize]| {
            let node = Node::Leaf(items.iter().map(|&i| entry(i)).collect());
            Child {
                mbr: node.mbr(),
                node: Arc::new(node),
            }
        };
        // Fan-out 6, so min_fill is 3: removing 0 takes the first leaf and
        // then `only` from 3 slots to 2, and the root from 1 to 0.
        let only = Node::Inner(vec![leaf(&[0, 1, 2]), leaf(&[3, 4, 5]), leaf(&[6, 7, 8])]);
        let root = Node::Inner(vec![Child {
            mbr: only.mbr(),
            node: Arc::new(only),
        }]);
        let mut t = RTree {
            root: Some(Child {
                mbr: root.mbr(),
                node: Arc::new(root),
            }),
            max_entries: 6,
            len: 9,
        };
        assert_eq!(
            t.remove_item(&Mbr::from_point(&pt(0.0, 0.0)), |&i| i == 0),
            Some(0)
        );
        assert!(t.validate_structure().is_ok());
        assert_eq!(t.height(), Some(1));
        let mut items: Vec<usize> = t.items().into_iter().copied().collect();
        items.sort_unstable();
        assert_eq!(items, (1..9).collect::<Vec<_>>());
    }
}
