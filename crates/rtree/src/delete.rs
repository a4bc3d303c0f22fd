//! Entry deletion with Guttman-style tree condensation.
//!
//! Underfull nodes (below half fan-out) are dissolved and their entries
//! reinserted; a root left with a single child is collapsed. Like
//! insertion, deletion is path-copying: the search is read-only, and only
//! the nodes on the path to the removed entry are copied.

use crate::node::{Child, Entry, Node, RTree};
use osd_geom::Mbr;
use std::sync::Arc;

impl<T: Clone> RTree<T> {
    /// Removes one entry whose MBR intersects `mbr` and whose item matches
    /// `pred`, returning it. The tree is condensed afterwards: underfull
    /// nodes are dissolved and their entries reinserted.
    ///
    /// A miss copies nothing; a hit copies the nodes on the path to the
    /// removed entry (plus the reinsertion paths of any orphans). Clones of
    /// the tree taken earlier are unaffected.
    pub fn remove_item(&mut self, mbr: &Mbr, pred: impl Fn(&T) -> bool) -> Option<T> {
        let min_fill = (self.max_entries / 2).max(1);
        let mut orphans: Vec<Entry<T>> = Vec::new();
        let (node, removed) = remove_rec(
            &self.root.as_ref()?.node,
            mbr,
            &pred,
            min_fill,
            &mut orphans,
        )?;
        self.len -= 1;

        // Re-tighten or drop the root.
        self.root = if node.slot_count() == 0 {
            None
        } else {
            // Collapse chains of single-child inner nodes.
            let mut node = Arc::new(node);
            while let Node::Inner(cs) = node.as_ref() {
                let [only] = cs.as_slice() else { break };
                let next = Arc::clone(&only.node);
                node = next;
            }
            Some(Child {
                mbr: node.mbr(),
                node,
            })
        };

        // Reinsert orphaned entries (len was adjusted once for the removal;
        // insert() will re-count the orphans, so pre-subtract them).
        self.len -= orphans.len();
        for e in orphans {
            self.insert(e.mbr, e.item);
        }
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate_structure() {
            debug_assert!(false, "R-tree invariant broken after removal: {e}");
        }
        Some(removed)
    }
}

/// Removes a matching entry below `node` without touching it: returns a
/// copy of `node` with the entry gone (and the removed item), or `None` if
/// no entry matched. Underfull descendants on the copied path are
/// dissolved into `orphans`.
fn remove_rec<T: Clone>(
    node: &Node<T>,
    mbr: &Mbr,
    pred: &impl Fn(&T) -> bool,
    min_fill: usize,
    orphans: &mut Vec<Entry<T>>,
) -> Option<(Node<T>, T)> {
    match node {
        Node::Leaf(entries) => {
            let idx = entries
                .iter()
                .position(|e| e.mbr.intersects(mbr) && pred(&e.item))?;
            let mut entries = entries.clone();
            let removed = entries.remove(idx).item;
            Some((Node::Leaf(entries), removed))
        }
        Node::Inner(children) => {
            let (i, child, removed) = children.iter().enumerate().find_map(|(i, c)| {
                if !c.mbr.intersects(mbr) {
                    return None;
                }
                let (child, removed) = remove_rec(&c.node, mbr, pred, min_fill, orphans)?;
                Some((i, child, removed))
            })?;
            let mut children = children.clone();
            if child.slot_count() < min_fill {
                // Dissolve the underfull child: all its remaining entries
                // become orphans to reinsert.
                children.remove(i);
                collect_entries(&child, orphans);
            } else {
                children[i] = Child {
                    mbr: child.mbr(),
                    node: Arc::new(child),
                };
            }
            Some((Node::Inner(children), removed))
        }
    }
}

fn collect_entries<T: Clone>(node: &Node<T>, out: &mut Vec<Entry<T>>) {
    match node {
        Node::Leaf(entries) => out.extend(entries.iter().cloned()),
        Node::Inner(children) => {
            for c in children {
                collect_entries(&c.node, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
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
}
