//! Spatial queries: range, nearest, furthest and generic best-first
//! traversal in non-decreasing (or non-increasing) key order.

use crate::node::{Node, RTree};
use osd_geom::{Mbr, Point};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

impl<T> RTree<T> {
    /// All items whose MBR intersects `query`.
    pub fn range_intersecting(&self, query: &Mbr) -> Vec<&T> {
        let mut out = Vec::new();
        if let Some(c) = &self.root {
            if c.mbr.intersects(query) {
                range_rec(&c.node, query, &mut out);
            }
        }
        out
    }

    /// All items whose MBR is fully contained in `query`.
    ///
    /// For point data this is the rectangular range query used by the
    /// distance-space network construction of §5.1.2.
    pub fn range_contained(&self, query: &Mbr) -> Vec<&T> {
        let mut out = Vec::new();
        if let Some(c) = &self.root {
            if c.mbr.intersects(query) {
                contained_rec(&c.node, query, &mut out);
            }
        }
        out
    }

    /// The item nearest to `p` by minimal MBR distance, with that distance.
    ///
    /// For point payloads (degenerate boxes) this is the exact nearest
    /// neighbour; this is the `δ_min(q, V)` primitive of the instance-level
    /// F-SD check (§6).
    pub fn nearest(&self, p: &Point) -> Option<(&T, f64)> {
        let p = p.clone();
        self.nearest_by(move |mbr| mbr.min_dist2_point(&p))
            .map(|(t, d2)| (t, d2.sqrt()))
    }

    /// The item with the greatest maximal MBR distance from `p`.
    ///
    /// For point payloads this is the exact furthest neighbour — the
    /// `δ_max(q, U)` primitive of the instance-level F-SD check (§6).
    pub fn furthest(&self, p: &Point) -> Option<(&T, f64)> {
        // Best-first on the *upper* bound: a node's max distance bounds all
        // items below it from above, so negating gives a monotone key.
        let p = p.clone();
        self.nearest_by(move |mbr| -mbr.max_dist2_point(&p))
            .map(|(t, d2)| (t, (-d2).sqrt()))
    }

    /// [`RTree::nearest`] with a traversal-cost hook: adds the number of
    /// tree nodes expanded by the best-first search to `visits`.
    pub fn nearest_counting(&self, p: &Point, visits: &mut u64) -> Option<(&T, f64)> {
        let p = p.clone();
        let mut iter = self.iter_by(move |mbr| mbr.min_dist2_point(&p));
        let hit = iter.next().map(|(t, d2)| (t, d2.sqrt()));
        *visits += iter.nodes_visited();
        hit
    }

    /// [`RTree::furthest`] with a traversal-cost hook: adds the number of
    /// tree nodes expanded by the best-first search to `visits`.
    pub fn furthest_counting(&self, p: &Point, visits: &mut u64) -> Option<(&T, f64)> {
        let p = p.clone();
        let mut iter = self.iter_by(move |mbr| -mbr.max_dist2_point(&p));
        let hit = iter.next().map(|(t, d2)| (t, (-d2).sqrt()));
        *visits += iter.nodes_visited();
        hit
    }

    /// The `k` items nearest to `p` (by minimal MBR distance), closest first.
    pub fn k_nearest(&self, p: &Point, k: usize) -> Vec<(&T, f64)> {
        let p = p.clone();
        let mut out = Vec::with_capacity(k);
        for (t, d2) in self.iter_by(move |mbr| mbr.min_dist2_point(&p)).take(k) {
            out.push((t, d2.sqrt()));
        }
        out
    }

    /// First item of a best-first traversal keyed by `key` on MBRs.
    pub fn nearest_by<'a, F: Fn(&Mbr) -> f64 + 'a>(&'a self, key: F) -> Option<(&'a T, f64)> {
        self.iter_by(key).next()
    }

    /// Minimal squared distance from *any* of `queries` to any item MBR —
    /// `min_q min_e δ²(e, q)` — in **one** pruned best-first descent.
    ///
    /// Nodes are keyed by `min_q min_dist²(mbr, q)` and the single best
    /// value found so far prunes every probe at once, instead of running
    /// |queries| independent nearest searches that each re-descend the
    /// tree. The returned value equals the fold
    /// `min_q nearest(q).d²` bit-for-bit: each candidate `d²` is computed
    /// by the same `min_dist2_point` kernel, and `f64::min` over the same
    /// multiset of non-negative values (squared distances are never
    /// `-0.0`) is order-insensitive at the bit level.
    ///
    /// Expanded tree nodes are added to `visits`; the shared bound makes
    /// this count at most — and typically far below — the sum of the
    /// per-query searches. `None` iff the tree or `queries` is empty.
    pub fn min_dist2_multi(&self, queries: &[Point], visits: &mut u64) -> Option<f64> {
        let root = self.root.as_ref()?;
        if queries.is_empty() {
            return None;
        }
        let key_of = |mbr: &Mbr| {
            queries
                .iter()
                .map(|q| mbr.min_dist2_point(q))
                .fold(f64::INFINITY, f64::min)
        };
        let mut best = f64::INFINITY;
        let mut found = false;
        let mut heap = BinaryHeap::new();
        heap.push(MultiItem {
            key: key_of(&root.mbr),
            node: &root.node,
        });
        while let Some(MultiItem { key, node }) = heap.pop() {
            // Shared prune bound: a node whose best-case distance cannot
            // beat the current minimum is skipped without expansion.
            if found && key >= best {
                continue;
            }
            *visits += 1;
            match node {
                Node::Leaf(es) => {
                    for e in es {
                        best = best.min(key_of(&e.mbr));
                        found = true;
                    }
                }
                Node::Inner(cs) => {
                    for c in cs {
                        let k = key_of(&c.mbr);
                        if !found || k < best {
                            heap.push(MultiItem {
                                key: k,
                                node: &c.node,
                            });
                        }
                    }
                }
            }
        }
        found.then_some(best)
    }

    /// Best-first traversal yielding `(item, key(item_mbr))` in
    /// non-decreasing key order.
    ///
    /// `key` must be monotone: `key(parent_mbr) ≤ key(child_mbr)` for every
    /// child contained in the parent. Both `min_dist*` (lower bounds) and
    /// negated `max_dist*` (upper bounds) satisfy this.
    pub fn iter_by<'a, F: Fn(&Mbr) -> f64 + 'a>(&'a self, key: F) -> BestFirstIter<'a, T, F> {
        let mut heap = BinaryHeap::new();
        if let Some(c) = &self.root {
            heap.push(HeapItem {
                key: key(&c.mbr),
                slot: Slot::Node(&c.node),
            });
        }
        BestFirstIter {
            heap,
            key,
            nodes_visited: 0,
        }
    }
}

fn range_rec<'a, T>(node: &'a Node<T>, query: &Mbr, out: &mut Vec<&'a T>) {
    match node {
        Node::Leaf(es) => {
            for e in es {
                if e.mbr.intersects(query) {
                    out.push(&e.item);
                }
            }
        }
        Node::Inner(cs) => {
            for c in cs {
                if c.mbr.intersects(query) {
                    range_rec(&c.node, query, out);
                }
            }
        }
    }
}

fn contained_rec<'a, T>(node: &'a Node<T>, query: &Mbr, out: &mut Vec<&'a T>) {
    match node {
        Node::Leaf(es) => {
            for e in es {
                if query.contains(&e.mbr) {
                    out.push(&e.item);
                }
            }
        }
        Node::Inner(cs) => {
            for c in cs {
                if c.mbr.intersects(query) {
                    contained_rec(&c.node, query, out);
                }
            }
        }
    }
}

/// Heap entry of the multi-point descent: a subtree keyed by its best-case
/// squared distance over all probe points.
struct MultiItem<'a, T> {
    key: f64,
    node: &'a Node<T>,
}

impl<T> PartialEq for MultiItem<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key).is_eq()
    }
}
impl<T> Eq for MultiItem<'_, T> {}
impl<T> PartialOrd for MultiItem<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MultiItem<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on key via reversed comparison.
        other.key.total_cmp(&self.key)
    }
}

enum Slot<'a, T> {
    Node(&'a Node<T>),
    Item(&'a T),
}

struct HeapItem<'a, T> {
    key: f64,
    slot: Slot<'a, T>,
}

impl<T> PartialEq for HeapItem<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        // Via `Ord::cmp`, so `==` agrees with the total order on NaN and
        // ±0.0 keys (the `Eq` impl requires the two to be consistent).
        self.cmp(other).is_eq()
    }
}
impl<T> Eq for HeapItem<'_, T> {}
impl<T> PartialOrd for HeapItem<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapItem<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on key via reversed comparison.
        other.key.total_cmp(&self.key)
    }
}

/// Iterator produced by [`RTree::iter_by`].
pub struct BestFirstIter<'a, T, F: Fn(&Mbr) -> f64> {
    heap: BinaryHeap<HeapItem<'a, T>>,
    key: F,
    nodes_visited: u64,
}

impl<T, F: Fn(&Mbr) -> f64> BestFirstIter<'_, T, F> {
    /// Tree nodes (leaf or inner) expanded so far — the traversal-cost
    /// counter surfaced by the `*_counting` query variants.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited
    }
}

impl<'a, T, F: Fn(&Mbr) -> f64> Iterator for BestFirstIter<'a, T, F> {
    type Item = (&'a T, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(HeapItem { key, slot }) = self.heap.pop() {
            match slot {
                Slot::Item(t) => return Some((t, key)),
                Slot::Node(Node::Leaf(es)) => {
                    self.nodes_visited += 1;
                    for e in es {
                        self.heap.push(HeapItem {
                            key: (self.key)(&e.mbr),
                            slot: Slot::Item(&e.item),
                        });
                    }
                }
                Slot::Node(Node::Inner(cs)) => {
                    self.nodes_visited += 1;
                    for c in cs {
                        self.heap.push(HeapItem {
                            key: (self.key)(&c.mbr),
                            slot: Slot::Node(&c.node),
                        });
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::{HeapItem, Slot};
    use crate::node::RTree;
    use osd_geom::Point;

    #[test]
    fn heap_item_eq_agrees_with_its_total_order() {
        let item = |key: f64| HeapItem {
            key,
            slot: Slot::Item(&0usize),
        };
        for (a, b) in [
            (-0.0, 0.0),
            (f64::NAN, f64::NAN),
            (f64::NAN, -f64::NAN),
            (1.0, 1.0),
        ] {
            let (x, y) = (item(a), item(b));
            assert_eq!(x == y, x.cmp(&y).is_eq(), "keys {a} and {b}");
        }
        // total_cmp separates the signed zeros and NaN's sign; equal keys
        // (NaN included) compare equal.
        assert!(item(-0.0) != item(0.0));
        assert!(item(f64::NAN) == item(f64::NAN));
    }

    fn line_tree(n: usize) -> RTree<usize> {
        let rows: Vec<f64> = (0..n).flat_map(|i| [i as f64, 0.0]).collect();
        RTree::bulk_load_rows(4, 2, &rows)
    }

    #[test]
    fn counting_variants_match_plain_queries() {
        let t = line_tree(40);
        let probe = Point::new(vec![17.2, 0.0]);
        let mut visits = 0;
        assert_eq!(t.nearest_counting(&probe, &mut visits), t.nearest(&probe));
        assert!(visits > 0, "a non-empty tree expands at least the root");
        let before = visits;
        assert_eq!(t.furthest_counting(&probe, &mut visits), t.furthest(&probe));
        assert!(visits > before, "visits accumulate across calls");
    }

    #[test]
    fn counting_on_empty_tree_is_zero() {
        let t: RTree<usize> = RTree::bulk_load_rows(4, 2, &[]);
        let mut visits = 0;
        assert!(t
            .nearest_counting(&Point::new(vec![0.0, 0.0]), &mut visits)
            .is_none());
        assert_eq!(visits, 0);
    }

    #[test]
    fn multi_point_descent_matches_per_query_fold_bitwise() {
        let t = line_tree(40);
        let probes = vec![
            Point::new(vec![17.2, 0.0]),
            Point::new(vec![3.9, 1.5]),
            Point::new(vec![-2.0, 0.25]),
            Point::new(vec![38.6, -4.0]),
        ];
        // Scalar baseline: one full nearest search per probe, folding the
        // squared distances with f64::min (the ProgressiveNnc pattern).
        let mut scalar_visits = 0u64;
        let scalar = probes
            .iter()
            .map(|q| {
                let (_, d) = t.nearest_counting(q, &mut scalar_visits).unwrap();
                d * d
            })
            .fold(f64::INFINITY, f64::min);
        let mut multi_visits = 0u64;
        let multi = t.min_dist2_multi(&probes, &mut multi_visits).unwrap();
        // Bit-identity after the sqrt-then-square round trip of the scalar
        // path: √ and x² are monotone, so min commutes with them.
        let rounded = {
            let d = multi.sqrt();
            d * d
        };
        assert_eq!(rounded.to_bits(), scalar.to_bits());
        assert!(multi_visits > 0);
        assert!(
            multi_visits <= scalar_visits,
            "shared bound must not expand more nodes than |Q| searches \
             ({multi_visits} vs {scalar_visits})"
        );
    }

    #[test]
    fn multi_point_descent_empty_cases() {
        let t = line_tree(8);
        let mut visits = 0u64;
        assert!(t.min_dist2_multi(&[], &mut visits).is_none());
        assert_eq!(visits, 0);
        let empty: RTree<usize> = RTree::bulk_load_rows(4, 2, &[]);
        assert!(empty
            .min_dist2_multi(&[Point::new(vec![0.0, 0.0])], &mut visits)
            .is_none());
        assert_eq!(visits, 0);
    }

    #[test]
    fn multi_point_descent_with_duplicate_probes_matches_single_probe() {
        let t = line_tree(40);
        let single = vec![Point::new(vec![17.2, 0.3])];
        let mut single_visits = 0u64;
        let single_best = t.min_dist2_multi(&single, &mut single_visits).unwrap();
        // The same probe repeated: identical distance multiset, identical
        // best value, and the shared bound keeps the extra probes from
        // inflating the descent.
        let dup = vec![single[0].clone(); 5];
        let mut dup_visits = 0u64;
        let dup_best = t.min_dist2_multi(&dup, &mut dup_visits).unwrap();
        assert_eq!(dup_best.to_bits(), single_best.to_bits());
        assert_eq!(
            dup_visits, single_visits,
            "duplicate probes share every key, so the descent is identical"
        );
    }

    #[test]
    fn multi_point_descent_probe_on_mbr_corners() {
        let t = line_tree(40);
        // Probes placed exactly on MBR corners of the data: the root MBR
        // spans (0,0)..(39,0); its corners are data points, so the minimal
        // squared distance is exactly 0.0 with no rounding slack.
        let corners = vec![Point::new(vec![0.0, 0.0]), Point::new(vec![39.0, 0.0])];
        let mut visits = 0u64;
        let best = t.min_dist2_multi(&corners, &mut visits).unwrap();
        assert_eq!(best.to_bits(), 0.0f64.to_bits());
        // A probe on the MBR boundary but between data points: min_dist2 to
        // the enclosing boxes is 0, yet the true item distance is positive —
        // the descent must refine through the 0-keyed nodes to the items.
        let boundary = vec![Point::new(vec![17.5, 0.0])];
        let mut v2 = 0u64;
        let d2 = t.min_dist2_multi(&boundary, &mut v2).unwrap();
        assert_eq!(d2.to_bits(), 0.25f64.to_bits());
    }

    #[test]
    fn multi_point_descent_visits_never_exceed_single_probe_sum() {
        // Shared-bound tightening regression: across many probe sets, the
        // one-descent multi-probe search must never expand more nodes than
        // the sum of the per-probe searches it replaces.
        let t = line_tree(64);
        for scale in [0.5, 2.0, 7.3] {
            for n_probes in [1usize, 2, 3, 5, 8] {
                let probes: Vec<Point> = (0..n_probes)
                    .map(|i| Point::new(vec![i as f64 * scale, (i % 2) as f64 - 0.5]))
                    .collect();
                let mut per_probe_sum = 0u64;
                for q in &probes {
                    let _ = t.nearest_counting(q, &mut per_probe_sum);
                }
                let mut multi_visits = 0u64;
                let _ = t.min_dist2_multi(&probes, &mut multi_visits).unwrap();
                assert!(
                    multi_visits <= per_probe_sum,
                    "{n_probes} probes at scale {scale}: multi descent expanded \
                     {multi_visits} nodes vs per-probe sum {per_probe_sum}"
                );
            }
        }
    }

    #[test]
    fn best_first_visits_are_bounded_by_node_count() {
        let t = line_tree(64);
        let probe = Point::new(vec![0.0, 0.0]);
        let mut visits = 0;
        let _ = t.nearest_counting(&probe, &mut visits);
        // A nearest query can expand at most every node once.
        let height = t.height().unwrap_or(0) as u64;
        assert!(visits >= height, "must at least walk root-to-leaf");
        assert!(visits <= 64 + 16 + 4 + 1, "bounded by total node count");
    }
}
