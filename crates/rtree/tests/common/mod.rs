//! The condensation rule of `RTree::remove_item`, read off a tree through
//! its public nodes: which removals dissolve nodes, so tests can check the
//! removals that must stay on their path and drive the ones that reinsert
//! whole subtrees.

use osd_geom::Mbr;
use osd_rtree::{Node, RTree};

/// Slot counts of the nodes on the path from the root to the leaf holding
/// `item` (indexed under `mbr`), root first; empty if no leaf holds it.
pub fn removal_path(tree: &RTree<usize>, mbr: &Mbr, item: usize) -> Vec<usize> {
    fn walk(node: &Node<usize>, mbr: &Mbr, item: usize, out: &mut Vec<usize>) -> bool {
        out.push(node.slot_count());
        let found = match node {
            Node::Leaf(entries) => entries.iter().any(|e| e.item == item),
            Node::Inner(children) => children
                .iter()
                .any(|c| c.mbr.contains(mbr) && walk(&c.node, mbr, item, out)),
        };
        if !found {
            out.pop();
        }
        found
    }
    let mut path = Vec::new();
    if let Some(root) = tree.root() {
        walk(root, mbr, item, &mut path);
    }
    path
}

/// How many nodes a removal below the path with slot counts `path` (root
/// first) dissolves. The leaf loses a slot; a non-root node that loses one
/// is dissolved if it had `min_fill` slots, or one, and its parent then
/// loses a slot in turn. Two or more means an inner node was dissolved
/// and its children were reinserted as whole subtrees (when it had any
/// left).
pub fn dissolved_levels(path: &[usize], min_fill: usize) -> usize {
    path.iter()
        .skip(1)
        .rev()
        .take_while(|&&slots| slots == min_fill || slots == 1)
        .count()
}
