//! R-tree node structure and core tree type.
//!
//! The paper's evaluation (§6) organises data with *n + 1* R-trees: one
//! global R-tree over the objects' MBRs and one small local R-tree (fan-out
//! 4) per object over its instances. Both are instances of this generic
//! [`RTree`], parameterised by the payload type.
//!
//! Nodes are exposed read-only so that the dominance-search algorithms in
//! `osd-core` can drive their own best-first traversals with
//! dominance-based pruning (Algorithm 1) and run the level-by-level
//! pruning/validation of §5.1.2 against node MBRs.
//!
//! **Persistence.** Child nodes are shared behind `Arc`s, so cloning a tree
//! is O(1) (the root slot) and a clone shares every node with its source.
//! [`RTree::insert`] and [`RTree::remove_item`] never write to a node they
//! did not create: they copy the nodes on the root-to-leaf paths they
//! change and leave every other subtree shared. A clone taken before a
//! mutation — a pinned snapshot — therefore never observes it.

use osd_geom::{Mbr, Point};
use std::sync::Arc;

/// A leaf entry: a payload together with its bounding box.
///
/// Point data is stored with a degenerate (zero-volume) MBR.
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// Bounding box of the item.
    pub mbr: Mbr,
    /// The payload.
    pub item: T,
}

/// An internal-node slot: a child subtree with its bounding box.
#[derive(Debug, Clone)]
pub struct Child<T> {
    /// Bounding box of the whole subtree.
    pub mbr: Mbr,
    /// The subtree, shared with every clone of the tree that has not
    /// rewritten the path to it.
    pub node: Arc<Node<T>>,
}

/// An R-tree node.
#[derive(Debug, Clone)]
pub enum Node<T> {
    /// A leaf holding data entries.
    Leaf(Vec<Entry<T>>),
    /// An internal node holding children.
    Inner(Vec<Child<T>>),
}

impl<T> Node<T> {
    /// Tightest box over this node's slots.
    ///
    /// # Panics
    /// Panics if the node is empty (empty nodes never appear in a valid tree).
    pub fn mbr(&self) -> Mbr {
        match self {
            Node::Leaf(es) => {
                assert!(!es.is_empty(), "empty leaf node has no MBR");
                let mut m = es[0].mbr.clone();
                for e in &es[1..] {
                    m.expand(&e.mbr);
                }
                m
            }
            Node::Inner(cs) => {
                assert!(!cs.is_empty(), "empty inner node has no MBR");
                let mut m = cs[0].mbr.clone();
                for c in &cs[1..] {
                    m.expand(&c.mbr);
                }
                m
            }
        }
    }

    /// Number of slots (entries or children) directly in this node.
    pub fn slot_count(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Inner(cs) => cs.len(),
        }
    }

    /// Height of the subtree (leaf = 0).
    ///
    /// Every leaf of a valid tree sits at one depth, so this walks the
    /// first-child path: O(height), not O(size).
    pub fn height(&self) -> usize {
        let mut node = self;
        let mut height = 0;
        while let Node::Inner(cs) = node {
            height += 1;
            let Some(first) = cs.first() else { break };
            node = &first.node;
        }
        height
    }

    /// Collects references to every item in the subtree.
    pub fn collect_items<'a>(&'a self, out: &mut Vec<&'a T>) {
        match self {
            Node::Leaf(es) => out.extend(es.iter().map(|e| &e.item)),
            Node::Inner(cs) => {
                for c in cs {
                    c.node.collect_items(out);
                }
            }
        }
    }

    /// Total number of items in the subtree.
    pub fn item_count(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Inner(cs) => cs.iter().map(|c| c.node.item_count()).sum(),
        }
    }

    /// Total number of tree nodes in the subtree, this node included.
    pub fn node_count(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Inner(cs) => 1 + cs.iter().map(|c| c.node.node_count()).sum::<usize>(),
        }
    }
}

/// An in-memory R-tree with configurable fan-out.
///
/// Built either by [`RTree::bulk_load`] (Sort-Tile-Recursive packing, the
/// way the experiment datasets are indexed) or incrementally with
/// [`RTree::insert`] (Guttman-style with quadratic split). `clone` is
/// O(1): the clone shares every node, and later mutations of either tree
/// copy only the paths they change.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    pub(crate) root: Option<Child<T>>,
    pub(crate) max_entries: usize,
    pub(crate) len: usize,
}

impl<T> RTree<T> {
    /// Creates an empty tree with the given maximum fan-out.
    ///
    /// # Panics
    /// Panics if `max_entries < 2`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 2, "R-tree fan-out must be at least 2");
        RTree {
            root: None,
            max_entries,
            len: 0,
        }
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum node fan-out.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<&Node<T>> {
        self.root.as_ref().map(|c| c.node.as_ref())
    }

    /// Bounding box of the whole tree, if non-empty.
    pub fn mbr(&self) -> Option<&Mbr> {
        self.root.as_ref().map(|c| &c.mbr)
    }

    /// Height of the tree (single leaf = 0). `None` when empty.
    pub fn height(&self) -> Option<usize> {
        self.root.as_ref().map(|c| c.node.height())
    }

    /// Total number of tree nodes (leaves and inner nodes); 0 when empty.
    ///
    /// An upper bound on the `visits` any single best-first descent can
    /// charge — the per-shard memory/size statistic of the sharded index.
    pub fn node_count(&self) -> usize {
        self.root.as_ref().map_or(0, |c| c.node.node_count())
    }

    /// Groups the items by the tree nodes at `level` steps below the root
    /// (level 0 = the root's direct decomposition is level 1; level 0 yields
    /// one group per root). Subtrees shallower than `level` contribute their
    /// leaves. Each group carries its node MBR.
    ///
    /// This is the partition `U = {U¹, …, U^k}` used by the level-by-level
    /// pruning and validation of §5.1.2.
    pub fn level_groups(&self, level: usize) -> Vec<(Mbr, Vec<&T>)> {
        let mut out = Vec::new();
        if let Some(c) = &self.root {
            collect_level(&c.node, &c.mbr, level, &mut out);
        }
        out
    }

    /// Iterates over all items.
    pub fn items(&self) -> Vec<&T> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(c) = &self.root {
            c.node.collect_items(&mut out);
        }
        out
    }
}

fn collect_level<'a, T>(
    node: &'a Node<T>,
    mbr: &Mbr,
    level: usize,
    out: &mut Vec<(Mbr, Vec<&'a T>)>,
) {
    if level == 0 {
        let mut items = Vec::new();
        node.collect_items(&mut items);
        out.push((mbr.clone(), items));
        return;
    }
    match node {
        Node::Leaf(es) => {
            // Shallower than requested: each entry forms its own group so the
            // caller still sees the finest available granularity.
            for e in es {
                out.push((e.mbr.clone(), vec![&e.item]));
            }
        }
        Node::Inner(cs) => {
            for c in cs {
                collect_level(&c.node, &c.mbr, level - 1, out);
            }
        }
    }
}

/// Convenience constructor for point payloads: wraps each point in a
/// degenerate MBR entry.
pub fn point_entries<T, F: Fn(&T) -> &Point>(items: Vec<T>, point_of: F) -> Vec<Entry<T>> {
    items
        .into_iter()
        .map(|item| {
            let mbr = Mbr::from_point(point_of(&item));
            Entry { mbr, item }
        })
        .collect()
}
