//! Incremental insertion (Guttman's algorithm with quadratic split).
//!
//! Insertion is path-copying: every node on the root-to-leaf path the new
//! entry takes is copied, modified, and re-shared; every subtree off that
//! path stays shared with the tree's clones.
//!
//! The same descent places whole subtrees: deletion reinserts the children
//! of a dissolved inner node at their own level ([`Slot::Subtree`]), so
//! their leaves stay at the tree's leaf depth.

use crate::node::{Child, Entry, Node, RTree};
use osd_geom::Mbr;
use std::sync::Arc;

/// Something to place in the tree: a leaf entry, or a whole subtree.
pub(crate) enum Slot<T> {
    /// A data entry; it goes into a leaf.
    Entry(Entry<T>),
    /// A subtree whose node sits `height` levels above the leaves; it goes
    /// into an inner node at `height + 1`.
    Subtree(Child<T>, usize),
}

impl<T> Slot<T> {
    fn mbr(&self) -> &Mbr {
        match self {
            Slot::Entry(e) => &e.mbr,
            Slot::Subtree(c, _) => &c.mbr,
        }
    }

    /// Height of the node this slot belongs in.
    pub(crate) fn parent_height(&self) -> usize {
        match self {
            Slot::Entry(_) => 0,
            Slot::Subtree(_, h) => h + 1,
        }
    }

    /// The slot as a stand-alone tree root.
    fn into_child(self) -> Child<T> {
        match self {
            Slot::Entry(e) => Child {
                mbr: e.mbr.clone(),
                node: Arc::new(Node::Leaf(vec![e])),
            },
            Slot::Subtree(c, _) => c,
        }
    }
}

impl<T: Clone> RTree<T> {
    /// Inserts an item with its bounding box.
    ///
    /// Copies the O(height) nodes on the insertion path (and any node a
    /// split creates); clones of the tree taken earlier are unaffected.
    pub fn insert(&mut self, mbr: Mbr, item: T) {
        self.len += 1;
        self.place(Slot::Entry(Entry { mbr, item }));
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate_structure() {
            debug_assert!(false, "R-tree invariant broken after insert: {e}");
        }
    }

    /// Places `slot` at its own level, copying the O(height) nodes on its
    /// path; `len` is the caller's to keep. A subtree as tall as the whole
    /// tree — only possible while deletion refills an emptied root — joins
    /// the old root under a new one.
    pub(crate) fn place(&mut self, slot: Slot<T>) {
        let Some(root) = self.root.take() else {
            self.root = Some(slot.into_child());
            return;
        };
        let height = root.node.height();
        if height < slot.parent_height() {
            debug_assert_eq!(
                height + 1,
                slot.parent_height(),
                "subtree taller than the tree"
            );
            let mut mbr = root.mbr.clone();
            mbr.expand(slot.mbr());
            self.root = Some(Child {
                mbr,
                node: Arc::new(Node::Inner(vec![root, slot.into_child()])),
            });
            return;
        }
        let Child { mut mbr, node } = root;
        mbr.expand(slot.mbr());
        let mut node = Node::clone(&node);
        let node = match insert_rec(&mut node, height, slot, self.max_entries) {
            None => node,
            // Root overflowed: grow the tree by one level. The old root's
            // box must be re-tightened — the split moved some of its slots
            // into the new sibling.
            Some(split) => {
                let old = Child {
                    mbr: node.mbr(),
                    node: Arc::new(node),
                };
                Node::Inner(vec![old, split])
            }
        };
        self.root = Some(Child {
            mbr,
            node: Arc::new(node),
        });
    }
}

/// Recursive placement into `node`, a private copy the caller owns that
/// sits `height` levels above the leaves; the child the slot descends into
/// is copied in turn. Returns a new sibling child if `node` was split.
fn insert_rec<T: Clone>(
    node: &mut Node<T>,
    height: usize,
    slot: Slot<T>,
    cap: usize,
) -> Option<Child<T>> {
    if height == slot.parent_height() {
        return match (node, slot) {
            (Node::Leaf(entries), Slot::Entry(e)) => {
                entries.push(e);
                split_overfull(entries, cap, |e| &e.mbr, Node::Leaf)
            }
            (Node::Inner(children), Slot::Subtree(c, _)) => {
                children.push(c);
                split_overfull(children, cap, |c| &c.mbr, Node::Inner)
            }
            _ => unreachable!("slot level disagrees with the node kind: unbalanced tree"),
        };
    }
    let Node::Inner(children) = node else {
        unreachable!("descended past the leaves: unbalanced tree")
    };
    // Choose the child needing the least volume enlargement (ties: smaller
    // volume).
    assert!(!children.is_empty(), "inner node with no children");
    let best = (0..children.len())
        .min_by(|&i, &j| {
            let (ei, vi) = enlargement(&children[i].mbr, slot.mbr());
            let (ej, vj) = enlargement(&children[j].mbr, slot.mbr());
            ei.total_cmp(&ej).then(vi.total_cmp(&vj))
        })
        .unwrap_or(0);
    let target = &mut children[best];
    target.mbr.expand(slot.mbr());
    let mut child = Node::clone(&target.node);
    let split = insert_rec(&mut child, height - 1, slot, cap);
    if split.is_some() {
        // Re-tighten the split child's box (the split moved slots out).
        target.mbr = child.mbr();
    }
    target.node = Arc::new(child);
    let split = split?;
    children.push(split);
    split_overfull(children, cap, |c| &c.mbr, Node::Inner)
}

/// Splits `slots` in place if it holds more than `cap`, returning the new
/// sibling built by `wrap`.
fn split_overfull<T, I>(
    slots: &mut Vec<I>,
    cap: usize,
    get: impl Fn(&I) -> &Mbr,
    wrap: impl FnOnce(Vec<I>) -> Node<T>,
) -> Option<Child<T>> {
    if slots.len() <= cap {
        return None;
    }
    let (a, b) = quadratic_split(std::mem::take(slots), &get);
    let mbr = mbr_of(&b, get);
    *slots = a;
    Some(Child {
        mbr,
        node: Arc::new(wrap(b)),
    })
}

fn enlargement(node: &Mbr, add: &Mbr) -> (f64, f64) {
    let v = node.volume();
    (node.union_volume(add) - v, v)
}

fn mbr_of<I>(items: &[I], get: impl Fn(&I) -> &Mbr) -> Mbr {
    let mut m = get(&items[0]).clone();
    for it in &items[1..] {
        m.expand(get(it));
    }
    m
}

/// Guttman's quadratic split: pick the pair of slots wasting the most area
/// as seeds, then greedily assign the rest by enlargement preference.
fn quadratic_split<I>(items: Vec<I>, get: impl Fn(&I) -> &Mbr) -> (Vec<I>, Vec<I>) {
    debug_assert!(items.len() >= 2);
    let n = items.len();

    // Seed selection: maximise dead volume of the pair's union.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (get(&items[i]), get(&items[j]));
            let waste = a.union_volume(b) - a.volume() - b.volume();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }

    // `s1 < s2` always hold after seed selection, so the seed boxes can be
    // cloned up front instead of threading `Option`s through the partition.
    let mut mbr_a: Mbr = get(&items[s1]).clone();
    let mut mbr_b: Mbr = get(&items[s2]).clone();
    let mut a: Vec<I> = Vec::with_capacity(n);
    let mut b: Vec<I> = Vec::with_capacity(n);
    let mut rest: Vec<I> = Vec::with_capacity(n);
    for (k, item) in items.into_iter().enumerate() {
        if k == s1 {
            a.push(item);
        } else if k == s2 {
            b.push(item);
        } else {
            rest.push(item);
        }
    }

    for item in rest.into_iter() {
        let ga = mbr_a.union_volume(get(&item)) - mbr_a.volume();
        let gb = mbr_b.union_volume(get(&item)) - mbr_b.volume();
        // Prefer the group with the smaller enlargement; break ties towards
        // the emptier group to keep the split roughly balanced.
        let to_a = match ga.total_cmp(&gb) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => a.len() <= b.len(),
            std::cmp::Ordering::Greater => false,
        };
        if to_a {
            mbr_a.expand(get(&item));
            a.push(item);
        } else {
            mbr_b.expand(get(&item));
            b.push(item);
        }
    }
    (a, b)
}
