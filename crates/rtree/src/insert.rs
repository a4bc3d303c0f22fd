//! Incremental insertion (Guttman's algorithm with quadratic split).
//!
//! Insertion is path-copying: every node on the root-to-leaf path the new
//! entry takes is copied, modified, and re-shared; every subtree off that
//! path stays shared with the tree's clones.

use crate::node::{Child, Entry, Node, RTree};
use osd_geom::Mbr;
use std::sync::Arc;

impl<T: Clone> RTree<T> {
    /// Inserts an item with its bounding box.
    ///
    /// Copies the O(height) nodes on the insertion path (and any node a
    /// split creates); clones of the tree taken earlier are unaffected.
    pub fn insert(&mut self, mbr: Mbr, item: T) {
        self.len += 1;
        let entry = Entry { mbr, item };
        self.root = Some(match self.root.take() {
            None => Child {
                mbr: entry.mbr.clone(),
                node: Arc::new(Node::Leaf(vec![entry])),
            },
            Some(root) => {
                let mut mbr = root.mbr;
                mbr.expand(&entry.mbr);
                let mut node = Node::clone(&root.node);
                match insert_rec(&mut node, entry, self.max_entries) {
                    None => Child {
                        mbr,
                        node: Arc::new(node),
                    },
                    // Root overflowed: grow the tree by one level. The old
                    // root's box must be re-tightened — the split moved some
                    // of its entries into the new sibling.
                    Some(split) => {
                        let old = Child {
                            mbr: node.mbr(),
                            node: Arc::new(node),
                        };
                        let mut mbr = old.mbr.clone();
                        mbr.expand(&split.mbr);
                        Child {
                            mbr,
                            node: Arc::new(Node::Inner(vec![old, split])),
                        }
                    }
                }
            }
        });
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate_structure() {
            debug_assert!(false, "R-tree invariant broken after insert: {e}");
        }
    }
}

/// Recursive insertion into `node`, a private copy the caller owns; the
/// child the entry descends into is copied in turn. Returns a new sibling
/// child if `node` was split.
fn insert_rec<T: Clone>(node: &mut Node<T>, entry: Entry<T>, cap: usize) -> Option<Child<T>> {
    match node {
        Node::Leaf(entries) => {
            entries.push(entry);
            if entries.len() <= cap {
                return None;
            }
            let (a, b) = quadratic_split(std::mem::take(entries), |e: &Entry<T>| &e.mbr);
            let mbr_b = mbr_of(&b, |e| &e.mbr);
            *entries = a;
            Some(Child {
                mbr: mbr_b,
                node: Arc::new(Node::Leaf(b)),
            })
        }
        Node::Inner(children) => {
            // Choose the child needing the least volume enlargement
            // (ties: smaller volume).
            assert!(!children.is_empty(), "inner node with no children");
            let best = (0..children.len())
                .min_by(|&i, &j| {
                    let (ei, vi) = enlargement(&children[i].mbr, &entry.mbr);
                    let (ej, vj) = enlargement(&children[j].mbr, &entry.mbr);
                    ei.total_cmp(&ej).then(vi.total_cmp(&vj))
                })
                .unwrap_or(0);
            let slot = &mut children[best];
            slot.mbr.expand(&entry.mbr);
            let mut child = Node::clone(&slot.node);
            let split = insert_rec(&mut child, entry, cap);
            if split.is_some() {
                // Re-tighten the split child's box (the split moved entries out).
                slot.mbr = child.mbr();
            }
            slot.node = Arc::new(child);
            if let Some(split) = split {
                children.push(split);
                if children.len() > cap {
                    let (a, b) = quadratic_split(std::mem::take(children), |c: &Child<T>| &c.mbr);
                    let mbr_b = mbr_of(&b, |c| &c.mbr);
                    *children = a;
                    return Some(Child {
                        mbr: mbr_b,
                        node: Arc::new(Node::Inner(b)),
                    });
                }
            }
            None
        }
    }
}

fn enlargement(node: &Mbr, add: &Mbr) -> (f64, f64) {
    let grown = node.union(add);
    let v = node.volume();
    (grown.volume() - v, v)
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
            let u = get(&items[i]).union(get(&items[j]));
            let waste = u.volume() - get(&items[i]).volume() - get(&items[j]).volume();
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
        let ga = mbr_a.union(get(&item)).volume() - mbr_a.volume();
        let gb = mbr_b.union(get(&item)).volume() - mbr_b.volume();
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
