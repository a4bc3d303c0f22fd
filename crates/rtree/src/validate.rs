//! Structural invariant validation.
//!
//! [`RTree::validate_structure`] audits the three invariants every valid
//! R-tree maintains — recorded MBRs are tight over (and therefore contain)
//! their subtrees, fan-out stays within bounds, and all leaves sit at the
//! same depth — and reports the first violation found. It is always
//! compiled so tests can call it directly; with the `strict-invariants`
//! feature the mutating operations ([`RTree::insert`],
//! [`RTree::remove_item`]) additionally audit the tree after every call
//! via `debug_assert!`.

use crate::node::{Node, RTree};
use osd_geom::Mbr;
use std::fmt;

/// A structural invariant violation, with the path to the offending node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureError {
    /// Child-index path from the root to the offending node.
    pub path: Vec<usize>,
    /// What went wrong.
    pub kind: StructureErrorKind,
}

/// The kinds of structural violation [`RTree::validate_structure`] detects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureErrorKind {
    /// A node has no slots at all (only an empty *tree* is allowed).
    EmptyNode,
    /// A node holds more slots than the configured fan-out.
    Overfull {
        /// Number of slots found.
        found: usize,
        /// Configured maximum fan-out.
        max: usize,
    },
    /// A recorded child MBR is not the tight union of its subtree.
    LooseMbr,
    /// A child's subtree reaches outside the recorded MBR.
    MbrNotContaining,
    /// Two leaves sit at different depths.
    UnbalancedHeight {
        /// Depth of the shallowest leaf.
        min: usize,
        /// Depth of the deepest leaf.
        max: usize,
    },
    /// `len()` disagrees with the number of stored entries.
    LengthMismatch {
        /// What `len()` reports.
        recorded: usize,
        /// Entries actually reachable.
        counted: usize,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at node path {:?}: ", self.path)?;
        match &self.kind {
            StructureErrorKind::EmptyNode => write!(f, "empty node"),
            StructureErrorKind::Overfull { found, max } => {
                write!(f, "node has {found} slots, fan-out max is {max}")
            }
            StructureErrorKind::LooseMbr => {
                write!(f, "recorded MBR is not the tight union of the subtree")
            }
            StructureErrorKind::MbrNotContaining => {
                write!(f, "subtree reaches outside the recorded MBR")
            }
            StructureErrorKind::UnbalancedHeight { min, max } => {
                write!(f, "leaf depths differ: {min} vs {max}")
            }
            StructureErrorKind::LengthMismatch { recorded, counted } => {
                write!(f, "len() says {recorded} but {counted} entries are stored")
            }
        }
    }
}

impl<T> RTree<T> {
    /// Audits the structural invariants: MBR tightness/containment, fan-out
    /// bounds, uniform leaf depth, and the cached length. Returns the first
    /// violation found.
    ///
    /// The root is exempt from the *minimum* fill bound (as in any R-tree)
    /// but not from the maximum.
    pub fn validate_structure(&self) -> Result<(), StructureError> {
        let Some(root) = &self.root else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err(StructureError {
                    path: Vec::new(),
                    kind: StructureErrorKind::LengthMismatch {
                        recorded: self.len,
                        counted: 0,
                    },
                })
            };
        };
        let mut path = Vec::new();
        validate_node(&root.node, &root.mbr, self.max_entries, &mut path)?;
        let counted = root.node.item_count();
        if counted != self.len {
            return Err(StructureError {
                path: Vec::new(),
                kind: StructureErrorKind::LengthMismatch {
                    recorded: self.len,
                    counted,
                },
            });
        }
        let (min_depth, max_depth) = leaf_depths(&root.node, 0);
        if min_depth != max_depth {
            return Err(StructureError {
                path: Vec::new(),
                kind: StructureErrorKind::UnbalancedHeight {
                    min: min_depth,
                    max: max_depth,
                },
            });
        }
        Ok(())
    }
}

/// Recursively checks one node against its recorded bounding box.
fn validate_node<T>(
    node: &Node<T>,
    recorded: &Mbr,
    max_entries: usize,
    path: &mut Vec<usize>,
) -> Result<(), StructureError> {
    let slots = node.slot_count();
    if slots == 0 {
        return Err(StructureError {
            path: path.clone(),
            kind: StructureErrorKind::EmptyNode,
        });
    }
    if slots > max_entries {
        return Err(StructureError {
            path: path.clone(),
            kind: StructureErrorKind::Overfull {
                found: slots,
                max: max_entries,
            },
        });
    }
    let tight = node.mbr();
    if !recorded.contains(&tight) {
        return Err(StructureError {
            path: path.clone(),
            kind: StructureErrorKind::MbrNotContaining,
        });
    }
    if !tight.contains(recorded) {
        // `recorded` strictly exceeds the tight union somewhere.
        return Err(StructureError {
            path: path.clone(),
            kind: StructureErrorKind::LooseMbr,
        });
    }
    if let Node::Inner(children) = node {
        for (i, c) in children.iter().enumerate() {
            path.push(i);
            validate_node(&c.node, &c.mbr, max_entries, path)?;
            path.pop();
        }
    }
    Ok(())
}

/// `(shallowest, deepest)` leaf depth below `node`.
fn leaf_depths<T>(node: &Node<T>, depth: usize) -> (usize, usize) {
    match node {
        Node::Leaf(_) => (depth, depth),
        Node::Inner(children) => {
            let mut lo = usize::MAX;
            let mut hi = 0;
            for c in children {
                let (clo, chi) = leaf_depths(&c.node, depth + 1);
                lo = lo.min(clo);
                hi = hi.max(chi);
            }
            (lo, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Child, Entry};
    use osd_geom::Point;
    use std::sync::Arc;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn entries(n: usize) -> Vec<Entry<usize>> {
        (0..n)
            .map(|i| Entry {
                mbr: Mbr::from_point(&pt((i % 13) as f64, (i / 13) as f64)),
                item: i,
            })
            .collect()
    }

    #[test]
    fn bulk_loaded_tree_is_valid() {
        for n in [0usize, 1, 5, 40, 200] {
            let t = RTree::bulk_load(6, entries(n));
            assert!(t.validate_structure().is_ok(), "n = {n}");
        }
    }

    #[test]
    fn incrementally_built_tree_is_valid() {
        let mut t = RTree::new(4);
        for e in entries(120) {
            t.insert(e.mbr, e.item);
        }
        assert!(t.validate_structure().is_ok());
    }

    #[test]
    fn tree_stays_valid_under_deletions() {
        let mut t = RTree::bulk_load(4, entries(60));
        for i in 0..60usize {
            let target = Mbr::from_point(&pt((i % 13) as f64, (i / 13) as f64));
            assert_eq!(t.remove_item(&target, |&x| x == i), Some(i));
            assert!(t.validate_structure().is_ok(), "after removing {i}");
        }
    }

    #[test]
    fn detects_loose_root_mbr() {
        let mut t = RTree::bulk_load(4, entries(10));
        if let Some(root) = t.root.as_mut() {
            root.mbr.expand(&Mbr::from_point(&pt(500.0, 500.0)));
        }
        assert_eq!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::LooseMbr)
        );
    }

    #[test]
    fn detects_non_containing_mbr() {
        let mut t = RTree::bulk_load(4, entries(10));
        if let Some(root) = t.root.as_mut() {
            root.mbr = Mbr::from_point(&pt(0.0, 0.0));
        }
        assert_eq!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::MbrNotContaining)
        );
    }

    #[test]
    fn detects_length_mismatch() {
        let mut t = RTree::bulk_load(4, entries(10));
        t.len = 11;
        assert!(matches!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::LengthMismatch {
                recorded: 11,
                counted: 10
            })
        ));
    }

    #[test]
    fn detects_unbalanced_tree() {
        // Hand-build an unbalanced inner node: one leaf child and one
        // two-level child.
        let leaf = |i: usize| Child {
            mbr: Mbr::from_point(&pt(i as f64, 0.0)),
            node: Arc::new(Node::Leaf(vec![Entry {
                mbr: Mbr::from_point(&pt(i as f64, 0.0)),
                item: i,
            }])),
        };
        let deep = Child {
            mbr: Mbr::from_point(&pt(1.0, 0.0)),
            node: Arc::new(Node::Inner(vec![leaf(1)])),
        };
        let root_node = Node::Inner(vec![leaf(0), deep]);
        let t = RTree {
            root: Some(Child {
                mbr: root_node.mbr(),
                node: Arc::new(root_node),
            }),
            max_entries: 4,
            len: 2,
        };
        assert!(matches!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::UnbalancedHeight { min: 1, max: 2 })
        ));
    }

    #[test]
    fn detects_overfull_node() {
        let es = entries(9);
        let t = RTree {
            root: Some(Child {
                mbr: Node::Leaf(es.clone()).mbr(),
                node: Arc::new(Node::Leaf(es)),
            }),
            max_entries: 4,
            len: 9,
        };
        assert!(matches!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::Overfull { found: 9, max: 4 })
        ));
    }
}
