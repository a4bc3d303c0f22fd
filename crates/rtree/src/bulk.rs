//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs `n` rectangles into `⌈n / M⌉` leaves by recursively slicing the
//! data into vertical "slabs" along successive dimensions, then builds upper
//! levels by packing the resulting node MBRs the same way. The result is a
//! balanced tree with near-100 % node utilisation — the standard choice for
//! static experiment datasets.

use crate::node::{Child, Entry, Node, RTree};
use osd_geom::Mbr;
use std::sync::Arc;

impl<T> RTree<T> {
    /// Builds a tree from `entries` using STR packing.
    ///
    /// # Panics
    /// Panics if `max_entries < 2`.
    pub fn bulk_load(max_entries: usize, entries: Vec<Entry<T>>) -> Self {
        let mut tree = RTree::new(max_entries);
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len();
        let dim = entries[0].mbr.dim();

        // Pack entries into leaves.
        let mut level: Vec<Child<T>> = pack(entries, max_entries, dim, |group| {
            let mbr = group
                .iter()
                .skip(1)
                .fold(group[0].mbr.clone(), |mut acc, e| {
                    acc.expand(&e.mbr);
                    acc
                });
            Child {
                mbr,
                node: Arc::new(Node::Leaf(group)),
            }
        });

        // Pack node levels until a single root remains.
        while level.len() > 1 {
            level = pack(level, max_entries, dim, |group| {
                let mbr = group
                    .iter()
                    .skip(1)
                    .fold(group[0].mbr.clone(), |mut acc, c| {
                        acc.expand(&c.mbr);
                        acc
                    });
                Child {
                    mbr,
                    node: Arc::new(Node::Inner(group)),
                }
            });
        }
        tree.root = level.pop();
        tree
    }
}

impl RTree<usize> {
    /// Builds a tree over a row-major coordinate block: one degenerate
    /// (point) rectangle per `dim`-sized row, with the row index as payload.
    ///
    /// This is the zero-copy companion of [`RTree::bulk_load`] for flat
    /// instance stores — entries are materialised straight from the borrowed
    /// slice, with no intermediate owned point set. The produced tree is
    /// identical to bulk-loading `Entry { mbr: Mbr::from_point(row_i), item: i }`.
    ///
    /// # Panics
    /// Panics if `max_entries < 2`, `dim` is zero, or `rows.len()` is not a
    /// multiple of `dim`.
    pub fn bulk_load_rows(max_entries: usize, dim: usize, rows: &[f64]) -> Self {
        assert!(dim > 0, "rows need at least one dimension");
        assert_eq!(
            rows.len() % dim,
            0,
            "row block length must be a multiple of dim"
        );
        let entries: Vec<Entry<usize>> = rows
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| Entry {
                mbr: Mbr::new(row, row),
                item: i,
            })
            .collect();
        RTree::bulk_load(max_entries, entries)
    }
}

/// Trait unifying the two packable kinds (leaf entries and children).
trait HasMbr {
    fn mbr_ref(&self) -> &Mbr;
}
impl<T> HasMbr for Entry<T> {
    fn mbr_ref(&self) -> &Mbr {
        &self.mbr
    }
}
impl<T> HasMbr for Child<T> {
    fn mbr_ref(&self) -> &Mbr {
        &self.mbr
    }
}

/// Packs `items` into groups of at most `cap`, returning one built node per
/// group via `build`.
fn pack<I: HasMbr, O>(
    items: Vec<I>,
    cap: usize,
    dim: usize,
    build: impl Fn(Vec<I>) -> O,
) -> Vec<O> {
    let mut out = Vec::with_capacity(items.len().div_ceil(cap));
    tile(items, cap, dim, 0, &build, &mut out);
    out
}

/// Recursive STR tiling: sort by the centre of dimension `d`, cut into
/// `⌈P^(1/(dim−d))⌉` slabs, recurse on the next dimension.
fn tile<I: HasMbr, O>(
    mut items: Vec<I>,
    cap: usize,
    dim: usize,
    d: usize,
    build: &impl Fn(Vec<I>) -> O,
    out: &mut Vec<O>,
) {
    if items.len() <= cap {
        out.push(build(items));
        return;
    }
    sort_by_center(&mut items, d);
    // Runs and slabs are taken off one draining iterator, so each item
    // moves once per level of the recursion, never with the whole tail.
    if d + 1 == dim {
        // Last dimension: emit consecutive runs of `cap`.
        let mut rest = items.into_iter();
        while !rest.as_slice().is_empty() {
            out.push(build(rest.by_ref().take(cap).collect()));
        }
        return;
    }
    let pages = items.len().div_ceil(cap);
    let slabs = (pages as f64).powf(1.0 / (dim - d) as f64).ceil() as usize;
    let per_slab = items.len().div_ceil(slabs.max(1));
    let mut rest = items.into_iter();
    while !rest.as_slice().is_empty() {
        let slab = rest.by_ref().take(per_slab).collect();
        tile(slab, cap, dim, d + 1, build, out);
    }
}

/// An index tagged with a borrowed rectangle, so the STR tiler can slice
/// arbitrary MBR collections without owning them.
struct Tagged<'a> {
    mbr: &'a Mbr,
    idx: usize,
}
impl HasMbr for Tagged<'_> {
    fn mbr_ref(&self) -> &Mbr {
        self.mbr
    }
}

/// Space-partitions `mbrs` into roughly `parts` spatially coherent tiles
/// using the same Sort-Tile-Recursive slicing as [`RTree::bulk_load`], and
/// returns the member indices of each tile in tiling order.
///
/// This is STR applied one level up: instead of packing rectangles into
/// tree leaves, it packs them into *shards* — each returned group is a
/// contiguous run of the STR ordering with at most `⌈n / parts⌉` members,
/// so shard extents overlap as little as the data allows. Slab rounding
/// can produce slightly more than `parts` groups; callers should treat the
/// returned length as the actual shard count.
///
/// `parts <= 1` returns a single group in the **original** index order
/// (no re-sorting), so a one-shard partition is layout-identical to the
/// unpartitioned input. Empty input returns no groups.
pub fn str_partition(mbrs: &[Mbr], parts: usize) -> Vec<Vec<usize>> {
    if mbrs.is_empty() {
        return Vec::new();
    }
    if parts <= 1 {
        return vec![(0..mbrs.len()).collect()];
    }
    let dim = mbrs[0].dim();
    let cap = mbrs.len().div_ceil(parts).max(1);
    let items: Vec<Tagged<'_>> = mbrs
        .iter()
        .enumerate()
        .map(|(idx, mbr)| Tagged { mbr, idx })
        .collect();
    pack(items, cap, dim, |group| {
        group.into_iter().map(|t| t.idx).collect()
    })
}

fn sort_by_center<I: HasMbr>(items: &mut [I], d: usize) {
    items.sort_by(|a, b| {
        let ca = a.mbr_ref().lo()[d] + a.mbr_ref().hi()[d];
        let cb = b.mbr_ref().lo()[d] + b.mbr_ref().hi()[d];
        ca.total_cmp(&cb)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use osd_geom::Point;

    /// The packer as it was before tiling drained one iterator: each run
    /// and slab is peeled off with `split_off`, which copies the tail. The
    /// reference the tiler is pinned against, node for node.
    mod split_off_packer {
        use super::super::{sort_by_center, HasMbr};
        use crate::node::{Child, Entry, Node, RTree};
        use std::sync::Arc;

        pub(super) fn pack<I: HasMbr, O>(
            items: Vec<I>,
            cap: usize,
            dim: usize,
            build: impl Fn(Vec<I>) -> O,
        ) -> Vec<O> {
            let mut out = Vec::new();
            tile(items, cap, dim, 0, &build, &mut out);
            out
        }

        fn tile<I: HasMbr, O>(
            mut items: Vec<I>,
            cap: usize,
            dim: usize,
            d: usize,
            build: &impl Fn(Vec<I>) -> O,
            out: &mut Vec<O>,
        ) {
            if items.len() <= cap {
                out.push(build(items));
                return;
            }
            sort_by_center(&mut items, d);
            let size = if d + 1 == dim {
                cap
            } else {
                let pages = items.len().div_ceil(cap);
                let slabs = (pages as f64).powf(1.0 / (dim - d) as f64).ceil() as usize;
                items.len().div_ceil(slabs.max(1))
            };
            let mut rest = items;
            while !rest.is_empty() {
                let tail = rest.split_off(rest.len().min(size));
                if d + 1 == dim {
                    out.push(build(rest));
                } else {
                    tile(rest, cap, dim, d + 1, build, out);
                }
                rest = tail;
            }
        }

        /// `RTree::bulk_load` over this packer.
        pub(super) fn bulk_load<T>(cap: usize, entries: Vec<Entry<T>>) -> RTree<T> {
            let mut tree = RTree::new(cap);
            if entries.is_empty() {
                return tree;
            }
            let dim = entries[0].mbr.dim();
            tree.len = entries.len();
            let mut level = pack(entries, cap, dim, |group| {
                let mut mbr = group[0].mbr.clone();
                group.iter().for_each(|e| mbr.expand(&e.mbr));
                Child {
                    mbr,
                    node: Arc::new(Node::Leaf(group)),
                }
            });
            while level.len() > 1 {
                level = pack(level, cap, dim, |group| {
                    let mut mbr = group[0].mbr.clone();
                    group.iter().for_each(|c| mbr.expand(&c.mbr));
                    Child {
                        mbr,
                        node: Arc::new(Node::Inner(group)),
                    }
                });
            }
            tree.root = level.pop();
            tree
        }
    }

    /// A tree's whole node structure: every MBR and payload, in order.
    fn layout<T: std::fmt::Debug>(tree: &RTree<T>) -> String {
        format!("{:?}", tree.root)
    }

    /// `n` scattered `dim`-d points, row-major.
    fn scattered_rows(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i * 7919) % 1009) as f64 * 0.37 - 150.0)
            .collect()
    }

    fn point_entries(rows: &[f64], dim: usize) -> Vec<Entry<usize>> {
        rows.chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| Entry {
                mbr: Mbr::new(row, row),
                item: i,
            })
            .collect()
    }

    #[test]
    fn tiling_matches_the_split_off_packer_node_for_node() {
        for n in [0, 1, 3, 4, 5, 17, 64, 65, 97, 200] {
            for dim in [1, 2, 3] {
                let rows = scattered_rows(n, dim);
                for cap in [2, 3, 4, 8] {
                    let old = split_off_packer::bulk_load(cap, point_entries(&rows, dim));
                    let new = RTree::bulk_load(cap, point_entries(&rows, dim));
                    let from_rows = RTree::bulk_load_rows(cap, dim, &rows);
                    assert_eq!(layout(&new), layout(&old), "n {n} dim {dim} cap {cap}");
                    assert_eq!(
                        layout(&from_rows),
                        layout(&old),
                        "n {n} dim {dim} cap {cap}"
                    );
                    assert_eq!(new.len(), old.len());
                }
                if n == 0 {
                    continue;
                }
                let mbrs: Vec<Mbr> = rows
                    .chunks_exact(dim)
                    .map(|lo| Mbr::new(lo, lo.iter().map(|x| x + 0.5).collect::<Vec<_>>()))
                    .collect();
                for parts in [2, 3, 7, 16] {
                    let tagged = mbrs.iter().enumerate();
                    let tagged = tagged.map(|(idx, mbr)| Tagged { mbr, idx }).collect();
                    let cap = n.div_ceil(parts);
                    let old: Vec<Vec<usize>> = split_off_packer::pack(tagged, cap, dim, |g| {
                        g.into_iter().map(|t| t.idx).collect()
                    });
                    assert_eq!(str_partition(&mbrs, parts), old, "n {n} parts {parts}");
                }
            }
        }
    }

    #[test]
    fn bulk_load_rows_matches_point_entry_bulk_load() {
        let rows: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin() * 50.0).collect();
        let dim = 3;
        let from_rows = RTree::bulk_load_rows(4, dim, &rows);
        let entries: Vec<Entry<usize>> = rows
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| Entry {
                mbr: Mbr::from_point(&Point::new(row.to_vec())),
                item: i,
            })
            .collect();
        let from_points = RTree::bulk_load(4, entries);
        assert_eq!(from_rows.len(), from_points.len());
        assert_eq!(from_rows.height(), from_points.height());
        assert_eq!(from_rows.mbr(), from_points.mbr());
        assert!(from_rows.validate_structure().is_ok());
        let probe = Point::new(vec![0.1, -0.2, 0.3]);
        assert_eq!(from_rows.nearest(&probe), from_points.nearest(&probe));
    }

    #[test]
    fn bulk_load_rows_empty_is_fine() {
        let t = RTree::bulk_load_rows(4, 2, &[]);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn bulk_load_rows_ragged_rejected() {
        let _ = RTree::bulk_load_rows(4, 2, &[1.0, 2.0, 3.0]);
    }

    fn grid_mbrs(n: usize) -> Vec<Mbr> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                Mbr::new(vec![x, y], vec![x + 0.5, y + 0.5])
            })
            .collect()
    }

    #[test]
    fn str_partition_covers_every_index_exactly_once() {
        let mbrs = grid_mbrs(97);
        for parts in [2, 3, 7, 16] {
            let groups = str_partition(&mbrs, parts);
            let cap = mbrs.len().div_ceil(parts);
            let mut seen = vec![false; mbrs.len()];
            for g in &groups {
                assert!(!g.is_empty(), "no empty shard");
                assert!(g.len() <= cap, "group of {} exceeds cap {cap}", g.len());
                for &i in g {
                    assert!(!seen[i], "index {i} assigned twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "partition must be exhaustive");
            assert!(groups.len() >= parts.min(mbrs.len()));
        }
    }

    #[test]
    fn str_partition_single_part_preserves_input_order() {
        let mbrs = grid_mbrs(23);
        let groups = str_partition(&mbrs, 1);
        assert_eq!(groups, vec![(0..23).collect::<Vec<_>>()]);
        let groups = str_partition(&mbrs, 0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn str_partition_more_parts_than_items_yields_singletons() {
        let mbrs = grid_mbrs(5);
        let groups = str_partition(&mbrs, 64);
        assert_eq!(groups.len(), 5);
        assert!(groups.iter().all(|g| g.len() == 1));
        assert!(str_partition(&[], 4).is_empty());
    }

    #[test]
    fn str_partition_groups_are_spatially_coherent() {
        // A cluster at the origin and one far away: with 2 parts, STR must
        // not mix members of the two clusters in one shard.
        let mut mbrs = Vec::new();
        for i in 0..8 {
            let x = (i % 4) as f64;
            mbrs.push(Mbr::new(vec![x, 0.0], vec![x, 0.0]));
        }
        for i in 0..8 {
            let x = 100.0 + (i % 4) as f64;
            mbrs.push(Mbr::new(vec![x, 0.0], vec![x, 0.0]));
        }
        let groups = str_partition(&mbrs, 2);
        assert_eq!(groups.len(), 2);
        for g in &groups {
            let near = g.iter().all(|&i| i < 8);
            let far = g.iter().all(|&i| i >= 8);
            assert!(near || far, "shard mixes clusters: {g:?}");
        }
    }
}
