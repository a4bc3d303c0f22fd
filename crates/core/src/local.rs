//! The per-object local R-trees of an index (§6's "one local tree per
//! object"), shared between snapshots in fixed-size chunks.
//!
//! Trees are held by **logical id** in chunks of [`CHUNK`] slots, each
//! chunk behind an `Arc`, each tree behind an `Arc` of its own. Cloning
//! the table (every publish clones the index) bumps one count per chunk,
//! not one per object; a mutation copies only the chunk holding the id it
//! touches, and the copy shares every other tree in it. A tombstoned id
//! keeps an empty slot. The columnar store chunks its rows the same way.
//!
//! Like the global R-trees and the store's chunks, a chunk is copied
//! unconditionally on write (no `Arc::make_mut`), so a pinned snapshot
//! never observes a mutation.

use osd_rtree::RTree;
use std::sync::Arc;

/// Slots per chunk. A clone costs `n / CHUNK` count bumps and a write
/// `CHUNK`; 256 keeps both near `√n` for the index sizes of §6.
const CHUNK: usize = 256;

/// One chunk of slots: `None` marks a tombstoned id.
type Chunk = Vec<Option<Arc<RTree<usize>>>>;

/// Local R-trees by logical id (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct LocalTrees {
    chunks: Vec<Arc<Chunk>>,
}

impl LocalTrees {
    /// The table holding `trees[id]` for ids `0..trees.len()`.
    pub(crate) fn new(trees: impl IntoIterator<Item = RTree<usize>>) -> Self {
        let mut chunks = Vec::new();
        let mut chunk = Chunk::with_capacity(CHUNK);
        for tree in trees {
            chunk.push(Some(Arc::new(tree)));
            if chunk.len() == CHUNK {
                chunks.push(Arc::new(std::mem::replace(
                    &mut chunk,
                    Chunk::with_capacity(CHUNK),
                )));
            }
        }
        if !chunk.is_empty() {
            chunks.push(Arc::new(chunk));
        }
        LocalTrees { chunks }
    }

    /// The tree of `id`; `None` if `id` is tombstoned or out of range.
    pub(crate) fn get(&self, id: usize) -> Option<&RTree<usize>> {
        self.chunks.get(id / CHUNK)?.get(id % CHUNK)?.as_deref()
    }

    /// The tree of the next id, one past every id held so far.
    pub(crate) fn push(&mut self, tree: RTree<usize>) {
        let tree = Some(Arc::new(tree));
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => {
                let mut chunk = Chunk::clone(last);
                chunk.push(tree);
                *last = Arc::new(chunk);
            }
            _ => {
                let mut chunk = Chunk::with_capacity(CHUNK);
                chunk.push(tree);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }

    /// Replaces the tree of held id `id` (`None` tombstones it).
    ///
    /// # Panics
    /// Panics if `id` was never pushed.
    pub(crate) fn set(&mut self, id: usize, tree: Option<RTree<usize>>) {
        let slot = &mut self.chunks[id / CHUNK];
        let mut chunk = Chunk::clone(slot);
        chunk[id % CHUNK] = tree.map(Arc::new);
        *slot = Arc::new(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osd_geom::{Mbr, Point};
    use osd_rtree::Entry;

    fn tree(tag: usize) -> RTree<usize> {
        let mbr = Mbr::from_point(&Point::new(vec![tag as f64, 0.0]));
        RTree::bulk_load(4, vec![Entry { mbr, item: tag }])
    }

    fn tag(t: &LocalTrees, id: usize) -> Option<usize> {
        t.get(id).map(|tree| *tree.items()[0])
    }

    #[test]
    fn ids_map_across_chunk_boundaries() {
        let n = 2 * CHUNK + 3;
        let mut t = LocalTrees::new((0..n).map(tree));
        assert_eq!(t.chunks.len(), 3);
        t.push(tree(n));
        t.set(CHUNK, None);
        t.set(1, Some(tree(7_000)));
        for id in 0..=n {
            let want = match id {
                1 => Some(7_000),
                _ if id == CHUNK => None,
                _ => Some(id),
            };
            assert_eq!(tag(&t, id), want, "id {id}");
        }
        assert_eq!(tag(&t, n + 1), None);
    }

    #[test]
    fn a_write_copies_one_chunk_and_shares_the_rest() {
        let old = LocalTrees::new((0..3 * CHUNK).map(tree));
        let mut new = old.clone();
        new.set(CHUNK + 5, Some(tree(9_999)));
        for (c, (a, b)) in old.chunks.iter().zip(&new.chunks).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), c != 1, "chunk {c}");
        }
        // Inside the copied chunk, every other tree is still shared.
        for id in (CHUNK..2 * CHUNK).filter(|&id| id != CHUNK + 5) {
            assert!(std::ptr::eq(old.get(id).unwrap(), new.get(id).unwrap()));
        }
        assert_eq!(
            tag(&old, CHUNK + 5),
            Some(CHUNK + 5),
            "the source is untouched"
        );
        assert_eq!(tag(&new, CHUNK + 5), Some(9_999));
    }

    #[test]
    fn push_fills_the_last_chunk_then_opens_a_new_one() {
        let mut t = LocalTrees::new((0..CHUNK - 1).map(tree));
        let before = t.clone();
        t.push(tree(CHUNK - 1));
        t.push(tree(CHUNK));
        assert_eq!(t.chunks.len(), 2);
        assert_eq!(before.chunks.len(), 1);
        assert_eq!(before.chunks[0].len(), CHUNK - 1, "the source is untouched");
        assert_eq!(tag(&t, CHUNK - 1), Some(CHUNK - 1));
        assert_eq!(tag(&t, CHUNK), Some(CHUNK));
    }
}
