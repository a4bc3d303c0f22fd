//! [`ChunkedVec`]: a persistent vector in `Arc`-shared chunks, the one
//! per-id table type of the index.
//!
//! Slots are held in chunks of [`CHUNK`] consecutive ids (the store's row
//! chunk size), each chunk behind an `Arc`. Cloning the vector bumps one
//! count per chunk, not one per slot. A write ([`ChunkedVec::set`],
//! [`ChunkedVec::push`], [`ChunkedVec::extend`]) builds a fresh copy of the
//! one chunk it touches and never writes a chunk in place, so a clone never
//! observes a later write. Every chunk but the last holds exactly `CHUNK`
//! slots.
//!
//! Two tables are built on it: the local-tree entries (each tree with the
//! state derived from its object alone) and the logical-id → row `slot`
//! map of [`ShardedDatabase`](crate::ShardedDatabase). Every id of
//! both holds a value, so the chunks are dense; the warm cache, whose
//! tables hold entries only for the ids queries touch, keeps the same
//! chunks but allocates each on its first write. Like the store's chunks
//! and the R-trees' nodes, a publish copies only what it writes.

use osd_uncertain::CHUNK;
use std::sync::Arc;

/// A persistent vector of `T` in `Arc`-shared chunks (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct ChunkedVec<T> {
    /// Slots `c * CHUNK ..` live in `chunks[c]`.
    chunks: Vec<Arc<[T]>>,
}

impl<T> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        ChunkedVec {
            chunks: self.chunks.clone(),
        }
    }
}

impl<T> ChunkedVec<T> {
    /// The vector of `f(0), f(1), …, f(len - 1)`, one allocation per
    /// chunk.
    pub(crate) fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let chunks = (0..len.div_ceil(CHUNK))
            .map(|c| (c * CHUNK..len.min((c + 1) * CHUNK)).map(&mut f).collect())
            .collect();
        ChunkedVec { chunks }
    }

    /// The number of slots.
    pub(crate) fn len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len(),
            None => 0,
        }
    }

    /// The slot at `i`; `None` past the end.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// The chunks in slot order, for sharing checks.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Arc<[T]>] {
        &self.chunks
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Replaces slot `i`, copying the one chunk that holds it.
    ///
    /// # Panics
    /// Panics if `i` is past the end.
    pub(crate) fn set(&mut self, i: usize, value: T) {
        let (chunk, k) = (&mut self.chunks[i / CHUNK], i % CHUNK);
        let mut value = Some(value);
        *chunk = chunk
            .iter()
            .enumerate()
            .map(|(j, old)| {
                let new = if j == k { value.take() } else { None };
                new.unwrap_or_else(|| old.clone())
            })
            .collect();
    }

    /// Appends one slot: copies a partly filled last chunk, or opens a
    /// new one.
    pub(crate) fn push(&mut self, value: T) {
        self.extend(std::iter::once(value));
    }

    /// Appends `values`, copying a partly filled last chunk once.
    pub(crate) fn extend(&mut self, values: impl IntoIterator<Item = T>) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        let mut open = match self.chunks.last() {
            Some(last) if last.len() < CHUNK => {
                let mut copy = Vec::with_capacity(CHUNK);
                copy.extend_from_slice(last);
                self.chunks.pop();
                copy
            }
            _ => Vec::with_capacity(CHUNK),
        };
        for value in values {
            open.push(value);
            if open.len() == CHUNK {
                self.chunks.push(std::mem::take(&mut open).into());
                open.reserve(CHUNK);
            }
        }
        if !open.is_empty() {
            self.chunks.push(open.into());
        }
    }
}

impl<T> std::ops::Index<usize> for ChunkedVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> ChunkedVec<usize> {
        let mut v = ChunkedVec::from_fn(n / 2, |i| i);
        v.extend(n / 2..n);
        v
    }

    #[test]
    fn ids_map_across_chunk_boundaries() {
        let n = 2 * CHUNK + 3;
        let mut v = ids(n);
        assert_eq!((v.len(), v.chunks().len()), (n, 3));
        v.push(n);
        v.set(CHUNK, 7_000);
        for i in 0..=n {
            let want = if i == CHUNK { 7_000 } else { i };
            assert_eq!((v.get(i), v[i]), (Some(&want), want), "slot {i}");
        }
        assert_eq!(v.get(n + 1), None);
        assert_eq!(ChunkedVec::from_fn(0, |i| i).len(), 0);
    }

    #[test]
    fn a_write_copies_one_chunk_and_shares_the_rest() {
        let old = ids(3 * CHUNK);
        let mut new = old.clone();
        new.set(CHUNK + 5, 9_999);
        for (c, (a, b)) in old.chunks().iter().zip(new.chunks()).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), c != 1, "chunk {c}");
        }
        assert_eq!(old[CHUNK + 5], CHUNK + 5, "the source is untouched");
        assert_eq!(new[CHUNK + 5], 9_999);
    }

    #[test]
    fn push_fills_the_last_chunk_then_opens_a_new_one() {
        let mut v = ids(CHUNK - 1);
        let before = v.clone();
        v.push(CHUNK - 1);
        v.extend([CHUNK, CHUNK + 1]);
        assert_eq!(v.chunks().len(), 2);
        assert_eq!(v.chunks()[0].len(), CHUNK);
        assert!(!Arc::ptr_eq(&v.chunks()[0], &before.chunks()[0]));
        assert_eq!(before.len(), CHUNK - 1, "the source is untouched");
        assert!((0..CHUNK + 2).all(|i| v[i] == i));
        // A full last chunk is shared, not copied, by an append.
        let full = v.clone();
        v.extend(std::iter::empty());
        assert!(Arc::ptr_eq(&v.chunks()[1], &full.chunks()[1]));
        let mut w = ids(CHUNK);
        let shared = w.clone();
        w.push(CHUNK);
        assert!(Arc::ptr_eq(&w.chunks()[0], &shared.chunks()[0]));
    }
}
