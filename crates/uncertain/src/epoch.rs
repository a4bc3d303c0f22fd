//! Epoch-based snapshot publishing for the columnar store.
//!
//! Mutation never edits a shared [`InstanceStore`] in place. A writer
//! holds an `Arc<InstanceStore>` chain head, builds the *next* snapshot
//! through the copy-on-write builders here ([`append`], [`remove`],
//! [`replace`]), and publishes it atomically; readers pin whatever
//! snapshot was current when they started and never observe a partial
//! mutation. The builders are the only sanctioned `Arc::make_mut` sites
//! in the workspace (xtask rule `no-raw-cow-outside-epoch`), so every
//! mutation path is forced through this module and inherits its
//! semantics: if the head `Arc` is uniquely owned the store is edited in
//! place, otherwise the store's chunk table is cloned first (one count
//! bump per chunk of 256 rows) and readers keep the old table. Either way
//! the store itself copies only the one chunk the write touches, so pinned
//! readers share every other chunk with the new snapshot.
//!
//! [`EpochLog`] is the version counter that rides next to the chain
//! head: each publish bumps the epoch and records what changed
//! ([`Change`]), and a standing query can ask
//! [`EpochLog::changes_since`] for the delta between the epoch it last
//! saw and now — the seam the incremental continuous-NNC repair hangs
//! off. The log is bounded; when a reader has fallen further behind than
//! the retained window, `changes_since` says so (`None`) and the reader
//! must fall back to a full re-read of the snapshot.

use crate::object::UncertainObject;
use crate::store::{InstanceStore, StoreError};
use std::collections::VecDeque;
use std::sync::Arc;

/// One published mutation, in terms of *logical object ids* (stable
/// across the object's lifetime, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// A new object was inserted under this id.
    Inserted(usize),
    /// The object with this id was deleted.
    Deleted(usize),
    /// The object with this id was replaced in place.
    Updated(usize),
}

impl Change {
    /// The logical object id the change concerns.
    #[inline]
    pub fn id(&self) -> usize {
        match *self {
            Change::Inserted(id) | Change::Deleted(id) | Change::Updated(id) => id,
        }
    }

    /// Short static name of the change kind — the value repair traces
    /// attach to their per-change events.
    #[inline]
    pub fn label(&self) -> &'static str {
        match self {
            Change::Inserted(_) => "insert",
            Change::Deleted(_) => "delete",
            Change::Updated(_) => "update",
        }
    }
}

/// How many published changes an [`EpochLog`] retains for incremental
/// readers before they must fall back to a full refresh.
pub const DEFAULT_LOG_CAP: usize = 1024;

/// A bounded, versioned log of published mutations.
///
/// Invariant: `epoch == base + log.len()`; entry `log[k]` is the change
/// that produced epoch `base + k + 1`. A fresh index starts at epoch 0
/// with an empty log.
#[derive(Debug, Clone)]
pub struct EpochLog {
    /// Epoch of the change *preceding* the oldest retained entry.
    base: u64,
    /// Retained changes, oldest first.
    log: VecDeque<Change>,
    /// Retention bound; older entries are dropped from the front.
    cap: usize,
}

impl Default for EpochLog {
    fn default() -> Self {
        EpochLog::new(DEFAULT_LOG_CAP)
    }
}

impl EpochLog {
    /// An empty log at epoch 0 retaining at most `cap` changes.
    ///
    /// # Panics
    /// Panics if `cap` is zero — a log that cannot retain even the most
    /// recent change would force every reader to full-refresh.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "epoch log capacity must be positive");
        EpochLog {
            base: 0,
            log: VecDeque::with_capacity(cap.min(64)),
            cap,
        }
    }

    /// The current epoch: the number of changes ever published.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.base + self.log.len() as u64
    }

    /// Records one published change, bumping the epoch.
    pub fn record(&mut self, change: Change) {
        if self.log.len() == self.cap {
            self.log.pop_front();
            self.base += 1;
        }
        self.log.push_back(change);
    }

    /// The changes published after epoch `since`, oldest first.
    ///
    /// Returns `None` when the delta is not reconstructible: `since` is
    /// older than the retained window, or from the future (a reader
    /// handed a log from a different index). `Some(vec![])` means the
    /// reader is already current.
    pub fn changes_since(&self, since: u64) -> Option<Vec<Change>> {
        if since < self.base || since > self.epoch() {
            return None;
        }
        let skip = (since - self.base) as usize;
        Some(self.log.iter().skip(skip).copied().collect())
    }
}

/// The distinct logical object ids touched by a change window, sorted
/// ascending. This is the invalidation set of an incremental cache
/// advance: an id absent from it had no insert, delete or update in the
/// window, so every snapshot-pure derived value of that object is
/// bit-identical across the window's epochs.
pub fn touched_ids(changes: &[Change]) -> Vec<usize> {
    let mut ids: Vec<usize> = changes.iter().map(Change::id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Builds the next snapshot with one appended object, returning its row
/// (a new row past every existing one; rows are never reused).
///
/// Copy-on-write: clones the chunk table iff `head` is shared; copies the
/// last chunk (or opens a new one).
///
/// # Errors
/// The [`InstanceStore::check_object`] error, if the object fails it; the
/// snapshot is unchanged.
pub fn append(
    head: &mut Arc<InstanceStore>,
    object: &UncertainObject,
) -> Result<usize, StoreError> {
    // Probe before cloning: a rejected object must not cost a copy.
    InstanceStore::check_object(head.dim(), object)?;
    Arc::make_mut(head).push_object(object)
}

/// Builds the next snapshot with the object at `row` removed: the row
/// becomes a tombstone and only its chunk is copied and compacted. Every
/// other row keeps its place.
///
/// # Panics
/// Panics if `row` is out of bounds or already removed.
pub fn remove(head: &mut Arc<InstanceStore>, row: usize) {
    Arc::make_mut(head).remove_object(row);
}

/// Builds the next snapshot with the object at `row` replaced in place,
/// copying only its chunk.
///
/// # Errors
/// The [`InstanceStore::check_object`] error, if the object fails it; the
/// snapshot is unchanged.
///
/// # Panics
/// Panics if `row` is out of bounds or removed.
pub fn replace(
    head: &mut Arc<InstanceStore>,
    row: usize,
    object: &UncertainObject,
) -> Result<(), StoreError> {
    InstanceStore::check_object(head.dim(), object)?;
    Arc::make_mut(head).replace_object(row, object)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osd_geom::Point;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn obj(x: f64, y: f64) -> UncertainObject {
        UncertainObject::uniform(vec![p2(x, y), p2(x + 1.0, y)])
    }

    fn head() -> Arc<InstanceStore> {
        Arc::new(InstanceStore::from_objects(&[obj(0.0, 0.0), obj(5.0, 5.0)]).unwrap())
    }

    #[test]
    fn builders_cow_only_when_shared() {
        let mut h = head();
        let pinned = Arc::clone(&h);
        let id = append(&mut h, &obj(9.0, 9.0)).unwrap();
        assert_eq!(id, 2);
        // The pinned reader kept the old snapshot untouched.
        assert!(!Arc::ptr_eq(&h, &pinned));
        assert_eq!(pinned.len(), 2);
        assert_eq!(h.len(), 3);
        h.validate().unwrap();
        // Uniquely owned now: further edits reuse the allocation.
        let before = Arc::as_ptr(&h);
        remove(&mut h, 0);
        assert_eq!(Arc::as_ptr(&h), before);
        assert_eq!(h.len(), 2);
        h.validate().unwrap();
        // Rows are stable: row 0 is a tombstone, row 1 is where it was.
        assert!(h.get(0).is_none());
        replace(&mut h, 1, &obj(-3.0, -3.0)).unwrap();
        assert_eq!(h.object(1).row(0), &[-3.0, -3.0]);
        h.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of bounds or removed")]
    fn remove_rejects_a_removed_row() {
        let mut h = head();
        remove(&mut h, 1);
        remove(&mut h, 1);
    }

    #[test]
    fn builders_reject_dimension_mismatch_without_copying() {
        let mut h = head();
        let pinned = Arc::clone(&h);
        let bad = UncertainObject::uniform(vec![Point::new(vec![1.0])]);
        assert!(append(&mut h, &bad).is_err());
        assert!(replace(&mut h, 0, &bad).is_err());
        // No snapshot was built for the failed mutations.
        assert!(Arc::ptr_eq(&h, &pinned));
    }

    #[test]
    fn epoch_log_counts_and_replays() {
        let mut log = EpochLog::new(4);
        assert_eq!(log.epoch(), 0);
        assert_eq!(log.changes_since(0), Some(vec![]));
        log.record(Change::Inserted(0));
        log.record(Change::Updated(0));
        log.record(Change::Deleted(0));
        assert_eq!(log.epoch(), 3);
        assert_eq!(
            log.changes_since(1),
            Some(vec![Change::Updated(0), Change::Deleted(0)])
        );
        assert_eq!(log.changes_since(3), Some(vec![]));
        // Future epochs are not reconstructible.
        assert_eq!(log.changes_since(4), None);
    }

    #[test]
    fn epoch_log_bounds_retention() {
        let mut log = EpochLog::new(2);
        for id in 0..5 {
            log.record(Change::Inserted(id));
        }
        assert_eq!(log.epoch(), 5);
        // Only the last two changes are retained.
        assert_eq!(
            log.changes_since(3),
            Some(vec![Change::Inserted(3), Change::Inserted(4)])
        );
        assert_eq!(log.changes_since(2), None);
        assert_eq!(log.changes_since(0), None);
    }

    #[test]
    fn change_reports_its_id() {
        assert_eq!(Change::Inserted(7).id(), 7);
        assert_eq!(Change::Deleted(3).id(), 3);
        assert_eq!(Change::Updated(0).id(), 0);
    }
}
