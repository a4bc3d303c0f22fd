//! Epoch publishing: snapshot-swapped concurrent access to a mutable
//! index.
//!
//! A [`PublishedIndex`] owns a chain of immutable snapshots of an index.
//! Readers [`pin`](PublishedIndex::pin) the current snapshot — an `Arc`
//! bump under a briefly-held read lock — and keep querying it for as long
//! as they like; they never observe a partially-applied mutation and never
//! block a writer. Writers [`publish`](PublishedIndex::publish): clone the
//! current snapshot *outside* any lock readers touch, mutate the private
//! clone, and atomically swap it in.
//!
//! Consecutive snapshots share everything a mutation does not change, so
//! a publish costs in proportion to the change, plus a few flat copies:
//!
//! * **Shared:** every local R-tree but the touched object's, and every
//!   entry of the `slot` id map but the touched id's (both held by id in
//!   `Arc`-shared chunks; a write copies one chunk of 256), every
//!   global R-tree node off the touched root-to-leaf paths
//!   (`RTree::insert` / `remove_item` path-copy; a clone is O(1)), and
//!   every chunk of the columnar store but the one holding the touched
//!   row (`osd_uncertain::epoch` clones the chunk table, one count bump
//!   per 256 rows, and the write copies 256 rows).
//! * **Copied once per publish:** the bounded epoch log, a flat array of
//!   at most `DEFAULT_LOG_CAP` changes.
//!
//! The displaced snapshot is dropped after the swap releases the lock,
//! and frees only what the new snapshot does not share.
//!
//! One writer at a time: publishes serialise on a writer mutex, so the
//! epoch sequence is linear and `changes_since` deltas compose.

use crate::db::DbError;
use crate::index::SpatialIndex;
use crate::warm::WarmPool;
use osd_obs::{AttrValue, FlightRecorder, QueryTrace, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Span arena capacity of a mutation trace — a publish records a handful
/// of spans (clone / splice / swap), far below a query's event volume.
const MUTATION_TRACE_EVENTS: usize = 16;

/// A concurrently readable, snapshot-published index.
///
/// `D` is any clonable [`SpatialIndex`] — in this crate, the one index
/// type [`ObjectIndex`](crate::ObjectIndex) under either layout marker
/// ([`FlatDatabase`](crate::FlatDatabase) or
/// [`ShardedDatabase`](crate::ShardedDatabase)).
#[derive(Debug)]
pub struct PublishedIndex<D> {
    /// The current snapshot. The lock is held only for the duration of an
    /// `Arc` clone (readers) or an `Arc` swap (the publishing writer) —
    /// never across a query, a mutation, or the drop of a displaced
    /// snapshot.
    current: RwLock<Arc<D>>,
    /// Serialises writers so snapshot construction happens off every
    /// reader-visible lock.
    writer: Mutex<()>,
    /// Flight recorder for mutation traces — `None` (the default) records
    /// nothing. Behind its own mutex: recording happens on the writer path
    /// only, and taking the recorder never blocks readers.
    recorder: Mutex<Option<FlightRecorder>>,
    /// Publishes attempted — the `seq` source for mutation traces, so the
    /// recorder's retention key stays unique across the writer stream.
    publishes: AtomicU64,
    /// Snapshot-scoped warm cache pool following this publish chain. A
    /// published index is exactly "one snapshot chain", the granularity
    /// `core::warm`'s incremental invalidation is correct at, so owning the
    /// pool here gives every reader the right sharing scope for free.
    warm: WarmPool,
}

impl<D: SpatialIndex + Clone> PublishedIndex<D> {
    /// Publishes `db` as the first snapshot.
    pub fn new(db: D) -> Self {
        PublishedIndex {
            current: RwLock::new(Arc::new(db)),
            writer: Mutex::new(()),
            recorder: Mutex::new(None),
            publishes: AtomicU64::new(0),
            warm: WarmPool::new(),
        }
    }

    /// The warm-cache pool that follows this publish chain. Pass it to
    /// [`QueryEngine::with_warm`](crate::QueryEngine::with_warm) (or the
    /// `*_warm` search entry points) together with a pinned snapshot:
    /// queries over the current epoch share one [`crate::WarmCache`], and a
    /// publish rolls the pool forward incrementally on next use.
    pub fn warm_pool(&self) -> &WarmPool {
        &self.warm
    }

    /// Installs a flight recorder for mutation traces: every subsequent
    /// [`publish`](PublishedIndex::publish) records a `mutate` trace with
    /// `clone` → `splice` → `swap` children. Inert (the recorder stays
    /// empty) unless the `obs` feature is on. Replaces any previous
    /// recorder.
    pub fn enable_tracing(&self, capacity: usize, slow_threshold_ns: u64, slow_capacity: usize) {
        *self.recorder.lock().unwrap_or_else(PoisonError::into_inner) = Some(FlightRecorder::new(
            capacity,
            slow_threshold_ns,
            slow_capacity,
        ));
    }

    /// Removes and returns the mutation recorder (if tracing was enabled),
    /// stopping further recording.
    pub fn take_recorder(&self) -> Option<FlightRecorder> {
        self.recorder
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Pins the current snapshot. The returned `Arc` stays valid — and
    /// bit-stable — for as long as the caller holds it, regardless of
    /// concurrent publishes.
    pub fn pin(&self) -> Arc<D> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// Builds the next snapshot by applying `mutate` to a private clone of
    /// the current one, then atomically swaps it in.
    ///
    /// If `mutate` fails, nothing is published: readers keep seeing the
    /// old snapshot and the clone is dropped.
    ///
    /// # Errors
    /// Whatever `mutate` returns — typically [`DbError::Dead`],
    /// [`DbError::DimensionMismatch`] or [`DbError::Empty`] from the
    /// `try_*` mutation family.
    pub fn publish<R>(
        &self,
        mutate: impl FnOnce(&mut D) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        let _writing = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let tracing = self
            .recorder
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some();
        let mut trace = if tracing {
            QueryTrace::start("mutate", MUTATION_TRACE_EVENTS)
        } else {
            QueryTrace::off()
        };
        // Clone off-lock: readers pin and query the old snapshot while the
        // next one is under construction.
        let span = trace.open("clone");
        let mut next = D::clone(&self.pin());
        trace.close(span);
        let span = trace.open("splice");
        let out = mutate(&mut next);
        if span != SpanId::NONE {
            trace.attr(span, "ok", AttrValue::U64(out.is_ok() as u64));
        }
        trace.close(span);
        let seq = self.publishes.fetch_add(1, Ordering::Relaxed);
        let out = out.inspect(|_| {
            let span = trace.open("swap");
            let epoch = next.epoch();
            let next = Arc::new(next);
            let displaced = {
                let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
                std::mem::replace(&mut *current, next)
            };
            // Drop the old snapshot (whatever the new one does not share)
            // after releasing the lock every `pin()` needs, but still inside
            // the `swap` span.
            drop(displaced);
            trace.attr(span, "epoch", AttrValue::U64(epoch));
            trace.close(span);
        });
        if let Some(mut t) = trace.finish() {
            t.seq = seq;
            if let Some(rec) = self
                .recorder
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_mut()
            {
                rec.record(t);
            }
        }
        out
    }

    /// Publishes an insert; returns the new object's logical id.
    ///
    /// # Errors
    /// See [`SpatialIndex::try_insert`].
    pub fn insert(&self, object: osd_uncertain::UncertainObject) -> Result<usize, DbError> {
        self.publish(|db| db.try_insert(object))
    }

    /// Publishes a delete of logical id `id`.
    ///
    /// # Errors
    /// See [`SpatialIndex::try_delete`].
    pub fn delete(&self, id: usize) -> Result<(), DbError> {
        self.publish(|db| db.try_delete(id))
    }

    /// Publishes an in-place update of logical id `id`.
    ///
    /// # Errors
    /// See [`SpatialIndex::try_update`].
    pub fn update(&self, id: usize, object: osd_uncertain::UncertainObject) -> Result<(), DbError> {
        self.publish(|db| db.try_update(id, object))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterConfig;
    use crate::continuous::{ContinuousNnc, Repair};
    use crate::db::Database;
    use crate::nnc::nn_candidates;
    use crate::ops::Operator;
    use crate::query::PreparedQuery;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    fn seed() -> Database {
        Database::new(
            (0..4)
                .map(|i| {
                    let x = 2.0 + 3.0 * i as f64;
                    obj(&[(x, 0.0), (x + 0.5, 0.0)])
                })
                .collect(),
        )
    }

    #[test]
    fn pinned_snapshots_survive_publishes() {
        let published = PublishedIndex::new(seed());
        let before = published.pin();
        let id = published
            .insert(obj(&[(0.5, 0.0)]))
            .expect("insert publishes");
        assert_eq!(id, 4);
        // The pinned snapshot is bit-frozen: it neither sees the insert
        // nor changes epoch.
        assert_eq!(before.len(), 4);
        assert_eq!(before.epoch(), 0);
        let after = published.pin();
        assert_eq!(after.len(), 5);
        assert_eq!(after.epoch(), 1);
        assert!(!Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn failed_mutations_publish_nothing() {
        let published = PublishedIndex::new(seed());
        let epoch_before = published.epoch();
        assert!(matches!(
            published.delete(17),
            Err(DbError::Dead { object: 17 })
        ));
        assert_eq!(published.epoch(), epoch_before, "no snapshot was swapped");
    }

    #[test]
    fn concurrent_readers_and_one_writer() {
        let published = Arc::new(PublishedIndex::new(seed()));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        std::thread::scope(|scope| {
            let writer = {
                let published = Arc::clone(&published);
                scope.spawn(move || {
                    for i in 0..20 {
                        let x = 1.0 + i as f64 * 0.1;
                        let id = published
                            .insert(obj(&[(x, 0.0), (x + 0.25, 0.0)]))
                            .expect("insert publishes");
                        if i % 3 == 0 {
                            published.delete(id).expect("fresh id is live");
                        }
                    }
                })
            };
            for _ in 0..4 {
                let published = Arc::clone(&published);
                let q = q.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        let snap = published.pin();
                        // Every pinned snapshot is internally consistent:
                        // a query runs to completion with sane results.
                        let r = nn_candidates(&*snap, &q, Operator::PSd, &FilterConfig::all());
                        assert!(!r.candidates.is_empty());
                        assert!(r.candidates.iter().all(|c| snap.is_live(c.id)));
                    }
                });
            }
            writer.join().expect("writer thread");
        });
        assert_eq!(published.epoch(), 20 + 7, "20 inserts + 7 deletes");
    }

    #[test]
    fn continuous_handle_follows_the_published_chain() {
        let published = PublishedIndex::new(seed());
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let snap = published.pin();
        let mut handle = ContinuousNnc::new(&*snap, q, Operator::PSd, FilterConfig::all());
        drop(snap);
        published
            .insert(obj(&[(0.5, 0.0), (0.75, 0.0)]))
            .expect("insert publishes");
        let snap = published.pin();
        assert!(matches!(handle.refresh(&*snap), Repair::Incremental { .. }));
        assert_eq!(handle.epoch(), snap.epoch());
        let full = nn_candidates(&*snap, handle.query(), Operator::PSd, &FilterConfig::all());
        assert_eq!(handle.ids(), full.ids());
    }

    #[test]
    fn mutation_traces_reach_the_recorder() {
        let published = PublishedIndex::new(seed());
        published.enable_tracing(8, 0, 4);
        let id = published
            .insert(obj(&[(0.5, 0.0)]))
            .expect("insert publishes");
        published.delete(id).expect("fresh id is live");
        assert!(published.delete(99).is_err(), "dead delete fails");
        let recorder = published.take_recorder().expect("tracing was enabled");
        assert!(
            published.take_recorder().is_none(),
            "taking the recorder stops recording"
        );
        if !QueryTrace::enabled() {
            assert_eq!(recorder.recorded(), 0, "obs off: tracing is inert");
            return;
        }
        assert_eq!(recorder.recorded(), 3, "every publish attempt traced");
        let last = recorder.last(3);
        assert_eq!(
            last.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![2, 1, 0],
            "publish counter stamps unique seqs, newest first"
        );
        for t in &last {
            assert_eq!(t.label, "mutate");
            assert_eq!(t.count("clone"), 1);
            assert_eq!(t.count("splice"), 1);
        }
        // The failed delete (seq 2) never reaches the swap.
        assert_eq!(last[0].count("swap"), 0);
        assert_eq!(last[1].count("swap"), 1);
        assert_eq!(last[2].count("swap"), 1);
    }

    #[test]
    fn published_index_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PublishedIndex<Database>>();
        assert_send_sync::<PublishedIndex<crate::sharded::ShardedDatabase>>();
    }
}
