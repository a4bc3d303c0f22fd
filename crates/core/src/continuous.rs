//! Continuous NN-candidate maintenance over an epoch-published index.
//!
//! A [`ContinuousNnc`] is a standing query: it computes the candidate set
//! once, remembers the epoch it saw, and on every subsequent snapshot
//! *repairs* the set instead of re-running Algorithm 1 from scratch.
//!
//! ## Why the repair is exact
//!
//! The full query is equivalent to filtering all live objects in
//! `(δ_min, id)` order, keeping each object iff no kept predecessor
//! dominates it. That order is Algorithm 1's emission order, and checking
//! predecessors only is enough: a dominator never follows the object it
//! dominates (the statistic rule on `min`, Theorem 11), and an object
//! whose dominator was itself excluded is dominated by that dominator's
//! kept dominator (transitivity, Theorem 9). The repair reproduces that
//! filter incrementally:
//!
//! * **Deleting a non-candidate changes nothing.** A non-candidate `v` is
//!   dominated by some kept `u`; anything `v` dominates is also dominated
//!   by `u` (transitivity, Theorem 9), so no exclusion ever depended on
//!   `v`.
//! * **Deleting or updating a candidate invalidates the set** — objects it
//!   excluded may resurface — so the handle falls back to a full re-query.
//! * **An insert (or an update of a non-candidate) is a local re-check.**
//!   The new object `w` is kept iff no kept predecessor dominates it, and
//!   if kept it evicts exactly the current candidates it dominates:
//!   an old non-candidate excluded by an evicted `u` stays excluded
//!   because `w` dominates `u` dominates it, hence `w` dominates it
//!   (transitivity) and `w` precedes it (a dominator never follows its
//!   dominated object in `(δ_min, id)` order — the statistic rule on
//!   `min`).
//!
//! The re-check applies the same MBR pre-filter as the traversal's entry
//! pruning ([Theorem 4]): an object whose MBR is dominated by a standing
//! candidate's MBR is discarded before its exact `δ_min` is ever computed
//! — only objects whose MBR-δ interval intersects the standing prune
//! bound pay for an exact key. Keys come from the exact same code
//! path as the traversal (`crate::nnc::object_min_dist2`), so repaired
//! candidates are bit-identical — ids, `min_dist` bits and order — to a
//! full re-query on the new snapshot (pinned by
//! `tests/mutate_identity.rs`).

use crate::config::FilterConfig;
use crate::ctx::CheckCtx;
use crate::index::SpatialIndex;
use crate::nnc::{mbr_pruned, nn_candidates, nn_candidates_warm, object_min_dist2, Candidate};
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::WarmPool;
use osd_geom::Mbr;
use osd_obs::{trace::DEFAULT_TRACE_EVENTS, AttrValue, QueryTrace, SpanId, Stopwatch, TraceData};
use osd_uncertain::Change;
use std::borrow::Cow;

/// How a [`ContinuousNnc::refresh`] brought the candidate set up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The snapshot epoch matched the handle's — nothing to do.
    UpToDate,
    /// The delta was insert-shaped and repaired in place.
    Incremental {
        /// Changed objects that had to be re-checked at all.
        rechecked: usize,
        /// Re-checked objects discarded by the MBR pre-filter before
        /// their exact `δ_min` was computed.
        mbr_pruned: usize,
        /// New candidates admitted into the standing set.
        admitted: usize,
        /// Standing candidates evicted because an admitted object
        /// dominates them.
        evicted: usize,
    },
    /// The delta touched a standing candidate (or was unreconstructible),
    /// forcing a full re-query.
    Full,
}

/// A standing NN-candidate query over a mutating index.
///
/// The handle does not borrow the index: each [`refresh`](Self::refresh)
/// takes the current snapshot, so it composes with
/// [`PublishedIndex::pin`](crate::PublishedIndex::pin) — pin, refresh,
/// drop the pin, repeat.
#[derive(Debug, Clone)]
pub struct ContinuousNnc {
    query: PreparedQuery,
    op: Operator,
    cfg: FilterConfig,
    epoch: u64,
    candidates: Vec<Candidate>,
    /// Refreshes that found work (the `seq` source for repair traces).
    refreshes: u64,
    /// Trace of the most recent repairing refresh, when `cfg.trace` is on
    /// and the `obs` feature is enabled.
    last_trace: Option<TraceData>,
}

impl ContinuousNnc {
    /// Runs the initial full query and pins the handle to `db`'s epoch.
    pub fn new(
        db: &dyn SpatialIndex,
        query: PreparedQuery,
        op: Operator,
        cfg: FilterConfig,
    ) -> Self {
        let mut this = ContinuousNnc {
            query,
            op,
            cfg,
            epoch: 0,
            candidates: Vec::new(),
            refreshes: 0,
            last_trace: None,
        };
        this.requery(db);
        this
    }

    /// The standing candidate set, in `(δ_min, id)` emission order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Candidate ids, in emission order.
    pub fn ids(&self) -> Vec<usize> {
        self.candidates.iter().map(|c| c.id).collect()
    }

    /// The epoch of the snapshot the candidate set is valid for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The standing query.
    pub fn query(&self) -> &PreparedQuery {
        &self.query
    }

    /// The dominance operator of the standing query.
    pub fn op(&self) -> Operator {
        self.op
    }

    /// Whether `id` is currently a standing candidate.
    pub fn contains(&self, id: usize) -> bool {
        self.candidates.iter().any(|c| c.id == id)
    }

    /// Trace of the most recent refresh that found work — `None` until a
    /// repairing refresh runs with tracing configured (`cfg.trace` and the
    /// `obs` feature on). `seq` counts repairing refreshes of this handle.
    pub fn last_trace(&self) -> Option<&TraceData> {
        self.last_trace.as_ref()
    }

    /// Brings the candidate set up to date with `db`'s snapshot and
    /// reports how.
    ///
    /// After this returns, the set is bit-identical — ids, `min_dist`
    /// bits, order — to `nn_candidates(db, …)` on the same snapshot.
    pub fn refresh(&mut self, db: &dyn SpatialIndex) -> Repair {
        self.refresh_with(db, None)
    }

    /// [`Self::refresh`], optionally resolving the repair's query-keyed
    /// cache misses through `warm` (see `core::warm`). Same repair
    /// decisions, same bit-identical candidate set — the warm pool only
    /// changes where derived state is rebuilt.
    pub fn refresh_with(&mut self, db: &dyn SpatialIndex, warm: Option<&WarmPool>) -> Repair {
        let now = db.epoch();
        if now == self.epoch {
            return Repair::UpToDate;
        }
        let mut trace = if self.cfg.trace {
            QueryTrace::start("repair", DEFAULT_TRACE_EVENTS)
        } else {
            QueryTrace::off()
        };
        let Some(changes) = db.changes_since(self.epoch) else {
            // The reader fell behind the retained change window (or the
            // handle was moved across unrelated indexes): start over.
            self.full_requery(db, warm, trace, "stale-window");
            return Repair::Full;
        };
        let scan = trace.open("changes-scan");
        if scan != SpanId::NONE {
            trace.attr(scan, "changes", AttrValue::U64(changes.len() as u64));
            for c in &changes {
                let event = trace.instant("change");
                trace.attr(event, "kind", AttrValue::Str(Cow::Borrowed(c.label())));
                trace.attr(event, "id", AttrValue::U64(c.id() as u64));
            }
        }
        let candidate_touched = changes
            .iter()
            .any(|c| matches!(c, Change::Deleted(id) | Change::Updated(id) if self.contains(*id)));
        trace.close(scan);
        if candidate_touched {
            self.full_requery(db, warm, trace, "candidate-touched");
            return Repair::Full;
        }
        // Insert-shaped delta: deletes of non-candidates are free, and
        // inserts/updates of non-candidates are local re-checks. An id
        // inserted and deleted inside the window is no longer live and
        // drops out here.
        let mut recheck: Vec<usize> = changes
            .iter()
            .filter_map(|c| match *c {
                Change::Inserted(id) | Change::Updated(id) => Some(id),
                Change::Deleted(_) => None,
            })
            .filter(|&id| db.is_live(id) && !self.contains(id))
            .collect();
        recheck.sort_unstable();
        recheck.dedup();
        let rechecked = recheck.len();

        // Fresh context: the old snapshot's per-object caches are keyed by
        // id but derived from object *content*, which an update may have
        // changed — a new epoch always gets a clean cache. The repair owns
        // the trace, so the context runs untraced.
        let mut ctx = CheckCtx::with_warm(
            db,
            &self.query,
            FilterConfig {
                trace: false,
                ..self.cfg
            },
            warm.map(|pool| pool.view_for(db, &self.query)),
        );
        let start = Stopwatch::start();
        let recheck_span = trace.open("recheck");

        // MBR pre-filter (the traversal's entry pruning, Theorem 4): only
        // objects whose MBR survives the standing prune bound pay for an
        // exact δ_min descent. No candidate was deleted or updated, so
        // each one's MBR in `db` is the one it was admitted with.
        let cand_mbrs: Vec<&Mbr> = self
            .candidates
            .iter()
            .map(|c| db.object(c.id).mbr())
            .collect();
        let mut pruned = 0usize;
        let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(recheck.len());
        for w in recheck {
            if mbr_pruned(
                &cand_mbrs,
                db.object(w).mbr(),
                self.query.mbr(),
                self.op,
                1,
                self.cfg.mbr_validation,
                &mut ctx.stats,
            ) {
                pruned += 1;
                continue;
            }
            let key = object_min_dist2(db, &self.query, self.cfg.kernels, w, &mut ctx.stats);
            keyed.push((key.max(0.0).sqrt(), w));
        }
        if recheck_span != SpanId::NONE {
            trace.attr(recheck_span, "rechecked", AttrValue::U64(rechecked as u64));
            trace.attr(recheck_span, "mbr_pruned", AttrValue::U64(pruned as u64));
        }
        trace.close(recheck_span);
        // Process survivors in the traversal's emission order so each is
        // checked against exactly its kept predecessors.
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let admit_span = trace.open("admit");
        let mut admitted = 0usize;
        let mut evicted = 0usize;
        for (dist, w) in keyed {
            // Position of `w` in the standing (δ_min, id) order: every
            // candidate before `pos` is a predecessor.
            let pos = self
                .candidates
                .partition_point(|c| c.min_dist.total_cmp(&dist).then(c.id.cmp(&w)).is_lt());
            let dominated = (0..pos).any(|i| {
                let u = self.candidates[i].id;
                ctx.dominates(self.op, u, w)
            });
            if dominated {
                continue;
            }
            self.candidates.insert(
                pos,
                Candidate {
                    id: w,
                    min_dist: dist,
                    elapsed: start.elapsed(),
                },
            );
            ctx.metrics.candidate_emitted(self.op.label());
            admitted += 1;
            // Evict the successors `w` dominates. Transitivity makes this
            // scan complete: a candidate only ever excluded by an evicted
            // one would also be excluded by `w`, so no cascade is needed.
            let mut i = pos + 1;
            while i < self.candidates.len() {
                let v = self.candidates[i].id;
                if ctx.dominates(self.op, w, v) {
                    self.candidates.remove(i);
                    evicted += 1;
                } else {
                    i += 1;
                }
            }
        }
        if admit_span != SpanId::NONE {
            trace.attr(admit_span, "admitted", AttrValue::U64(admitted as u64));
            trace.attr(admit_span, "evicted", AttrValue::U64(evicted as u64));
        }
        trace.close(admit_span);
        self.epoch = now;
        self.store_trace(trace);
        Repair::Incremental {
            rechecked,
            mbr_pruned: pruned,
            admitted,
            evicted,
        }
    }

    /// The full-requery arm of a refresh: wraps [`Self::requery`] in a
    /// `requery` span tagged with why the incremental repair was abandoned,
    /// then stores the finished trace.
    fn full_requery(
        &mut self,
        db: &dyn SpatialIndex,
        warm: Option<&WarmPool>,
        mut trace: QueryTrace,
        reason: &'static str,
    ) {
        let span = trace.open("requery");
        if span != SpanId::NONE {
            trace.attr(span, "reason", AttrValue::Str(Cow::Borrowed(reason)));
        }
        self.requery_with(db, warm);
        if span != SpanId::NONE {
            trace.attr(
                span,
                "candidates",
                AttrValue::U64(self.candidates.len() as u64),
            );
        }
        trace.close(span);
        self.store_trace(trace);
    }

    /// Finishes a repair trace, stamps its `seq` from the refresh counter
    /// and retains it as [`Self::last_trace`].
    fn store_trace(&mut self, trace: QueryTrace) {
        let seq = self.refreshes;
        self.refreshes += 1;
        if let Some(mut t) = trace.finish() {
            t.seq = seq;
            self.last_trace = Some(t);
        }
    }

    /// Replaces the standing set with a full re-query on `db`. Runs
    /// untraced: a refresh's repair trace (if any) is owned by the caller,
    /// and the initial query of [`Self::new`] records none.
    fn requery(&mut self, db: &dyn SpatialIndex) {
        self.requery_with(db, None);
    }

    fn requery_with(&mut self, db: &dyn SpatialIndex, warm: Option<&WarmPool>) {
        let cfg = FilterConfig {
            trace: false,
            ..self.cfg
        };
        let result = match warm {
            Some(pool) => nn_candidates_warm(db, &self.query, self.op, &cfg, pool),
            None => nn_candidates(db, &self.query, self.op, &cfg),
        };
        self.candidates = result.candidates;
        self.epoch = db.epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::sharded::ShardedDatabase;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    fn line_objects(n: usize) -> Vec<UncertainObject> {
        (0..n)
            .map(|i| {
                let x = 2.0 + 3.0 * i as f64;
                obj(&[(x, 0.0), (x + 0.5, 0.0)])
            })
            .collect()
    }

    fn assert_matches_full(handle: &ContinuousNnc, db: &dyn SpatialIndex) {
        let full = nn_candidates(db, handle.query(), handle.op(), &FilterConfig::all());
        let repaired: Vec<(usize, u64)> = handle
            .candidates()
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect();
        let fresh: Vec<(usize, u64)> = full
            .candidates
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect();
        assert_eq!(repaired, fresh, "repair must be bit-identical to re-query");
    }

    #[test]
    fn up_to_date_without_mutation() {
        let db = Database::new(line_objects(4));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::PSd, FilterConfig::all());
        assert_eq!(handle.refresh(&db), Repair::UpToDate);
    }

    #[test]
    fn insert_repairs_incrementally() {
        let mut db = Database::new(line_objects(4));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::PSd, FilterConfig::all());
        // A new nearest object: admitted, and it may evict old candidates.
        db.insert_object(obj(&[(0.5, 0.0), (0.6, 0.0)]));
        let repair = handle.refresh(&db);
        assert!(
            matches!(repair, Repair::Incremental { rechecked: 1, .. }),
            "insert-only delta must repair in place, got {repair:?}"
        );
        assert_eq!(handle.epoch(), db.epoch());
        assert_matches_full(&handle, &db);
    }

    #[test]
    fn far_insert_is_mbr_pruned() {
        let mut db = Database::new(line_objects(4));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::FSd, FilterConfig::all());
        // Far behind every candidate: the MBR pre-filter discards it
        // without an exact descent.
        db.insert_object(obj(&[(500.0, 0.0), (500.5, 0.0)]));
        let repair = handle.refresh(&db);
        assert_eq!(
            repair,
            Repair::Incremental {
                rechecked: 1,
                mbr_pruned: 1,
                admitted: 0,
                evicted: 0,
            }
        );
        assert_matches_full(&handle, &db);
    }

    #[test]
    fn deleting_a_candidate_forces_full_requery() {
        let mut db = Database::new(line_objects(5));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::SSd, FilterConfig::all());
        let first = handle.ids()[0];
        db.delete_object(first);
        assert_eq!(handle.refresh(&db), Repair::Full);
        assert!(!handle.contains(first));
        assert_matches_full(&handle, &db);
    }

    #[test]
    fn deleting_a_non_candidate_is_a_free_repair() {
        let mut db = Database::new(line_objects(5));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::SSd, FilterConfig::all());
        let dead = (0..db.len())
            .find(|id| !handle.contains(*id))
            .expect("line db has dominated objects");
        db.delete_object(dead);
        assert_eq!(
            handle.refresh(&db),
            Repair::Incremental {
                rechecked: 0,
                mbr_pruned: 0,
                admitted: 0,
                evicted: 0,
            }
        );
        assert_matches_full(&handle, &db);
    }

    #[test]
    fn stale_handle_falls_back_to_full() {
        let mut db = Database::new(line_objects(3));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::PSd, FilterConfig::all());
        // Overflow the change log so the delta is unreconstructible.
        for _ in 0..(osd_uncertain::DEFAULT_LOG_CAP + 1) {
            let id = db.insert_object(obj(&[(100.0, 100.0)]));
            db.delete_object(id);
        }
        assert_eq!(handle.refresh(&db), Repair::Full);
        assert_matches_full(&handle, &db);
    }

    #[test]
    fn repair_tracks_a_sharded_index() {
        let objects: Vec<UncertainObject> = (0..12)
            .map(|i| {
                let x = (i % 4) as f64 * 5.0 + 1.0;
                let y = (i / 4) as f64 * 5.0;
                obj(&[(x, y), (x + 0.5, y)])
            })
            .collect();
        let mut db = ShardedDatabase::new(objects, 3);
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::PSd, FilterConfig::all());
        db.insert_object(obj(&[(0.25, 0.25)]));
        let repair = handle.refresh(&db);
        assert!(matches!(repair, Repair::Incremental { .. }), "{repair:?}");
        assert_matches_full(&handle, &db);
    }

    #[test]
    fn repair_traces_narrate_both_arms() {
        let mut db = Database::new(line_objects(5));
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut handle = ContinuousNnc::new(&db, q, Operator::SSd, FilterConfig::all().traced());
        assert!(handle.last_trace().is_none(), "no repair has run yet");

        // Incremental arm: an insert-only delta.
        db.insert_object(obj(&[(0.5, 0.0), (0.6, 0.0)]));
        let repair = handle.refresh(&db);
        assert!(matches!(repair, Repair::Incremental { .. }), "{repair:?}");
        if !QueryTrace::enabled() {
            assert!(handle.last_trace().is_none(), "obs off: tracing is inert");
            return;
        }
        let t = handle.last_trace().expect("incremental repair traced");
        assert_eq!(t.seq, 0);
        assert_eq!(t.label, "repair");
        assert_eq!(t.count("changes-scan"), 1);
        assert_eq!(t.count("change"), 1, "one per-change event");
        assert_eq!(t.count("recheck"), 1);
        assert_eq!(t.count("admit"), 1);
        assert_eq!(t.count("requery"), 0);

        // Full arm: deleting a standing candidate.
        let first = handle.ids()[0];
        db.delete_object(first);
        assert_eq!(handle.refresh(&db), Repair::Full);
        let t = handle.last_trace().expect("full repair traced");
        assert_eq!(t.seq, 1, "refresh counter advances");
        assert_eq!(t.count("requery"), 1);
        assert_eq!(t.count("recheck"), 0);

        // Untraced results stay bit-identical to the traced repair.
        assert_matches_full(&handle, &db);
    }

    #[test]
    fn handle_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ContinuousNnc>();
        assert_send::<Repair>();
    }
}
