//! The query engine: single-query and parallel batch NNC execution.
//!
//! One query's mutable state — the per-object memos and the [`Stats`]
//! counters inside its [`CheckCtx`](crate::CheckCtx) — is private to that
//! query, while the [`Database`] and the prepared queries are shared
//! read-only. Inter-query parallelism therefore needs no locks at all:
//! [`QueryEngine::run_batch`] fans queries out over `std::thread::scope`
//! workers (std-only, per the offline dependency policy), each worker
//! builds a fresh per-query context for every query it claims, and the
//! per-query [`Stats`] merge exactly ([`Stats::merge`]) afterwards.
//!
//! Because every query runs the identical sequential Algorithm 1 against
//! an identical environment, the batch result is byte-for-byte the same
//! regardless of thread count — only wall-clock throughput changes.
//!
//! ## Warm execution and batch locality
//!
//! [`QueryEngine::with_warm`] attaches a shared [`WarmPool`]: a repeated
//! query then keeps its query-keyed values in its table in the pool's
//! epoch-keyed [`WarmCache`](crate::WarmCache), where its next run is
//! served them instead of rebuilding them privately — bit-identical
//! results, fewer rebuilds (see `core::warm`). [`QueryEngine::run_batch`]
//! dispatches queries in Morton (Z-order) order of their MBR centers so
//! that consecutively claimed queries walk overlapping regions of the
//! index back to back. The schedule is deterministic and results are
//! always returned in **input order**.

use crate::config::{FilterConfig, Stats};
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::nnc::{nn_candidates, nn_candidates_warm, NncResult};
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::WarmPool;
use osd_obs::{FlightRecorder, QueryMetrics};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A configured NNC executor over one database: the operator and filter
/// configuration are fixed at construction, queries are supplied per call.
#[derive(Clone, Copy)]
pub struct QueryEngine<'a> {
    db: &'a dyn SpatialIndex,
    op: Operator,
    cfg: FilterConfig,
    /// Shared snapshot-scoped cache; `None` (the default) runs every query
    /// fully cold, exactly as before the warm path existed.
    warm: Option<&'a WarmPool>,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine with the default (full) filter configuration.
    pub fn new(db: &'a dyn SpatialIndex, op: Operator) -> Self {
        Self::with_config(db, op, FilterConfig::all())
    }

    /// Creates an engine with an explicit filter configuration.
    pub fn with_config(db: &'a dyn SpatialIndex, op: Operator, cfg: FilterConfig) -> Self {
        QueryEngine {
            db,
            op,
            cfg,
            warm: None,
        }
    }

    /// Attaches a shared [`WarmPool`]: queries resolve query-keyed cache
    /// misses through it (bit-identical results — see `core::warm`).
    #[must_use]
    pub fn with_warm(mut self, pool: &'a WarmPool) -> Self {
        self.warm = Some(pool);
        self
    }

    /// The database this engine serves.
    pub fn db(&self) -> &'a dyn SpatialIndex {
        self.db
    }

    /// The dominance operator in effect.
    pub fn op(&self) -> Operator {
        self.op
    }

    /// The filter configuration in effect.
    pub fn cfg(&self) -> FilterConfig {
        self.cfg
    }

    /// Runs one NNC query (Algorithm 1) — identical to [`nn_candidates`]
    /// under this engine's configuration (warm execution changes which
    /// record served a value, never the value).
    pub fn run(&self, query: &PreparedQuery) -> NncResult {
        match self.warm {
            Some(pool) => nn_candidates_warm(self.db, query, self.op, &self.cfg, pool),
            None => nn_candidates(self.db, query, self.op, &self.cfg),
        }
    }

    /// Runs a batch of queries across up to `threads` worker threads and
    /// returns the results in input order.
    ///
    /// Work is claimed dynamically (an atomic cursor over the query list),
    /// so stragglers don't idle the other workers. Each claimed query gets
    /// a fresh per-query cache inside its worker; no mutable state crosses
    /// threads, which is why the candidate sets — and, after
    /// [`batch_stats`] merging, the counters — are identical to running
    /// the same queries sequentially.
    ///
    /// `threads` is clamped to `[1, queries.len()]`; with one thread the
    /// batch runs inline on the caller's thread. A panicking query is
    /// propagated to the caller after the scope unwinds.
    ///
    /// When tracing is on, each result's trace is stamped with its input
    /// index as `seq` — the stable identity the flight recorder keys its
    /// order-independent retention on, so per-worker recorders merge to
    /// the same retained set regardless of how the workers claimed work.
    ///
    /// Work is *claimed* in Morton order of the query MBR centers (nearby
    /// queries run back to back, for locality in the index), but results
    /// are always **returned in input order** — the schedule is an
    /// internal detail and is fully deterministic for a given batch.
    pub fn run_batch(&self, queries: &[PreparedQuery], threads: usize) -> Vec<NncResult> {
        let n = queries.len();
        let workers = threads.max(1).min(n.max(1));
        let order = morton_order(queries);
        let mut indexed: Vec<(usize, NncResult)> = if workers <= 1 {
            order.iter().map(|&i| (i, self.run(&queries[i]))).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let order = &order;
            let mut indexed: Vec<(usize, NncResult)> = Vec::with_capacity(n);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut claimed = Vec::new();
                            loop {
                                let j = cursor.fetch_add(1, Ordering::Relaxed);
                                if j >= n {
                                    break;
                                }
                                let i = order[j];
                                claimed.push((i, self.run(&queries[i])));
                            }
                            claimed
                        })
                    })
                    .collect();
                for handle in handles {
                    match handle.join() {
                        Ok(part) => indexed.extend(part),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
            indexed
        };
        indexed.sort_by_key(|&(i, _)| i);
        let mut results: Vec<NncResult> = indexed.into_iter().map(|(_, r)| r).collect();
        for (i, r) in results.iter_mut().enumerate() {
            if let Some(t) = r.trace.as_mut() {
                t.seq = i as u64;
            }
        }
        results
    }
}

/// The Morton (Z-order) schedule of a batch: input indices sorted by the
/// bit-interleaved quantized coordinates of each query MBR's center, ties
/// broken by input index. Queries whose centers are close in space end up
/// close in the schedule, so consecutively claimed queries revisit the
/// same index regions back to back.
///
/// Purely a scheduling permutation: deterministic for a given batch, and
/// callers re-emit results in input order regardless.
fn morton_order(queries: &[PreparedQuery]) -> Vec<usize> {
    let n = queries.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let dim = queries[0].mbr().dim();
    // Bounding box of the query centers, over the dimensions all share.
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for q in queries {
        let c = q.mbr().center();
        for (d, slot) in lo.iter_mut().enumerate() {
            let x = c.coords().get(d).copied().unwrap_or(0.0);
            *slot = slot.min(x);
            hi[d] = hi[d].max(x);
        }
    }
    let bits = (64 / dim.max(1)).min(16) as u32;
    let scale = ((1u64 << bits) - 1) as f64;
    let mut keyed: Vec<(u64, usize)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let c = q.mbr().center();
            let cells: Vec<u64> = (0..dim)
                .map(|d| {
                    let span = hi[d] - lo[d];
                    let x = c.coords().get(d).copied().unwrap_or(lo[d]);
                    let t = if span > 0.0 && span.is_finite() {
                        ((x - lo[d]) / span).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    (t * scale) as u64
                })
                .collect();
            // MSB-first interleave: bit b of every dimension, high to low.
            let mut key = 0u64;
            for b in (0..bits).rev() {
                for cell in &cells {
                    key = (key << 1) | ((cell >> b) & 1);
                }
            }
            (key, i)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Merges the per-query counters of a batch into one [`Stats`] total via
/// [`Stats::merge`]. Exact: equals the counters of the same queries run
/// sequentially against one accumulator.
pub fn batch_stats(results: &[NncResult]) -> Stats {
    let mut total = Stats::default();
    for r in results {
        total.merge(&r.stats);
    }
    total
}

/// Merges the per-query instrumentation registries of a batch into one
/// [`QueryMetrics`] total via [`QueryMetrics::merge`]. The merge is exact
/// and order-independent for every deterministic quantity (counters, phase
/// sample counts, gauges, per-operator tallies), so 1-thread and N-thread
/// batches fold to identical totals; only wall-clock nanoseconds vary run
/// to run. All-zero unless the `obs` feature is on.
pub fn batch_metrics(results: &[NncResult]) -> QueryMetrics {
    let mut total = QueryMetrics::new();
    for r in results {
        total.merge(&r.metrics);
    }
    total
}

/// Records every trace a batch produced into `recorder`, in input order.
/// A no-op on untraced results (the common case); with tracing on, each
/// trace carries the `seq` stamped by [`QueryEngine::run_batch`], so
/// feeding disjoint slices into per-worker recorders and merging them
/// retains exactly the traces one sequential recorder would.
pub fn record_batch(recorder: &mut FlightRecorder, results: &[NncResult]) {
    for r in results {
        if let Some(t) = &r.trace {
            recorder.record(t.clone());
        }
    }
}

/// Compile-time `Send + Sync` checks for everything the batch executor
/// shares or moves across threads (the `static_assertions` idiom, without
/// the dependency). A non-thread-safe field sneaking into any of these
/// types fails compilation here rather than at a distant spawn site.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Database>();
const _: () = assert_send_sync::<crate::ShardedDatabase>();
const _: () = assert_send_sync::<PreparedQuery>();
const _: () = assert_send_sync::<NncResult>();
const _: () = assert_send_sync::<QueryEngine<'static>>();
const _: () = assert_send_sync::<crate::CheckCtx<'static>>();
const _: () = assert_send_sync::<osd_rtree::RTree<usize>>();
const _: () = assert_send_sync::<osd_uncertain::UncertainObject>();
const _: () = assert_send_sync::<crate::WarmPool>();
const _: () = assert_send_sync::<crate::WarmCache>();
const _: () = assert_send_sync::<crate::WarmView>();

#[cfg(test)]
mod tests {
    use super::*;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    /// A deterministic pseudo-random scatter of multi-instance objects
    /// (xorshift — no RNG dependency in core's dev-deps).
    fn scatter(n: usize, instances: usize, seed: u64) -> Vec<UncertainObject> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        };
        (0..n)
            .map(|_| {
                UncertainObject::uniform(
                    (0..instances)
                        .map(|_| Point::new(vec![next(), next()]))
                        .collect(),
                )
            })
            .collect()
    }

    fn queries(k: usize, seed: u64) -> Vec<PreparedQuery> {
        scatter(k, 2, seed)
            .into_iter()
            .map(PreparedQuery::new)
            .collect()
    }

    /// All worker threads of a batch run see the *same* columnar snapshot:
    /// the engine borrows the database, which holds one `Arc<InstanceStore>`
    /// — no per-worker copies of the instance data exist.
    #[test]
    fn workers_share_one_store_snapshot() {
        let db = Database::new(scatter(12, 3, 0xACE));
        let snapshot = std::sync::Arc::clone(db.store());
        let engine = QueryEngine::new(&db, Operator::SSd);
        let _ = engine.run_batch(&queries(6, 11), 3);
        assert!(
            std::sync::Arc::ptr_eq(&snapshot, db.store()),
            "batch execution must not clone or replace the instance store"
        );
        // 1 (db) + 1 (snapshot) — workers have exited and added none.
        assert_eq!(std::sync::Arc::strong_count(db.store()), 2);
    }

    #[test]
    fn run_matches_nn_candidates() {
        let db = Database::new(scatter(24, 3, 0xBEEF));
        let q = queries(1, 7).remove(0);
        for op in Operator::ALL {
            let engine = QueryEngine::new(&db, op);
            let a = engine.run(&q);
            let b = nn_candidates(&db, &q, op, &FilterConfig::all());
            assert_eq!(a.ids(), b.ids(), "{op:?}");
            assert_eq!(a.stats, b.stats, "{op:?}");
        }
    }

    /// The deterministic projection of a registry: everything except the
    /// wall-clock nanoseconds and latency buckets, which legitimately vary
    /// run to run.
    type MetricsProjection = (Vec<u64>, u64, Vec<u64>, Vec<(&'static str, u64)>);

    fn metrics_projection(m: &QueryMetrics) -> MetricsProjection {
        (
            osd_obs::Counter::ALL
                .iter()
                .map(|&c| m.counter(c))
                .collect(),
            m.heap_high_water(),
            osd_obs::Phase::ALL
                .iter()
                .map(|&p| m.phase_count(p))
                .collect(),
            m.candidates_by_op(),
        )
    }

    #[test]
    fn batch_is_identical_across_thread_counts() {
        let db = Database::new(scatter(40, 3, 0x0517));
        let qs = queries(9, 99);
        let engine = QueryEngine::new(&db, Operator::PSd);
        let sequential = engine.run_batch(&qs, 1);
        if QueryMetrics::enabled() {
            // Every query records exactly one prepare phase.
            assert_eq!(
                batch_metrics(&sequential).phase_count(osd_obs::Phase::Prepare),
                qs.len() as u64
            );
        }
        for threads in [2, 4, 8] {
            let parallel = engine.run_batch(&qs, threads);
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(sequential.iter()) {
                assert_eq!(p.ids(), s.ids(), "{threads} threads");
                assert_eq!(p.stats, s.stats, "{threads} threads");
                assert_eq!(p.objects_checked, s.objects_checked, "{threads} threads");
                assert_eq!(
                    metrics_projection(&p.metrics),
                    metrics_projection(&s.metrics),
                    "{threads} threads: per-query metrics must be deterministic"
                );
            }
            assert_eq!(
                metrics_projection(&batch_metrics(&parallel)),
                metrics_projection(&batch_metrics(&sequential)),
                "{threads} threads: folded totals must be exact"
            );
        }
    }

    #[test]
    fn metrics_count_emitted_candidates() {
        // The registry counts every emitted candidate in the enabled build
        // and records nothing in the disabled one.
        let db = Database::new(scatter(25, 3, 0xF00D));
        let q = queries(1, 42).remove(0);
        for op in Operator::ALL {
            let r = QueryEngine::new(&db, op).run(&q);
            if QueryMetrics::enabled() {
                assert_eq!(
                    r.metrics.counter(osd_obs::Counter::CandidatesEmitted),
                    r.candidates.len() as u64,
                    "{op:?}"
                );
            } else {
                assert_eq!(
                    r.metrics,
                    QueryMetrics::new(),
                    "{op:?}: disabled build records nothing"
                );
            }
        }
    }

    #[test]
    fn merged_stats_equal_sequential_sum() {
        let db = Database::new(scatter(30, 2, 0xACE));
        let qs = queries(6, 3);
        let engine = QueryEngine::with_config(&db, Operator::SsSd, FilterConfig::all());
        let mut expected = Stats::default();
        for q in &qs {
            expected.merge(&engine.run(q).stats);
        }
        let batched = engine.run_batch(&qs, 4);
        assert_eq!(batch_stats(&batched), expected);
    }

    #[test]
    fn batch_stamps_trace_seq_and_tracing_changes_nothing() {
        let db = Database::new(scatter(30, 3, 0x7AC3));
        let qs = queries(6, 17);
        let plain = QueryEngine::with_config(&db, Operator::SSd, FilterConfig::all());
        let traced = QueryEngine::with_config(&db, Operator::SSd, FilterConfig::all().traced());
        let base = plain.run_batch(&qs, 3);
        let with_traces = traced.run_batch(&qs, 3);
        for (i, (p, t)) in base.iter().zip(with_traces.iter()).enumerate() {
            assert_eq!(p.ids(), t.ids(), "tracing must not change candidates");
            assert_eq!(p.stats, t.stats, "tracing must not change counters");
            assert!(p.trace.is_none(), "untraced results carry no trace");
            if osd_obs::QueryTrace::enabled() {
                let trace = t.trace.as_ref().expect("traced run yields a trace");
                assert_eq!(trace.seq, i as u64, "seq is the input index");
                assert_eq!(trace.label, Operator::SSd.label());
                assert!(!trace.spans.is_empty());
            } else {
                assert!(t.trace.is_none(), "obs off: the trace flag is inert");
            }
        }
    }

    /// Per-worker recorders fed disjoint slices of a batch merge to the
    /// same retained set as one recorder fed sequentially — the engine-level
    /// face of `FlightRecorder::merge`'s order independence.
    #[test]
    fn per_worker_recorders_merge_exactly() {
        if !osd_obs::QueryTrace::enabled() {
            return;
        }
        let db = Database::new(scatter(30, 3, 0x51AB));
        let qs = queries(8, 23);
        let engine = QueryEngine::with_config(&db, Operator::PSd, FilterConfig::all().traced());
        let results = engine.run_batch(&qs, 4);
        let mut sequential = FlightRecorder::new(4, 0, 2);
        record_batch(&mut sequential, &results);
        for split in 1..results.len() {
            let mut left = FlightRecorder::new(4, 0, 2);
            let mut right = FlightRecorder::new(4, 0, 2);
            record_batch(&mut left, &results[..split]);
            record_batch(&mut right, &results[split..]);
            left.merge(right);
            let seqs = |r: &FlightRecorder, n: usize| -> Vec<u64> {
                r.last(n).iter().map(|t| t.seq).collect()
            };
            assert_eq!(
                seqs(&left, 8),
                seqs(&sequential, 8),
                "split at {split}: merged ring must equal the sequential ring"
            );
            assert_eq!(
                left.slowest(2).iter().map(|t| t.seq).collect::<Vec<_>>(),
                sequential
                    .slowest(2)
                    .iter()
                    .map(|t| t.seq)
                    .collect::<Vec<_>>(),
                "split at {split}: merged slow log must match"
            );
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        let db = Database::new(scatter(10, 2, 5));
        let qs = queries(2, 11);
        let engine = QueryEngine::new(&db, Operator::SSd);
        // More threads than queries, and zero threads, both behave.
        let a = engine.run_batch(&qs, 64);
        let b = engine.run_batch(&qs, 0);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ids(), y.ids());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let db = Database::new(scatter(4, 2, 21));
        let engine = QueryEngine::new(&db, Operator::FSd);
        assert!(engine.run_batch(&[], 4).is_empty());
        assert_eq!(batch_stats(&[]), Stats::default());
    }

    /// Warm execution and Morton reordering are both transparent: the
    /// candidate sets, `min_dist` bits and `Stats` of every result equal
    /// the cold, one-query-at-a-time baseline, and results come back in
    /// input order.
    #[test]
    fn warm_and_reordered_batches_match_cold_in_input_order() {
        let db = Database::new(scatter(40, 3, 0xC0FFEE));
        let qs = queries(10, 123);
        let engine = QueryEngine::new(&db, Operator::SSd);
        let cold: Vec<NncResult> = qs.iter().map(|q| engine.run(q)).collect();
        let pool = crate::WarmPool::new();
        // The first batch sights each query, the second admits its table
        // and fills it, the third is served from it.
        for threads in [1usize, 4, 2] {
            let warm = QueryEngine::new(&db, Operator::SSd)
                .with_warm(&pool)
                .run_batch(&qs, threads);
            assert_eq!(warm.len(), cold.len());
            for (w, c) in warm.iter().zip(cold.iter()) {
                assert_eq!(w.ids(), c.ids(), "{threads} threads");
                assert_eq!(w.stats, c.stats, "{threads} threads: Stats are warm-blind");
                let bits = |r: &NncResult| -> Vec<u64> {
                    r.candidates.iter().map(|c| c.min_dist.to_bits()).collect()
                };
                assert_eq!(bits(w), bits(c), "{threads} threads: min_dist bits");
            }
        }
        if QueryMetrics::enabled() {
            let stats = pool.stats();
            assert!(
                stats.hits > 0,
                "repeated batch over one snapshot must hit the warm cache"
            );
        }
    }

    /// The Morton schedule is a permutation, is deterministic, and groups
    /// spatially close queries (observable only through scheduling, so we
    /// pin the permutation property itself).
    #[test]
    fn morton_order_is_a_deterministic_permutation() {
        let qs = queries(17, 0x5EED);
        let a = morton_order(&qs);
        let b = morton_order(&qs);
        assert_eq!(a, b, "schedule must be deterministic");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..qs.len()).collect::<Vec<_>>(), "permutation");
        // Two co-located clusters: the schedule must not interleave them.
        let near: Vec<PreparedQuery> = (0..4)
            .map(|i| {
                PreparedQuery::new(UncertainObject::uniform(vec![Point::new(vec![
                    i as f64 * 0.01,
                    0.0,
                ])]))
            })
            .collect();
        let far: Vec<PreparedQuery> = (0..4)
            .map(|i| {
                PreparedQuery::new(UncertainObject::uniform(vec![Point::new(vec![
                    90.0 + i as f64 * 0.01,
                    90.0,
                ])]))
            })
            .collect();
        let mut mixed = Vec::new();
        for i in 0..4 {
            mixed.push(near[i].clone());
            mixed.push(far[i].clone());
        }
        let order = morton_order(&mixed);
        let first_half: Vec<usize> = order[..4].to_vec();
        assert!(
            first_half.iter().all(|&i| i % 2 == 0) || first_half.iter().all(|&i| i % 2 == 1),
            "clusters must be contiguous in the schedule, got {order:?}"
        );
    }
}
