//! k-robust NN candidates — a skyband-style extension of Definition 6.
//!
//! `NNC_k(O, Q, SD)` contains every object dominated by **fewer than `k`**
//! other objects (so `NNC_1` is the paper's NNC). The set is useful when a
//! user wants a shortlist resilient to removing up to `k − 1` objects: if
//! any `k − 1` candidates are taken away (sold out, offline, …), the NN
//! under every covered function is still inside the set.
//!
//! The search is Algorithm 1's traversal with a dominator budget of `k`
//! ([`ProgressiveNnc::with_k`](crate::ProgressiveNnc::with_k), whose module
//! doc carries the k-skyband correctness argument). This module holds the
//! result type, its entry points and the brute-force oracle.

use crate::brute::dominated_fewer_than;
use crate::config::{FilterConfig, Stats};
#[cfg(test)]
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::nnc::{run_with, Candidate, NncResult};
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::WarmPool;
use osd_obs::{QueryMetrics, TraceData};

/// Result of a k-robust candidate computation.
#[derive(Debug)]
pub struct KnncResult {
    /// Kept candidates in emission order, each with the number of kept
    /// candidates dominating it (`< k`).
    pub candidates: Vec<(Candidate, usize)>,
    /// Cost counters.
    pub stats: Stats,
    /// Instrumentation registry of the query (all-zero no-op unless the
    /// `obs` feature is on).
    pub metrics: QueryMetrics,
    /// Structured trace tree of the query — present only when the filter
    /// configuration requested tracing *and* the `obs` feature is on.
    pub trace: Option<TraceData>,
}

impl KnncResult {
    /// Candidate ids in emission order.
    pub fn ids(&self) -> Vec<usize> {
        self.candidates.iter().map(|(c, _)| c.id).collect()
    }

    /// Pairs a drained traversal's candidates with their dominator counts.
    /// At `k = 1` no counts are recorded: no candidate has a kept
    /// dominator.
    fn from_run((res, dominators): (NncResult, Vec<usize>)) -> Self {
        debug_assert!(dominators.is_empty() || dominators.len() == res.candidates.len());
        let dominators = dominators.into_iter().chain(std::iter::repeat(0));
        KnncResult {
            candidates: res.candidates.into_iter().zip(dominators).collect(),
            stats: res.stats,
            metrics: res.metrics,
            trace: res.trace,
        }
    }
}

/// Computes the k-robust NN candidates (`k = 1` reproduces
/// [`crate::nn_candidates`]).
///
/// ```
/// use osd_core::{k_nn_candidates, Database, FilterConfig, Operator, PreparedQuery};
/// use osd_geom::Point;
/// use osd_uncertain::UncertainObject;
///
/// // A dominance chain along a line: NNC_k is exactly the first k objects.
/// let objects: Vec<UncertainObject> = (0..5)
///     .map(|i| UncertainObject::uniform(vec![Point::from([2.0 + 3.0 * i as f64, 0.0])]))
///     .collect();
/// let db = Database::new(objects);
/// let q = PreparedQuery::new(UncertainObject::uniform(vec![Point::from([0.0, 0.0])]));
/// let res = k_nn_candidates(&db, &q, Operator::PSd, 2, &FilterConfig::all());
/// let mut ids = res.ids();
/// ids.sort_unstable();
/// assert_eq!(ids, vec![0, 1]);
/// ```
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_nn_candidates(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
) -> KnncResult {
    KnncResult::from_run(run_with(db, query, op, k, cfg, None))
}

/// [`k_nn_candidates`] resolving query-keyed cache misses through
/// `warm` (see `core::warm`). Candidate set, `min_dist` bits, order,
/// dominator counts and `Stats` are bit-identical to the cold path.
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_nn_candidates_warm(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
    warm: &WarmPool,
) -> KnncResult {
    let view = warm.view_for(db, query);
    KnncResult::from_run(run_with(db, query, op, k, cfg, Some(view)))
}

/// Brute-force oracle: the live objects dominated by fewer than `k` other
/// live objects, in ascending id order.
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_nn_candidates_bruteforce(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
) -> Vec<usize> {
    dominated_fewer_than(db, query, op, k, cfg).0
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::brute::nn_candidates_bruteforce;
    use crate::nnc::nn_candidates;
    use crate::sharded::{ShardConfig, ShardedDatabase};
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;
    use std::sync::Arc;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    fn line_db() -> Database {
        // Objects at increasing distance along a line: each dominates all
        // the ones after it.
        Database::new(
            (0..6)
                .map(|i| {
                    let x = 2.0 + 3.0 * i as f64;
                    obj(&[(x, 0.0), (x + 0.5, 0.0)])
                })
                .collect(),
        )
    }

    /// Thirty seeded two-instance objects in a 100 × 100 square, indexed
    /// with small fanouts (4, 2) so the traversal descends several levels,
    /// and a two-instance query at the centre.
    fn random_db() -> (Database, PreparedQuery) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let objects: Vec<UncertainObject> = (0..30)
            .map(|_| {
                let cx = rng.gen_range(0.0..100.0);
                let cy = rng.gen_range(0.0..100.0);
                obj(&[
                    (cx, cy),
                    (cx + rng.gen_range(0.0..5.0), cy + rng.gen_range(0.0..5.0)),
                ])
            })
            .collect();
        let db = Database::with_fanouts(objects, 4, 2);
        let q = PreparedQuery::new(obj(&[(50.0, 50.0), (52.0, 48.0)]));
        (db, q)
    }

    #[test]
    fn k1_equals_nnc() {
        let line = (line_db(), PreparedQuery::new(obj(&[(0.0, 0.0)])));
        for (name, (db, q)) in [("line", line), ("random", random_db())] {
            for (rung, cfg) in FilterConfig::ablation_ladder() {
                for op in Operator::ALL {
                    let k1 = k_nn_candidates(&db, &q, op, 1, &cfg);
                    let nnc = nn_candidates(&db, &q, op, &cfg);
                    let ctx = format!("{name} {rung} {op:?}");
                    assert_eq!(k1.ids(), nnc.ids(), "k=1 ids must equal NNC: {ctx}");
                    let k1_bits: Vec<u64> = k1
                        .candidates
                        .iter()
                        .map(|(c, _)| c.min_dist.to_bits())
                        .collect();
                    let nnc_bits: Vec<u64> = nnc
                        .candidates
                        .iter()
                        .map(|c| c.min_dist.to_bits())
                        .collect();
                    assert_eq!(k1_bits, nnc_bits, "k=1 min_dist bits: {ctx}");
                    assert!(k1.candidates.iter().all(|&(_, d)| d == 0), "{ctx}");
                    assert_eq!(k1.stats, nnc.stats, "k=1 Stats must equal NNC: {ctx}");
                }
            }
        }
    }

    #[test]
    fn chain_grows_one_per_k() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        // On a dominance chain, NNC_k is exactly the first k objects.
        for k in 1..=6 {
            let res = k_nn_candidates(&db, &q, Operator::SSd, k, &FilterConfig::all());
            let mut ids = res.ids();
            ids.sort_unstable();
            assert_eq!(ids, (0..k).collect::<Vec<_>>(), "k = {k}");
        }
    }

    #[test]
    fn matches_bruteforce_on_random_data() {
        let (db, q) = random_db();
        for op in Operator::ALL {
            for k in [1usize, 2, 3, 5] {
                let mut algo = k_nn_candidates(&db, &q, op, k, &FilterConfig::all()).ids();
                algo.sort_unstable();
                let brute = k_nn_candidates_bruteforce(&db, &q, op, k, &FilterConfig::all());
                assert_eq!(algo, brute, "k-NNC mismatch for {op:?}, k = {k}");
            }
        }
    }

    /// The oracles range over live ids only: on flat and 3-shard indexes
    /// with deleted and updated ids they equal the traversal for every
    /// operator and k.
    #[test]
    fn bruteforce_skips_tombstones() {
        let (flat, q) = random_db();
        let cfg = FilterConfig::all();
        let sharded =
            ShardedDatabase::from_store(Arc::clone(flat.store()), ShardConfig::with_shards(3))
                .unwrap();
        let indexes: [Box<dyn SpatialIndex>; 2] = [Box::new(flat), Box::new(sharded)];
        for (name, mut db) in ["flat", "sharded"].into_iter().zip(indexes) {
            for id in [0, 7, 19] {
                db.try_delete(id).unwrap();
            }
            db.try_update(3, obj(&[(49.0, 51.0), (50.5, 50.5)]))
                .unwrap();
            db.try_update(11, obj(&[(90.0, 10.0)])).unwrap();
            for op in Operator::ALL {
                for k in 1..=3 {
                    let mut algo = k_nn_candidates(&*db, &q, op, k, &cfg).ids();
                    algo.sort_unstable();
                    let brute = k_nn_candidates_bruteforce(&*db, &q, op, k, &cfg);
                    assert_eq!(algo, brute, "{name} {op:?}, k = {k}");
                    if k == 1 {
                        assert_eq!(nn_candidates_bruteforce(&*db, &q, op, &cfg).0, brute);
                    }
                }
            }
        }
    }

    #[test]
    fn monotone_in_k() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut prev: Vec<usize> = Vec::new();
        for k in 1..=6 {
            let mut ids = k_nn_candidates(&db, &q, Operator::PSd, k, &FilterConfig::all()).ids();
            ids.sort_unstable();
            assert!(
                prev.iter().all(|i| ids.contains(i)),
                "NNC_k must grow with k"
            );
            prev = ids;
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn k_zero_rejected() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let _ = k_nn_candidates(&db, &q, Operator::SSd, 0, &FilterConfig::all());
    }
}
