//! # osd-core
//!
//! The primary contribution of *Optimal Spatial Dominance: An Effective
//! Search of Nearest Neighbor Candidates* (SIGMOD 2015): three spatial
//! dominance operators — stochastic (S-SD), strict stochastic (SS-SD) and
//! peer (P-SD) — that are *optimal* (correct and complete) with respect to
//! growing families of NN functions, plus the F-SD / F⁺-SD baselines and
//! the NN-candidate computation built on them.
//!
//! ## Quick start
//!
//! ```
//! use osd_core::{nn_candidates, Database, FilterConfig, Operator, PreparedQuery};
//! use osd_geom::Point;
//! use osd_uncertain::UncertainObject;
//!
//! let objects = vec![
//!     UncertainObject::uniform(vec![Point::from([1.0, 1.0]), Point::from([2.0, 1.0])]),
//!     UncertainObject::uniform(vec![Point::from([8.0, 8.0]), Point::from([9.0, 9.0])]),
//! ];
//! let db = Database::new(objects);
//! let query = PreparedQuery::new(UncertainObject::uniform(vec![Point::from([0.0, 0.0])]));
//! let result = nn_candidates(&db, &query, Operator::PSd, &FilterConfig::all());
//! assert_eq!(result.ids(), vec![0]); // the far object is peer-dominated
//! ```
//!
//! ## Structure
//!
//! * [`SpatialIndex`] — what the search needs from a database, abstracted
//!   over its physical layout;
//! * [`ShardedDatabase`] — the index: per-object local R-trees plus the
//!   store space-partitioned into STR tiles, one global R-tree per tile,
//!   searched as one merged forest with a shared prune bound;
//! * [`Database`] / [`FlatDatabase`] — its one-shard configuration: a
//!   global R-tree plus per-object local R-trees (§6's n+1-tree layout);
//! * [`PreparedQuery`] — the query with its convex hull cached;
//! * [`Operator`] / [`dominates`] — the five dominance checks with the
//!   §5.1 filtering techniques, switchable via [`FilterConfig`];
//! * [`CheckCtx`] — the per-query check environment every operator runs
//!   against;
//! * [`nn_candidates`] / [`ProgressiveNnc`] — Algorithm 1 (batch and
//!   progressive); [`k_nn_candidates`] runs the same traversal with a
//!   dominator budget `k` (NNC is `k = 1`);
//! * [`PublishedIndex`] — epoch-published snapshot chain for concurrent
//!   readers over a mutating index (insert/delete/update via the
//!   [`SpatialIndex`] `try_*` family);
//! * [`ContinuousNnc`] — a standing NNC query that incrementally repairs
//!   its candidate set on every published epoch;
//! * [`QueryEngine`] — single-query and multi-threaded batch execution
//!   with exact [`Stats`] / [`QueryMetrics`] merging;
//! * [`nn_candidates_bruteforce`] — the O(n²) reference oracle;
//! * [`Stats`] — instance-comparison/flow/MBR/traversal/cache counters for
//!   the Appendix C ablation;
//! * [`QueryMetrics`] (re-exported from `osd-obs`) — phase timers, latency
//!   histograms and gauges, compiled to no-ops unless the `obs` feature is
//!   on (see DESIGN.md "Observability");
//! * [`QueryTrace`] / [`TraceData`] / [`FlightRecorder`] (re-exported from
//!   `osd-obs`) — per-query structured trace trees, switched on per query
//!   by [`FilterConfig::traced`](FilterConfig::traced) and retained in
//!   fixed-capacity flight-recorder rings with a slow-query log (see
//!   DESIGN.md "Tracing & flight recorder").

#![warn(missing_docs)]

pub mod brute;
pub mod cache;
mod chunked;
pub mod config;
pub mod continuous;
pub mod ctx;
pub mod db;
pub mod engine;
pub mod explain;
pub mod index;
#[cfg(feature = "strict-invariants")]
pub mod invariants;
pub mod knnc;
pub mod nnc;
pub mod ops;
pub mod publish;
pub mod query;
pub mod sharded;
pub mod warm;

pub use brute::nn_candidates_bruteforce;
pub use config::{FilterConfig, Stats};
pub use continuous::{ContinuousNnc, Repair};
pub use ctx::CheckCtx;
pub use db::{Database, DbError, FlatDatabase};
pub use engine::{batch_metrics, batch_stats, record_batch, QueryEngine};
pub use explain::{dominance_matrix, dominators_of, dominators_of_with};
pub use index::{IndexStats, ShardStats, SpatialIndex};
pub use knnc::{k_nn_candidates, k_nn_candidates_bruteforce, k_nn_candidates_warm, KnncResult};
pub use nnc::{nn_candidates, nn_candidates_warm, Candidate, NncResult, ProgressiveNnc};
pub use ops::{dominates, f_plus_sd, f_sd, p_sd, peer_network_flow, s_sd, ss_sd, Operator};
pub use osd_obs::{FlightRecorder, QueryMetrics, QueryTrace, TraceData};
pub use osd_uncertain::{Change, EpochLog};
pub use publish::PublishedIndex;
pub use query::PreparedQuery;
pub use sharded::{ShardConfig, ShardedDatabase};
pub use warm::{TableAudit, WarmAudit, WarmCache, WarmPool, WarmStats, WarmView};
