//! # osd — Optimal Spatial Dominance
//!
//! A from-scratch Rust reproduction of *"Optimal Spatial Dominance: An
//! Effective Search of Nearest Neighbor Candidates"* (SIGMOD 2015): NN
//! candidate search over objects with multiple instances, via three
//! dominance operators that are provably optimal for growing families of
//! NN functions.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`geom`] — points, MBRs, convex hulls, the exact O(d) MBR dominance
//!   test, a small simplex solver;
//! * [`rtree`] — STR-bulk-loaded R-trees with best-first traversal;
//! * [`flow`] — Dinic and bitset transport max-flow, and min-cost max-flow;
//! * [`uncertain`] — multi-instance objects, distance distributions,
//!   stochastic & match orders;
//! * [`nnfuncs`] — the N1 / N2 / N3 NN-function families;
//! * [`core`] — the dominance operators and Algorithm 1 (NNC);
//! * [`obs`] — query-pipeline instrumentation: phase timers, metrics,
//!   JSON/Prometheus exposition (no-op unless the `obs` feature is on);
//! * [`datagen`] — synthetic and surrogate dataset generators.
//!
//! ## Quick start
//!
//! ```
//! use osd::prelude::*;
//!
//! let objects = vec![
//!     UncertainObject::uniform(vec![Point::from([1.0, 1.0]), Point::from([2.0, 2.0])]),
//!     UncertainObject::uniform(vec![Point::from([1.5, 1.0]), Point::from([2.0, 2.5])]),
//!     UncertainObject::uniform(vec![Point::from([9.0, 9.0]), Point::from([9.5, 9.5])]),
//! ];
//! let db = Database::new(objects);
//! let query = PreparedQuery::new(UncertainObject::uniform(vec![Point::from([0.0, 0.0])]));
//! let cands = nn_candidates(&db, &query, Operator::PSd, &FilterConfig::all());
//! assert!(!cands.ids().contains(&2)); // the far object is never the NN
//! ```

#![warn(missing_docs)]

pub mod guide;

pub use osd_core as core;
pub use osd_datagen as datagen;
pub use osd_flow as flow;
pub use osd_geom as geom;
pub use osd_nncore as nncore;
pub use osd_nnfuncs as nnfuncs;
pub use osd_obs as obs;
pub use osd_rtree as rtree;
pub use osd_uncertain as uncertain;

/// The most common imports in one place.
pub mod prelude {
    pub use osd_core::{
        batch_metrics, batch_stats, dominates, f_plus_sd, f_sd, k_nn_candidates,
        k_nn_candidates_bruteforce, nn_candidates, nn_candidates_bruteforce, p_sd, s_sd, ss_sd,
        Candidate, CheckCtx, Database, FilterConfig, FlightRecorder, KnncResult, NncResult,
        Operator, PreparedQuery, ProgressiveNnc, QueryEngine, QueryMetrics, QueryTrace, Stats,
        TraceData,
    };
    pub use osd_geom::{Mbr, Point};
    pub use osd_nnfuncs::{
        emd, hausdorff, netflow, nn_probability, rank_distribution, sum_min, N1Function, N2Function,
    };
    pub use osd_uncertain::{DistanceDistribution, UncertainObject};
}
