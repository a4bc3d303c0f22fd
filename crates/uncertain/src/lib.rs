//! # osd-uncertain
//!
//! The multi-instance / discrete-uncertain object model of *Optimal Spatial
//! Dominance* (SIGMOD 2015):
//!
//! * [`UncertainObject`] — instances with probability masses (§2.1),
//!   including weight normalisation for multi-valued objects;
//! * [`DistanceDistribution`] — the discrete distributions `U_Q` and `U_q`
//!   with their statistics (min / max / mean / φ-quantile, Definition 10);
//! * [`stochastic`] — the usual stochastic order `⪯_st` (Definition 1)
//!   decided by an optimal single merged scan (§5.1.1, Theorem 10);
//! * [`matching`] — matches between discrete random variables
//!   (Definition 4), the match order (Definition 9) and the constructive
//!   equivalence with `⪯_st` (Theorem 1);
//! * [`world`] — possible-world enumeration (§3.3) for exact small-input
//!   oracles;
//! * [`quantize()`](quantize::quantize) — fixed-point probability quantisation feeding the exact
//!   integer max-flow of the P-SD check.
//!
//! ```
//! use osd_geom::Point;
//! use osd_uncertain::{
//!     stochastically_dominates, DistanceDistribution, UncertainObject,
//! };
//!
//! // A multi-valued object: weights normalise to probabilities.
//! let u = UncertainObject::from_weighted(vec![
//!     (Point::from([1.0, 0.0]), 3.0),
//!     (Point::from([2.0, 0.0]), 1.0),
//! ]);
//! assert!((u.instances()[0].prob - 0.75).abs() < 1e-12);
//!
//! // Distance distribution w.r.t. a query and its statistics.
//! let q = UncertainObject::uniform(vec![Point::from([0.0, 0.0])]);
//! let d = DistanceDistribution::between(&u, &q);
//! assert_eq!(d.min(), 1.0);
//! assert_eq!(d.max(), 2.0);
//! assert!((d.mean() - 1.25).abs() < 1e-12);
//!
//! // The usual stochastic order.
//! let v = UncertainObject::uniform(vec![Point::from([5.0, 0.0])]);
//! let dv = DistanceDistribution::between(&v, &q);
//! assert!(stochastically_dominates(&d, &dv));
//! ```

#![warn(missing_docs)]

pub mod distribution;
pub mod epoch;
pub mod error;
pub mod matching;
pub mod object;
pub mod quantize;
pub mod stochastic;
pub mod store;
pub mod world;

pub use distribution::DistanceDistribution;
pub use epoch::{touched_ids, Change, EpochLog, DEFAULT_LOG_CAP};
pub use error::ObjectError;
pub use matching::{construct_match, is_valid_match, match_dominates, MatchTuple};
pub use object::{Instance, UncertainObject};
pub use quantize::{quantize, SCALE};
pub use stochastic::{
    stochastically_dominates, stochastically_dominates_counted, strictly_dominates, CDF_EPS,
};
pub use store::{InstanceRef, InstanceStore, ObjectRef, StoreError, CHUNK};
pub use world::for_each_world;

// Compile-time auto-trait surface: uncertain objects and their distance
// distributions are shared read-only (and `Arc`-cached) across
// query-engine worker threads.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<UncertainObject>();
const _: () = _assert_send_sync::<Instance>();
const _: () = _assert_send_sync::<DistanceDistribution>();
const _: () = _assert_send_sync::<InstanceStore>();
const _: () = _assert_send_sync::<ObjectRef<'static>>();
const _: () = _assert_send_sync::<InstanceRef<'static>>();
const _: () = _assert_send_sync::<StoreError>();
const _: () = _assert_send_sync::<Change>();
const _: () = _assert_send_sync::<EpochLog>();
