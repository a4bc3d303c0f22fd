//! # A guided tour of `osd`
//!
//! This module is documentation-only: a walkthrough of the concepts from
//! *Optimal Spatial Dominance* (SIGMOD 2015) mapped onto this library's
//! API. Every code block compiles and runs as a doctest.
//!
//! ## 1. Objects with multiple instances
//!
//! An [`UncertainObject`](osd_uncertain::UncertainObject) is a set of
//! weighted points. Weights are probabilities (they sum to 1); multi-valued
//! objects with raw weights are normalised on construction — §2.1 of the
//! paper shows this preserves NN ranks whenever total masses are equal.
//!
//! ```
//! use osd::prelude::*;
//!
//! // A delivery driver seen at three recent locations.
//! let driver = UncertainObject::new(vec![
//!     (Point::from([12.0, 7.0]), 0.5),  // most likely: last ping
//!     (Point::from([11.0, 9.0]), 0.3),
//!     (Point::from([14.0, 6.0]), 0.2),
//! ]);
//! assert_eq!(driver.len(), 3);
//!
//! // Same thing from raw weights (e.g. ping recency scores).
//! let same = UncertainObject::from_weighted(vec![
//!     (Point::from([12.0, 7.0]), 5.0),
//!     (Point::from([11.0, 9.0]), 3.0),
//!     (Point::from([14.0, 6.0]), 2.0),
//! ]);
//! assert!((same.instances()[0].prob - 0.5).abs() < 1e-12);
//! ```
//!
//! ## 2. Distance distributions and the stochastic order
//!
//! The similarity of an object to a (possibly multi-instance) query is the
//! *distribution* of pairwise distances. The usual stochastic order
//! compares such distributions pointwise on their CDFs; it is the engine
//! behind the S-SD and SS-SD operators.
//!
//! ```
//! use osd::prelude::*;
//! use osd::uncertain::stochastically_dominates;
//!
//! let q = UncertainObject::uniform(vec![Point::from([0.0, 0.0])]);
//! let near = UncertainObject::uniform(vec![Point::from([1.0, 0.0]), Point::from([2.0, 0.0])]);
//! let far  = UncertainObject::uniform(vec![Point::from([3.0, 0.0]), Point::from([4.0, 0.0])]);
//!
//! let d_near = DistanceDistribution::between(&near, &q);
//! let d_far  = DistanceDistribution::between(&far, &q);
//! assert!(stochastically_dominates(&d_near, &d_far));
//! assert!(d_near.mean() < d_far.mean());       // implied: mean is stable
//! assert!(d_near.quantile(0.5) <= d_far.quantile(0.5)); // so is any quantile
//! ```
//!
//! ## 3. The three families of NN functions
//!
//! Different applications rank multi-instance objects differently. The
//! paper organises the popular choices into three families, all
//! implemented in [`osd::nnfuncs`](osd_nnfuncs):
//!
//! * **N1** — aggregates of the full distance distribution
//!   ([`N1Function`](osd_nnfuncs::N1Function): min, max, mean, quantiles);
//! * **N2** — possible-world semantics
//!   ([`nn_probability`](osd_nnfuncs::nn_probability),
//!   [`N2Function`](osd_nnfuncs::N2Function): expected rank, global top-k,
//!   parameterized ranking);
//! * **N3** — selected-pairs distances
//!   ([`hausdorff`](osd_nnfuncs::hausdorff), [`emd`](osd_nnfuncs::emd),
//!   [`sum_min`](osd_nnfuncs::sum_min)).
//!
//! Crucially, these functions *disagree* about who the nearest neighbour
//! is — that disagreement is the reason NN candidates exist:
//!
//! ```
//! use osd::prelude::*;
//! use osd::nnfuncs::nn_under;
//!
//! let q = UncertainObject::uniform(vec![Point::from([0.0])]);
//! let risky  = UncertainObject::new(vec![
//!     (Point::from([1.0]), 0.6), (Point::from([10.0]), 0.4),
//! ]);
//! let steady = UncertainObject::new(vec![
//!     (Point::from([4.0]), 0.6), (Point::from([4.5]), 0.4),
//! ]);
//! let objs = vec![risky, steady];
//! let by_min = nn_under(&objs, |o| N1Function::Min.score(o, &q)).unwrap();
//! let by_max = nn_under(&objs, |o| N1Function::Max.score(o, &q)).unwrap();
//! assert_eq!(by_min, 0); // the risky object has the closest instance…
//! assert_eq!(by_max, 1); // …and the worst tail.
//! ```
//!
//! ## 4. Candidates instead of commitments
//!
//! When the user has not committed to a function, compute the candidate
//! set for the *family* they might choose from. Pick the operator by
//! coverage (Figure 5 of the paper): S-SD for N1, SS-SD for N1 ∪ N2,
//! P-SD for everything.
//!
//! ```
//! use osd::prelude::*;
//!
//! let objects: Vec<UncertainObject> = (0..30)
//!     .map(|i| {
//!         let x = 2.0 + (i as f64) * 1.5;
//!         UncertainObject::uniform(vec![
//!             Point::from([x, 0.0]),
//!             Point::from([x + 0.5, 0.5]),
//!         ])
//!     })
//!     .collect();
//! let db = Database::new(objects);
//! let q = PreparedQuery::new(UncertainObject::uniform(vec![
//!     Point::from([0.0, 0.0]),
//!     Point::from([1.0, 0.0]),
//! ]));
//!
//! let ssd  = nn_candidates(&db, &q, Operator::SSd, &FilterConfig::all());
//! let sssd = nn_candidates(&db, &q, Operator::SsSd, &FilterConfig::all());
//! let psd  = nn_candidates(&db, &q, Operator::PSd, &FilterConfig::all());
//! // The inclusion chain of Figure 5:
//! assert!(ssd.candidates.len() <= sssd.candidates.len());
//! assert!(sssd.candidates.len() <= psd.candidates.len());
//! ```
//!
//! ## 5. Streaming, robustness, explanations
//!
//! The traversal is progressive — candidates are final as soon as they are
//! emitted ([`ProgressiveNnc`](osd_core::ProgressiveNnc)); shortlists that
//! must survive losing members use
//! [`k_nn_candidates`](osd_core::k_nn_candidates); and
//! [`dominators_of`](osd_core::dominators_of) explains why an object was
//! excluded.
//!
//! ```
//! use osd::prelude::*;
//! use osd::core::dominators_of;
//!
//! let db = Database::new(vec![
//!     UncertainObject::uniform(vec![Point::from([1.0, 0.0])]),
//!     UncertainObject::uniform(vec![Point::from([5.0, 0.0])]),
//! ]);
//! let q = PreparedQuery::new(UncertainObject::uniform(vec![Point::from([0.0, 0.0])]));
//! let doms = dominators_of(&db, &q, Operator::PSd, 1, &FilterConfig::all());
//! assert_eq!(doms, vec![0]); // object 1 is excluded because 0 dominates it
//! ```
//!
//! ## 6. Performance knobs
//!
//! [`FilterConfig`](osd_core::FilterConfig) switches the §5.1 filtering
//! techniques; `FilterConfig::all()` is the production default, and the
//! other presets exist for the Appendix C ablation. All presets return
//! identical candidate sets — only the work differs — which the test suite
//! enforces (`prop_filter_config_invariance`, the `stress` binary).
