//! Property tests for the stochastic order, match order and quantisation.

use osd_uncertain::{
    construct_match, is_valid_match, match_dominates, quantize, stochastically_dominates,
    DistanceDistribution, SCALE,
};
use proptest::prelude::*;

/// Strategy: a random discrete distribution with `n` atoms, values in
/// `[0, 100)`, masses normalised to 1.
fn dist_strategy(max_atoms: usize) -> impl Strategy<Value = DistanceDistribution> {
    prop::collection::vec((0.0f64..100.0, 0.05f64..1.0), 1..max_atoms).prop_map(|atoms| {
        let total: f64 = atoms.iter().map(|&(_, w)| w).sum();
        DistanceDistribution::from_atoms(atoms.into_iter().map(|(v, w)| (v, w / total)).collect())
    })
}

/// CDF-probe oracle for `x ⪯_st y`.
fn st_oracle(x: &DistanceDistribution, y: &DistanceDistribution) -> bool {
    let mut probes: Vec<f64> = x
        .atoms()
        .iter()
        .chain(y.atoms().iter())
        .map(|&(v, _)| v)
        .collect();
    probes.sort_by(f64::total_cmp);
    probes.iter().all(|&l| x.cdf(l) >= y.cdf(l) - 1e-7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The single-scan decision matches the CDF definition.
    #[test]
    fn prop_scan_matches_cdf_oracle(x in dist_strategy(12), y in dist_strategy(12)) {
        prop_assert_eq!(stochastically_dominates(&x, &y), st_oracle(&x, &y));
    }

    /// Theorem 1: match order ⇔ stochastic order, and the constructed match
    /// is valid with every tuple pairing x ≤ y.
    #[test]
    fn prop_theorem1_equivalence(x in dist_strategy(10), y in dist_strategy(10)) {
        let st = stochastically_dominates(&x, &y);
        prop_assert_eq!(match_dominates(&x, &y), st);
        if st {
            let m = construct_match(&x, &y).unwrap();
            prop_assert!(is_valid_match(&x, &y, &m));
            for t in &m {
                prop_assert!(x.atoms()[t.x].0 <= y.atoms()[t.y].0 + 1e-7);
            }
        }
    }

    /// Reflexivity and antisymmetry-up-to-equality of `⪯_st`.
    #[test]
    fn prop_reflexive_and_antisymmetric(x in dist_strategy(10), y in dist_strategy(10)) {
        prop_assert!(stochastically_dominates(&x, &x));
        if stochastically_dominates(&x, &y) && stochastically_dominates(&y, &x) {
            // Mutual dominance forces identical CDFs at all probe points.
            let probes: Vec<f64> = x.atoms().iter().chain(y.atoms()).map(|&(v, _)| v).collect();
            for l in probes {
                prop_assert!((x.cdf(l) - y.cdf(l)).abs() < 1e-6);
            }
        }
    }

    /// Transitivity of `⪯_st`.
    #[test]
    fn prop_transitive(
        x in dist_strategy(8), y in dist_strategy(8), z in dist_strategy(8),
    ) {
        if stochastically_dominates(&x, &y) && stochastically_dominates(&y, &z) {
            prop_assert!(stochastically_dominates(&x, &z));
        }
    }

    /// Stochastic dominance implies ordering of min, mean, max and all
    /// quantiles (Theorem 11 + the stability of `quan_φ`, §3.2).
    #[test]
    fn prop_dominance_orders_statistics(x in dist_strategy(10), y in dist_strategy(10)) {
        if stochastically_dominates(&x, &y) {
            prop_assert!(x.min() <= y.min() + 1e-9);
            prop_assert!(x.mean() <= y.mean() + 1e-9);
            prop_assert!(x.max() <= y.max() + 1e-9);
            for phi in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                prop_assert!(x.quantile(phi) <= y.quantile(phi) + 1e-9);
            }
        }
    }

    /// Quantisation: exact total, near-proportional masses, positivity.
    #[test]
    fn prop_quantize_invariants(ws in prop::collection::vec(0.01f64..1.0, 1..64)) {
        let total: f64 = ws.iter().sum();
        let probs: Vec<f64> = ws.iter().map(|w| w / total).collect();
        let q = quantize(&probs);
        prop_assert_eq!(q.iter().sum::<u64>(), SCALE);
        for (qi, pi) in q.iter().zip(probs.iter()) {
            prop_assert!(*qi >= 1);
            let err = (*qi as f64 - pi * SCALE as f64).abs();
            prop_assert!(err <= ws.len() as f64 + 1.0, "quantisation error too large: {err}");
        }
    }
}
