//! `stress` — long-running randomized cross-validation.
//!
//! Each round draws a random dataset/query configuration and checks, for
//! every operator:
//!
//! 1. Algorithm 1 == the O(n²) brute-force oracle;
//! 2. every filter configuration decides identically;
//! 3. the Figure 5 candidate-inclusion chain;
//! 4. the winners of the implemented N1/N3 functions sit inside the
//!    matching candidate sets;
//! 5. k-NNC == its brute-force oracle for k ∈ {1, 2, 3}.
//!
//! ```text
//! cargo run --release -p osd-bench --bin stress -- [rounds] [seed]
//! ```

// Leaf binary/bench: panic-family and print lints relaxed (see workspace
// policy).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(clippy::print_stdout)]

use osd_core::{
    k_nn_candidates, k_nn_candidates_bruteforce, nn_candidates, nn_candidates_bruteforce, Database,
    FilterConfig, Operator, PreparedQuery,
};
use osd_datagen::{object_around, DOMAIN};
use osd_nnfuncs::{emd, hausdorff, sum_min, N1Function};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(50);
    let seed: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(0xabcdef);
    let mut rng = StdRng::seed_from_u64(seed);

    for round in 0..rounds {
        let n = rng.gen_range(3..30);
        let dim = rng.gen_range(1..4);
        let m = rng.gen_range(1..6);
        let spread = rng.gen_range(50.0..2000.0);
        let objects: Vec<_> = (0..n)
            .map(|_| {
                let c: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..DOMAIN / 4.0)).collect();
                object_around(&mut rng, &c, dim, m, spread)
            })
            .collect();
        let qc: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..DOMAIN / 4.0)).collect();
        let mq = rng.gen_range(1..6);
        let query = object_around(&mut rng, &qc, dim, mq, spread / 2.0);

        let db = Database::with_fanouts(objects.clone(), rng.gen_range(2..6), 2);
        let pq = PreparedQuery::new(query.clone());

        let mut sets: Vec<BTreeSet<usize>> = Vec::new();
        for op in Operator::ALL {
            // (1) oracle agreement under the full config.
            let algo: BTreeSet<usize> = nn_candidates(&db, &pq, op, &FilterConfig::all())
                .ids()
                .into_iter()
                .collect();
            let (brute, _) = nn_candidates_bruteforce(&db, &pq, op, &FilterConfig::all());
            let brute: BTreeSet<usize> = brute.into_iter().collect();
            assert_eq!(algo, brute, "round {round}: oracle mismatch for {op:?}");

            // (2) filter-configuration invariance.
            for (name, cfg) in FilterConfig::ablation_ladder() {
                let got: BTreeSet<usize> = nn_candidates(&db, &pq, op, &cfg)
                    .ids()
                    .into_iter()
                    .collect();
                assert_eq!(got, algo, "round {round}: {op:?} under {name} diverged");
            }
            sets.push(algo);
        }

        // (3) inclusion chain SSD ⊆ SSSD ⊆ PSD ⊆ FSD ⊆ F⁺SD.
        for w in sets.windows(2) {
            assert!(
                w[0].is_subset(&w[1]),
                "round {round}: inclusion chain broken: {:?} ⊄ {:?}",
                w[0],
                w[1]
            );
        }

        // (4) winning scores achievable inside the candidate sets. (Exact
        // score ties occur — clamped instances can coincide — so the check
        // is on the winning *score*, not the tie-broken winner id.)
        let ssd = &sets[0];
        let psd = &sets[2];
        for f in [
            N1Function::Min,
            N1Function::Mean,
            N1Function::Max,
            N1Function::Quantile(0.5),
        ] {
            let best = (0..n)
                .map(|i| f.score(&objects[i], &query))
                .fold(f64::INFINITY, f64::min);
            let achieved = ssd
                .iter()
                .map(|&i| f.score(&objects[i], &query))
                .fold(f64::INFINITY, f64::min);
            assert!(
                achieved <= best + 1e-9,
                "round {round}: N1 winning score {best} unreachable in NNC(S-SD)"
            );
        }
        for (name, f) in [
            ("hausdorff", hausdorff as fn(&_, &_) -> f64),
            ("sum_min", sum_min),
            ("emd", emd),
        ] {
            let best = (0..n)
                .map(|i| f(&objects[i], &query))
                .fold(f64::INFINITY, f64::min);
            let achieved = psd
                .iter()
                .map(|&i| f(&objects[i], &query))
                .fold(f64::INFINITY, f64::min);
            assert!(
                achieved <= best + 1e-6,
                "round {round}: {name} winning score {best} unreachable in NNC(P-SD)"
            );
        }

        // (5) k-NNC oracle agreement.
        for k in [1usize, 2, 3] {
            for op in [Operator::SSd, Operator::PSd] {
                let mut a = k_nn_candidates(&db, &pq, op, k, &FilterConfig::all()).ids();
                a.sort_unstable();
                let b = k_nn_candidates_bruteforce(&db, &pq, op, k, &FilterConfig::all());
                assert_eq!(a, b, "round {round}: k-NNC mismatch (k={k}, {op:?})");
            }
        }

        if (round + 1) % 10 == 0 {
            println!("round {}/{} ok (n={n}, d={dim}, m={m})", round + 1, rounds);
        }
    }
    println!("stress: all {rounds} rounds passed");
}
