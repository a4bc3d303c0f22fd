//! Property tests for the spatial dominance operators: the cover chain
//! (Theorem 2), the |Q| = 1 collapse (Theorem 3), transitivity (Theorem 9),
//! filter-configuration invariance (every §5.1 filter stack must decide
//! identically), and Algorithm 1 against the O(n²) oracle.

use osd_core::{
    k_nn_candidates, k_nn_candidates_bruteforce, nn_candidates, nn_candidates_bruteforce,
    peer_network_flow, CheckCtx, Database, FilterConfig, Operator, PreparedQuery,
};
use osd_geom::Point;
use osd_uncertain::UncertainObject;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn object_strategy(max_m: usize) -> impl Strategy<Value = UncertainObject> {
    prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..max_m).prop_map(|pts| {
        UncertainObject::uniform(
            pts.into_iter()
                .map(|(x, y)| Point::new(vec![x, y]))
                .collect(),
        )
    })
}

fn weighted_object_strategy(max_m: usize) -> impl Strategy<Value = UncertainObject> {
    prop::collection::vec(((0.0f64..100.0, 0.0f64..100.0), 0.05f64..1.0), 1..max_m).prop_map(
        |insts| {
            let total: f64 = insts.iter().map(|&(_, w)| w).sum();
            UncertainObject::new(
                insts
                    .into_iter()
                    .map(|((x, y), w)| (Point::new(vec![x, y]), w / total))
                    .collect(),
            )
        },
    )
}

/// Decides dominance for one operator under a given filter config.
fn check(
    op: Operator,
    db: &Database,
    u: usize,
    v: usize,
    q: &PreparedQuery,
    cfg: &FilterConfig,
) -> bool {
    let mut ctx = CheckCtx::new(db, q, *cfg);
    ctx.dominates(op, u, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every filter configuration must produce the same verdict — the §5.1
    /// pruning/validation rules are exactness-preserving.
    #[test]
    fn prop_filter_config_invariance(
        u in weighted_object_strategy(5),
        v in weighted_object_strategy(5),
        q in object_strategy(5),
    ) {
        let db = Database::new(vec![u, v]);
        let pq = PreparedQuery::new(q);
        for op in Operator::ALL {
            let baseline = check(op, &db, 0, 1, &pq, &FilterConfig::bf());
            for (name, cfg) in FilterConfig::ablation_ladder() {
                let got = check(op, &db, 0, 1, &pq, &cfg);
                prop_assert_eq!(got, baseline, "{:?} under {} disagrees with BF", op, name);
            }
        }
    }

    /// Theorem 2: F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD (each implication, on random
    /// continuous data where exact distribution ties do not occur).
    #[test]
    fn prop_cover_chain(
        u in weighted_object_strategy(5),
        v in weighted_object_strategy(5),
        q in object_strategy(5),
    ) {
        let db = Database::new(vec![u, v]);
        let pq = PreparedQuery::new(q);
        let cfg = FilterConfig::all();
        let f = check(Operator::FSd, &db, 0, 1, &pq, &cfg);
        let p = check(Operator::PSd, &db, 0, 1, &pq, &cfg);
        let ss = check(Operator::SsSd, &db, 0, 1, &pq, &cfg);
        let s = check(Operator::SSd, &db, 0, 1, &pq, &cfg);
        let fp = check(Operator::FPlusSd, &db, 0, 1, &pq, &cfg);
        prop_assert!(!fp || f, "F⁺-SD must imply F-SD");
        prop_assert!(!f || p, "F-SD must imply P-SD");
        prop_assert!(!p || ss, "P-SD must imply SS-SD");
        prop_assert!(!ss || s, "SS-SD must imply S-SD");
    }

    /// Theorem 3: with |Q| = 1, P-SD = SS-SD = S-SD.
    #[test]
    fn prop_single_query_collapse(
        u in weighted_object_strategy(6),
        v in weighted_object_strategy(6),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0,
    ) {
        let db = Database::new(vec![u, v]);
        let pq = PreparedQuery::new(UncertainObject::uniform(vec![Point::new(vec![qx, qy])]));
        let cfg = FilterConfig::all();
        let p = check(Operator::PSd, &db, 0, 1, &pq, &cfg);
        let ss = check(Operator::SsSd, &db, 0, 1, &pq, &cfg);
        let s = check(Operator::SSd, &db, 0, 1, &pq, &cfg);
        prop_assert_eq!(p, ss);
        prop_assert_eq!(ss, s);
    }

    /// Theorem 9: transitivity of all four operators.
    #[test]
    fn prop_transitivity(
        u in object_strategy(4),
        v in object_strategy(4),
        z in object_strategy(4),
        q in object_strategy(4),
    ) {
        let db = Database::new(vec![u, v, z]);
        let pq = PreparedQuery::new(q);
        let cfg = FilterConfig::all();
        for op in Operator::ALL {
            let uv = check(op, &db, 0, 1, &pq, &cfg);
            let vz = check(op, &db, 1, 2, &pq, &cfg);
            if uv && vz {
                prop_assert!(check(op, &db, 0, 2, &pq, &cfg), "{:?} not transitive", op);
            }
        }
    }

    /// Algorithm 1 equals the O(n²) oracle for every operator.
    #[test]
    fn prop_nnc_matches_bruteforce(
        objs in prop::collection::vec(object_strategy(4), 2..10),
        q in object_strategy(4),
    ) {
        let db = Database::with_fanouts(objs, 3, 2);
        let pq = PreparedQuery::new(q);
        let cfg = FilterConfig::all();
        for op in Operator::ALL {
            let mut algo = nn_candidates(&db, &pq, op, &cfg).ids();
            algo.sort_unstable();
            let (brute, _) = nn_candidates_bruteforce(&db, &pq, op, &cfg);
            prop_assert_eq!(algo, brute, "Algorithm 1 disagrees with brute force for {:?}", op);
        }
    }

    /// Candidate-set inclusion chain (Figure 5):
    /// NNC(S-SD) ⊆ NNC(SS-SD) ⊆ NNC(P-SD) ⊆ NNC(F-SD) ⊆ NNC(F⁺-SD).
    #[test]
    fn prop_candidate_inclusion_chain(
        objs in prop::collection::vec(object_strategy(4), 2..10),
        q in object_strategy(4),
    ) {
        let db = Database::new(objs);
        let pq = PreparedQuery::new(q);
        let cfg = FilterConfig::all();
        let sets: Vec<std::collections::BTreeSet<usize>> = [
            Operator::SSd, Operator::SsSd, Operator::PSd, Operator::FSd, Operator::FPlusSd,
        ].iter().map(|&op| nn_candidates(&db, &pq, op, &cfg).ids().into_iter().collect()).collect();
        for w in sets.windows(2) {
            prop_assert!(w[0].is_subset(&w[1]), "inclusion chain violated: {:?} ⊄ {:?}", w[0], w[1]);
        }
    }

    /// Dominance is antisymmetric for the strict operators: `u` and `v`
    /// cannot dominate each other simultaneously.
    #[test]
    fn prop_antisymmetry(
        u in weighted_object_strategy(5),
        v in weighted_object_strategy(5),
        q in object_strategy(5),
    ) {
        let db = Database::new(vec![u, v]);
        let pq = PreparedQuery::new(q);
        let cfg = FilterConfig::all();
        for op in [Operator::SSd, Operator::SsSd, Operator::PSd] {
            let uv = check(op, &db, 0, 1, &pq, &cfg);
            let vu = check(op, &db, 1, 0, &pq, &cfg);
            prop_assert!(!(uv && vu), "{:?} is not antisymmetric", op);
        }
    }

    /// k-NNC equals its brute-force oracle and grows monotonically in k.
    #[test]
    fn prop_knnc_oracle_and_monotonicity(
        objs in prop::collection::vec(object_strategy(3), 2..10),
        q in object_strategy(3),
        op_idx in 0usize..5,
    ) {
        let db = Database::with_fanouts(objs, 3, 2);
        let pq = PreparedQuery::new(q);
        let cfg = FilterConfig::all();
        let op = Operator::ALL[op_idx];
        let mut prev: Vec<usize> = Vec::new();
        for k in 1..=3usize {
            let mut algo = k_nn_candidates(&db, &pq, op, k, &cfg).ids();
            algo.sort_unstable();
            let brute = k_nn_candidates_bruteforce(&db, &pq, op, k, &cfg);
            prop_assert_eq!(&algo, &brute, "k-NNC oracle mismatch for {:?}, k={}", op, k);
            prop_assert!(prev.iter().all(|i| algo.contains(i)), "NNC_k not monotone in k");
            prev = algo;
        }
    }

    /// The progressive traversal emits candidates in non-decreasing
    /// `δ_min(V, Q)` order and matches the batch result.
    #[test]
    fn prop_progressive_order(
        objs in prop::collection::vec(object_strategy(4), 2..12),
        q in object_strategy(4),
    ) {
        let db = Database::new(objs);
        let pq = PreparedQuery::new(q);
        let res = nn_candidates(&db, &pq, Operator::SsSd, &FilterConfig::all());
        for w in res.candidates.windows(2) {
            prop_assert!(w[0].min_dist <= w[1].min_dist + 1e-9);
        }
    }
}

/// `m` uniform instances in a square of side `extent` around `(cx, cy)`.
fn cloud(rng: &mut StdRng, cx: f64, cy: f64, m: usize, extent: f64) -> UncertainObject {
    UncertainObject::uniform(
        (0..m)
            .map(|_| {
                Point::new(vec![
                    cx + rng.gen_range(-0.5..0.5) * extent,
                    cy + rng.gen_range(-0.5..0.5) * extent,
                ])
            })
            .collect(),
    )
}

/// Filter-configuration invariance where the level networks actually run.
/// The property test above draws at most 4 instances per object, a
/// height-0 local tree at fan-out 4, so its level descents never enter a
/// level. Here HOUSE-like objects of `m_d` = 30 instances (local trees of
/// height 2) crowd around queries of 5 to 20 instances, so many pairs get
/// past the statistics and into the level networks, the per-`U_q` scans
/// and the exact network. Every ordered pair's P-SD verdict must agree
/// across the ablation ladder with kernels on and off, and with the raw
/// Theorem-12 network; NNC must equal the brute-force oracle.
#[test]
fn psd_verdicts_agree_on_multi_level_local_trees() {
    const M_D: usize = 30;
    for (seed, m_q) in [(1u64, 5usize), (3, 14), (15, 20), (50, 7)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = cloud(&mut rng, 0.0, 0.0, m_q, 40.0);
        let objs: Vec<UncertainObject> = (0..12)
            .map(|_| {
                let (cx, cy) = (rng.gen_range(40.0..90.0), rng.gen_range(-25.0..25.0));
                let extent = rng.gen_range(20.0..50.0);
                cloud(&mut rng, cx, cy, M_D, extent)
            })
            .collect();
        let db = Database::new(objs.clone());
        for id in 0..db.len() {
            assert!(db.local_tree(id).height() >= Some(2), "object {id}");
        }
        let pq = PreparedQuery::new(q.clone());
        let configs: Vec<(&str, FilterConfig)> = FilterConfig::ablation_ladder()
            .into_iter()
            .flat_map(|(name, cfg)| [(name, cfg), (name, cfg.scalar())])
            .collect();
        let mut dominated = 0;
        for u in 0..db.len() {
            for v in (0..db.len()).filter(|&v| v != u) {
                let (flow, scale) = peer_network_flow(&objs[u], &objs[v], &q);
                let oracle = flow == scale;
                dominated += oracle as usize;
                for (name, cfg) in &configs {
                    assert_eq!(
                        check(Operator::PSd, &db, u, v, &pq, cfg),
                        oracle,
                        "seed {seed}, m_q {m_q}: P-SD({u}, {v}) under {name}, kernels {}",
                        cfg.kernels
                    );
                }
            }
        }
        assert!(dominated > 0, "seed {seed}: some pairs must dominate");
        let (brute, _) = nn_candidates_bruteforce(&db, &pq, Operator::PSd, &FilterConfig::bf());
        for (name, cfg) in &configs {
            let mut ids = nn_candidates(&db, &pq, Operator::PSd, cfg).ids();
            ids.sort_unstable();
            assert_eq!(ids, brute, "seed {seed}: NNC under {name}");
        }
    }
}
