//! Columnar-store round-trip properties: the flat SoA `InstanceStore` must
//! be a *bit-for-bit* faithful re-encoding of the boxed object model.
//!
//! * store ⇄ objects round-trips coordinates, masses and MBRs exactly;
//! * the borrowed-slice kernels (`dist_slice`, `dist2_slice`,
//!   `Mbr::from_rows`) reproduce the boxed kernels to the last mantissa
//!   bit, and so does a whole-store distance sweep through either layout;
//! * NNC / k-NNC over a store-backed [`Database`] agree with the O(n²)
//!   brute-force oracle on randomized A-N (anti-correlated) workloads —
//!   the dataset family the paper's evaluation leans on — for every
//!   dominance operator.
//!
//! Everything here also runs under `--features strict-invariants`, where
//! the Theorem 2 cover-chain audits ride along with each dominance check.

// Integration test: exact values and aborts are intentional.
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use osd::prelude::*;
use osd_core::{k_nn_candidates, k_nn_candidates_bruteforce, nn_candidates_bruteforce};
use osd_datagen::{generate_objects, CenterDistribution, SynthParams};
use osd_geom::{dist2_slice, dist_slice, Mbr};
use osd_uncertain::{DistanceDistribution, InstanceStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A randomized A-N (anti-correlated) workload: the store is exercised on
/// the same data family as the paper's evaluation.
fn an_objects(n: usize, instances: usize, seed: u64) -> Vec<UncertainObject> {
    generate_objects(&SynthParams {
        n,
        dim: 2,
        instances,
        edge: 800.0,
        centers: CenterDistribution::AntiCorrelated,
        seed,
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Checks `store` row by row against a model of its rows (`None` marks a
/// removed row): liveness, coordinate, probability and MBR bits, the live
/// count, row-order iteration and `validate()`.
fn assert_matches_model(
    store: &InstanceStore,
    model: &[Option<UncertainObject>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.validate(), Ok(()));
    prop_assert_eq!(store.rows(), model.len());
    prop_assert_eq!(store.len(), model.iter().flatten().count());
    for (row, want) in model.iter().enumerate() {
        match (store.get(row), want) {
            (None, None) => {}
            (Some(view), Some(o)) => {
                let coords: Vec<f64> = o
                    .instances()
                    .iter()
                    .flat_map(|i| i.point.coords().iter().copied())
                    .collect();
                let probs: Vec<f64> = o.instances().iter().map(|i| i.prob).collect();
                prop_assert_eq!(bits(view.coords()), bits(&coords), "row {}", row);
                prop_assert_eq!(bits(view.probs()), bits(&probs), "row {}", row);
                prop_assert_eq!(bits(view.mbr().lo()), bits(o.mbr().lo()), "row {}", row);
                prop_assert_eq!(bits(view.mbr().hi()), bits(o.mbr().hi()), "row {}", row);
            }
            (got, _) => prop_assert!(
                false,
                "row {} live in store: {}, in model: {}",
                row,
                got.is_some(),
                want.is_some()
            ),
        }
    }
    let live: Vec<usize> = store.iter().map(|o| o.id()).collect();
    let want: Vec<usize> = (0..model.len()).filter(|&r| model[r].is_some()).collect();
    prop_assert_eq!(live, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// objects → store → objects is the identity, down to the float bits:
    /// coordinates, probability masses, spans and MBRs all survive.
    #[test]
    fn prop_store_roundtrip_is_bitwise_identity(
        n in 1usize..14,
        m in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let objects = an_objects(n, m, seed);
        let store = InstanceStore::from_objects(&objects).unwrap();
        prop_assert_eq!(store.validate(), Ok(()));
        prop_assert_eq!(store.len(), objects.len());
        prop_assert_eq!(store.instance_count(), n * m);

        let back = store.to_objects();
        prop_assert_eq!(back.len(), objects.len());
        for (orig, round) in objects.iter().zip(back.iter()) {
            prop_assert_eq!(orig.len(), round.len());
            prop_assert_eq!(bits(orig.mbr().lo()), bits(round.mbr().lo()));
            prop_assert_eq!(bits(orig.mbr().hi()), bits(round.mbr().hi()));
            for (a, b) in orig.instances().iter().zip(round.instances().iter()) {
                prop_assert_eq!(bits(a.point.coords()), bits(b.point.coords()));
                prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits());
            }
        }
    }

    /// The borrowed-row kernels reproduce the boxed kernels bit-for-bit:
    /// per-row distances, the row-block MBR fold, and the ref-based
    /// distance-distribution constructors.
    #[test]
    fn prop_slice_kernels_match_boxed_kernels_bitwise(
        n in 1usize..10,
        m in 1usize..5,
        seed in 0u64..1_000,
        qx in 0.0f64..10_000.0,
        qy in 0.0f64..10_000.0,
    ) {
        let objects = an_objects(n, m, seed);
        let store = InstanceStore::from_objects(&objects).unwrap();
        let q = Point::new(vec![qx, qy]);
        let query = UncertainObject::uniform(vec![q.clone()]);
        let (mut boxed_sum, mut columnar_sum) = (0.0f64, 0.0f64);

        for (id, obj) in objects.iter().enumerate() {
            let view = store.object(id);
            // Row-block MBR fold == boxed point-set MBR fold.
            let from_rows = Mbr::from_rows(view.coords(), view.dim());
            prop_assert_eq!(bits(from_rows.lo()), bits(obj.mbr().lo()));
            prop_assert_eq!(bits(from_rows.hi()), bits(obj.mbr().hi()));
            // Per-row distances == boxed point distances, and total_cmp
            // agrees on their ordering against any other row.
            for (i, inst) in obj.instances().iter().enumerate() {
                let d_slice = dist_slice(view.row(i), q.coords());
                let d_boxed = inst.point.dist(&q);
                prop_assert_eq!(d_slice.to_bits(), d_boxed.to_bits());
                prop_assert_eq!(
                    d_slice.total_cmp(&d_boxed),
                    std::cmp::Ordering::Equal
                );
                boxed_sum += inst.point.dist2(&q);
                columnar_sum += dist2_slice(view.row(i), q.coords());
            }
            // Ref-based distribution constructors == boxed constructors.
            let d_ref = DistanceDistribution::between_ref(view, &query);
            let d_boxed = DistanceDistribution::between(obj, &query);
            prop_assert_eq!(d_ref.min().to_bits(), d_boxed.min().to_bits());
            prop_assert_eq!(d_ref.mean().to_bits(), d_boxed.mean().to_bits());
            prop_assert_eq!(d_ref.max().to_bits(), d_boxed.max().to_bits());
        }
        // The same squared-distance fold over every instance, boxed points
        // vs store rows in row order, sums to the same bits.
        prop_assert_eq!(boxed_sum.to_bits(), columnar_sum.to_bits());
    }

    /// Algorithm 1 and its k-robust extension over the store-backed
    /// database agree with the brute-force oracle for every operator on
    /// randomized A-N workloads.
    #[test]
    fn prop_nnc_and_knnc_match_bruteforce_on_an(
        n in 2usize..12,
        m in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let objects = an_objects(n, m, seed);
        let db = Database::new(objects);
        let query = PreparedQuery::new(UncertainObject::uniform(vec![
            Point::new(vec![5_000.0, 5_000.0]),
            Point::new(vec![5_200.0, 4_800.0]),
        ]));
        let cfg = FilterConfig::all();
        for op in Operator::ALL {
            let mut algo = nn_candidates(&db, &query, op, &cfg).ids();
            algo.sort_unstable();
            let (brute, _) = nn_candidates_bruteforce(&db, &query, op, &cfg);
            prop_assert_eq!(&algo, &brute, "NNC mismatch for {:?}", op);
            for k in [1usize, 2] {
                let mut robust = k_nn_candidates(&db, &query, op, k, &cfg).ids();
                robust.sort_unstable();
                let oracle = k_nn_candidates_bruteforce(&db, &query, op, k, &cfg);
                prop_assert_eq!(&robust, &oracle, "k-NNC mismatch for {:?}, k = {}", op, k);
            }
        }
    }

    /// Seeded random push / remove / replace sequences, long enough to
    /// cross chunk boundaries, agree with a row model after every step
    /// batch; a clone taken partway through never changes afterwards.
    #[test]
    fn prop_mutations_match_a_row_model(seed in 0u64..1_000) {
        // Two instance counts, so replacements grow and shrink rows.
        let mut pool = an_objects(300, 2, seed);
        pool.extend(an_objects(300, 5, seed + 1));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model: Vec<Option<UncertainObject>> =
            pool[..400].iter().cloned().map(Some).collect();
        let mut store = InstanceStore::from_objects(&pool[..400]).unwrap();
        let mut pinned = None;
        for step in 0..600 {
            let live = model.iter().flatten().count();
            let op = rng.gen_range(0..3u32);
            let object = &pool[rng.gen_range(0..pool.len())];
            let mut live_row = || loop {
                let row = rng.gen_range(0..model.len());
                if model[row].is_some() {
                    break row;
                }
            };
            match op {
                0 => {
                    let row = store.push_object(object).unwrap();
                    prop_assert_eq!(row, model.len());
                    model.push(Some(object.clone()));
                }
                1 if live > 1 => {
                    let row = live_row();
                    store.remove_object(row);
                    model[row] = None;
                }
                _ => {
                    let row = live_row();
                    store.replace_object(row, object).unwrap();
                    model[row] = Some(object.clone());
                }
            }
            if step % 100 == 99 {
                assert_matches_model(&store, &model)?;
            }
            if step == 300 {
                pinned = Some((store.clone(), model.clone()));
            }
        }
        prop_assert!(model.len() > 512, "the sequence must reach a third chunk");
        assert_matches_model(&store, &model)?;
        let (old, old_model) = pinned.unwrap();
        assert_matches_model(&old, &old_model)?;
    }

    /// Incremental growth: `push_object` leaves every row exactly as a
    /// from-scratch build over the concatenated object list would.
    #[test]
    fn prop_push_object_matches_from_scratch_build(
        n in 1usize..10,
        m in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let objects = an_objects(n + 1, m, seed);
        let (head, tail) = objects.split_at(n);
        let mut grown = InstanceStore::from_objects(head).unwrap();
        let id = grown.push_object(&tail[0]).unwrap();
        prop_assert_eq!(id, n);
        let scratch = InstanceStore::from_objects(&objects).unwrap();
        prop_assert_eq!(grown.validate(), Ok(()));
        prop_assert_eq!(
            (grown.len(), grown.rows(), grown.instance_count()),
            (scratch.len(), scratch.rows(), scratch.instance_count())
        );
        for idx in 0..scratch.rows() {
            prop_assert_eq!(
                bits(grown.object(idx).coords()),
                bits(scratch.object(idx).coords())
            );
            prop_assert_eq!(
                bits(grown.object(idx).probs()),
                bits(scratch.object(idx).probs())
            );
            prop_assert_eq!(
                bits(grown.object(idx).mbr().lo()),
                bits(scratch.object(idx).mbr().lo())
            );
            prop_assert_eq!(
                bits(grown.object(idx).mbr().hi()),
                bits(scratch.object(idx).mbr().hi())
            );
        }
    }
}
