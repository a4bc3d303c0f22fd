//! Instrumentation-purity regression test.
//!
//! Pins the exact candidate sets and legacy cost counters of every
//! operator on a fixed pseudo-random workload to the values produced by
//! the pipeline *before* the `osd-obs` instrumentation existed. The
//! observability hooks must never change what the algorithm computes:
//! with the `obs` feature off they compile to no-ops (bit-identical
//! pipeline), and with it on the timers only read clocks — so these
//! pinned values must hold in **both** builds.
//!
//! If this test fails after an intentional algorithmic change, regenerate
//! the table by printing `(ids, stats, objects_checked)` for the workload
//! below; if it fails after an instrumentation change, the hooks leaked
//! into the computation — fix the hooks.

use osd_core::{Database, FilterConfig, Operator, PreparedQuery, QueryEngine};
use osd_geom::Point;
use osd_uncertain::UncertainObject;

/// The deterministic xorshift scatter used by the engine determinism tests.
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

#[test]
fn results_and_stats_match_pre_instrumentation_baseline() {
    let db = Database::new(scatter(40, 3, 0x0517));
    let queries: Vec<PreparedQuery> = scatter(5, 2, 99)
        .into_iter()
        .map(PreparedQuery::new)
        .collect();

    // (operator, query index, candidate ids in emission order,
    //  instance_comparisons, dominance_checks, flow_runs, mbr_checks,
    //  objects_checked) — captured from commit 71f4287 (pre-osd-obs).
    // The P-SD rows' instance_comparisons and mbr_checks were re-captured
    // when the P-SD refinement stopped re-running S-SD and SS-SD's
    // validation and statistics (q0–q4: 5130/4975/4832/5323/5516 →
    // 3441/3894/4089/4534/4139 and 387/474/651/681/453 →
    // 278/407/604/622/366); ids, dominance checks and flow runs are
    // unchanged.
    // Dropping P-SD's optimistic `G⁺` level network and its step-5
    // per-instance level bounds moved none of the P-SD rows: every object
    // has 3 instances, a height-0 local tree at fan-out 4, so neither
    // stage ever ran on them.
    #[allow(clippy::type_complexity)]
    let baseline: &[(Operator, usize, &[usize], u64, u64, u64, u64, usize)] = &[
        (
            Operator::SSd,
            0,
            &[5, 0, 14, 25, 31, 20, 24, 21],
            1623,
            200,
            0,
            200,
            40,
        ),
        (
            Operator::SSd,
            1,
            &[8, 5, 32, 34, 29, 1, 30, 2, 11, 7, 36, 20, 27, 23, 38],
            1651,
            190,
            0,
            190,
            40,
        ),
        (
            Operator::SSd,
            2,
            &[13, 34, 32, 7, 5, 1, 10, 17, 29, 11, 38, 15, 19, 36, 28],
            1705,
            200,
            0,
            200,
            40,
        ),
        (
            Operator::SSd,
            3,
            &[
                8, 5, 0, 23, 9, 25, 16, 7, 21, 20, 2, 1, 19, 37, 27, 29, 38, 36, 11, 35,
            ],
            1855,
            283,
            0,
            283,
            40,
        ),
        (
            Operator::SSd,
            4,
            &[28, 34, 24, 1, 2, 10, 17, 36, 26],
            1430,
            103,
            0,
            103,
            40,
        ),
        (
            Operator::SsSd,
            0,
            &[5, 0, 14, 25, 31, 20, 24, 21, 37],
            2183,
            206,
            0,
            206,
            40,
        ),
        (
            Operator::SsSd,
            1,
            &[
                8, 5, 32, 34, 29, 1, 30, 2, 39, 11, 7, 17, 36, 33, 20, 21, 27, 15, 4, 23, 38, 35,
            ],
            3188,
            356,
            0,
            356,
            40,
        ),
        (
            Operator::SsSd,
            2,
            &[
                13, 34, 32, 39, 16, 7, 8, 24, 2, 5, 21, 1, 30, 10, 17, 29, 4, 11, 38, 15, 19, 36,
                35, 28, 23,
            ],
            3047,
            431,
            0,
            431,
            40,
        ),
        (
            Operator::SsSd,
            3,
            &[
                8, 5, 0, 23, 9, 24, 25, 13, 16, 7, 32, 30, 21, 20, 2, 1, 10, 19, 37, 17, 27, 29,
                38, 36, 11, 26, 35,
            ],
            3509,
            500,
            0,
            500,
            40,
        ),
        (
            Operator::SsSd,
            4,
            &[28, 34, 24, 1, 13, 9, 7, 2, 10, 35, 3, 17, 36, 21, 38, 6, 26],
            2633,
            239,
            0,
            239,
            40,
        ),
        (
            Operator::PSd,
            0,
            &[5, 0, 14, 25, 31, 9, 20, 24, 32, 21, 37],
            3441,
            278,
            44,
            278,
            40,
        ),
        (
            Operator::PSd,
            1,
            &[
                8, 5, 32, 34, 29, 1, 30, 2, 39, 11, 7, 31, 17, 36, 33, 20, 21, 25, 27, 26, 15, 4,
                23, 38, 35,
            ],
            3894,
            407,
            22,
            407,
            40,
        ),
        (
            Operator::PSd,
            2,
            &[
                13, 34, 32, 39, 16, 31, 7, 8, 9, 24, 2, 0, 14, 5, 21, 1, 25, 30, 10, 17, 29, 4, 11,
                38, 15, 33, 19, 36, 35, 28, 23, 26,
            ],
            4089,
            604,
            17,
            604,
            40,
        ),
        (
            Operator::PSd,
            3,
            &[
                8, 5, 0, 23, 9, 24, 25, 13, 16, 7, 32, 12, 30, 21, 20, 2, 31, 1, 10, 19, 4, 37, 17,
                27, 29, 39, 38, 33, 36, 11, 26, 35, 22,
            ],
            4534,
            622,
            18,
            622,
            40,
        ),
        (
            Operator::PSd,
            4,
            &[
                28, 34, 24, 1, 13, 9, 7, 2, 29, 10, 35, 3, 17, 20, 11, 19, 36, 0, 21, 38, 6, 26,
                16, 15,
            ],
            4139,
            366,
            33,
            366,
            40,
        ),
        (
            Operator::FSd,
            0,
            &[
                5, 0, 14, 25, 31, 9, 20, 24, 32, 21, 37, 38, 7, 18, 13, 12, 16, 1, 27, 10, 2, 29,
                17, 15, 34,
            ],
            3830,
            436,
            0,
            436,
            40,
        ),
        (
            Operator::FSd,
            1,
            &[
                8, 5, 32, 34, 29, 1, 30, 2, 14, 39, 11, 7, 31, 17, 36, 33, 37, 20, 21, 25, 13, 27,
                26, 15, 4, 24, 0, 23, 38, 9, 16, 35, 12, 6, 10, 28, 19,
            ],
            6080,
            711,
            0,
            711,
            40,
        ),
        (
            Operator::FSd,
            2,
            &[
                13, 34, 32, 39, 16, 31, 7, 8, 9, 24, 2, 0, 12, 14, 5, 21, 1, 25, 30, 10, 17, 29, 4,
                20, 11, 6, 37, 38, 15, 33, 19, 27, 36, 35, 28, 18, 23, 26, 22, 3,
            ],
            6616,
            780,
            0,
            780,
            40,
        ),
        (
            Operator::FSd,
            3,
            &[
                8, 5, 0, 23, 9, 24, 25, 13, 16, 7, 32, 12, 30, 21, 20, 2, 31, 1, 10, 19, 4, 37, 17,
                27, 29, 39, 38, 34, 33, 3, 18, 6, 14, 36, 11, 26, 35, 22, 15, 28,
            ],
            6566,
            780,
            0,
            780,
            40,
        ),
        (
            Operator::FSd,
            4,
            &[
                28, 34, 24, 1, 13, 9, 7, 2, 29, 10, 35, 33, 22, 3, 18, 17, 20, 11, 19, 36, 25, 0,
                21, 8, 38, 6, 37, 26, 16, 32, 23, 27, 4, 12, 5, 31, 15, 39,
            ],
            6160,
            717,
            0,
            717,
            40,
        ),
        (
            Operator::FPlusSd,
            0,
            &[
                5, 0, 14, 25, 31, 9, 20, 24, 32, 21, 37, 38, 7, 18, 13, 12, 16, 1, 27, 10, 2, 29,
                17, 15, 34, 6, 11, 19, 22, 3, 35, 36, 26, 33,
            ],
            80,
            615,
            0,
            1230,
            40,
        ),
        (
            Operator::FPlusSd,
            1,
            &[
                8, 5, 32, 34, 29, 1, 30, 2, 14, 39, 11, 7, 31, 17, 36, 33, 37, 20, 21, 25, 13, 27,
                26, 15, 4, 24, 0, 23, 38, 9, 16, 35, 12, 6, 22, 10, 28, 18, 19, 3,
            ],
            80,
            780,
            0,
            1560,
            40,
        ),
        (
            Operator::FPlusSd,
            2,
            &[
                13, 34, 32, 39, 16, 31, 7, 8, 9, 24, 2, 0, 12, 14, 5, 21, 1, 25, 30, 10, 17, 29, 4,
                20, 11, 6, 37, 38, 15, 33, 19, 27, 36, 35, 28, 18, 23, 26, 22, 3,
            ],
            80,
            780,
            0,
            1560,
            40,
        ),
        (
            Operator::FPlusSd,
            3,
            &[
                8, 5, 0, 23, 9, 24, 25, 13, 16, 7, 32, 12, 30, 21, 20, 2, 31, 1, 10, 19, 4, 37, 17,
                27, 29, 39, 38, 34, 33, 3, 18, 6, 14, 36, 11, 26, 35, 22, 15, 28,
            ],
            80,
            780,
            0,
            1560,
            40,
        ),
        (
            Operator::FPlusSd,
            4,
            &[
                28, 34, 24, 1, 13, 9, 7, 2, 29, 10, 35, 33, 22, 3, 18, 17, 20, 11, 19, 36, 25, 0,
                21, 8, 38, 6, 37, 26, 16, 32, 23, 27, 4, 12, 5, 31, 15, 39, 14, 30,
            ],
            80,
            780,
            0,
            1560,
            40,
        ),
    ];

    for &(op, qi, ids, ic, dc, fl, mbr, checked) in baseline {
        let r = QueryEngine::with_config(&db, op, FilterConfig::all()).run(&queries[qi]);
        assert_eq!(r.ids(), ids, "{op:?} q{qi}: candidate ids drifted");
        assert_eq!(
            (
                r.stats.instance_comparisons,
                r.stats.dominance_checks,
                r.stats.flow_runs,
                r.stats.mbr_checks,
                r.objects_checked,
            ),
            (ic, dc, fl, mbr, checked),
            "{op:?} q{qi}: legacy counters drifted"
        );
    }
}
