//! Instrumentation-purity regression test (workspace facade level).
//!
//! The deeper per-operator baseline table lives in
//! `crates/core/tests/obs_purity.rs`; this suite pins the same contract
//! through the `osd` facade, where the tier-1 build runs with the `obs`
//! feature *off*:
//!
//! * with `obs` off, the metrics registry and the tracer are zero-sized
//!   no-ops — a traced run produces no trace and costs nothing;
//! * in **both** builds, turning instrumentation on (`--profile`-style
//!   metrics or `FilterConfig::traced` flight recording) leaves every
//!   candidate id, `min_dist` bit pattern and legacy counter bit-identical
//!   to the bare run;
//! * on a 3-d A-N batch every traced query yields a rooted span tree that
//!   a flight recorder retains, with results unchanged;
//! * a fixed pre-instrumentation baseline (captured from commit 71f4287)
//!   still holds, so the hooks cannot have leaked into the computation.

// Integration test: exact values and aborts are intentional.
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use osd::datagen::{generate_objects, object_around, CenterDistribution, SynthParams};
use osd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Everything deterministic about one query result.
fn fingerprint(db: &Database, q: &PreparedQuery, op: Operator, cfg: &FilterConfig) -> String {
    let r = nn_candidates(db, q, op, cfg);
    format!(
        "{:?}|{:?}|{}",
        r.candidates
            .iter()
            .map(|c| (c.id, c.min_dist.to_bits()))
            .collect::<Vec<_>>(),
        r.stats,
        r.objects_checked
    )
}

#[test]
fn disabled_instrumentation_is_zero_sized() {
    if QueryMetrics::enabled() {
        return; // obs build: the registry is real by design.
    }
    assert_eq!(std::mem::size_of::<QueryMetrics>(), 0);
    assert!(!QueryTrace::enabled());
    assert_eq!(std::mem::size_of::<QueryTrace>(), 0);
    // The no-op tracer also records nothing through the full API surface.
    let mut t = QueryTrace::start("noop", 64);
    assert!(!t.is_active());
    let span = t.open("child");
    t.attr(span, "k", osd::obs::AttrValue::U64(1));
    t.close(span);
    assert!(t.finish().is_none());
}

#[test]
fn tracing_and_metrics_never_change_results() {
    let db = Database::new(scatter(40, 3, 0x0517));
    let queries: Vec<PreparedQuery> = scatter(5, 2, 99)
        .into_iter()
        .map(PreparedQuery::new)
        .collect();
    let plain = FilterConfig::all();
    let traced = FilterConfig::all().traced();
    for op in Operator::ALL {
        for q in &queries {
            assert_eq!(
                fingerprint(&db, q, op, &plain),
                fingerprint(&db, q, op, &traced),
                "{op:?}: tracing changed the result"
            );
        }
    }
}

#[test]
fn traces_exist_exactly_when_obs_is_on_and_requested() {
    let db = Database::new(scatter(30, 3, 0x0517));
    let q = PreparedQuery::new(scatter(1, 2, 7).remove(0));

    // Not requested: never a trace, in either build.
    let bare = nn_candidates(&db, &q, Operator::PSd, &FilterConfig::all());
    assert!(bare.trace.is_none());

    let traced = nn_candidates(&db, &q, Operator::PSd, &FilterConfig::all().traced());
    match traced.trace {
        Some(t) => {
            assert!(QueryTrace::enabled(), "obs-off build produced a trace");
            assert_eq!(t.label, Operator::PSd.label());
            assert!(!t.spans.is_empty());
            assert!(t.spans[0].is_root());
            // A recorder accepts it and retains it.
            let mut rec = FlightRecorder::default();
            rec.record(t);
            assert_eq!(rec.recorded(), 1);
        }
        None => assert!(
            !QueryTrace::enabled(),
            "obs build dropped a requested trace"
        ),
    }
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
    //  objects_checked) — captured from commit 71f4287 (pre-osd-obs);
    // the P-SD rows exercise every phase including the flow refinement.
    // Their instance_comparisons and mbr_checks were re-captured when the
    // P-SD refinement stopped re-running S-SD and SS-SD's validation and
    // statistics (5130 → 3441, 387 → 278; 5516 → 4139, 453 → 366); ids,
    // dominance checks and flow runs are unchanged.
    // Dropping P-SD's optimistic `G⁺` level network and its step-5
    // per-instance level bounds moved none of these rows: every object
    // has 3 instances, a height-0 local tree at fan-out 4, so neither
    // stage ever ran on them.
    #[allow(clippy::type_complexity)]
    let baseline: &[(Operator, usize, &[usize], u64, u64, u64, u64, usize)] = &[
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
    ];

    // The baseline must hold bare *and* traced: instrumentation reads,
    // never writes.
    for cfg in [FilterConfig::all(), FilterConfig::all().traced()] {
        for &(op, qi, ids, ic, dc, fl, mbr, checked) in baseline {
            let r = QueryEngine::with_config(&db, op, cfg).run(&queries[qi]);
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
}

/// The 3-d A-N batch of the paper's evaluation at test scale: 300 objects
/// of 12 instances and six queries of 9 instances. Each query runs bare
/// and traced with identical ids, `min_dist` bits and counters; with obs on
/// each trace has a root span and a recorder keeps all six, and with obs
/// off no trace exists.
#[test]
fn traced_an_batch_is_pure_and_fully_recorded() {
    let seed = 0x0517;
    let objects = generate_objects(&SynthParams {
        n: 300,
        dim: 3,
        instances: 12,
        edge: 400.0,
        centers: CenterDistribution::AntiCorrelated,
        seed,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    let queries: Vec<PreparedQuery> = (0..6)
        .map(|_| {
            let center = objects[rng.gen_range(0..objects.len())].mbr().center();
            PreparedQuery::new(object_around(&mut rng, center.coords(), 3, 9, 200.0))
        })
        .collect();
    let db = Database::new(objects);
    let op = Operator::PSd;
    let traced_cfg = FilterConfig::all().traced();

    let mut recorder = FlightRecorder::default();
    for (i, q) in queries.iter().enumerate() {
        let bare = nn_candidates(&db, q, op, &FilterConfig::all());
        let traced = nn_candidates(&db, q, op, &traced_cfg);
        let exact = |r: &NncResult| -> Vec<(usize, u64)> {
            r.candidates
                .iter()
                .map(|c| (c.id, c.min_dist.to_bits()))
                .collect()
        };
        assert_eq!(
            exact(&bare),
            exact(&traced),
            "query {i}: tracing changed the candidates"
        );
        assert_eq!(
            bare.stats, traced.stats,
            "query {i}: tracing changed the counters"
        );
        match traced.trace {
            Some(mut t) => {
                assert!(
                    QueryTrace::enabled(),
                    "query {i}: obs-off build recorded a trace"
                );
                assert!(
                    t.spans.first().is_some_and(|s| s.is_root()),
                    "query {i}: trace has no root span"
                );
                t.seq = i as u64;
                recorder.record(t);
            }
            None => assert!(
                !QueryTrace::enabled(),
                "query {i}: traced run produced no trace"
            ),
        }
    }
    let expected = if QueryTrace::enabled() {
        queries.len()
    } else {
        0
    };
    assert_eq!(recorder.recorded(), expected as u64);
    assert_eq!(
        recorder.len(),
        expected,
        "the recorder must retain every trace"
    );
}
