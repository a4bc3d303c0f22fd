//! The two bookkeeping paths of the instrumented build agree: every
//! operator's traced NNC and k-NNC queries record one span per timer
//! sample of every phase. A traced P-SD query records one `level-prune`
//! span per `level-prune` timer sample, and a traced F-SD query one
//! `rtree-descent` span per `rtree-descent` sample, its local-tree
//! searches included. A pair of
//! single-leaf local trees records neither a `level-prune` span nor a
//! sample. A `cache-build` instant marks a `U_Q` that was built, never one
//! a query table served. One pair of clock readings feeds every record of
//! a phase sample: the spans of a phase last exactly its recorded time,
//! the `flow-solve` tally is the refine phase, and tracing changes no
//! sample count. MBR cover validation is counted, not timed; a traced
//! query marks the pairs it validates. Runs with `--features obs`;
//! without it the tracer records nothing and this file is empty.
#![cfg(feature = "obs")]
// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use osd::core::{nn_candidates_warm, WarmPool};
use osd::datagen::{generate_objects, generate_queries, CenterDistribution, SynthParams};
use osd::obs::{AttrValue, Phase, SpanKind, SpanRecord};
use osd::prelude::*;

/// The span names that the timer samples of `phase` open.
fn phase_spans(phase: Phase) -> &'static [&'static str] {
    match phase {
        Phase::Prepare => &["prepare"],
        Phase::RtreeDescent => &["rtree-descent"],
        Phase::LevelPrune => &["level-prune"],
        Phase::Validate => &["validate", "strict-guard"],
        Phase::Refine => &["flow"],
    }
}

/// Every phase sample has a span: over anti-correlated m = 30 objects
/// (tall local trees) and independent m = 12 and m = 3 objects, each
/// operator's traced NNC (k = 1) and k-NNC (k = 2) queries record, per
/// phase, exactly as many spans as the phase has timer samples. Every
/// phase is sampled somewhere, and no trace is truncated.
#[test]
fn every_phase_sample_has_a_span() {
    let shapes = [
        (30, CenterDistribution::AntiCorrelated, 26),
        (12, CenterDistribution::Independent, 27),
        (3, CenterDistribution::Independent, 28),
    ];
    let cfg = FilterConfig::all().traced();
    let mut sampled = [0u64; Phase::COUNT];
    for (instances, centers, seed) in shapes {
        let params = SynthParams {
            n: 60,
            dim: 2,
            instances,
            edge: 400.0,
            centers,
            seed,
        };
        let db = Database::new(generate_objects(&params));
        for q in generate_queries(&params, 6, 4, 200.0, 7) {
            let q = PreparedQuery::new(q);
            for op in Operator::ALL {
                let nnc = nn_candidates(&db, &q, op, &cfg);
                let knnc = k_nn_candidates(&db, &q, op, 2, &cfg);
                for (k, metrics, trace) in
                    [(1, nnc.metrics, nnc.trace), (2, knnc.metrics, knnc.trace)]
                {
                    let trace = trace.expect("obs build records a requested trace");
                    assert_eq!(
                        trace.dropped, 0,
                        "{op:?} k = {k}: the workload fits the trace arena"
                    );
                    for (i, phase) in Phase::ALL.into_iter().enumerate() {
                        let names = phase_spans(phase);
                        let spans = trace
                            .spans
                            .iter()
                            .filter(|s| names.contains(&s.name.as_ref()))
                            .count();
                        let samples = metrics.phase_count(phase);
                        assert_eq!(
                            spans as u64, samples,
                            "{op:?} k = {k}, m = {instances}: one span per {phase:?} sample"
                        );
                        sampled[i] += samples;
                    }
                }
            }
        }
    }
    for (phase, n) in Phase::ALL.into_iter().zip(sampled) {
        assert!(n > 0, "the workload never sampled {phase:?}");
    }
}

#[test]
fn psd_level_prune_samples_have_trace_spans() {
    // 30 instances per object: local trees of height 2, so the level
    // filter has levels to walk.
    let params = SynthParams {
        n: 60,
        dim: 2,
        instances: 30,
        edge: 400.0,
        centers: CenterDistribution::AntiCorrelated,
        seed: 26,
    };
    let db = Database::new(generate_objects(&params));
    let mut sampled = 0;
    for q in generate_queries(&params, 8, 5, 200.0, 7) {
        let q = PreparedQuery::new(q);
        let r = nn_candidates(&db, &q, Operator::PSd, &FilterConfig::all().traced());
        let samples = r.metrics.phase_count(Phase::LevelPrune);
        let trace = r.trace.expect("obs build records a requested trace");
        let spans = trace
            .spans
            .iter()
            .filter(|s| s.name == "level-prune")
            .count();
        assert_eq!(trace.dropped, 0, "the workload fits the trace arena");
        assert_eq!(spans as u64, samples, "one span per level-prune sample");
        sampled += samples;
    }
    assert!(
        sampled > 0,
        "the workload never reached the P-SD level filter"
    );
}

/// The `u` or `v` operand attribute of a `level-prune` span.
fn operand(span: &SpanRecord, key: &str) -> usize {
    let id = span.attrs().find_map(|(k, v)| match v {
        AttrValue::U64(id) if k == key => Some(*id as usize),
        _ => None,
    });
    id.expect("a level-prune span carries its operands")
}

/// An object with at most 4 instances (the local fan-out) has a
/// single-leaf local tree, with no level below its root: the level filter
/// of S-SD, SS-SD and P-SD skips such a pair before its timer and span.
/// Over m = 3 objects no traced query records either. Over a mix of m = 3
/// and m = 12 objects the filter runs exactly on pairs with a taller tree,
/// one span per sample. On both, tracing changes no id or frozen counter.
#[test]
fn single_leaf_pairs_record_no_level_prune() {
    let params = |instances, seed| SynthParams {
        n: 60,
        dim: 2,
        instances,
        edge: 400.0,
        centers: CenterDistribution::AntiCorrelated,
        seed,
    };
    let small = generate_objects(&params(3, 26));
    let large = generate_objects(&params(12, 27));
    let mixed: Vec<_> = small
        .iter()
        .zip(&large)
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let frozen = |s: &Stats| {
        (
            s.instance_comparisons,
            s.dominance_checks,
            s.flow_runs,
            s.mbr_checks,
        )
    };
    let queries: Vec<_> = generate_queries(&params(3, 26), 6, 4, 200.0, 7)
        .into_iter()
        .map(PreparedQuery::new)
        .collect();
    let cfg = FilterConfig::all().traced();
    let mut sampled = 0;
    for (objects, single_leaf) in [(small, true), (mixed, false)] {
        let db = Database::new(objects);
        for q in &queries {
            for op in [Operator::SSd, Operator::SsSd, Operator::PSd] {
                let r = nn_candidates(&db, q, op, &cfg);
                let samples = r.metrics.phase_count(Phase::LevelPrune);
                let trace = r
                    .trace
                    .as_ref()
                    .expect("obs build records a requested trace");
                assert_eq!(trace.dropped, 0, "the workload fits the trace arena");
                let spans: Vec<_> = trace
                    .spans
                    .iter()
                    .filter(|s| s.name == "level-prune")
                    .collect();
                assert_eq!(spans.len() as u64, samples, "{op:?}: one span per sample");
                for s in &spans {
                    let (u, v) = (operand(s, "u"), operand(s, "v"));
                    assert!(
                        db.object(u).len() > 4 || db.object(v).len() > 4,
                        "{op:?}: level filter ran on single-leaf pair ({u}, {v})"
                    );
                }
                if single_leaf {
                    assert_eq!(samples, 0, "{op:?}: level filter ran on m = 3 objects");
                }
                sampled += samples;
                let bare = nn_candidates(&db, q, op, &FilterConfig::all());
                assert_eq!(r.ids(), bare.ids(), "{op:?}: tracing changed the ids");
                assert_eq!(frozen(&r.stats), frozen(&bare.stats), "{op:?} counters");
            }
        }
    }
    assert!(
        sampled > 0,
        "the mixed workload never reached a level filter"
    );
}

#[test]
fn fsd_local_tree_searches_have_trace_spans() {
    let params = SynthParams {
        n: 200,
        dim: 2,
        instances: 12,
        edge: 400.0,
        centers: CenterDistribution::Independent,
        seed: 7,
    };
    let db = Database::new(generate_objects(&params));
    let mut in_checks = 0;
    for q in generate_queries(&params, 8, 4, 200.0, 11) {
        let q = PreparedQuery::new(q);
        let r = nn_candidates(&db, &q, Operator::FSd, &FilterConfig::all().traced());
        let samples = r.metrics.phase_count(Phase::RtreeDescent);
        let trace = r.trace.expect("obs build records a requested trace");
        assert_eq!(trace.dropped, 0, "the workload fits the trace arena");
        let descents: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "rtree-descent")
            .collect();
        assert_eq!(
            descents.len() as u64,
            samples,
            "one span per rtree-descent sample"
        );
        // The global descent's spans hang off the root; the F-SD searches'
        // off their `check` span.
        in_checks += descents
            .iter()
            .filter(|s| trace.spans[s.parent as usize].name == "check")
            .count();
    }
    assert!(
        in_checks > 0,
        "the workload never reached the F-SD searches"
    );
}

/// The ids of the `cache-build` instants of `trace` marking a `U_Q` build.
fn dist_q_builds(trace: &TraceData) -> Vec<u64> {
    let ids = trace.spans.iter().filter(|s| s.name == "cache-build");
    ids.filter_map(|s| match s.attrs().find(|(k, _)| *k == "id") {
        Some((_, AttrValue::U64(id))) => Some(*id),
        _ => None,
    })
    .collect()
}

/// `cache-build` marks a built `U_Q`, not a lookup miss: an admitted P-SD
/// query's filling run builds every `U_Q` it reads into its table, and the
/// run after it, served each of them, records no `cache-build` for them.
#[test]
fn a_served_dist_q_records_no_cache_build() {
    let params = SynthParams {
        n: 60,
        dim: 2,
        instances: 30,
        edge: 400.0,
        centers: CenterDistribution::AntiCorrelated,
        seed: 26,
    };
    let db = Database::new(generate_objects(&params));
    let cfg = FilterConfig::all().traced();
    let pool = WarmPool::new();
    let mut filled = 0;
    for q in generate_queries(&params, 4, 5, 200.0, 7) {
        let q = PreparedQuery::new(q);
        let builds = || {
            let r = nn_candidates_warm(&db, &q, Operator::PSd, &cfg, &pool);
            let trace = r.trace.expect("obs build records a requested trace");
            assert_eq!(trace.dropped, 0, "the workload fits the trace arena");
            (dist_q_builds(&trace), r.stats.cache_misses)
        };
        // A first sighting builds privately; the second run fills the
        // query's table, the third is served from it.
        let (private, _) = builds();
        let (filling, _) = builds();
        let (served, misses) = builds();
        assert_eq!(filling, private, "both runs build each U_Q they read");
        let held: Vec<u64> = served
            .iter()
            .filter(|id| filling.contains(id))
            .copied()
            .collect();
        assert!(held.is_empty(), "served U_Q of {held:?} recorded as built");
        assert!(misses > 0, "the served run still misses its own memos");
        filled += filling.len();
    }
    assert!(filled > 0, "no run read a U_Q");
}

/// The databases and queries of `every_phase_sample_has_a_span`: tall
/// anti-correlated m = 30 objects and independent m = 12 and m = 3 ones,
/// six queries each.
fn phase_workloads() -> Vec<(Database, Vec<PreparedQuery>)> {
    let shapes = [
        (30, CenterDistribution::AntiCorrelated, 26),
        (12, CenterDistribution::Independent, 27),
        (3, CenterDistribution::Independent, 28),
    ];
    shapes
        .into_iter()
        .map(|(instances, centers, seed)| {
            let params = SynthParams {
                n: 60,
                dim: 2,
                instances,
                edge: 400.0,
                centers,
                seed,
            };
            let queries = generate_queries(&params, 6, 4, 200.0, 7)
                .into_iter()
                .map(PreparedQuery::new)
                .collect();
            (Database::new(generate_objects(&params)), queries)
        })
        .collect()
}

/// Runs `op`'s NNC (k = 1) and k-NNC (k = 2) query of `q` under `cfg`,
/// yielding `(k, metrics, trace)` per run.
fn both_ks(
    db: &Database,
    q: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> [(usize, QueryMetrics, Option<TraceData>); 2] {
    let nnc = nn_candidates(db, q, op, cfg);
    let knnc = k_nn_candidates(db, q, op, 2, cfg);
    [(1, nnc.metrics, nnc.trace), (2, knnc.metrics, knnc.trace)]
}

/// One reading feeds the flow tally: an untraced P-SD query's
/// `flow-solve` tally holds exactly the refine phase's samples and
/// nanoseconds, because both are records of the same flow-solve sample.
#[test]
fn flow_solve_tally_is_the_refine_phase() {
    let mut solves = 0;
    for (db, queries) in phase_workloads() {
        for q in &queries {
            for (k, metrics, _) in both_ks(&db, q, Operator::PSd, &FilterConfig::all()) {
                let tally = metrics
                    .spans()
                    .into_iter()
                    .find(|(label, _, _)| *label == "flow-solve")
                    .map_or((0, 0), |(_, count, ns)| (count, ns));
                assert_eq!(
                    tally,
                    (
                        metrics.phase_count(Phase::Refine),
                        metrics.phase_nanos(Phase::Refine)
                    ),
                    "k = {k}: flow-solve tally (count, ns) against the refine phase"
                );
                solves += tally.0;
            }
        }
    }
    assert!(solves > 0, "the workload never solved a flow");
}

/// One reading feeds the trace: on traced queries of every operator at
/// k ∈ {1, 2}, the spans of each phase last, summed, exactly the phase's
/// recorded nanoseconds.
#[test]
fn phase_spans_last_exactly_the_phase_time() {
    let cfg = FilterConfig::all().traced();
    for (db, queries) in phase_workloads() {
        for q in &queries {
            for op in Operator::ALL {
                for (k, metrics, trace) in both_ks(&db, q, op, &cfg) {
                    let trace = trace.expect("obs build records a requested trace");
                    assert_eq!(trace.dropped, 0, "{op:?} k = {k}: fits the trace arena");
                    for phase in Phase::ALL {
                        let names = phase_spans(phase);
                        let dur: u64 = trace
                            .spans
                            .iter()
                            .filter(|s| names.contains(&s.name.as_ref()))
                            .map(|s| s.dur_ns)
                            .sum();
                        assert_eq!(
                            dur,
                            metrics.phase_nanos(phase),
                            "{op:?} k = {k}: {phase:?} spans against the phase total"
                        );
                    }
                }
            }
        }
    }
}

/// Tracing adds no phase sample and drops none: every operator's query
/// records, per phase, as many samples traced as untraced.
#[test]
fn tracing_keeps_the_phase_sample_counts() {
    for (db, queries) in phase_workloads() {
        for q in &queries {
            for op in Operator::ALL {
                let bare = both_ks(&db, q, op, &FilterConfig::all());
                let traced = both_ks(&db, q, op, &FilterConfig::all().traced());
                for ((k, bare, _), (_, traced, _)) in bare.into_iter().zip(traced) {
                    for phase in Phase::ALL {
                        assert_eq!(
                            traced.phase_count(phase),
                            bare.phase_count(phase),
                            "{op:?} k = {k}: {phase:?} samples traced against untraced"
                        );
                    }
                }
            }
        }
    }
}

fn obj(pts: &[(f64, f64)]) -> UncertainObject {
    UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
}

/// Cover validation is counted, not timed: a pair that the strict MBR
/// test decides costs one `mbr_checks` and no `Validate` sample, traced
/// or not. Traced, it opens no `validate` span, and an `mbr-validated`
/// instant under its `check` span says that validation decided it. A pair
/// the test does not validate records no such instant.
#[test]
fn cover_validation_is_counted_not_timed() {
    let db = Database::new(vec![
        obj(&[(0.0, 0.0), (1.0, 1.0), (0.5, 0.8)]),
        obj(&[(500.0, 500.0), (501.0, 499.0), (500.5, 500.5)]),
    ]);
    let q = PreparedQuery::new(obj(&[(0.0, 1.0), (1.0, 0.0)]));
    for op in [Operator::SSd, Operator::SsSd, Operator::PSd] {
        for traced in [false, true] {
            let cfg = if traced {
                FilterConfig::all().traced()
            } else {
                FilterConfig::all()
            };
            for (u, v, validated) in [(0, 1, true), (1, 0, false)] {
                let mut ctx = CheckCtx::new(&db, &q, cfg);
                assert_eq!(ctx.dominates(op, u, v), validated, "{op:?} ({u}, {v})");
                assert_eq!(ctx.stats.mbr_checks, 1, "{op:?}: one counted MBR test");
                if validated {
                    assert_eq!(ctx.stats.instance_comparisons, 0, "{op:?}");
                    assert_eq!(
                        ctx.metrics.phase_count(Phase::Validate),
                        0,
                        "{op:?}: cover validation is not timed"
                    );
                }
                let trace = ctx.trace.finish();
                if !traced {
                    assert!(trace.is_none());
                    continue;
                }
                let trace = trace.expect("obs build records a requested trace");
                assert_eq!(trace.count("validate"), 0, "{op:?}: no validate span");
                let marks: Vec<_> = trace
                    .spans
                    .iter()
                    .filter(|s| s.name == "mbr-validated")
                    .collect();
                if validated {
                    assert_eq!(marks.len(), 1, "{op:?}: the trace shows the validation");
                    assert_eq!(marks[0].kind, SpanKind::Instant);
                    assert_eq!(trace.spans[marks[0].parent as usize].name, "check");
                } else {
                    assert!(marks.is_empty(), "{op:?}: ({u}, {v}) was not validated");
                }
            }
        }
    }
}
