//! The two bookkeeping paths of the instrumented build agree: a traced
//! P-SD query records one `level-prune` span per `level-prune` timer
//! sample, and a traced F-SD query one `rtree-descent` span per
//! `rtree-descent` sample, its local-tree searches included. A
//! `cache-build` instant marks a `U_Q` that was built, never one a query
//! table served. Runs with `--features obs`; without it the tracer records
//! nothing and this file is empty.
#![cfg(feature = "obs")]
// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use osd::core::{nn_candidates_warm, WarmPool};
use osd::datagen::{generate_objects, generate_queries, CenterDistribution, SynthParams};
use osd::obs::{AttrValue, Phase};
use osd::prelude::*;

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
