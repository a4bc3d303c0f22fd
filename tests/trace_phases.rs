//! The two bookkeeping paths of the instrumented build agree on the
//! level filter: a traced P-SD query whose `level-prune` phase timer took
//! samples also recorded `level-prune` spans. Runs with `--features obs`;
//! without it the tracer records nothing and this file is empty.
#![cfg(feature = "obs")]
// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use osd::datagen::{generate_objects, generate_queries, CenterDistribution, SynthParams};
use osd::obs::Phase;
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
