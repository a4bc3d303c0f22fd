//! Exposition: renders a [`QueryMetrics`] registry as JSON or
//! Prometheus text format.
//!
//! Both renderers are written purely against the registry's accessor
//! methods, so they compile and run in the disabled build too (emitting
//! zeros/empties). Callers may pass extra `(name, value)` counter pairs —
//! the CLI uses this to fold the `Stats` counters, which live only in
//! `osd-core`, into the same document without this crate depending on it.
//!
//! JSON is hand-formatted (the workspace is std-only; no serde). The
//! schema is stable and validated by the `check.sh` smoke step:
//!
//! ```json
//! {
//!   "enabled": true,
//!   "phases": { "prepare": {"count": 1, "total_ns": 42, "buckets": [..]}, .. },
//!   "counters": { "candidates_emitted": 11, .., "rtree_node_visits": 7, .. },
//!   "gauges": { "heap_high_water": 5, "snapshot_epoch": 0, "live_objects": 9, "tombstones": 0 },
//!   "candidates_by_op": { "PSD": 11 },
//!   "spans": { "flow-solve": {"count": 2, "total_ns": 99} }
//! }
//! ```

use crate::{Counter, Phase, QueryMetrics, BUCKET_BOUNDS_NS, NUM_BUCKETS};

/// Renders the registry (plus `extra` counter pairs) as a JSON object.
pub fn to_json(m: &QueryMetrics, extra: &[(&str, u64)]) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"enabled\": {},\n", QueryMetrics::enabled()));

    out.push_str("  \"phases\": {\n");
    for (i, p) in Phase::ALL.iter().enumerate() {
        let buckets = m.phase_buckets(*p);
        let bucket_list = buckets
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"buckets\": [{}]}}{}\n",
            p.name(),
            m.phase_count(*p),
            m.phase_nanos(*p),
            bucket_list,
            comma(i, Phase::COUNT)
        ));
    }
    out.push_str("  },\n");

    out.push_str("  \"counters\": {\n");
    let n_counters = Counter::COUNT + extra.len();
    for (i, c) in Counter::ALL.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            c.name(),
            m.counter(*c),
            comma(i, n_counters)
        ));
    }
    for (j, (name, value)) in extra.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            name,
            value,
            comma(Counter::COUNT + j, n_counters)
        ));
    }
    out.push_str("  },\n");

    out.push_str(&format!(
        "  \"gauges\": {{\"heap_high_water\": {}, \"snapshot_epoch\": {}, \"live_objects\": {}, \"tombstones\": {}, \"warm_evictions\": {}, \"warm_resident_bytes\": {}}},\n",
        m.heap_high_water(),
        m.snapshot_epoch(),
        m.live_objects(),
        m.tombstones(),
        m.warm_evictions(),
        m.warm_resident_bytes()
    ));

    let by_op = m.candidates_by_op();
    out.push_str("  \"candidates_by_op\": {");
    for (i, (label, count)) in by_op.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\": {}{}",
            label,
            count,
            if i + 1 < by_op.len() { ", " } else { "" }
        ));
    }
    out.push_str("},\n");

    let spans = m.spans();
    out.push_str("  \"spans\": {");
    for (i, (label, count, total_ns)) in spans.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\": {{\"count\": {}, \"total_ns\": {}}}{}",
            label,
            count,
            total_ns,
            if i + 1 < spans.len() { ", " } else { "" }
        ));
    }
    out.push_str("},\n");

    // Fixed-width array: MAX_TRACKED_SHARDS cells plus the overflow cell.
    let shard_visits = m.shard_visits();
    out.push_str("  \"shard_node_visits\": [");
    for (i, v) in shard_visits.iter().enumerate() {
        out.push_str(&format!(
            "{}{}",
            v,
            if i + 1 < shard_visits.len() { ", " } else { "" }
        ));
    }
    out.push_str("]\n");

    out.push_str("}\n");
    out
}

/// Renders the registry (plus `extra` counter pairs) in Prometheus text
/// exposition format (metric families `osd_phase_duration_ns`,
/// `osd_phase_latency_bucket` with cumulative `le` buckets, `osd_counter`,
/// `osd_heap_high_water`, the snapshot gauges `osd_snapshot_epoch` /
/// `osd_live_objects` / `osd_tombstones`, `osd_candidates_emitted`,
/// `osd_span_ns` / `osd_span_count`). Every family carries a `# HELP`
/// line immediately before its `# TYPE` line, as the exposition format
/// prescribes.
pub fn to_prometheus(m: &QueryMetrics, extra: &[(&str, u64)]) -> String {
    let mut out = String::with_capacity(2048);

    out.push_str("# HELP osd_phase_duration_ns Total wall-clock nanoseconds per query phase.\n");
    out.push_str("# TYPE osd_phase_duration_ns counter\n");
    for p in Phase::ALL {
        out.push_str(&format!(
            "osd_phase_duration_ns{{phase=\"{}\"}} {}\n",
            p.name(),
            m.phase_nanos(p)
        ));
    }

    out.push_str("# HELP osd_phase_latency Per-sample phase latency distribution, nanoseconds.\n");
    out.push_str("# TYPE osd_phase_latency histogram\n");
    for p in Phase::ALL {
        let buckets = m.phase_buckets(p);
        let mut cumulative = 0u64;
        for (i, b) in buckets.iter().take(NUM_BUCKETS).enumerate() {
            cumulative += b;
            out.push_str(&format!(
                "osd_phase_latency_bucket{{phase=\"{}\",le=\"{}\"}} {}\n",
                p.name(),
                BUCKET_BOUNDS_NS[i],
                cumulative
            ));
        }
        out.push_str(&format!(
            "osd_phase_latency_bucket{{phase=\"{}\",le=\"+Inf\"}} {}\n",
            p.name(),
            m.phase_count(p)
        ));
        out.push_str(&format!(
            "osd_phase_latency_sum{{phase=\"{}\"}} {}\n",
            p.name(),
            m.phase_nanos(p)
        ));
        out.push_str(&format!(
            "osd_phase_latency_count{{phase=\"{}\"}} {}\n",
            p.name(),
            m.phase_count(p)
        ));
    }

    out.push_str("# HELP osd_counter Pipeline event counters (node visits, cache traffic, …).\n");
    out.push_str("# TYPE osd_counter counter\n");
    for c in Counter::ALL {
        out.push_str(&format!(
            "osd_counter{{name=\"{}\"}} {}\n",
            c.name(),
            m.counter(c)
        ));
    }
    for (name, value) in extra {
        out.push_str(&format!("osd_counter{{name=\"{}\"}} {}\n", name, value));
    }

    out.push_str("# HELP osd_heap_high_water Deepest best-first traversal heap observed.\n");
    out.push_str("# TYPE osd_heap_high_water gauge\n");
    out.push_str(&format!("osd_heap_high_water {}\n", m.heap_high_water()));

    out.push_str(
        "# HELP osd_snapshot_epoch Epoch of the published snapshot the query ran against.\n",
    );
    out.push_str("# TYPE osd_snapshot_epoch gauge\n");
    out.push_str(&format!("osd_snapshot_epoch {}\n", m.snapshot_epoch()));

    out.push_str("# HELP osd_live_objects Live objects in the snapshot.\n");
    out.push_str("# TYPE osd_live_objects gauge\n");
    out.push_str(&format!("osd_live_objects {}\n", m.live_objects()));

    out.push_str("# HELP osd_tombstones Deleted-but-unreclaimed rows in the snapshot.\n");
    out.push_str("# TYPE osd_tombstones gauge\n");
    out.push_str(&format!("osd_tombstones {}\n", m.tombstones()));

    out.push_str(
        "# HELP osd_warm_evictions Warm-cache entries discarded by epoch invalidation (pool-cumulative).\n",
    );
    out.push_str("# TYPE osd_warm_evictions gauge\n");
    out.push_str(&format!("osd_warm_evictions {}\n", m.warm_evictions()));

    out.push_str("# HELP osd_warm_resident_bytes Approximate bytes resident in the warm cache.\n");
    out.push_str("# TYPE osd_warm_resident_bytes gauge\n");
    out.push_str(&format!(
        "osd_warm_resident_bytes {}\n",
        m.warm_resident_bytes()
    ));

    out.push_str("# HELP osd_candidates_emitted NN candidates emitted, by dominance operator.\n");
    out.push_str("# TYPE osd_candidates_emitted counter\n");
    for (label, count) in m.candidates_by_op() {
        out.push_str(&format!(
            "osd_candidates_emitted{{op=\"{}\"}} {}\n",
            label, count
        ));
    }

    out.push_str("# HELP osd_span_ns Total nanoseconds inside named code spans.\n");
    out.push_str("# TYPE osd_span_ns counter\n");
    let spans = m.spans();
    for (label, _, total_ns) in &spans {
        out.push_str(&format!("osd_span_ns{{span=\"{label}\"}} {total_ns}\n"));
    }
    out.push_str("# HELP osd_span_count Entries into named code spans.\n");
    out.push_str("# TYPE osd_span_count counter\n");
    for (label, count, _) in &spans {
        out.push_str(&format!("osd_span_count{{span=\"{label}\"}} {count}\n"));
    }

    out.push_str("# HELP osd_shard_node_visits R-tree node visits per STR shard.\n");
    out.push_str("# TYPE osd_shard_node_visits counter\n");
    let shard_visits = m.shard_visits();
    for (i, v) in shard_visits.iter().enumerate() {
        // Only populated cells, to keep one-shard output compact; the
        // trailing cell aggregates shards past the tracked range.
        if *v > 0 {
            if i < shard_visits.len() - 1 {
                out.push_str(&format!("osd_shard_node_visits{{shard=\"{i}\"}} {v}\n"));
            } else {
                out.push_str(&format!(
                    "osd_shard_node_visits{{shard=\"overflow\"}} {v}\n"
                ));
            }
        }
    }

    out
}

fn comma(i: usize, n: usize) -> &'static str {
    if i + 1 < n {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryMetrics {
        let mut m = QueryMetrics::new();
        m.incr_by(Counter::HeapPushes, 7);
        m.incr(Counter::WarmHits);
        m.heap_depth(5);
        m.candidate_emitted("PSD");
        m.shard_visit(0);
        m.shard_visit(2);
        m.snapshot(4, 11, 2);
        m.warm_cache(3, 2048);
        m
    }

    #[test]
    fn json_has_all_phases_and_counters() {
        let json = to_json(&sample(), &[("dominance_checks", 3)]);
        for p in Phase::ALL {
            assert!(
                json.contains(&format!("\"{}\"", p.name())),
                "missing {}",
                p.name()
            );
        }
        for c in Counter::ALL {
            assert!(json.contains(c.name()), "missing {}", c.name());
        }
        assert!(json.contains("\"dominance_checks\": 3"));
        assert!(json.contains("\"heap_high_water\""));
        assert!(json.contains("\"snapshot_epoch\""));
        assert!(json.contains("\"live_objects\""));
        assert!(json.contains("\"tombstones\""));
        assert!(json.contains("\"warm_evictions\""));
        assert!(json.contains("\"warm_resident_bytes\""));
        assert!(json.contains("\"shard_node_visits\": ["));
        if QueryMetrics::enabled() {
            assert!(json.contains("\"heap_pushes\": 7"));
            assert!(json.contains("\"PSD\": 1"));
            assert!(json.contains("\"enabled\": true"));
            assert!(json.contains("\"shard_node_visits\": [1, 0, 1, 0,"));
            assert!(json.contains("\"snapshot_epoch\": 4"));
            assert!(json.contains("\"live_objects\": 11"));
            assert!(json.contains("\"tombstones\": 2"));
            assert!(json.contains("\"warm_evictions\": 3"));
            assert!(json.contains("\"warm_resident_bytes\": 2048"));
        } else {
            assert!(json.contains("\"heap_pushes\": 0"));
            assert!(json.contains("\"enabled\": false"));
            assert!(json.contains("\"snapshot_epoch\": 0"));
            assert!(json.contains("\"warm_evictions\": 0"));
        }
        // Balanced braces — cheap well-formedness check without a parser.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        // No trailing commas before closing braces.
        assert!(!json.contains(",\n  }"), "trailing comma:\n{json}");
        assert!(!json.contains(",}"), "trailing comma:\n{json}");
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_with_count() {
        let prom = to_prometheus(&sample(), &[("mbr_checks", 9)]);
        assert!(prom.contains("# TYPE osd_phase_latency histogram"));
        for p in Phase::ALL {
            let inf = format!(
                "osd_phase_latency_bucket{{phase=\"{}\",le=\"+Inf\"}}",
                p.name()
            );
            assert!(prom.contains(&inf), "missing +Inf bucket for {}", p.name());
        }
        assert!(prom.contains("osd_counter{name=\"mbr_checks\"} 9"));
        assert!(prom.contains("# TYPE osd_shard_node_visits counter"));
        assert!(prom.contains("# TYPE osd_snapshot_epoch gauge"));
        assert!(prom.contains("# TYPE osd_live_objects gauge"));
        assert!(prom.contains("# TYPE osd_tombstones gauge"));
        assert!(prom.contains("# TYPE osd_warm_evictions gauge"));
        assert!(prom.contains("# TYPE osd_warm_resident_bytes gauge"));
        if QueryMetrics::enabled() {
            assert!(prom.contains("osd_shard_node_visits{shard=\"0\"} 1"));
            assert!(prom.contains("osd_shard_node_visits{shard=\"2\"} 1"));
            assert!(prom.contains("osd_snapshot_epoch 4\n"));
            assert!(prom.contains("osd_live_objects 11\n"));
            assert!(prom.contains("osd_tombstones 2\n"));
            assert!(prom.contains("osd_warm_evictions 3\n"));
            assert!(prom.contains("osd_warm_resident_bytes 2048\n"));
        }
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("osd_phase_latency_bucket{phase=\"prepare\"") {
                if let Some(v) = rest.rsplit(' ').next().and_then(|s| s.parse::<u64>().ok()) {
                    assert!(v >= last, "buckets must be cumulative");
                    last = v;
                }
            }
        }
    }

    #[test]
    fn prometheus_families_are_well_formed() {
        let mut m = sample();
        m.record(&crate::PhaseTimer::start(Phase::Refine).stop());
        let prom = to_prometheus(&m, &[("dominance_checks", 3)]);

        // Every # TYPE line is immediately preceded by the matching # HELP
        // line, and every sample line belongs to the family most recently
        // declared (allowing the histogram's _bucket/_sum/_count and the
        // shard/overflow suffix-free names).
        let lines: Vec<&str> = prom.lines().collect();
        let mut current_family: Option<&str> = None;
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                let help = lines
                    .get(i.wrapping_sub(1))
                    .and_then(|l| l.strip_prefix("# HELP "));
                match help {
                    Some(h) => {
                        assert_eq!(
                            h.split(' ').next().unwrap(),
                            name,
                            "# HELP does not name the family of the following # TYPE"
                        );
                        assert!(
                            h.split_once(' ')
                                .map(|x| x.1)
                                .is_some_and(|d| !d.is_empty()),
                            "# HELP {name} has no description"
                        );
                    }
                    None => panic!("# TYPE {name} lacks a preceding # HELP line"),
                }
                current_family = Some(name);
            } else if !line.starts_with('#') && !line.is_empty() {
                let family = current_family.expect("sample line before any # TYPE");
                let metric = line.split(['{', ' ']).next().unwrap();
                assert!(
                    metric.starts_with(family),
                    "sample {metric} emitted under family {family}"
                );
            }
        }
        // The span registry renders as two families, values paired.
        if QueryMetrics::enabled() {
            assert!(prom.contains("osd_span_count{span=\"flow-solve\"} 1"));
            assert!(prom.contains("osd_span_ns{span=\"flow-solve\"}"));
        }
    }
}
