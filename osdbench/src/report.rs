//! The metric catalogue, the failure tally and the printed result.

use crate::stats::{median, tail, Ratio};

/// A metric the benchmark reports, as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("nnc_p50_ms", "ms", "lower"),
    def("nnc_p99_ms", "ms", "lower"),
    def("knnc_p50_ms", "ms", "lower"),
    def("knnc_p99_ms", "ms", "lower"),
    def("first_candidate_p50_ms", "ms", "lower"),
    def("batch_qps", "1/s", "higher"),
    def("publish_p50_ms", "ms", "lower"),
    def("publish_p99_ms", "ms", "lower"),
    def("refresh_p50_ms", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (`--trace 1`), reported by every workload.
pub const PER_LAYER: &[MetricDef] = &[
    def("uncertain.store_build_s", "s", "lower"),
    def("core.index_build_s", "s", "lower"),
    def("rtree.global_bulk_load_s", "s", "lower"),
    def("geom.prepare_us", "us", "lower"),
    def("rtree.descent_ns", "ns", "lower"),
    def("rtree.nodes_visited", "count", "lower"),
    def("ops.validate_ns", "ns", "lower"),
    def("ops.mbr_checks", "count", "lower"),
    def("ops.level_prune_ns", "ns", "lower"),
    def("ops.refine_ns", "ns", "lower"),
    def("ops.dominance_checks", "count", "lower"),
    def("ops.instance_comparisons", "count", "lower"),
    def("ops.dominates_us", "us", "lower"),
    def("nnc.candidates", "count", "lower"),
    def("nnc.objects_checked", "count", "lower"),
    def("nnc.candidate_yield", "ratio", "higher"),
    def("flow.runs", "count", "lower"),
    def("flow.runs_per_check", "ratio", "lower"),
    def("flow.solve_ns", "ns", "lower"),
    def("cache.hit_rate", "ratio", "higher"),
    def("warm.hit_rate", "ratio", "higher"),
    def("warm.resident_mb", "MB", "lower"),
    def("warm.evictions", "count", "lower"),
    def("warm.cold_nnc_p50_ms", "ms", "lower"),
    def("engine.batch_qps_1t", "1/s", "higher"),
    def("engine.parallel_efficiency", "ratio", "higher"),
    def("publish.clone_ms", "ms", "lower"),
    def("publish.splice_ms", "ms", "lower"),
    def("publish.swap_ms", "ms", "lower"),
    def("publish.index_clone_ms", "ms", "lower"),
    def("continuous.requery_ms", "ms", "lower"),
    def("continuous.incremental_frac", "ratio", "higher"),
    def("obs.trace_overhead_pct", "%", "lower"),
    def("obs.trace_overhead_iqr_pct", "%", "lower"),
    def("query.traced_e2e_mean_ms", "ms", "lower"),
    def("query.unattributed_frac", "ratio", "lower"),
    def("query.share.geom_prepare", "ratio", "lower"),
    def("query.share.prepare", "ratio", "lower"),
    def("query.share.rtree_descent", "ratio", "lower"),
    def("query.share.check", "ratio", "lower"),
    def("query.share.validate", "ratio", "lower"),
    def("query.share.level_prune", "ratio", "lower"),
    def("query.share.flow", "ratio", "lower"),
    def("query.share.strict_guard", "ratio", "lower"),
    def("query.unrecorded_frac", "ratio", "lower"),
];

/// Failures a tally keeps the description of, for the log.
const KEPT_FAILURES: usize = 8;

/// Operations attempted and failed; a failure is a wrong answer, an `Err`
/// from a mutation or a broken internal check — never a crash.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed, described
    /// lazily by `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Adds another tally's operations and failures to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }
}

/// The result of one run: metrics in catalogue order, human-readable
/// notes, and the failure tally.
pub struct Report {
    expected: &'static [MetricDef],
    values: Vec<Option<f64>>,
    notes: Vec<String>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl Report {
    /// An empty report that must fill every metric of `expected`.
    pub fn new(expected: &'static [MetricDef]) -> Report {
        Report {
            expected,
            values: vec![None; expected.len()],
            notes: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Sets metric `name`. An undeclared name or a non-finite value is a
    /// bug in the benchmark and counts as a failure.
    pub fn put(&mut self, name: &str, value: f64) {
        match self.expected.iter().position(|d| d.name == name) {
            Some(i) if value.is_finite() => self.values[i] = Some(value),
            Some(_) => self
                .tally
                .fail(format!("metric {name} is not finite: {value}")),
            None => self.tally.fail(format!("metric {name} is not declared")),
        }
    }

    /// Sets a ratio metric and notes its base.
    pub fn put_ratio(&mut self, name: &str, r: Ratio) {
        self.put(name, r.value());
        self.note(format!("{name} = {r}"));
    }

    /// Sets metric `name` to the median of `samples`; no samples is a
    /// failure.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        match median(samples) {
            Some(m) => self.put(name, m),
            None => self.tally.fail(format!("{name}: no samples")),
        }
    }

    /// Sets a tail metric and notes which percentile of how many samples
    /// it is.
    pub fn put_tail(&mut self, name: &str, samples: &[f64]) {
        match tail(samples) {
            Some(t) => {
                self.put(name, t.value);
                self.note(format!(
                    "{name} = p{} of {} samples ({} beyond)",
                    t.pct, t.n, t.beyond
                ));
            }
            None => self
                .tally
                .fail(format!("{name}: fewer than 20 samples for a tail")),
        }
    }

    /// Adds a human-readable line to the log.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the notes, one `name value unit` line per metric, the
    /// provenance line, and last the result object.
    pub fn print(mut self, provenance: &str) {
        for (d, v) in self.expected.iter().zip(&self.values) {
            if v.is_none() {
                self.tally
                    .fail(format!("metric {} was not measured", d.name));
            }
        }
        if self.tally.attempted == 0 {
            self.tally.op(false, || "no operation was attempted".into());
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.tally.failures {
            println!("# FAILED: {f}");
            eprintln!("FAILED: {f}");
        }
        let mut metrics = Vec::new();
        for (d, v) in self.expected.iter().zip(&self.values) {
            let v = v.unwrap_or(0.0);
            println!(
                "{:<32} {:>22} {:<6} ({} is better)",
                d.name,
                format_value(v),
                d.unit,
                d.better
            );
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                format_value(v),
                d.unit
            ));
        }
        println!("{provenance}");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit the measurement has: `{:?}` prints the
/// shortest representation that round-trips (`1e-7` for tiny magnitudes,
/// which JSON accepts; `put` has rejected non-finite values).
fn format_value(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` must declare the same metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = json.matches("\"name\":").count();
        // Two workloads (`psd-hot`, `churn`) plus every metric.
        assert_eq!(declared, 2 + END_TO_END.len() + PER_LAYER.len());
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn missing_or_undeclared_metrics_fail_the_run() {
        let mut r = Report::new(END_TO_END);
        r.put("no_such_metric", 1.0);
        r.put("setup_s", f64::NAN);
        assert_eq!(r.tally.failed, 2);
    }

    #[test]
    fn values_keep_their_digits() {
        assert_eq!(format_value(1.2034567891), "1.2034567891");
        assert_eq!(format_value(3.0), "3.0");
    }
}
