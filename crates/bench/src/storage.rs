//! Columnar-layout microbenchmark: what the flat SoA [`InstanceStore`]
//! buys over the boxed array-of-structs object model.
//!
//! Three axes are measured on an A-N workload:
//!
//! * **build** — materialising the boxed object list, encoding it into the
//!   columnar store, and the full [`Database`] build (store + the §6
//!   n+1 R-tree layout) — the index-construction cost the paper reports
//!   alongside query latency;
//! * **scan** — a distance-accumulation sweep over every instance, once
//!   through the boxed `Instance`/`Point` representation (one heap box per
//!   point) and once through each object's contiguous coordinate rows
//!   (`chunks_exact` + `dist2_slice`). Both run the identical float fold,
//!   so the sums must agree bit-for-bit — asserted, not assumed;
//! * **filter phase** — end-to-end NNC latency per query on the
//!   store-backed database, the number the §5.1 filter stack actually
//!   pays.

use crate::datasets::{build, DatasetId, Workbench};
use crate::params::Scale;
use osd_core::{nn_candidates, FilterConfig, Operator};
use osd_geom::dist2_slice;
use osd_geom::Point;
use osd_uncertain::{InstanceStore, UncertainObject};
use std::time::Instant;

/// Timings (seconds unless noted) from one storage-layout run.
#[derive(Debug, Clone)]
pub struct StorageReport {
    /// Dataset label (the run uses A-N).
    pub dataset: &'static str,
    /// Objects in the database.
    pub objects: usize,
    /// Total instance rows across all objects.
    pub instances: usize,
    /// Coordinate dimensionality.
    pub dim: usize,
    /// Scan repetitions behind the scan timings.
    pub scan_reps: usize,
    /// Encoding the boxed objects into the columnar store.
    pub build_store_s: f64,
    /// Full `Database` build: store encode + global/local R-tree loads.
    pub build_db_s: f64,
    /// Distance sweep through the boxed object representation.
    pub scan_boxed_s: f64,
    /// The same sweep through the flat coordinate column.
    pub scan_columnar_s: f64,
    /// `scan_boxed_s / scan_columnar_s`.
    pub scan_speedup: f64,
    /// Mean NNC latency per query (milliseconds), P-SD with all filters.
    pub filter_avg_ms: f64,
    /// Queries behind `filter_avg_ms`.
    pub queries: usize,
    /// Whether boxed and columnar sweeps produced bit-identical sums.
    pub scan_sums_bit_identical: bool,
}

impl StorageReport {
    /// Renders the report as a JSON document (hand-formatted; the
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        out.push_str(&format!("  \"objects\": {},\n", self.objects));
        out.push_str(&format!("  \"instances\": {},\n", self.instances));
        out.push_str(&format!("  \"dim\": {},\n", self.dim));
        out.push_str(&format!("  \"scan_reps\": {},\n", self.scan_reps));
        out.push_str(&format!(
            "  \"build_store_s\": {:.6},\n",
            self.build_store_s
        ));
        out.push_str(&format!("  \"build_db_s\": {:.6},\n", self.build_db_s));
        out.push_str(&format!("  \"scan_boxed_s\": {:.6},\n", self.scan_boxed_s));
        out.push_str(&format!(
            "  \"scan_columnar_s\": {:.6},\n",
            self.scan_columnar_s
        ));
        out.push_str(&format!("  \"scan_speedup\": {:.3},\n", self.scan_speedup));
        out.push_str(&format!(
            "  \"filter_avg_ms\": {:.4},\n",
            self.filter_avg_ms
        ));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str(&format!(
            "  \"scan_sums_bit_identical\": {}\n",
            self.scan_sums_bit_identical
        ));
        out.push_str("}\n");
        out
    }
}

/// The boxed sweep: `Σ dist²(instance, q)` through `Instance.point`.
fn sweep_boxed(objects: &[UncertainObject], q: &Point) -> f64 {
    let mut acc = 0.0f64;
    for o in objects {
        for i in o.instances() {
            acc += i.point.dist2(q);
        }
    }
    acc
}

/// The columnar sweep: the identical fold over each object's contiguous
/// coordinate rows, objects in row order.
fn sweep_columnar(store: &InstanceStore, q: &Point) -> f64 {
    let mut acc = 0.0f64;
    for object in store.iter() {
        for row in object.coords().chunks_exact(store.dim()) {
            acc += dist2_slice(row, q.coords());
        }
    }
    acc
}

/// Runs the storage-layout comparison at `scale` with `scan_reps`
/// repetitions of each sweep.
pub fn measure_storage(scale: &Scale, scan_reps: usize) -> StorageReport {
    let bench: Workbench = build(DatasetId::AN, scale);
    let objects = bench.db.store().to_objects();
    let probe = Point::new(vec![5_000.0; bench.db.dim()]);

    let started = Instant::now();
    let store = InstanceStore::from_objects(&objects).expect("workload is non-empty");
    let build_store_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let db = osd_core::Database::new(objects.clone());
    let build_db_s = started.elapsed().as_secs_f64();

    let reps = scan_reps.max(1);
    let started = Instant::now();
    let mut boxed_sum = 0.0f64;
    for _ in 0..reps {
        boxed_sum = sweep_boxed(&objects, &probe);
    }
    let scan_boxed_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut columnar_sum = 0.0f64;
    for _ in 0..reps {
        columnar_sum = sweep_columnar(&store, &probe);
    }
    let scan_columnar_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for q in &bench.queries {
        let _ = nn_candidates(&db, q, Operator::PSd, &FilterConfig::all());
    }
    let filter_total = started.elapsed().as_secs_f64();
    let filter_avg_ms = if bench.queries.is_empty() {
        0.0
    } else {
        filter_total * 1_000.0 / bench.queries.len() as f64
    };

    StorageReport {
        dataset: DatasetId::AN.label(),
        objects: db.len(),
        instances: store.instance_count(),
        dim: store.dim(),
        scan_reps: reps,
        build_store_s,
        build_db_s,
        scan_boxed_s,
        scan_columnar_s,
        scan_speedup: if scan_columnar_s > 0.0 {
            scan_boxed_s / scan_columnar_s
        } else {
            f64::INFINITY
        },
        filter_avg_ms,
        queries: bench.queries.len(),
        scan_sums_bit_identical: boxed_sum.to_bits() == columnar_sum.to_bits(),
    }
}

/// Prints the storage comparison and (optionally) writes the JSON document
/// to `json_path`. Exits non-zero if the two sweeps disagree — that would
/// mean the slice kernels are not bit-faithful to the boxed ones.
pub fn storage(scale: &Scale, scan_reps: usize, json_path: Option<&str>) {
    let report = measure_storage(scale, scan_reps);
    println!(
        "\n== Storage layout: {} ({} objects, {} instances, dim {}) ==",
        report.dataset, report.objects, report.instances, report.dim
    );
    println!("build store     {:>10.4} s", report.build_store_s);
    println!("build database  {:>10.4} s", report.build_db_s);
    println!(
        "scan boxed      {:>10.4} s   ({} reps)",
        report.scan_boxed_s, report.scan_reps
    );
    println!(
        "scan columnar   {:>10.4} s   ({:.2}x)",
        report.scan_columnar_s, report.scan_speedup
    );
    println!(
        "filter phase    {:>10.4} ms/query  ({} queries, P-SD, all filters)",
        report.filter_avg_ms, report.queries
    );
    if !report.scan_sums_bit_identical {
        eprintln!(
            "storage: boxed and columnar sweeps diverged — slice kernels are not bit-faithful"
        );
        std::process::exit(1);
    }
    if let Some(path) = json_path {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_agree_bitwise_and_report_serialises() {
        let scale = Scale {
            n: 80,
            m_d: 4,
            m_q: 2,
            queries: 4,
            ..Scale::laptop()
        };
        let report = measure_storage(&scale, 2);
        assert!(report.scan_sums_bit_identical);
        assert_eq!(report.objects, 80);
        assert_eq!(report.instances, 80 * 4);
        assert_eq!(report.queries, 4);
        let json = report.to_json();
        assert!(json.contains("\"scan_sums_bit_identical\": true"));
        assert!(json.contains("\"objects\": 80"));
        assert!(json.ends_with("}\n"));
    }
}
