//! Harness-level tests: the parallel runner agrees with the sequential one
//! on candidate counts and exact counters, the dataset builders honour
//! their parameters, and the CSV mirror round-trips.

// Integration test: exact expected values and aborts are intentional.
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use osd_bench::{build, run_cell, run_cell_parallel, DatasetId, Report, Scale};
use osd_core::{FilterConfig, Operator};

fn tiny() -> Scale {
    Scale {
        n: 120,
        queries: 6,
        m_d: 4,
        m_q: 3,
        ..Scale::laptop()
    }
}

#[test]
fn parallel_runner_matches_sequential() {
    let bench = build(DatasetId::AN, &tiny());
    for op in [Operator::SSd, Operator::PSd, Operator::FPlusSd] {
        let seq = run_cell(&bench, op, &FilterConfig::all());
        let par = run_cell_parallel(&bench, op, &FilterConfig::all(), 4);
        assert_eq!(
            seq.avg_candidates, par.avg_candidates,
            "{op:?} candidates diverge"
        );
        assert_eq!(
            seq.avg_comparisons, par.avg_comparisons,
            "{op:?} counters diverge"
        );
        assert_eq!(seq.avg_flow_runs, par.avg_flow_runs);
        assert_eq!(seq.avg_mbr_checks, par.avg_mbr_checks);
    }
}

#[test]
fn dataset_builders_honour_scale() {
    let scale = tiny();
    for id in DatasetId::ALL {
        let bench = build(id, &scale);
        assert_eq!(bench.queries.len(), scale.queries, "{id:?}");
        assert!(!bench.db.is_empty(), "{id:?}");
        let dim = bench.db.dim();
        assert!(dim == 2 || dim == 3, "{id:?} unexpected dim {dim}");
        for q in &bench.queries {
            assert_eq!(q.object().dim(), dim, "{id:?} query dim mismatch");
        }
    }
}

#[test]
fn deterministic_given_seed() {
    let a = build(DatasetId::Gw, &tiny());
    let b = build(DatasetId::Gw, &tiny());
    assert_eq!(a.db.len(), b.db.len());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let (sa, sb) = (a.db.store(), b.db.store());
    assert_eq!((sa.len(), sa.rows()), (sb.len(), sb.rows()));
    for (x, y) in sa.iter().zip(sb.iter()) {
        assert_eq!(x.id(), y.id());
        assert_eq!(bits(x.coords()), bits(y.coords()), "object {}", x.id());
        assert_eq!(bits(x.probs()), bits(y.probs()), "object {}", x.id());
    }
    // Same workload ⇒ identical candidate counts.
    let ra = run_cell(&a, Operator::SsSd, &FilterConfig::all());
    let rb = run_cell(&b, Operator::SsSd, &FilterConfig::all());
    assert_eq!(ra.avg_candidates, rb.avg_candidates);
}

#[test]
fn csv_mirror_writes_files() {
    let dir = std::env::temp_dir().join(format!("osd-report-{}", std::process::id()));
    let report = Report::with_csv(&dir);
    report.table(
        "Test table: demo",
        "x",
        &["1".into(), "2".into()],
        &[("row".to_string(), vec![3.0, 4.0])],
    );
    let path = dir.join("test_table_demo.csv");
    let content = std::fs::read_to_string(&path).expect("csv written");
    assert!(content.contains("x,1,2"));
    assert!(content.contains("row,3,4"));
    std::fs::remove_dir_all(&dir).ok();
}
