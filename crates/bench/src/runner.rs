//! Workload execution and aggregation.

use crate::datasets::Workbench;
use osd_core::{batch_stats, nn_candidates, FilterConfig, Operator, QueryEngine, Stats};
use std::time::Instant;

/// Aggregated measurements of one (dataset, operator, config) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Operator label ("SSD", …).
    pub op: &'static str,
    /// Average candidate-set size over the workload (Figures 10/11).
    pub avg_candidates: f64,
    /// Average query response time in milliseconds (Figures 12/13).
    pub avg_time_ms: f64,
    /// Average instance comparisons per query (Figure 16).
    pub avg_comparisons: f64,
    /// Average max-flow runs per query.
    pub avg_flow_runs: f64,
    /// Average MBR-level checks per query.
    pub avg_mbr_checks: f64,
}

/// Runs the NNC workload for one operator and aggregates the measurements.
pub fn run_cell(bench: &Workbench, op: Operator, cfg: &FilterConfig) -> CellResult {
    let mut candidates = 0usize;
    let mut total = Stats::default();
    let started = Instant::now();
    for q in &bench.queries {
        let res = nn_candidates(&bench.db, q, op, cfg);
        candidates += res.candidates.len();
        total.merge(&res.stats);
    }
    let elapsed = started.elapsed();
    aggregate(op, candidates, total, elapsed, bench.queries.len())
}

/// As [`run_cell`] but spreading the queries over `threads` OS threads via
/// [`QueryEngine::run_batch`] — queries are independent and the database is
/// shared read-only. Counters stay exact (per-query [`Stats`] merge after
/// the join); per-query wall-clock is reported as aggregate-CPU divided by
/// the workload, so compare parallel/sequential timings with care.
pub fn run_cell_parallel(
    bench: &Workbench,
    op: Operator,
    cfg: &FilterConfig,
    threads: usize,
) -> CellResult {
    let threads = threads.max(1);
    if threads == 1 || bench.queries.len() <= 1 {
        return run_cell(bench, op, cfg);
    }
    let engine = QueryEngine::with_config(&bench.db, op, *cfg);
    let started = Instant::now();
    let results = engine.run_batch(&bench.queries, threads);
    let elapsed = started.elapsed();
    let candidates = results.iter().map(|r| r.candidates.len()).sum();
    let total = batch_stats(&results);
    aggregate(op, candidates, total, elapsed, bench.queries.len())
}

fn aggregate(
    op: Operator,
    candidates: usize,
    total: Stats,
    elapsed: std::time::Duration,
    queries: usize,
) -> CellResult {
    let nq = queries.max(1) as f64;
    CellResult {
        op: op.label(),
        avg_candidates: candidates as f64 / nq,
        avg_time_ms: elapsed.as_secs_f64() * 1e3 / nq,
        avg_comparisons: total.instance_comparisons as f64 / nq,
        avg_flow_runs: total.flow_runs as f64 / nq,
        avg_mbr_checks: total.mbr_checks as f64 / nq,
    }
}

/// Runs every operator over the workload.
pub fn run_all_ops(bench: &Workbench, cfg: &FilterConfig) -> Vec<CellResult> {
    Operator::ALL
        .iter()
        .map(|&op| run_cell(bench, op, cfg))
        .collect()
}

/// As [`run_all_ops`] with the queries of each cell spread over `threads`.
pub fn run_all_ops_parallel(
    bench: &Workbench,
    cfg: &FilterConfig,
    threads: usize,
) -> Vec<CellResult> {
    Operator::ALL
        .iter()
        .map(|&op| run_cell_parallel(bench, op, cfg, threads))
        .collect()
}

/// Output sink for experiment tables: always prints to stdout, optionally
/// mirrors each table into `<out_dir>/<slug>.csv` for plotting.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// When set, every table is also written as a CSV file here.
    pub out_dir: Option<std::path::PathBuf>,
}

impl Report {
    /// A stdout-only report.
    pub fn stdout() -> Self {
        Report { out_dir: None }
    }

    /// A report mirroring CSVs into `dir` (created on first use).
    pub fn with_csv(dir: impl Into<std::path::PathBuf>) -> Self {
        Report {
            out_dir: Some(dir.into()),
        }
    }

    /// Emits one table.
    pub fn table(
        &self,
        title: &str,
        col_header: &str,
        cols: &[String],
        rows: &[(String, Vec<f64>)],
    ) {
        print_table(title, col_header, cols, rows);
        if let Some(dir) = &self.out_dir {
            if let Err(e) = write_csv(dir, title, col_header, cols, rows) {
                eprintln!("warning: could not write CSV for {title:?}: {e}");
            }
        }
    }
}

fn write_csv(
    dir: &std::path::Path,
    title: &str,
    col_header: &str,
    cols: &[String],
    rows: &[(String, Vec<f64>)],
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let slug: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    let path = dir.join(format!("{slug}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "{col_header}")?;
    for c in cols {
        write!(f, ",{c}")?;
    }
    writeln!(f)?;
    for (name, cells) in rows {
        write!(f, "{name}")?;
        for v in cells {
            write!(f, ",{v}")?;
        }
        writeln!(f)?;
    }
    f.flush()
}

/// Prints a row-per-series table: `rows` × `columns` of f64 cells.
pub fn print_table(title: &str, col_header: &str, cols: &[String], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    let width = cols.iter().map(|c| c.len() + 2).max().unwrap_or(12).max(12);
    print!("{:>10}", col_header);
    for c in cols {
        print!("{c:>width$}");
    }
    println!();
    for (name, cells) in rows {
        print!("{name:>10}");
        for v in cells {
            if *v >= 1000.0 {
                print!("{v:>width$.0}");
            } else if *v >= 10.0 {
                print!("{v:>width$.1}");
            } else {
                print!("{v:>width$.3}");
            }
        }
        println!();
    }
}
