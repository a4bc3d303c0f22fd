//! # osd-bench
//!
//! The experiment harness reproducing every figure of the paper's
//! evaluation (§6 and Appendix C). The `repro` binary exposes one
//! subcommand per figure; `crates/bench/benches/` holds Criterion
//! microbenchmarks of the dominance-check kernels.
//!
//! ```text
//! cargo run --release -p osd-bench --bin repro -- fig10
//! cargo run --release -p osd-bench --bin repro -- fig11 --param hd
//! cargo run --release -p osd-bench --bin repro -- all --paper-scale
//! ```

#![warn(missing_docs)]
// The bench harness is a leaf crate that aborts on malformed experiment
// state; the workspace panic-family lints are relaxed here (and in the CLI)
// only — `cargo run -p xtask -- check` enforces that no library crate does
// the same.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod datasets;
pub mod figures;
pub mod kernels;
pub mod motivation;
pub mod mutate;
pub mod params;
pub mod runner;
pub mod throughput;
pub mod trace;

pub use datasets::{build, DatasetId, Workbench};
pub use figures::{fig10, fig10_with_threads, fig11_13, fig12, fig14, fig16, SweepParam};
pub use kernels::{kernels, measure_kernels, KernelsReport};
pub use motivation::motivation;
pub use mutate::{measure_mutate, mutate, MutateReport};
pub use params::{Scale, Sweeps};
pub use runner::{
    print_table, run_all_ops, run_all_ops_parallel, run_cell, run_cell_parallel, CellResult, Report,
};
pub use throughput::{
    host_cpus, measure, phase_medians, throughput, ThroughputPoint, ThroughputReport,
};
pub use trace::{measure_trace, trace, TraceReport};
