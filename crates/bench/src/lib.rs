//! # osd-bench
//!
//! The experiment harness reproducing the figures of the paper's
//! evaluation (§6 and Appendix C), and nothing else. The `repro` binary
//! exposes one subcommand per figure (`fig10` … `fig16`, `motivation`,
//! `all`); the `stress` binary cross-validates every operator against the
//! brute-force oracles on random workloads; `crates/bench/benches/` holds
//! Criterion microbenchmarks of the dominance-check kernels. Performance
//! is measured by the separate `osdbench` package (see `BENCHMARK.json`),
//! and the behaviour contracts are the workspace's identity test suites.
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
pub mod motivation;
pub mod params;
pub mod runner;

pub use datasets::{build, DatasetId, Workbench};
pub use figures::{fig10, fig10_with_threads, fig11_13, fig12, fig14, fig16, SweepParam};
pub use motivation::motivation;
pub use params::{Scale, Sweeps};
pub use runner::{
    print_table, run_all_ops, run_all_ops_parallel, run_cell, run_cell_parallel, CellResult, Report,
};
