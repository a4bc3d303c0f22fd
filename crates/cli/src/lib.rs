//! # osd-cli
//!
//! Library half of the `osd` command-line tool: argument parsing and the
//! subcommand implementations, kept out of `main.rs` so they are testable.
#![warn(missing_docs)]
// Leaf crate: the subcommands print their reports (see workspace policy).
#![allow(clippy::print_stdout)]

pub mod args;
pub mod commands;

pub use args::{parse_query_spec, CliError};
