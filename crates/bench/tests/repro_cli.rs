//! Command-line handling of the `repro` binary: malformed invocations
//! exit with status 2 and a message, never a panic.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

/// Runs `repro` with `args` and asserts a clean usage error: exit status
/// 2, a message on stderr, and no panic.
fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(!stderr.trim().is_empty(), "{args:?}: no message");
}

#[test]
fn a_flag_without_its_value_exits_2() {
    assert_usage_error(&["fig10", "--out-dir"]);
    assert_usage_error(&["fig11", "--param"]);
    assert_usage_error(&["fig10", "--threads"]);
}

#[test]
fn only_the_paper_subcommands_are_accepted() {
    for retired in ["kernels", "mutate", "trace", "throughput"] {
        assert_usage_error(&[retired]);
    }
    assert_usage_error(&["fig10", "--shards", "8"]);
}
