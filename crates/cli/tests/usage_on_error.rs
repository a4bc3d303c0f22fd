//! The `osd` binary prints its usage text after a malformed or missing
//! flag, and only a one-line error after bad data: both exit with status 2.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::{Command, Output};

/// Runs `osd` with `args`.
fn osd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_osd"))
        .args(args)
        .output()
        .expect("osd runs")
}

/// A fresh 2-d dataset written by `osd gen`, named after this process.
fn dataset_2d() -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("osd-usage-{}.csv", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    let out = osd(&[
        "gen",
        "--out",
        &path,
        "--dataset",
        "indep",
        "--n",
        "10",
        "--m",
        "2",
        "--dim",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn bad_data_prints_one_error_line_and_no_usage() {
    let data = dataset_2d();
    let out = osd(&[
        "score", "--data", &data, "--query", "1,2,3", "--object", "0",
    ]);
    let _ = std::fs::remove_file(&data);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one line expected: {stderr}");
    assert!(lines[0].starts_with("error: "), "{stderr}");
    assert!(
        !stderr.contains("USAGE"),
        "usage after a data error: {stderr}"
    );
}

#[test]
fn a_missing_flag_prints_the_usage() {
    let out = osd(&["query", "--query", "1,2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: missing argument: --data"),
        "{stderr}"
    );
    assert!(
        stderr.contains("USAGE"),
        "no usage after a missing flag: {stderr}"
    );
}
