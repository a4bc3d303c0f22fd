//! Untrusted input never panics: the dataset CSV reader, the query-spec
//! parser and `osd mutate`/`osd watch` scripts return `Ok` or a typed error
//! on any input.
//!
//! Each input gets two properties. One feeds arbitrary bytes (up to 511),
//! read lossily as UTF-8 where the API takes `&str`; file inputs are
//! written both raw and lossily decoded, so the parser sees text too.
//! Random bytes rarely get past the first field, so the other property
//! builds lines of the format's own shape from edge-case fields (`nan`,
//! `inf`, `5e-324`, `±1e308`, negative and zero weights, ids past
//! `usize::MAX`, empty fields, mixed dimensions), which reaches the weight,
//! dimension, mass and id checks, and for `mutate` the index updates and
//! the standing query's repairs.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_cli::args::Flags;
use osd_cli::commands::run;
use osd_cli::parse_query_spec;
use osd_datagen::read_objects_csv;
use proptest::prelude::*;
use std::path::PathBuf;

/// Field values at the edges of `f64` and `usize` parsing, plus junk.
const EDGE: &[&str] = &[
    "-3",
    "0.5",
    "5e-324",
    "1e150",
    "-1e150",
    "1e308",
    "-1e308",
    "nan",
    "inf",
    "",
    "x",
    "18446744073709551615",
    "99999999999999999999",
];

/// Plain small values, which are valid ids, weights and coordinates.
const PLAIN: &[&str] = &["0", "1", "2", "3", "4"];

/// Field indices range over `0..FIELD_SPACE`: about one field in five is
/// an edge value, so whole lines often parse and reach the later checks.
const FIELD_SPACE: usize = 64;

fn field(i: usize) -> &'static str {
    EDGE.get(i).copied().unwrap_or(PLAIN[i % PLAIN.len()])
}

/// Joins field indices with `sep`.
fn fields(idx: &[usize], sep: &str) -> String {
    idx.iter().map(|&i| field(i)).collect::<Vec<_>>().join(sep)
}

/// A query spec: `;`-separated instances of `,`-separated coordinates.
fn spec(groups: &[Vec<usize>]) -> String {
    groups
        .iter()
        .map(|g| fields(g, ","))
        .collect::<Vec<_>>()
        .join(";")
}

/// One CSV row per `(id, weight, x, y, z)`, after a header line. Rows are
/// 2-d; one in four gets the third coordinate `z`.
fn csv(rows: &[(usize, usize, usize, usize, usize)]) -> String {
    let mut out = String::from("object_id,weight,x,y\n");
    for &(id, weight, x, y, z) in rows {
        let mut row = fields(&[id, weight, x, y], ",");
        if z < FIELD_SPACE {
            row = format!("{row},{}", field(z));
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// One script line per `(verb, id, spec)`: `insert SPEC`, `delete ID` or
/// `update ID SPEC`, three times in ten each, else an unknown verb.
fn script(lines: &[(usize, usize, Vec<Vec<usize>>)]) -> String {
    let mut out = String::new();
    for (verb, id, groups) in lines {
        let (id, spec) = (field(*id), spec(groups));
        out.push_str(&match verb / 3 {
            0 => format!("insert {spec}\n"),
            1 => format!("delete {id}\n"),
            2 => format!("update {id} {spec}\n"),
            _ => format!("# {id}\nmove {id} {spec}\n"),
        });
    }
    out
}

/// A per-test file under the temp dir (tests run on parallel threads).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("osd-untrusted-{}-{name}", std::process::id()))
}

/// Reads `contents` as a dataset. A dataset that loads is non-empty, and
/// a 2-d query over it returns `Ok` or a typed `CliError`.
fn check_csv(name: &str, contents: &[u8]) {
    let path = scratch(name);
    std::fs::write(&path, contents).unwrap();
    if let Ok(objects) = read_objects_csv(&path) {
        assert!(!objects.is_empty());
        let flags = Flags::new(vec![
            "--data".into(),
            path.to_string_lossy().into_owned(),
            "--query".into(),
            "1e150,-1e150;0,0".into(),
        ]);
        let _ = run("query", &flags);
    }
    std::fs::remove_file(&path).ok();
}

/// Parses `spec` as a query. A query that parses has instances.
fn check_query(spec: &str) {
    if let Ok(obj) = parse_query_spec(spec) {
        assert!(!obj.is_empty());
    }
}

/// Runs `osd mutate`, then `osd watch` (a standing query repaired after
/// every op), with `script` as the ops file over a small valid 2-d
/// dataset; each returns `Ok` or a typed `CliError`.
fn check_mutate(name: &str, script: &[u8]) {
    let data = scratch(&format!("{name}.csv"));
    let ops = scratch(&format!("{name}.ops"));
    std::fs::write(
        &data,
        "object_id,weight,x,y\n0,1,0,0\n0,1,1,1\n1,1,5,5\n2,2,9,1\n2,1,8,2\n",
    )
    .unwrap();
    std::fs::write(&ops, script).unwrap();
    let mut args = vec![
        "--data".into(),
        data.to_string_lossy().into_owned(),
        "--ops".into(),
        ops.to_string_lossy().into_owned(),
    ];
    let _ = run("mutate", &Flags::new(args.clone()));
    args.extend(["--query".into(), "1e150,-1e150;0,0".into()]);
    let _ = run("watch", &Flags::new(args));
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&ops).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn csv_reader_never_panics_on_bytes(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        check_csv("csv-bytes", &bytes);
        check_csv("csv-bytes", String::from_utf8_lossy(&bytes).as_bytes());
    }

    #[test]
    fn csv_reader_never_panics_on_rows(
        rows in prop::collection::vec(
            (0..FIELD_SPACE, 0..FIELD_SPACE, 0..FIELD_SPACE, 0..FIELD_SPACE, 0..4 * FIELD_SPACE),
            0..8,
        ),
    ) {
        check_csv("csv-rows", csv(&rows).as_bytes());
    }

    #[test]
    fn query_spec_never_panics_on_bytes(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        check_query(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn query_spec_never_panics_on_instances(
        groups in prop::collection::vec(prop::collection::vec(0..FIELD_SPACE, 0..4), 0..6),
    ) {
        check_query(&spec(&groups));
    }

    #[test]
    fn mutate_script_never_panics_on_bytes(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        check_mutate("ops-bytes", &bytes);
        check_mutate("ops-bytes", String::from_utf8_lossy(&bytes).as_bytes());
    }

    #[test]
    fn mutate_script_never_panics_on_lines(
        lines in prop::collection::vec(
            (
                0usize..10,
                0..FIELD_SPACE,
                prop::collection::vec(prop::collection::vec(0..FIELD_SPACE, 2..4), 1..3),
            ),
            0..6,
        ),
    ) {
        check_mutate("ops-lines", script(&lines).as_bytes());
    }
}
