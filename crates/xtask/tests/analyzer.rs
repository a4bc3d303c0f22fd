//! End-to-end tests for the token-level analyzer.
//!
//! The fixture corpus under `tests/fixtures/` is the executable
//! specification of the rule set:
//!
//! * `corpus/*.rs` — one file per rule family, each carrying a
//!   `//~ path: <virtual path>` header and `//~ expect: <rule> @ <line>`
//!   annotations. The harness runs the full registry over the file and
//!   requires the diagnostic set to match the annotations **exactly** —
//!   every seeded violation produces its diagnostic, and nothing else
//!   fires.
//! * `lexer/adversarial.rs` — raw strings spanning lines, nested block
//!   comments, and lifetime-vs-char-literal punning, with one live seeded
//!   violation after them; phantom diagnostics or a shifted line anchor
//!   mean the lexer lost track of the source.
//! * `ws_layering`, `ws_waivers`, `ws_waivers_ok` — mini-workspaces for
//!   the cross-crate rules and the waiver ledger, driven through the real
//!   check driver.
//!
//! The `real_workspace_*` tests pin the analyzer against this repository
//! itself: the scan scope (tests/, examples/, crates/*/tests) and a clean
//! end-to-end run.

// Integration test: aborting on malformed fixtures is intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::path::{Path, PathBuf};
use xtask::driver;
use xtask::model::{FileOrigin, SourceFile, Workspace};
use xtask::rules;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Maps a fixture's virtual path to its package name, mirroring the real
/// crate layout.
fn crate_of(path: &str) -> String {
    let Some(rest) = path.strip_prefix("crates/") else {
        return "osd".to_string();
    };
    rest.split('/')
        .next()
        .map_or_else(|| "osd".to_string(), |dir| format!("osd-{dir}"))
}

fn origin_of(path: &str) -> FileOrigin {
    if path.contains("/tests/") || path.starts_with("tests/") {
        FileOrigin::TestDir
    } else if path.contains("/examples/") || path.starts_with("examples/") {
        FileOrigin::Example
    } else {
        FileOrigin::LibSrc
    }
}

/// A sorted `(rule, line)` diagnostic list.
type Diags = Vec<(String, usize)>;

/// Parses `//~ path:` / `//~ expect:` annotations and runs the registry;
/// returns (expected, actual) as sorted `(rule, line)` lists.
fn run_fixture(fixture: &Path) -> (Diags, Diags) {
    let text = fs::read_to_string(fixture).unwrap();
    let mut virtual_path = None;
    let mut expected: Vec<(String, usize)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(p) = line.strip_prefix("//~ path:") {
            virtual_path = Some(p.trim().to_string());
        } else if let Some(e) = line.strip_prefix("//~ expect:") {
            let (rule, lineno) = e.split_once('@').unwrap();
            expected.push((rule.trim().to_string(), lineno.trim().parse().unwrap()));
        }
    }
    let virtual_path = virtual_path.unwrap_or_else(|| panic!("{fixture:?} has no //~ path:"));
    let file = SourceFile::parse(
        PathBuf::from(&virtual_path),
        origin_of(&virtual_path),
        &crate_of(&virtual_path),
        &text,
    );
    let ws = Workspace {
        root: PathBuf::from("."),
        files: vec![file],
        manifests: Vec::new(),
    };
    let mut actual: Vec<(String, usize)> = rules::run_all(&ws)
        .into_iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect();
    expected.sort();
    actual.sort();
    (expected, actual)
}

#[test]
fn corpus_every_seeded_violation_fires_exactly_once() {
    let dir = fixtures().join("corpus");
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 7, "corpus shrank: {} files", entries.len());
    let mut rules_covered = std::collections::BTreeSet::new();
    for fixture in entries {
        let (expected, actual) = run_fixture(&fixture);
        assert!(!expected.is_empty(), "{fixture:?} seeds nothing");
        assert_eq!(
            expected, actual,
            "diagnostic mismatch for fixture {fixture:?}"
        );
        for (rule, _) in &expected {
            rules_covered.insert(rule.clone());
        }
    }
    // Every per-file rule must be exercised by the corpus; the workspace
    // rules have their own mini-workspace fixtures below. (The bans clippy
    // carries have their own fixture crate, `fixtures/clippy`, driven by
    // scripts/clippy_gate.sh.)
    for rule in [
        "no-float-eq-in-kernels",
        "doc-cites-paper",
        "no-panic-allow-in-libs",
        "no-owned-points-in-hot-paths",
        "no-alloc-in-kernels",
        "obs-feature-purity",
        "no-warm-bypass",
    ] {
        assert!(rules_covered.contains(rule), "corpus does not cover {rule}");
    }
}

#[test]
fn lexer_survives_adversarial_source() {
    let fixture = fixtures().join("lexer/adversarial.rs");
    let text = fs::read_to_string(&fixture).unwrap();
    let file = SourceFile::parse(
        PathBuf::from("crates/core/src/nnc.rs"),
        FileOrigin::LibSrc,
        "osd-core",
        &text,
    );
    use xtask::lexer::Kind;
    let raw_strings = file
        .tokens
        .iter()
        .filter(|t| t.kind == Kind::RawStr)
        .count();
    assert_eq!(raw_strings, 1, "the multi-line raw string is one token");
    assert!(
        file.tokens
            .iter()
            .any(|t| t.kind == Kind::BlockComment && t.text.contains("nested")),
        "the nested block comment is one token"
    );
    assert!(file.tokens.iter().any(|t| t.kind == Kind::Lifetime));
    assert!(file.tokens.iter().any(|t| t.kind == Kind::Char));
    // And the seeded violation after all of it fires exactly once, at the
    // right line.
    let (expected, actual) = run_fixture(&fixture);
    assert_eq!(expected, actual, "adversarial fixture diagnostics");
}

#[test]
fn ws_layering_fixture_flags_inverted_edge_and_undeclared_import() {
    let report = driver::run_check_at(&fixtures().join("ws_layering"), "2026-08-08").unwrap();
    let got: Vec<(String, usize, &str)> = report
        .diagnostics
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/geom/Cargo.toml".to_string(), 5, "crate-layering"),
            ("crates/geom/src/lib.rs".to_string(), 2, "crate-layering"),
        ],
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn ws_waivers_fixture_fails_on_expired_and_unused_entries() {
    let report = driver::run_check_at(&fixtures().join("ws_waivers"), "2026-08-08").unwrap();
    assert!(!report.ok());
    assert_eq!(report.waivers_total, 2);
    assert_eq!(report.waivers_used, 0);
    let rules_hit: Vec<&str> = report.diagnostics.iter().map(|v| v.rule).collect();
    assert_eq!(
        rules_hit,
        vec!["no-panic-allow-in-libs", "waiver-ledger", "waiver-ledger"],
        "{:#?}",
        report.diagnostics
    );
    assert!(report.diagnostics.iter().any(|v| v.msg.contains("expired")));
    assert!(report
        .diagnostics
        .iter()
        .any(|v| v.msg.contains("suppresses nothing")));
}

#[test]
fn ws_waivers_ok_fixture_passes_with_a_used_waiver() {
    let report = driver::run_check_at(&fixtures().join("ws_waivers_ok"), "2026-08-08").unwrap();
    assert!(report.ok(), "{:#?}", report.diagnostics);
    assert_eq!(report.waivers_total, 1);
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn real_workspace_scan_scope_covers_tests_and_examples() {
    let ws = Workspace::load(&repo_root()).unwrap();
    let paths: Vec<String> = ws
        .files
        .iter()
        .map(|f| f.path.display().to_string())
        .collect();
    for must in [
        "src/lib.rs",
        "tests/pipeline.rs",
        "examples/quickstart.rs",
        "crates/core/tests/obs_purity.rs",
        "crates/geom/src/dominance.rs",
        "crates/rtree/tests/rtree_tests.rs",
    ] {
        assert!(paths.iter().any(|p| p == must), "scan misses {must}");
    }
    assert!(
        !paths.iter().any(|p| p.starts_with("crates/xtask")),
        "the analyzer's own crate (fixture corpus!) must not be scanned"
    );
    assert!(
        ws.files.len() >= 100,
        "scan scope shrank: only {} files",
        ws.files.len()
    );
    assert_eq!(ws.manifests.len(), 12, "one manifest per scanned package");
}

#[test]
fn real_workspace_passes_the_full_check() {
    let report = driver::run_check(&repo_root()).unwrap();
    assert!(
        report.ok(),
        "the repository violates its own rules:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
