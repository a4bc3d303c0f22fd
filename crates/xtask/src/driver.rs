//! The check driver: load the workspace, run every rule, apply the
//! waiver ledger, and render the report (human or JSON).

use crate::model::Workspace;
use crate::rules::{self, Violation};
use crate::waivers;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Relative path of the waiver ledger at the scan root.
pub const LEDGER_PATH: &str = "xtask.waivers.toml";

/// The outcome of one full `check` run.
#[derive(Debug)]
pub struct CheckReport {
    /// Number of Rust source files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests_scanned: usize,
    /// Surviving diagnostics (waived ones removed, ledger problems added),
    /// sorted by path/line/rule.
    pub diagnostics: Vec<Violation>,
    /// Well-formed entries in the waiver ledger.
    pub waivers_total: usize,
    /// Ledger entries that suppressed at least one diagnostic.
    pub waivers_used: usize,
}

impl CheckReport {
    /// Whether the check passes.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs the full check rooted at `root`, with waiver expiry judged
/// against the system clock.
pub fn run_check(root: &Path) -> io::Result<CheckReport> {
    run_check_at(root, &waivers::today())
}

/// Runs the full check with an explicit `today` (ISO `YYYY-MM-DD`) so
/// expiry behaviour is testable deterministically.
pub fn run_check_at(root: &Path, today: &str) -> io::Result<CheckReport> {
    let ws = Workspace::load(root)?;
    let mut diags = rules::run_all(&ws);
    let ledger_file = root.join(LEDGER_PATH);
    let (total, used) = if ledger_file.is_file() {
        let text = fs::read_to_string(&ledger_file)?;
        let (ledger, mut malformed) = waivers::parse(LEDGER_PATH, &text);
        let total = ledger.waivers.len();
        let (mut kept, used) = waivers::apply(&ledger, LEDGER_PATH, today, diags);
        kept.append(&mut malformed);
        diags = kept;
        (total, used)
    } else {
        (0, 0)
    };
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(CheckReport {
        files_scanned: ws.files.len(),
        manifests_scanned: ws.manifests.len(),
        diagnostics: diags,
        waivers_total: total,
        waivers_used: used,
    })
}

/// Renders the report for terminals: one `path:line: [rule] msg` line per
/// diagnostic plus a summary.
pub fn render_human(report: &CheckReport) -> String {
    let mut out = String::new();
    for v in &report.diagnostics {
        let _ = writeln!(out, "{v}");
    }
    if report.ok() {
        let _ = writeln!(
            out,
            "xtask check: OK ({} files, {} manifests scanned; {}/{} waivers in use)",
            report.files_scanned,
            report.manifests_scanned,
            report.waivers_used,
            report.waivers_total
        );
    } else {
        let _ = writeln!(
            out,
            "xtask check: {} diagnostic(s) across {} files / {} manifests",
            report.diagnostics.len(),
            report.files_scanned,
            report.manifests_scanned
        );
    }
    out
}

/// Renders the report as a single JSON object for CI consumption.
pub fn render_json(report: &CheckReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"xtask-check\",\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(
        out,
        "  \"manifests_scanned\": {},",
        report.manifests_scanned
    );
    let _ = writeln!(
        out,
        "  \"waivers\": {{\"total\": {}, \"used\": {}}},",
        report.waivers_total, report.waivers_used
    );
    if report.diagnostics.is_empty() {
        out.push_str("  \"diagnostics\": [],\n");
    } else {
        out.push_str("  \"diagnostics\": [\n");
        for (i, v) in report.diagnostics.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"msg\": {}}}",
                json_str(&v.path),
                v.line,
                json_str(v.rule),
                json_str(&v.msg)
            );
            out.push_str(if i + 1 < report.diagnostics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
    }
    let _ = writeln!(out, "  \"ok\": {}", report.ok());
    out.push_str("}\n");
    out
}

/// JSON string literal with the required escapes (std-only, no serde).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the `explain` page for one rule.
pub fn render_explain(rule: &rules::Rule) -> String {
    let driven = match rule.run {
        rules::Run::PerFile(_) => "per-file token-stream pass",
        rules::Run::Workspace(_) => "workspace pass (all files + manifests)",
        rules::Run::Ledger => "ledger validation in the check driver",
    };
    format!(
        "{id}\n{underline}\n{summary}\n\n  scope:  {scope}\n  driven: {driven}\n\n  why:    {intent}\n\n  waiver: {waiver}\n",
        id = rule.id,
        underline = "=".repeat(rule.id.len()),
        summary = rule.summary,
        scope = rule.scope,
        intent = rule.intent,
        waiver = rule.waiver,
    )
}

#[cfg(test)]
mod tests {
    use super::{json_str, render_json, CheckReport};
    use crate::rules::Violation;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn clean_report_renders_empty_array_and_ok_true() {
        let r = CheckReport {
            files_scanned: 42,
            manifests_scanned: 12,
            diagnostics: Vec::new(),
            waivers_total: 0,
            waivers_used: 0,
        };
        let j = render_json(&r);
        assert!(j.contains("\"tool\": \"xtask-check\""));
        assert!(j.contains("\"files_scanned\": 42"));
        assert!(j.contains("\"diagnostics\": []"));
        assert!(j.contains("\"ok\": true"));
    }

    #[test]
    fn dirty_report_renders_diagnostics_and_ok_false() {
        let r = CheckReport {
            files_scanned: 1,
            manifests_scanned: 1,
            diagnostics: vec![Violation {
                path: "a.rs".to_string(),
                line: 3,
                rule: "no-float-eq-in-kernels",
                msg: "said \"so\"".to_string(),
            }],
            waivers_total: 0,
            waivers_used: 0,
        };
        let j = render_json(&r);
        assert!(j.contains("\"rule\": \"no-float-eq-in-kernels\""));
        assert!(j.contains("\\\"so\\\""));
        assert!(j.contains("\"ok\": false"));
    }
}
