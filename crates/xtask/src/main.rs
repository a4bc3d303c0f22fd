//! `xtask` — repo-specific developer tooling.
//!
//! ```text
//! cargo run -p xtask -- check [--root <path>] [--format human|json]
//! cargo run -p xtask -- explain <rule>
//! cargo run -p xtask -- list
//! ```
//!
//! `check` lexes every scanned source file into a Rust token stream and
//! runs the full rule registry over it (see `xtask::rules` or DESIGN.md
//! §6.2 for the rules and their intent). Diagnostics print as
//! `file:line: [rule] message` lines (or one JSON object with
//! `--format json`); the exit status is nonzero iff any diagnostic
//! survives the waiver ledger. `explain <rule>` prints a rule's scope,
//! intent and waiver policy straight from the registry.

use std::fmt::Display;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{driver, rules};

const USAGE: &str = "usage: cargo run -p xtask -- <command>\n\
commands:\n  \
  check [--root <path>] [--format human|json] [--explain <rule>]\n  \
  explain <rule>\n  \
  list";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return fail(USAGE);
    };
    match cmd.as_str() {
        "check" => run_check(args),
        "explain" => match args.next() {
            Some(rule) => explain(&rule),
            None => fail("explain needs a rule id; `list` shows them all"),
        },
        "list" => {
            let list: String = rules::registry()
                .iter()
                .map(|rule| format!("{:<28} {}\n", rule.id, rule.summary))
                .collect();
            emit(&list, ExitCode::SUCCESS)
        }
        other => fail(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}

/// Writes `text` to stdout and exits with `code`; a closed pipe
/// (`xtask list | head`) just ends the output.
fn emit(text: &str, code: ExitCode) -> ExitCode {
    let _ = io::stdout().lock().write_all(text.as_bytes());
    code
}

/// Reports `msg` on stderr and exits with failure.
fn fail(msg: impl Display) -> ExitCode {
    let _ = writeln!(io::stderr().lock(), "{msg}");
    ExitCode::FAILURE
}

fn run_check(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return fail("--root needs a path argument"),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => json = false,
                Some("json") => json = true,
                _ => return fail("--format needs `human` or `json`"),
            },
            "--explain" => {
                return match args.next() {
                    Some(rule) => explain(&rule),
                    None => fail("--explain needs a rule id; `list` shows them all"),
                };
            }
            other => return fail(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }

    // A wrong --root would otherwise scan zero files and "pass".
    if !root.join("Cargo.toml").is_file() {
        return fail(format!(
            "xtask check: `{}` is not a workspace root (no Cargo.toml)",
            root.display()
        ));
    }

    match driver::run_check(&root) {
        Ok(report) => {
            let text = if json {
                driver::render_json(&report)
            } else {
                driver::render_human(&report)
            };
            let code = if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
            emit(&text, code)
        }
        Err(e) => fail(format!("xtask check: {e}")),
    }
}

fn explain(rule_id: &str) -> ExitCode {
    match rules::find(rule_id) {
        Some(rule) => emit(&driver::render_explain(rule), ExitCode::SUCCESS),
        None => fail(format!(
            "unknown rule `{rule_id}`; `list` shows all {}",
            rules::registry().len()
        )),
    }
}
