//! `osdbench` — the end-to-end and per-layer benchmark of the osd
//! workspace.
//!
//! ```text
//! osdbench --workload <psd-hot|ssd-cold|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced per-layer breakdown. `--seconds` sizes the
//! run's work (about that many seconds of measuring on a 2-CPU host); the
//! seed draws the order of the requests and of the write script. Either way every answer
//! is checked, and the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod calib;
mod e2e;
mod layers;
mod phases;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;
use workload::Workload;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(12.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("osdbench: {e}");
            eprintln!(
                "usage: osdbench --workload <psd-hot|ssd-cold|churn> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(report) => {
            report.print(&provenance(&args));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("osdbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One JSON line naming what produced the numbers, so runs from two hosts
/// or two builds are visibly different runs.
fn provenance(args: &Args) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let features = if osd_core::QueryMetrics::enabled() {
        "osd-core/obs"
    } else {
        ""
    };
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {}, \"features\": \"{features}\", \
         \"profile\": \"{profile}\", \"revision\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        phases::nproc(),
        revision()
    )
}

/// The git revision when run from a work tree, suffixed `-dirty` when it
/// has uncommitted changes; else a digest of the sources the benchmark
/// builds (a benchmark checkout is not a git repository).
fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !rev.is_empty() {
            return format!("git:{rev}");
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "osdbench"] {
        collect(std::path::Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over every path and its bytes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("tree:{h:016x}")
}

/// Source files under `path`, skipping build outputs.
fn collect(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                collect(&p, out);
            }
        }
    }
}
