//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro <fig10|fig11|fig12|fig13|fig14|fig16|motivation|all> [options]
//!   --paper-scale      Table 2 defaults (n=100k, m_d=40, 100 queries)
//!   --n <N>            object count override
//!   --md <M>           instances per object override
//!   --mq <M>           query instances override
//!   --queries <Q>      workload size override
//!   --param <axis>     fig11/fig13 axis: md | hd | mq | hq | n | d
//!   --out-dir <DIR>    also write each table as CSV under DIR
//!   --threads <T>      fig10 batch worker threads
//! ```

// Leaf binary/bench: panic-family lints relaxed (see workspace policy).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_bench::{
    fig10_with_threads, fig11_13, fig12, fig14, fig16, motivation, Report, Scale, SweepParam,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return;
    }
    let cmd = args[0].as_str();
    let paper = args.iter().any(|a| a == "--paper-scale");
    let mut scale = if paper {
        Scale::paper()
    } else {
        Scale::laptop()
    };
    let mut param: Option<SweepParam> = None;
    let mut report = Report::stdout();
    let mut threads = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--paper-scale" => {}
            "--n" => {
                scale.n = next_val(&args, &mut i);
            }
            "--md" => {
                scale.m_d = next_val(&args, &mut i);
            }
            "--mq" => {
                scale.m_q = next_val(&args, &mut i);
            }
            "--queries" => {
                scale.queries = next_val(&args, &mut i);
            }
            "--threads" => {
                threads = next_val(&args, &mut i).max(1);
            }
            "--out-dir" => {
                report = Report::with_csv(next_arg(&args, &mut i, "a directory"));
            }
            "--param" => {
                let axis = next_arg(&args, &mut i, "an axis");
                param = SweepParam::parse(axis);
                if param.is_none() {
                    eprintln!("unknown --param {axis}");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    match cmd {
        "fig10" => fig10_with_threads(&scale, &report, threads),
        "fig12" => fig12(&scale, &report),
        "fig11" | "fig13" => match param {
            Some(p) => fig11_13(p, &scale, paper, &report),
            None => {
                for p in SweepParam::ALL {
                    fig11_13(p, &scale, paper, &report);
                }
            }
        },
        "fig14" => fig14(&scale, &report),
        "motivation" => motivation(&scale, &report),
        "fig16" => fig16(&scale, paper, &report),
        "all" => {
            fig10_with_threads(&scale, &report, threads);
            fig12(&scale, &report);
            for p in SweepParam::ALL {
                fig11_13(p, &scale, paper, &report);
            }
            fig14(&scale, &report);
            fig16(&scale, paper, &report);
        }
        other => {
            eprintln!("unknown figure {other}");
            usage();
            std::process::exit(2);
        }
    }
}

/// The value after the flag at `args[*i]`, advancing `i` past it; exits 2
/// when the flag is the last argument.
fn next_arg<'a>(args: &'a [String], i: &mut usize, what: &str) -> &'a str {
    *i += 1;
    args.get(*i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("expected {what} after {}", args[*i - 1]);
        std::process::exit(2);
    })
}

fn next_val(args: &[String], i: &mut usize) -> usize {
    let flag = *i;
    next_arg(args, i, "a number").parse().unwrap_or_else(|_| {
        eprintln!("expected a number after {}", args[flag]);
        std::process::exit(2);
    })
}

fn usage() {
    eprintln!(
        "usage: repro <fig10|fig11|fig12|fig13|fig14|fig16|motivation|all> \
         [--paper-scale] [--n N] [--md M] [--mq M] [--queries Q] \
         [--param md|hd|mq|hq|n|d] [--out-dir DIR] [--threads T]"
    );
}
