//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro <fig10|fig11|fig12|fig13|fig14|fig16|motivation|throughput|kernels|mutate|trace|all> [options]
//!   --paper-scale      Table 2 defaults (n=100k, m_d=40, 100 queries)
//!   --n <N>            object count override
//!   --md <M>           instances per object override
//!   --mq <M>           query instances override
//!   --queries <Q>      workload size override
//!   --param <axis>     fig11/fig13 axis: md | hd | mq | hq | n | d
//! ```

// Leaf binary/bench: panic-family lints relaxed (see workspace policy).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_bench::{
    fig10_with_threads, fig11_13, fig12, fig14, fig16, kernels, motivation, throughput, Report,
    Scale, SweepParam,
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
    let mut threads_list: Vec<usize> = vec![1, 2, 4, 8];
    let mut json: Option<String> = None;
    let mut smoke = false;
    let mut shards = 8usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--paper-scale" => {}
            "--smoke" => {
                smoke = true;
            }
            "--shards" => {
                shards = next_val(&args, &mut i).max(1);
            }
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
            "--threads-list" => {
                i += 1;
                let parsed: Option<Vec<usize>> = args
                    .get(i)
                    .map(|v| v.split(',').map(|t| t.parse().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(list) if !list.is_empty() => threads_list = list,
                    _ => {
                        eprintln!("expected a comma-separated list after --threads-list");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json = Some(path.clone()),
                    None => {
                        eprintln!("expected a path after --json");
                        std::process::exit(2);
                    }
                }
            }
            "--out-dir" => {
                i += 1;
                report = Report::with_csv(args[i].clone());
            }
            "--param" => {
                i += 1;
                param = SweepParam::parse(&args[i]);
                if param.is_none() {
                    eprintln!("unknown --param {}", args[i]);
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
        "throughput" => throughput(&scale, &threads_list, json.as_deref()),
        "kernels" => {
            // Smoke runs are assertion-only: never clobber the measured
            // artifact unless a path was asked for explicitly.
            let json = match (&json, smoke) {
                (Some(path), _) => Some(path.as_str()),
                (None, false) => Some("BENCH_kernels.json"),
                (None, true) => None,
            };
            kernels(&scale, smoke, json);
        }
        "mutate" => {
            // Like kernels: smoke runs are assertion-only and never
            // clobber the measured artifact unless a path was given.
            let json = match (&json, smoke) {
                (Some(path), _) => Some(path.as_str()),
                (None, false) => Some("BENCH_mutate.json"),
                (None, true) => None,
            };
            osd_bench::mutate::mutate(shards, threads.max(2), smoke, json);
        }
        "trace" => {
            // Like kernels/mutate: smoke runs are assertion-only and
            // never clobber the measured artifact unless a path was given.
            let json = match (&json, smoke) {
                (Some(path), _) => Some(path.as_str()),
                (None, false) => Some("BENCH_trace.json"),
                (None, true) => None,
            };
            osd_bench::trace::trace(&scale, smoke, json);
        }
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

fn next_val(args: &[String], i: &mut usize) -> usize {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("expected a number after {}", args[*i - 1]);
            std::process::exit(2);
        })
}

fn usage() {
    eprintln!(
        "usage: repro <fig10|fig11|fig12|fig13|fig14|fig16|motivation|throughput|kernels|mutate|trace|all> \
         [--paper-scale] [--n N] [--md M] [--mq M] [--queries Q] \
         [--param md|hd|mq|hq|n|d] [--out-dir DIR] [--threads T] \
         [--threads-list 1,2,4,8] [--shards S] [--json PATH] [--smoke]"
    );
}
