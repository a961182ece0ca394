//! `repro-soak` — adversarial soak harness for `repro-serve`.
//!
//! ```text
//! repro-soak --serve-bin target/release/repro-serve [OPTIONS]
//! repro-soak --addr 127.0.0.1:7877 [OPTIONS]
//! ```
//!
//! Spawns (or attaches to) a daemon and storms it with N concurrent
//! clients mixing well-behaved requests, mid-campaign cancels,
//! slow-loris connections, and mid-body disconnects, then asserts the
//! robustness invariants: every request terminal, namespaces private,
//! warm trace store (`misses == 0`), 429 shedding when expected, no
//! thread/fd leaks, and a clean SIGTERM drain (exit 0).
//!
//! ```text
//! options:
//!   --serve-bin PATH   spawn this repro-serve on an ephemeral port
//!   --addr ADDR        attach to a daemon already listening (skips the
//!                      leak and drain checks, which need the pid)
//!   --clients N        concurrent synthetic clients (default 4)
//!   --requests N       total requests across clients (default 16)
//!   --scale S          quick|standard|full (default quick)
//!   --experiment NAME  registry experiment to request (default table2)
//!   --bench LABEL      benchmark subset; repeatable (default perl)
//!   --queue N          spawned daemon's admission queue (default 4)
//!   --faults PLAN      spawned daemon's REPRO_FAULTS plan
//!   --report PATH      write the JSON soak report here
//!   --root DIR         scratch root (default under the temp dir)
//!   --seed N           behaviour-mix seed (default 7)
//!   --no-shed          don't require a 429 to have been observed
//!   -h, --help         this message
//! ```
//!
//! Exit status: `0` — all invariants held; `1` — violations (listed on
//! stderr and in the report); `2` — operator error.

use experiments::runner::Scale;
use experiments::serve::{run_soak, SoakConfig};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: repro-soak (--serve-bin PATH | --addr ADDR) [--clients N] \
     [--requests N] [--scale S] [--experiment NAME] [--bench LABEL]... [--queue N] \
     [--faults PLAN] [--report PATH] [--root DIR] [--seed N] [--no-shed]";

fn operator_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    exit(2)
}

fn parse_args() -> SoakConfig {
    let mut config = SoakConfig::default();
    let mut benches: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| operator_error(&format!("{flag} requires a value")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--serve-bin" => config.serve_bin = Some(PathBuf::from(value(&mut it, "--serve-bin"))),
            "--addr" => config.addr = Some(value(&mut it, "--addr")),
            "--clients" => config.clients = parse_count(&value(&mut it, "--clients"), "--clients"),
            "--requests" => {
                config.requests = parse_count(&value(&mut it, "--requests"), "--requests")
            }
            "--scale" => {
                config.scale =
                    Scale::parse(&value(&mut it, "--scale")).unwrap_or_else(|e| operator_error(&e))
            }
            "--experiment" => config.experiment = value(&mut it, "--experiment"),
            "--bench" => benches.push(value(&mut it, "--bench")),
            "--queue" => config.queue = parse_count(&value(&mut it, "--queue"), "--queue"),
            "--faults" => config.faults = Some(value(&mut it, "--faults")),
            "--report" => config.report = Some(PathBuf::from(value(&mut it, "--report"))),
            "--root" => config.root = Some(PathBuf::from(value(&mut it, "--root"))),
            "--seed" => {
                config.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| operator_error("--seed expects an integer"))
            }
            "--no-shed" => config.expect_shed = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => operator_error(&format!("unrecognized argument {other:?}")),
        }
    }
    if !benches.is_empty() {
        config.benchmarks = benches;
    }
    if config.addr.is_none() && config.serve_bin.is_none() {
        operator_error("need --serve-bin or --addr");
    }
    config
}

fn parse_count(v: &str, flag: &str) -> usize {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| operator_error(&format!("{flag} expects a positive integer")))
}

fn main() {
    experiments::knobs::get();
    let config = parse_args();
    let report = run_soak(&config).unwrap_or_else(|e| operator_error(&e));
    println!(
        "soak: {} admitted ({} done, {} failed, {} cancelled), {} shed with 429, \
         {} slow-loris, {} mid-body disconnects",
        report.admitted,
        report.done,
        report.failed,
        report.cancelled,
        report.shed_429,
        report.loris,
        report.midbody
    );
    if report.passed() {
        println!("soak: all invariants held");
        exit(0);
    }
    eprintln!("soak: {} invariant violation(s):", report.violations.len());
    for v in &report.violations {
        eprintln!("  - {v}");
    }
    exit(1);
}
