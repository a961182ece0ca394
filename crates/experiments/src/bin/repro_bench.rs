//! `repro-bench` — the perf-trajectory harness.
//!
//! Runs the standardized scenario matrix (trace generation, functional
//! prediction per predictor, the timing model, and an end-to-end table
//! regeneration), prints per-scenario throughput, and writes a
//! machine-readable `BENCH_<n>.json` snapshot. With `--baseline` it
//! also diffs the fresh run against a prior snapshot and fails on
//! throughput regressions, which CI uses as a perf gate.
//!
//! ```text
//! repro-bench [--iters N] [--warmup N] [--scale quick|standard|full]
//!             [--out DIR] [--baseline FILE] [--tolerance PCT]
//! ```
//!
//! Exit status: `0` — ran (and, with `--baseline`, no regressions);
//! `1` — the regression gate tripped; `2` — operator error (bad flag,
//! unreadable baseline, bad `REPRO_*` value).
//!
//! Environment: `REPRO_SCALE` (overridden by `--scale`),
//! `REPRO_TELEMETRY` (default `summary` here), `REPRO_PROF` (phase
//! breakdowns need spans on).

use experiments::perf::{self, BenchConfig, BenchReport};
use experiments::{telemetry, Scale};
use std::path::PathBuf;
use std::process::exit;
use std::time::{SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: repro-bench [--iters N] [--warmup N] [--scale quick|standard|full] \
                     [--out DIR] [--baseline FILE] [--tolerance PCT]";

fn operator_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    exit(2)
}

struct Args {
    iters: u32,
    warmup: u32,
    scale: Option<Scale>,
    out: PathBuf,
    baseline: Option<PathBuf>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 3,
        warmup: 1,
        scale: None,
        out: PathBuf::from("."),
        baseline: None,
        tolerance: 25.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| operator_error(&format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--iters" => {
                args.iters = value("--iters")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| operator_error("--iters expects a positive integer"));
            }
            "--warmup" => {
                args.warmup = value("--warmup")
                    .parse()
                    .unwrap_or_else(|_| operator_error("--warmup expects a non-negative integer"));
            }
            "--scale" => {
                args.scale =
                    Some(Scale::parse(&value("--scale")).unwrap_or_else(|e| operator_error(&e)));
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline"))),
            "--tolerance" => {
                args.tolerance = value("--tolerance")
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        operator_error("--tolerance expects a non-negative percentage")
                    });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => operator_error(&format!("unrecognized flag {other:?}")),
        }
    }
    args
}

fn main() {
    let knobs = experiments::knobs::get();
    let args = parse_args();
    let scale = args.scale.unwrap_or(knobs.scale);
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        operator_error(&format!("cannot create {}: {e}", args.out.display()));
    }

    // Keep the session alive across the whole matrix so span-based phase
    // breakdowns accumulate; its manifest is a bonus artifact. Unlike the
    // table binaries, telemetry defaults to `summary` here — the BENCH
    // snapshot's per-phase breakdowns come from the span registry — but an
    // explicit `REPRO_TELEMETRY=off` still wins.
    let mut tconfig = knobs.telemetry.clone();
    if !knobs.given.contains(&"REPRO_TELEMETRY") {
        tconfig.mode = telemetry::TelemetryMode::Summary;
    }
    let session = telemetry::session_with_config("repro-bench", scale, tconfig);
    let ctx = session.ctx();

    let config = BenchConfig {
        scale,
        warmup: args.warmup,
        iters: args.iters,
    };
    println!(
        "repro-bench: scale {}  warmup {}  iters {}\n",
        scale.name(),
        args.warmup,
        args.iters,
    );
    let scenarios = perf::run_matrix(&ctx, &config, perf::scenario_matrix(&ctx, scale), |r| {
        println!(
            "  {:<24} median {:>10.3} ms   {:>8.2} M instr/s",
            r.name,
            r.median_ns as f64 / 1e6,
            r.instr_per_sec() / 1e6,
        );
    });

    let report = BenchReport {
        git_rev: perf::git_rev(),
        scale: scale.name().to_string(),
        warmup: args.warmup,
        iters: args.iters,
        unix_secs: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        scenarios,
    };
    let path = perf::next_bench_path(&args.out);
    if let Err(e) = sim_telemetry::atomic_write_str(&path, &format!("{}\n", report.to_json())) {
        operator_error(&format!("cannot write {}: {e}", path.display()));
    }
    println!("\nwrote {}", path.display());

    let Some(baseline_path) = args.baseline else {
        return;
    };
    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        operator_error(&format!(
            "cannot read baseline {}: {e}",
            baseline_path.display()
        ))
    });
    let baseline = BenchReport::parse(&text)
        .unwrap_or_else(|e| operator_error(&format!("baseline {}: {e}", baseline_path.display())));
    let regressions = perf::gate(&report, &baseline, args.tolerance);
    if regressions.is_empty() {
        println!(
            "gate: ok — no scenario regressed more than {}% vs {} ({})",
            args.tolerance,
            baseline_path.display(),
            baseline.git_rev,
        );
        return;
    }
    eprintln!(
        "error: {} scenario(s) regressed more than {}% vs {} ({}):",
        regressions.len(),
        args.tolerance,
        baseline_path.display(),
        baseline.git_rev,
    );
    for r in &regressions {
        eprintln!(
            "  {:<24} {:.3} ms -> {:.3} ms (+{:.0}%)",
            r.scenario,
            r.baseline_ns as f64 / 1e6,
            r.current_ns as f64 / 1e6,
            r.pct,
        );
    }
    exit(1);
}
