//! Misprediction viewer: the top-N mispredicting indirect branches per
//! benchmark, plus manifest-backed perf and cell views.
//!
//! Modes:
//!
//! * `telemetry-report <run.events.jsonl>...` — aggregate previously
//!   captured event streams (written by any table binary run with
//!   `REPRO_TELEMETRY=events`);
//! * `telemetry-report` with no file arguments — run every benchmark
//!   through the paper's canonical target-cache front end live, with
//!   event capture forced on, at the `REPRO_SCALE` scale;
//! * `telemetry-report --perf <run.manifest.json>...` — throughput
//!   accounting: aggregate and per-run instructions/sec and
//!   predictions/sec, hot-path phase totals, and span self/total times;
//! * `telemetry-report --cells <run.manifest.json>...` — the job-runner
//!   cell view: outcome, attempts, wall time, simulated instructions,
//!   and per-cell throughput;
//! * `telemetry-report --progress <run.jsonl>...` — post-mortem of a
//!   campaign log: per-cell timeline, slowest cells, and the retry
//!   histogram (`repro-top` is the live view over the same log). A log
//!   the parser refuses exits 2.
//!
//! `--top N` changes how many sites are shown per benchmark (default
//! 10); under `--progress` it bounds the slowest-cells list.

use std::path::PathBuf;

enum View {
    Events,
    Perf,
    Cells,
    Progress,
}

fn main() {
    let knobs = experiments::knobs::get();
    let mut top_n = 10usize;
    let mut view = View::Events;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--top requires a value");
                    std::process::exit(2);
                });
                top_n = v.parse().unwrap_or_else(|_| {
                    eprintln!("--top requires a number, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--perf" => view = View::Perf,
            "--cells" => view = View::Cells,
            "--progress" => view = View::Progress,
            "--help" | "-h" => {
                eprintln!(
                    "usage: telemetry-report [--top N] [events.jsonl ...]\n\
                            telemetry-report --perf <run.manifest.json>...\n\
                            telemetry-report --cells <run.manifest.json>...\n\
                            telemetry-report --progress <run.jsonl>..."
                );
                return;
            }
            _ => files.push(PathBuf::from(a)),
        }
    }

    match view {
        View::Events => {
            if files.is_empty() {
                print!(
                    "{}",
                    experiments::telemetry::live_report(knobs.scale, top_n, &knobs.telemetry.dir)
                );
                return;
            }
            for f in &files {
                println!("# {}", f.display());
                match experiments::telemetry::report_from_file(f, top_n) {
                    Ok(report) => print!("{report}"),
                    Err(e) => {
                        eprintln!("error reading {}: {e}", f.display());
                        std::process::exit(1);
                    }
                }
            }
        }
        View::Progress => {
            if files.is_empty() {
                eprintln!("error: --progress needs at least one campaign log (run.jsonl) path");
                std::process::exit(2);
            }
            for f in &files {
                println!("# {}", f.display());
                match sim_telemetry::read_events(f) {
                    Ok(log) => print!(
                        "{}",
                        experiments::watch::CampaignStatus::from_log(&log).render_timeline(top_n)
                    ),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        View::Perf | View::Cells => {
            if files.is_empty() {
                eprintln!("error: --perf/--cells need at least one run.manifest.json path");
                std::process::exit(2);
            }
            for f in &files {
                let rendered = match view {
                    View::Perf => experiments::telemetry::perf_report_from_manifest(f),
                    _ => experiments::telemetry::cells_report_from_manifest(f),
                };
                match rendered {
                    Ok(report) => print!("{report}"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }
}
