//! `bench-report` — the cross-run perf trajectory.
//!
//! ```text
//! bench-report [OPTIONS] [FILE...]
//! ```
//!
//! With no file arguments the snapshot set is discovered under `--dir`
//! (default `.`): `BENCH_baseline.json` first, then every
//! `BENCH_<n>.json` in numeric order. Explicit file arguments are taken
//! in the given order, labelled by file stem.
//!
//! ```text
//! options:
//!   --dir DIR         snapshot directory (default .)
//!   --tolerance PCT   REG-flag threshold, percent slower than the first
//!                     snapshot (default 25)
//!   --out FILE        also write the rendered table to FILE
//!   --json            print the trajectory as JSON instead of a table
//!   -h, --help        this message
//! ```
//!
//! Exit status: `0` — trajectory rendered (regressions are *flagged*,
//! not fatal; the hard gate is `repro-bench --baseline`); `2` —
//! operator error.

use experiments::bench_report;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str =
    "usage: bench-report [--dir DIR] [--tolerance PCT] [--out FILE] [--json] [FILE...]";

fn operator_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    exit(2)
}

fn main() {
    experiments::knobs::get();
    let mut dir = PathBuf::from(".");
    let mut tolerance = 25.0f64;
    let mut out: Option<PathBuf> = None;
    let mut json = false;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| operator_error("--dir requires a directory"));
                dir = PathBuf::from(v);
            }
            "--tolerance" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| operator_error("--tolerance requires a percentage"));
                tolerance = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        operator_error("--tolerance expects a non-negative percentage")
                    });
            }
            "--out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| operator_error("--out requires a file path"));
                out = Some(PathBuf::from(v));
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other if other.starts_with('-') => {
                operator_error(&format!("unrecognized flag {other:?}"))
            }
            path => files.push(PathBuf::from(path)),
        }
    }

    let snapshots = if files.is_empty() {
        bench_report::collect(&dir).unwrap_or_else(|e| operator_error(&e))
    } else {
        files
            .iter()
            .map(|path| {
                let label = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("snapshot")
                    .to_string();
                bench_report::load(path, &label).unwrap_or_else(|e| operator_error(&e))
            })
            .collect()
    };

    let rendered = if json {
        format!(
            "{}\n",
            bench_report::to_json(&snapshots, tolerance).to_pretty_string()
        )
    } else {
        bench_report::render(&snapshots, tolerance)
    };
    // A closed pipe (`bench-report | head`) is a normal exit, but it
    // must not skip the --out artifact.
    {
        use std::io::Write;
        let _ = std::io::stdout().write_all(rendered.as_bytes());
        let _ = std::io::stdout().flush();
    }
    if let Some(path) = out {
        if let Err(e) = sim_telemetry::atomic_write_str(&path, &rendered) {
            operator_error(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
}
