//! `trace-viz` — operator tooling for Chrome trace exports.
//!
//! ```text
//! trace-viz verify  <trace.json>...          strict-validate each export
//! trace-viz summary <trace.json>...          one-line summary per export
//! trace-viz merge   -o OUT <trace.json>...   merge into one document
//! ```
//!
//! Campaigns write `results/traceviz/<run-id>.trace.json` when
//! `REPRO_TRACE_EXPORT=chrome` is set; the files load directly into
//! Perfetto / `chrome://tracing`. `verify` re-runs the same strict
//! checker the test suite uses (required fields per phase, matched
//! `B`/`E` nesting, non-decreasing `ts` per lane) so CI can gate on
//! exports staying loadable. `merge` remaps each input's `pid` to a
//! distinct value so several campaigns render side by side.
//!
//! Exit status: `0` — all inputs valid; `1` — a trace failed
//! verification; `2` — operator error (bad flag, unreadable file,
//! not JSON).

use sim_telemetry::json::{parse, Json};
use sim_telemetry::{fsio, traceviz};
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "usage: trace-viz <verify|summary|merge> [-o OUT] <trace.json>...";

fn operator_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    exit(2)
}

/// Reads and parses one trace document, treating unreadable or
/// non-JSON inputs as operator errors (they are not "invalid traces" —
/// they are not traces at all).
fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| operator_error(&format!("cannot read {}: {e}", path.display())));
    parse(&text).unwrap_or_else(|e| operator_error(&format!("{} is not JSON: {e}", path.display())))
}

fn summarize(path: &Path, s: &traceviz::TraceSummary) -> String {
    format!(
        "{}: {} events ({} complete, {} instants, {} span pairs) on {} lanes, {:.3}ms span{}{}",
        path.display(),
        s.events,
        s.complete,
        s.instants,
        s.durations,
        s.lanes,
        s.span_us as f64 / 1_000.0,
        s.run
            .as_deref()
            .map(|r| format!(", run {r}"))
            .unwrap_or_default(),
        s.trace_id
            .as_deref()
            .map(|t| format!(", trace {t}"))
            .unwrap_or_default(),
    )
}

fn main() {
    experiments::knobs::get();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        operator_error("a subcommand is required");
    };
    if command == "-h" || command == "--help" {
        println!("{USAGE}");
        return;
    }

    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| operator_error("-o requires an output path"));
                out = Some(PathBuf::from(v));
            }
            other if other.starts_with('-') => {
                operator_error(&format!("unrecognized flag {other:?}"))
            }
            path => inputs.push(PathBuf::from(path)),
        }
    }
    if inputs.is_empty() {
        operator_error("at least one trace.json input is required");
    }

    match command.as_str() {
        "verify" | "summary" => {
            if out.is_some() {
                operator_error(&format!("{command} does not take -o"));
            }
            let mut failed = false;
            for path in &inputs {
                match traceviz::validate(&load(path)) {
                    Ok(summary) => {
                        if command == "summary" {
                            println!("{}", summarize(path, &summary));
                        } else {
                            println!("{}: ok ({} events)", path.display(), summary.events);
                        }
                    }
                    Err(why) => {
                        eprintln!("{}: INVALID: {why}", path.display());
                        failed = true;
                    }
                }
            }
            if failed {
                exit(1);
            }
        }
        "merge" => {
            let docs: Vec<Json> = inputs.iter().map(|p| load(p)).collect();
            let merged = match traceviz::merge(&docs) {
                Ok(doc) => doc,
                Err(why) => {
                    eprintln!("merge failed: {why}");
                    exit(1);
                }
            };
            // Merging preserves validity by construction; check anyway so
            // a checker regression can never ship an unloadable file.
            if let Err(why) = traceviz::validate(&merged) {
                eprintln!("merged document fails verification: {why}");
                exit(1);
            }
            let mut text = merged.to_pretty_string();
            text.push('\n');
            match out {
                Some(path) => {
                    fsio::atomic_write_str(&path, &text).unwrap_or_else(|e| {
                        operator_error(&format!("cannot write {}: {e}", path.display()))
                    });
                    println!("merged {} trace(s) into {}", inputs.len(), path.display());
                }
                None => print!("{text}"),
            }
        }
        other => operator_error(&format!("unrecognized subcommand {other:?}")),
    }
}
