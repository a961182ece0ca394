//! `repro-top` — live campaign status from a campaign log.
//!
//! ```text
//! repro-top [OPTIONS] [run.jsonl]
//! ```
//!
//! With no file argument the newest campaign log (`*.jsonl`) under the
//! journal directory is used — i.e. "show me the campaign that is
//! running right now". One-shot by default; `--follow` redraws until
//! the campaign finishes (plain ANSI, no terminal library).
//!
//! ```text
//! options:
//!   --dir DIR       campaign log directory to search (default: the
//!                   configured REPRO_JOURNAL_DIR, else results/journal)
//!   --follow        redraw until campaign-finished appears
//!   --strict        with --follow: exit 3 once the campaign stalls
//!                   (no log growth for 3 heartbeat intervals)
//!   --interval MS   refresh period for --follow (default 500)
//!   --json          print machine-readable status and exit
//!   -h, --help      this message
//! ```
//!
//! A campaign whose producer dies (hung daemon, `kill -9` mid-run)
//! leaves an unfinished log that never grows: `--follow` marks it
//! `STALLED` after [`experiments::watch::STALL_MISSED_BEATS`] missed
//! heartbeat intervals (measured from the log itself), names the log
//! whose tail holds the producer's last events, and keeps watching in
//! case it recovers — unless `--strict`, which exits with status 3 so
//! CI soak jobs fail fast instead of hanging.
//!
//! Exit status: `0` — status shown; `2` — operator error (bad flag, no
//! log found, a log the parser refuses); `3` — stalled under
//! `--follow --strict`.

use experiments::watch::{newest_log, CampaignStatus};
use sim_telemetry::read_events;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

const USAGE: &str =
    "usage: repro-top [--dir DIR] [--follow] [--strict] [--interval MS] [--json] [run.jsonl]";

fn operator_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    exit(2)
}

struct Args {
    file: Option<PathBuf>,
    dir: Option<PathBuf>,
    follow: bool,
    strict: bool,
    interval_ms: u64,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        file: None,
        dir: None,
        follow: false,
        strict: false,
        interval_ms: 500,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| operator_error("--dir requires a directory"));
                args.dir = Some(PathBuf::from(v));
            }
            "--follow" => args.follow = true,
            "--strict" => args.strict = true,
            "--interval" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| operator_error("--interval requires milliseconds"));
                args.interval_ms =
                    v.parse().ok().filter(|&ms| ms > 0).unwrap_or_else(|| {
                        operator_error("--interval expects positive milliseconds")
                    });
            }
            "--json" => args.json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other if other.starts_with('-') => {
                operator_error(&format!("unrecognized flag {other:?}"))
            }
            path => {
                if args.file.is_some() {
                    operator_error("at most one campaign log");
                }
                args.file = Some(PathBuf::from(path));
            }
        }
    }
    args
}

fn status_of(path: &Path) -> CampaignStatus {
    let log = read_events(path).unwrap_or_else(|e| operator_error(&e));
    CampaignStatus::from_log(&log)
}

/// Writes to stdout, treating a closed pipe (`repro-top --json | head`)
/// as a normal exit rather than a panic.
fn emit(text: &str) {
    use std::io::Write;
    let mut stdout = std::io::stdout();
    if stdout.write_all(text.as_bytes()).is_err() || stdout.flush().is_err() {
        exit(0);
    }
}

fn main() {
    let knobs = experiments::knobs::get();
    let args = parse_args();
    let path = match args.file {
        Some(path) => path,
        None => {
            let dir = args.dir.unwrap_or_else(|| knobs.journal_dir.clone());
            newest_log(&dir).unwrap_or_else(|| {
                operator_error(&format!(
                    "no campaign log (*.jsonl) under {} — run a campaign first",
                    dir.display()
                ))
            })
        }
    };

    if args.json {
        emit(&format!(
            "{}\n",
            status_of(&path).to_json().to_pretty_string()
        ));
        return;
    }
    if !args.follow {
        emit(&format!(
            "# {}\n{}",
            path.display(),
            status_of(&path).render_table()
        ));
        return;
    }
    // Stall tracking: the log is "fresh" whenever its byte length
    // grows. A dead producer stops growing it; once the idle time
    // exceeds 3 expected heartbeat intervals the campaign is STALLED.
    let mut last_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let mut last_growth = Instant::now();
    loop {
        let status = status_of(&path);
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if len != last_len {
            last_len = len;
            last_growth = Instant::now();
        }
        let idle_ms = last_growth.elapsed().as_millis() as u64;
        let stalled = status.stalled(idle_ms);
        // Clear screen + home: plain ANSI is all the live view needs.
        let banner = if stalled {
            format!(
                "\nSTALLED: no log growth for {} (expected a heartbeat every {})\n\
                 the producer's last events are at the tail of {}\n",
                experiments::watch::fmt_ms(idle_ms),
                experiments::watch::fmt_ms(status.expected_beat_ms()),
                path.display()
            )
        } else {
            String::new()
        };
        emit(&format!(
            "\x1b[2J\x1b[H# {}\n{}{banner}",
            path.display(),
            status.render_table()
        ));
        if status.finished {
            return;
        }
        if stalled && args.strict {
            eprintln!(
                "error: campaign stalled: {} has not grown for {} ms \
                 (heartbeat expected every {} ms)",
                path.display(),
                idle_ms,
                status.expected_beat_ms()
            );
            exit(3);
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
}
