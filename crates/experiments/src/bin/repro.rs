//! Regenerates the paper's tables and figures in one fault-tolerant
//! campaign: `repro <experiment>` runs one registry experiment (`repro
//! table4`), `repro all` runs every one. No argument, or an unknown
//! name, exits 2 and lists the names.
//!
//! Scale is controlled by `REPRO_SCALE` (`quick` / `standard` / `full`),
//! telemetry capture by `REPRO_TELEMETRY` (`off` / `summary` / `events`),
//! and the campaign runner by `REPRO_JOBS` / `REPRO_RETRIES` /
//! `REPRO_DEADLINE_MS` / `REPRO_BACKOFF_MS` / `REPRO_RUN_ID` /
//! `REPRO_RESUME` / `REPRO_JOURNAL_DIR` / `REPRO_FAULTS` — see
//! EXPERIMENTS.md. Cells that fail after retries render as `ERR(reason)`
//! markers and turn the exit status to 1; everything else still prints.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    experiments::jobs::cli::repro(&args)
}
