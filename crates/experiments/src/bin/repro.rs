//! Regenerates the paper's tables and figures in one fault-tolerant
//! campaign: `repro <experiment>` runs one registry experiment (`repro
//! table4`), `repro all` runs every one. No argument, or an unknown
//! name, exits 2 and lists the names.
//!
//! Scale, sampling, telemetry and the campaign runner are `REPRO_*`
//! knobs, parsed once at startup (a malformed value exits 2); the
//! README's knob reference lists them. Cells that fail after retries
//! render as `ERR(reason)` markers and turn the exit status to 1;
//! everything else still prints.

fn main() {
    experiments::knobs::get();
    let args: Vec<String> = std::env::args().skip(1).collect();
    experiments::jobs::cli::repro(&args)
}
