//! `repro-serve` — the resident campaign daemon.
//!
//! ```text
//! repro-serve
//! ```
//!
//! All configuration is environment variables (the repo-wide
//! convention — one knob surface for batch and daemon alike):
//!
//! ```text
//! REPRO_SERVE_ADDR             bind address (default 127.0.0.1:7877;
//!                              port 0 binds ephemerally)
//! REPRO_SERVE_ADDR_FILE        if set, the bound address is written here
//! REPRO_SERVE_QUEUE            admission queue depth (default 16)
//! REPRO_SERVE_CLIENTS          max concurrent connections (default 32)
//! REPRO_SERVE_ROOT             per-request namespace root
//!                              (default results/serve)
//! REPRO_SERVE_READ_TIMEOUT_MS  socket read timeout / slow-loris bound
//!                              (default 2000)
//! REPRO_JOBS / REPRO_RETRIES / REPRO_DEADLINE_MS / REPRO_BACKOFF_MS /
//! REPRO_FAULTS                 shared campaign pool knobs
//! ```
//!
//! Endpoints: `POST /run`, `GET /status/<id>`, `GET /progress/<id>`,
//! `DELETE /run/<id>`, `GET /healthz`, `GET /metrics` — see
//! `EXPERIMENTS.md` § Serving & soak.
//!
//! SIGTERM/SIGINT drain gracefully: admission stops, queued requests
//! are cancelled, in-flight cells finish and log, manifests flush,
//! and the process exits 0.
//!
//! Exit status: `0` — clean drain; `2` — operator error (bad knob,
//! unbindable address).

use experiments::serve::serve;
use std::process::exit;

fn main() {
    let knobs = experiments::knobs::get();
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("usage: repro-serve  (configured via REPRO_SERVE_* environment variables)");
        exit(0);
    }
    match serve(knobs) {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    }
}
