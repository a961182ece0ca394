//! `repro-serve` — the resident campaign daemon — and `repro-soak`,
//! the adversarial client harness that certifies it.
//!
//! The reproduction's batch binaries pay the trace-generation and
//! process-startup cost on every invocation. The daemon amortizes both:
//! one process owns the warm [`sim_trace`] store and the worker pool,
//! and clients submit campaign requests over a hand-rolled HTTP/1.1
//! surface ([`http`]):
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `POST /run` | admit a campaign request (202) or shed (429/503) |
//! | `GET /status/<id>` | lifecycle + live progress + terminal manifest view |
//! | `GET /progress/<id>` | stream the request's campaign log (JSONL) |
//! | `DELETE /run/<id>` | cooperative cancel at the next cell boundary |
//! | `GET /healthz` | liveness + drain state |
//! | `GET /metrics` | request/HTTP telemetry counters |
//!
//! Module layout mirrors the daemon's layers: [`http`] (wire), [`state`]
//! (request lifecycle + fair admission), [`server`] (routing, dispatch,
//! drain), [`signal`] (std-only SIGTERM/SIGINT), and [`soak`] (the
//! load-and-fault harness run by CI).

pub mod http;
pub mod server;
pub mod signal;
pub mod soak;
pub mod state;

pub use server::{serve, ServeConfig};
pub use soak::{run_soak, SoakConfig, SoakReport};
