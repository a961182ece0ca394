//! repro-jobs: the fault-tolerant, resumable experiment runner.
//!
//! A full reproduction campaign is a long sequence of independent
//! **cells** — one `(experiment × benchmark)` unit of work each, e.g.
//! `table4/perl`. This module decomposes every experiment into cells
//! (see [`registry`]), executes them on a worker pool with per-cell
//! panic isolation, watchdog-enforced deadlines, and bounded
//! exponential-backoff retry ([`pool`]), and records every lifecycle
//! event in one append-only campaign log ([`journal`]) so a killed run
//! resumes from what it already finished instead of restarting.
//!
//! Failure is a first-class outcome: a cell that exhausts its retries
//! does **not** abort the campaign. Its slot in the rendered table
//! shows an explicit `ERR(reason)` marker, everything that did succeed
//! is printed, and only then does the process exit nonzero.
//!
//! A deterministic fault-injection layer ([`faults`], driven by the
//! `REPRO_FAULTS` environment variable) exercises every one of those
//! paths end-to-end: injected panics, delays, flaky-then-recovering
//! cells, truncated workload traces, and a seeded random mode.
//!
//! Environment variables (all parsed strictly; binaries print a clean
//! diagnostic and exit 2 on a typo):
//!
//! | variable | meaning |
//! |----------|---------|
//! | `REPRO_JOBS` | worker threads (default 1 — deterministic order) |
//! | `REPRO_RESUME=<run-id>` | resume (and append to) `results/journal/<run-id>.jsonl` |
//! | `REPRO_RUN_ID=<id>` | name a fresh run's log (default `<tool>-<timestamp>`) |
//! | `REPRO_FAULTS=<spec>` | deterministic fault injection, see [`faults`] |
//! | `REPRO_RETRIES=<n>` | attempts per cell (default 3) |
//! | `REPRO_DEADLINE_MS=<ms>` | per-cell deadline (default 600000) |
//! | `REPRO_JOURNAL_DIR=<dir>` | campaign log directory (default `results/journal`) |

pub mod cli;
pub mod faults;
pub mod journal;
pub mod pool;
pub mod registry;

pub use faults::FaultPlan;
pub use journal::Journal;
pub use pool::{
    run_campaign, run_campaign_with, CampaignOutcome, CancelToken, CellReport, RunControls,
    RunnerConfig, WorkerSlots,
};
pub use registry::ExperimentDef;

use std::collections::BTreeMap;

/// The named scalar results of one cell: everything a table slot needs,
/// as an ordered `key → f64` map that round-trips exactly through the
/// campaign log's JSON (counts up to 2⁵³ and all rates/reductions are
/// exact).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellData(pub BTreeMap<String, f64>);

impl CellData {
    /// An empty cell result.
    pub fn new() -> CellData {
        CellData::default()
    }

    /// Sets `key` to `value`.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.0.insert(key.into(), value);
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }

    /// The value of `key`, panicking with a diagnostic if absent — for
    /// tests, which compute the cell they read. Renderers go through
    /// [`CellSet::fmt`] instead: restored data may lack any key.
    pub fn req(&self, key: &str) -> f64 {
        self.get(key)
            .unwrap_or_else(|| panic!("cell data missing key {key:?}"))
    }
}

/// A cell identifier, `experiment/benchmark` (e.g. `table4/perl`).
/// Benchmark-less experiments use a fixed pseudo-label (`costs/model`).
pub fn cell_id(experiment: &str, bench: &str) -> String {
    format!("{experiment}/{bench}")
}

/// Resolves a cell's benchmark label back to the benchmark. Panics on an
/// unknown label: labels come from the same module's `cell_labels`, so a
/// miss is a registry bug, and inside a cell the panic becomes an
/// isolated `ERR` outcome rather than a crash.
pub fn benchmark(label: &str) -> sim_workloads::Benchmark {
    sim_workloads::Benchmark::from_name(label)
        .unwrap_or_else(|| panic!("unknown benchmark label {label:?}"))
}

/// Per-benchmark cell outcomes for one experiment: the input to every
/// module's `render_cells`, with `ERR(reason)` substitution for slots
/// whose cell failed.
#[derive(Clone, Debug, Default)]
pub struct CellSet {
    cells: BTreeMap<String, Result<CellData, String>>,
}

/// How many characters of a failure reason survive into a table slot.
const ERR_REASON_WIDTH: usize = 44;

impl CellSet {
    /// An empty set.
    pub fn new() -> CellSet {
        CellSet::default()
    }

    /// Records one cell's outcome.
    pub fn insert(&mut self, bench: &str, outcome: Result<CellData, String>) {
        self.cells.insert(bench.to_string(), outcome);
    }

    /// The data for `bench`, when its cell succeeded.
    pub fn data(&self, bench: &str) -> Option<&CellData> {
        match self.cells.get(bench) {
            Some(Ok(data)) => Some(data),
            _ => None,
        }
    }

    /// The failure reason for `bench`, when its cell failed (a missing
    /// cell — never enumerated or scheduled — reads as failed too).
    pub fn failure(&self, bench: &str) -> Option<&str> {
        match self.cells.get(bench) {
            Some(Err(reason)) => Some(reason),
            Some(Ok(_)) => None,
            None => Some("cell missing"),
        }
    }

    /// Formats the slot `bench/key`: the formatted value when the cell
    /// succeeded and recorded `key`, an `ERR(reason)` marker otherwise.
    pub fn fmt(&self, bench: &str, key: &str, fmt: impl Fn(f64) -> String) -> String {
        self.fmt_derived(bench, &[key], |v| fmt(v[0]))
    }

    /// Formats a slot derived from several keys of `bench`'s cell: `fmt`
    /// of their values, in `keys` order, when the cell succeeded and
    /// recorded all of them; `ERR(missing <key>)` naming the first absent
    /// key, or the cell's own `ERR(reason)`, otherwise.
    pub fn fmt_derived(
        &self,
        bench: &str,
        keys: &[&str],
        fmt: impl FnOnce(&[f64]) -> String,
    ) -> String {
        match self.cells.get(bench) {
            Some(Ok(data)) => {
                let mut values = Vec::with_capacity(keys.len());
                for key in keys {
                    match data.get(key) {
                        Some(v) => values.push(v),
                        None => return err_marker(&format!("missing {key}")),
                    }
                }
                fmt(&values)
            }
            Some(Err(reason)) => err_marker(reason),
            None => err_marker("cell missing"),
        }
    }
}

/// Renders a failure reason as the `ERR(...)` table-slot marker, first
/// line only, truncated so one pathological panic message cannot blow a
/// whole table's alignment out.
pub fn err_marker(reason: &str) -> String {
    let line = reason.lines().next().unwrap_or("").trim();
    let short: String = if line.chars().count() > ERR_REASON_WIDTH {
        let mut s: String = line.chars().take(ERR_REASON_WIDTH - 1).collect();
        s.push('…');
        s
    } else {
        line.to_string()
    };
    format!("ERR({short})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_set_formats_values_and_errors() {
        let mut set = CellSet::new();
        let mut data = CellData::new();
        data.set("rate", 0.5);
        set.insert("gcc", Ok(data));
        set.insert("perl", Err("panicked: injected fault".to_string()));

        assert_eq!(set.fmt("gcc", "rate", |v| format!("{v:.1}")), "0.5");
        assert_eq!(
            set.fmt("perl", "rate", |v| format!("{v:.1}")),
            "ERR(panicked: injected fault)"
        );
        assert!(set
            .fmt("gcc", "absent", |v| format!("{v}"))
            .starts_with("ERR("));
        assert!(set
            .fmt("compress", "rate", |v| format!("{v}"))
            .starts_with("ERR("));
        // A derived slot needs every key it reads.
        let sum = |v: &[f64]| format!("{:.1}", v.iter().sum::<f64>());
        assert_eq!(set.fmt_derived("gcc", &["rate", "rate"], sum), "1.0");
        assert_eq!(
            set.fmt_derived("gcc", &["rate", "absent"], sum),
            "ERR(missing absent)"
        );
        assert_eq!(
            set.fmt_derived("perl", &["rate"], sum),
            "ERR(panicked: injected fault)"
        );
        assert_eq!(set.failure("perl"), Some("panicked: injected fault"));
        assert_eq!(set.failure("gcc"), None);
    }

    #[test]
    fn err_marker_truncates_long_reasons() {
        let long = "x".repeat(300);
        let marker = err_marker(&long);
        assert!(marker.starts_with("ERR("));
        assert!(marker.chars().count() < 60, "{marker}");
        assert!(marker.ends_with("…)"));
        assert_eq!(err_marker("simple"), "ERR(simple)");
        assert_eq!(err_marker("first\nsecond"), "ERR(first)");
    }
}
