//! # sim-telemetry
//!
//! Zero-dependency observability for the indirect-jump-prediction
//! workspace: metrics, event tracing, span timing, and run manifests.
//!
//! The crate is deliberately `std`-only so every simulator crate can
//! depend on it without dragging anything external into the build. It
//! provides four instruments:
//!
//! - [`MetricsRegistry`] — named [`Counter`]s and log2-bucketed
//!   [`Histogram`]s behind `Arc`-backed handles; one relaxed atomic add
//!   per event, safe on simulator hot paths.
//! - [`EventSink`] / [`Event`] — a bounded ring of structured events
//!   (per-branch mispredict records and phase markers), serialized as
//!   JSONL by [`write_jsonl`].
//! - [`SpanRegistry`] — hierarchical wall-clock timing scopes with
//!   `Drop` guards: nested spans build `parent;child` paths with
//!   self-vs-total accounting and a folded-stack (flamegraph) dump.
//! - [`PhaseTimer`] / [`HotProfiler`] — lock-free per-operation timers
//!   for the prediction hot loop, enabled by `REPRO_PROF=full` (see
//!   [`ProfMode`]).
//! - [`RunManifest`] — the per-invocation JSON document tying it all
//!   together: configuration snapshot, per-benchmark counters copied from
//!   the simulator's own statistics, span totals, and the metrics
//!   snapshot.
//! - [`CampaignEvent`] / [`LogEntry`] — the typed vocabulary of the
//!   append-only campaign log and its one strict parser
//!   ([`parse_events`]); resume, live status, the Chrome export, and the
//!   manifest `cells` array are all folds of that log ([`progress`]).
//! - [`TraceId`] / [`SpanId`] — correlation ids minted once per
//!   campaign and stamped into the campaign log, the manifest, and the
//!   trace export, so one grep joins them.
//! - [`ChromeTrace`] — Chrome trace-event export of a campaign log's
//!   attempts plus the span phases, loadable in Perfetto ([`traceviz`]).
//!
//! All JSON is hand-rolled ([`json`]) — escaping, a value tree, and a
//! strict parser — because the environment has no serde.
//!
//! The crate reads no environment variable. A session's configuration
//! is an explicit [`TelemetryConfig`]; the experiments crate's knob table
//! fills it from `REPRO_TELEMETRY`, `REPRO_PROF` and friends with the
//! strict [`TelemetryMode::parse`] and [`ProfMode::parse`].

pub mod ctx;
pub mod event;
pub mod fsio;
pub mod id;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod prof;
pub mod progress;
pub mod span;
pub mod traceviz;

pub use ctx::{
    TelemetryConfig, TraceExportMode, DEFAULT_PROGRESS_TICK_MS, DEFAULT_TELEMETRY_DIR,
    DEFAULT_TRACEVIZ_DIR,
};
pub use event::{write_jsonl, Event, EventRing, EventSink, DEFAULT_RING_CAPACITY};
pub use fsio::{atomic_write, atomic_write_str};
pub use id::{SpanId, TraceId};
pub use json::Json;
pub use manifest::{CellRecord, RunManifest, RunRecord, SampleRow};
pub use metrics::{
    bucket_bounds, bucket_index, check_prometheus_text, prometheus_name, Counter, Gauge, Histogram,
    MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use prof::{HotProfiler, PhaseStat, PhaseTimer, ProfMode};
pub use progress::{
    eta_ms, parse_events, read_events, CampaignEvent, CampaignLog, CellOutcome, CellStatus,
    LogEntry, LOG_FORMAT,
};
pub use span::{SpanGuard, SpanRegistry, SpanStat};
pub use traceviz::{trace_path, ChromeTrace, TraceSummary};

/// How much telemetry an experiment run captures.
///
/// Controlled by the `REPRO_TELEMETRY` environment variable:
///
/// | value       | behaviour                                              |
/// |-------------|--------------------------------------------------------|
/// | `off` (default) | no instrumentation beyond the simulator's own stats |
/// | `summary`   | counters + spans + a run manifest, no event stream     |
/// | `events`    | everything in `summary` plus per-mispredict JSONL      |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No telemetry (the default): zero overhead beyond existing stats.
    #[default]
    Off,
    /// Counters, spans, and a run manifest.
    Summary,
    /// `Summary` plus a JSONL stream of per-branch mispredict events.
    Events,
}

impl TelemetryMode {
    /// The accepted `REPRO_TELEMETRY` values, for error messages.
    pub const ACCEPTED: &'static str = "off, summary, events";

    /// Parses a `REPRO_TELEMETRY` value (case-insensitive).
    ///
    /// Unlike a lenient "anything unknown means off" parser, this rejects
    /// unrecognized values so a typo (`REPRO_TELEMETRY=event`) fails loudly
    /// instead of silently discarding the data the user asked for.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(TelemetryMode::Off),
            "summary" => Ok(TelemetryMode::Summary),
            "events" => Ok(TelemetryMode::Events),
            other => Err(format!(
                "unrecognized REPRO_TELEMETRY value {other:?}; accepted values: {}",
                TelemetryMode::ACCEPTED
            )),
        }
    }

    /// Whether any telemetry is captured at all.
    pub fn enabled(self) -> bool {
        self != TelemetryMode::Off
    }

    /// Whether the per-event JSONL stream is captured.
    pub fn events(self) -> bool {
        self == TelemetryMode::Events
    }

    /// The mode's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Summary => "summary",
            TelemetryMode::Events => "events",
        }
    }
}

impl std::fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_accepted_values() {
        assert_eq!(TelemetryMode::parse("off"), Ok(TelemetryMode::Off));
        assert_eq!(TelemetryMode::parse("OFF"), Ok(TelemetryMode::Off));
        assert_eq!(TelemetryMode::parse("none"), Ok(TelemetryMode::Off));
        assert_eq!(TelemetryMode::parse("summary"), Ok(TelemetryMode::Summary));
        assert_eq!(TelemetryMode::parse("Events"), Ok(TelemetryMode::Events));
    }

    #[test]
    fn mode_rejects_typos_with_accepted_list() {
        let err = TelemetryMode::parse("event").unwrap_err();
        assert!(err.contains("event"), "{err}");
        assert!(err.contains("off, summary, events"), "{err}");
    }

    #[test]
    fn mode_predicates() {
        assert!(!TelemetryMode::Off.enabled());
        assert!(TelemetryMode::Summary.enabled());
        assert!(!TelemetryMode::Summary.events());
        assert!(TelemetryMode::Events.events());
        assert_eq!(TelemetryMode::Events.to_string(), "events");
    }
}
