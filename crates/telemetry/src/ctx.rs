//! A telemetry session's configuration, as one explicit value.
//!
//! Everything downstream of a binary's `main` works against a
//! [`TelemetryConfig`] (and the session context the experiments crate
//! builds from it), never against `std::env`: sessions stay independent
//! (two campaigns in one process can run different configs, which
//! `repro-serve` relies on) and tests build the config they want. The
//! experiments crate's knob table fills it from the environment; the
//! README's knob reference lists the variables and their defaults.

use crate::prof::ProfMode;
use crate::TelemetryMode;
use std::path::PathBuf;
use std::time::Duration;

/// Default output directory for session manifests and event streams.
pub const DEFAULT_TELEMETRY_DIR: &str = "results/telemetry";
/// Default campaign-log heartbeat period in milliseconds.
pub const DEFAULT_PROGRESS_TICK_MS: u64 = 1000;
/// Default output directory for Chrome trace exports.
pub const DEFAULT_TRACEVIZ_DIR: &str = "results/traceviz";

/// Which trace-export format a campaign writes (`REPRO_TRACE_EXPORT`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceExportMode {
    /// No export (the default).
    #[default]
    Off,
    /// Chrome trace-event JSON, loadable in Perfetto/chrome://tracing.
    Chrome,
}

impl TraceExportMode {
    /// The accepted `REPRO_TRACE_EXPORT` values, for error messages.
    pub const ACCEPTED: &'static str = "off, chrome";

    /// Parses a `REPRO_TRACE_EXPORT` value (case-insensitive), rejecting
    /// typos loudly like every other knob.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(TraceExportMode::Off),
            "chrome" => Ok(TraceExportMode::Chrome),
            other => Err(format!(
                "unrecognized REPRO_TRACE_EXPORT value {other:?}; accepted values: {}",
                TraceExportMode::ACCEPTED
            )),
        }
    }

    /// Whether any export is written.
    pub fn enabled(self) -> bool {
        self != TraceExportMode::Off
    }
}

/// A session's full telemetry configuration, parsed once from the
/// environment (or built directly in tests and embedders).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Capture depth (`REPRO_TELEMETRY`).
    pub mode: TelemetryMode,
    /// Profiling depth (`REPRO_PROF`).
    pub prof: ProfMode,
    /// Where manifests/events/folded stacks go (`REPRO_TELEMETRY_DIR`).
    pub dir: PathBuf,
    /// How often the campaign log gets a heartbeat
    /// (`REPRO_PROGRESS_TICK_MS`).
    pub progress_tick: Duration,
    /// Trace-export format (`REPRO_TRACE_EXPORT`).
    pub trace_export: TraceExportMode,
    /// Where Chrome trace exports go (`REPRO_TRACEVIZ_DIR`).
    pub traceviz_dir: PathBuf,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            mode: TelemetryMode::Off,
            prof: ProfMode::Spans,
            dir: PathBuf::from(DEFAULT_TELEMETRY_DIR),
            progress_tick: Duration::from_millis(DEFAULT_PROGRESS_TICK_MS),
            trace_export: TraceExportMode::Off,
            traceviz_dir: PathBuf::from(DEFAULT_TRACEVIZ_DIR),
        }
    }
}

impl TelemetryConfig {
    /// Everything disabled, profiling included: for tests and library
    /// callers that want no telemetry at all.
    pub fn off() -> TelemetryConfig {
        TelemetryConfig {
            prof: ProfMode::Off,
            ..TelemetryConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_table() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.mode, TelemetryMode::Off);
        assert_eq!(cfg.prof, ProfMode::Spans);
        assert_eq!(cfg.dir, PathBuf::from(DEFAULT_TELEMETRY_DIR));
        assert_eq!(cfg.progress_tick, Duration::from_millis(1000));
        assert_eq!(cfg.trace_export, TraceExportMode::Off);
        assert_eq!(cfg.traceviz_dir, PathBuf::from(DEFAULT_TRACEVIZ_DIR));
    }

    #[test]
    fn trace_export_parses_strictly() {
        assert_eq!(TraceExportMode::parse("off"), Ok(TraceExportMode::Off));
        assert_eq!(
            TraceExportMode::parse("Chrome"),
            Ok(TraceExportMode::Chrome)
        );
        assert!(TraceExportMode::Chrome.enabled());
        assert!(!TraceExportMode::Off.enabled());
        let err = TraceExportMode::parse("perfetto").unwrap_err();
        assert!(err.contains("REPRO_TRACE_EXPORT"), "{err}");
        assert!(err.contains("off, chrome"), "{err}");
    }

    #[test]
    fn off_config_disables_profiling_too() {
        let cfg = TelemetryConfig::off();
        assert_eq!(cfg.prof, ProfMode::Off);
        assert!(!cfg.mode.enabled());
    }
}
