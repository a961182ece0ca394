//! The `REPRO_PROF` knob: whether a session's [`SpanRegistry`] records.
//!
//! | value | behaviour |
//! |-------|-----------|
//! | `off`   | no span recording; guards are near-free no-ops |
//! | `spans` (default) | coarse phase spans (`workload-gen`, `harness-replay`, `uarch-sim`, …) |
//!
//! Spans cost nanoseconds per *phase*, not per instruction, so `spans`
//! is the default. Nothing times individual branches: a clock read costs
//! as much as the work it would time.

use crate::span::SpanRegistry;

/// How much profiling an experiment run captures; the `REPRO_PROF` knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfMode {
    /// No profiling: span guards become no-ops.
    Off,
    /// Coarse phase spans (the default).
    #[default]
    Spans,
}

impl ProfMode {
    /// The accepted `REPRO_PROF` values, for error messages.
    pub const ACCEPTED: &'static str = "off, spans";

    /// Parses a `REPRO_PROF` value (case-insensitive). Strict, like
    /// [`TelemetryMode::parse`](crate::TelemetryMode::parse): a typo
    /// fails loudly instead of silently disabling the profile the user
    /// asked for.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(ProfMode::Off),
            "spans" => Ok(ProfMode::Spans),
            other => Err(format!(
                "unrecognized REPRO_PROF value {other:?}; accepted values: {}",
                ProfMode::ACCEPTED
            )),
        }
    }

    /// Whether coarse phase spans are recorded.
    pub fn spans(self) -> bool {
        self != ProfMode::Off
    }

    /// The mode's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ProfMode::Off => "off",
            ProfMode::Spans => "spans",
        }
    }

    /// A span registry honoring this mode: recording for `spans`, a no-op
    /// registry for `off`.
    pub fn span_registry(self) -> SpanRegistry {
        if self.spans() {
            SpanRegistry::new()
        } else {
            SpanRegistry::disabled()
        }
    }
}

impl std::fmt::Display for ProfMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prof_mode_parses_accepted_values() {
        assert_eq!(ProfMode::parse("off"), Ok(ProfMode::Off));
        assert_eq!(ProfMode::parse("OFF"), Ok(ProfMode::Off));
        assert_eq!(ProfMode::parse("0"), Ok(ProfMode::Off));
        assert_eq!(ProfMode::parse("spans"), Ok(ProfMode::Spans));
        assert_eq!(ProfMode::parse("Spans"), Ok(ProfMode::Spans));
    }

    #[test]
    fn prof_mode_rejects_typos_with_accepted_list() {
        for bad in ["span", "full"] {
            let err = ProfMode::parse(bad).unwrap_err();
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("accepted values: off, spans"), "{err}");
        }
    }

    #[test]
    fn prof_mode_predicates_and_registry() {
        assert!(!ProfMode::Off.spans());
        assert!(ProfMode::Spans.spans());
        assert_eq!(ProfMode::Spans.to_string(), "spans");
        assert!(!ProfMode::Off.span_registry().enabled());
        assert!(ProfMode::Spans.span_registry().enabled());
    }
}
