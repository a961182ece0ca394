//! sim-prof: hot-path phase timers and the `REPRO_PROF` knob.
//!
//! [`SpanRegistry`](crate::SpanRegistry) answers "where did the run's
//! wall-clock go" at the granularity of a few guard allocations per
//! phase — fine for `workload-gen` / `harness-replay` / `uarch-sim`,
//! far too heavy for per-branch work inside the prediction harness. The
//! [`PhaseTimer`] here is the hot-path complement: two relaxed atomic
//! adds per sample, no allocation, no lock, cloneable handles. A
//! [`HotProfiler`] is a named registry of such timers; its totals fold
//! into a span registry (under a parent path) so manifests and folded
//! dumps show one coherent tree.
//!
//! How much of this machinery is live is governed by `REPRO_PROF`:
//!
//! | value | behaviour |
//! |-------|-----------|
//! | `off`   | no span or phase recording; guards are near-free no-ops |
//! | `spans` (default) | coarse phase spans only; hot-path timers off |
//! | `full`  | spans **plus** per-operation hot-path timers |
//!
//! `spans` stays the default because the coarse spans cost nanoseconds
//! per *phase*, not per instruction; `full` costs two `Instant::now()`
//! calls per timed operation and is for profiling sessions.

use crate::json::{obj, Json};
use crate::span::SpanRegistry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much profiling an experiment run captures; the `REPRO_PROF` knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfMode {
    /// No profiling: span guards and phase timers become no-ops.
    Off,
    /// Coarse phase spans only (the default).
    #[default]
    Spans,
    /// Spans plus per-operation hot-path timers in the prediction and
    /// timing loops.
    Full,
}

impl ProfMode {
    /// The accepted `REPRO_PROF` values, for error messages.
    pub const ACCEPTED: &'static str = "off, spans, full";

    /// Parses a `REPRO_PROF` value (case-insensitive). Strict, like
    /// [`TelemetryMode::parse`](crate::TelemetryMode::parse): a typo
    /// fails loudly instead of silently disabling the profile the user
    /// asked for.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(ProfMode::Off),
            "spans" => Ok(ProfMode::Spans),
            "full" => Ok(ProfMode::Full),
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

    /// Whether per-operation hot-path timers are live.
    pub fn hot(self) -> bool {
        self == ProfMode::Full
    }

    /// The mode's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ProfMode::Off => "off",
            ProfMode::Spans => "spans",
            ProfMode::Full => "full",
        }
    }

    /// A span registry honoring this mode: recording for `spans`/`full`,
    /// a no-op registry for `off`.
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

/// A lock-free accumulator for one hot-path phase: sample count and
/// total nanoseconds, two relaxed atomic adds per sample. Handles are
/// cheap clones sharing the same totals, so a harness can hold one per
/// phase without touching a registry in the hot loop.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimer {
    count: Arc<AtomicU64>,
    total_ns: Arc<AtomicU64>,
}

impl PhaseTimer {
    /// Creates a zeroed timer.
    pub fn new() -> Self {
        PhaseTimer::default()
    }

    /// Starts a sample; pair with [`stop`](Self::stop).
    #[inline]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Ends a sample started at `t0`.
    #[inline]
    pub fn stop(&self, t0: Instant) {
        self.record_ns(t0.elapsed().as_nanos() as u64);
    }

    /// Records one sample of `ns` nanoseconds directly.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Times `f`, recording one sample.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = self.start();
        let out = f();
        self.stop(t0);
        out
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds recorded so far.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

/// Point-in-time totals for one hot-path phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (`btb-lookup`, `tc-index`, …).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub total_ns: u64,
}

impl PhaseStat {
    /// Mean nanoseconds per sample (0 when no samples).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A named registry of [`PhaseTimer`]s for one subsystem's hot loop.
///
/// `timer(name)` is called once at setup to obtain a handle; the hot
/// loop then only touches the handle's atomics. The registry itself is
/// cloneable (shared `Arc` state) so the session hub, the harness, and
/// the reporting path all see the same totals.
#[derive(Clone, Debug, Default)]
pub struct HotProfiler {
    timers: Arc<Mutex<BTreeMap<String, PhaseTimer>>>,
}

impl HotProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        HotProfiler::default()
    }

    /// The timer registered under `name`, creating it if absent. Call at
    /// setup time, not in the hot loop (takes a lock).
    pub fn timer(&self, name: &str) -> PhaseTimer {
        let mut timers = self.timers.lock().expect("hot profiler poisoned");
        timers.entry(name.to_string()).or_default().clone()
    }

    /// Point-in-time totals for every phase with at least one sample,
    /// sorted by name.
    pub fn snapshot(&self) -> Vec<PhaseStat> {
        let timers = self.timers.lock().expect("hot profiler poisoned");
        timers
            .iter()
            .map(|(name, t)| PhaseStat {
                name: name.clone(),
                count: t.count(),
                total_ns: t.total_ns(),
            })
            .filter(|s| s.count > 0)
            .collect()
    }

    /// The snapshot as a JSON object: phase name → `{count, total_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.snapshot()
                .into_iter()
                .map(|s| {
                    (
                        s.name,
                        obj([
                            ("count", Json::from(s.count)),
                            ("total_ns", Json::from(s.total_ns)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Folds every phase's totals into `spans` as children of `parent`
    /// (path `parent;hot.<name>`), so one tree carries both coarse spans
    /// and hot-path phases.
    pub fn fold_into(&self, spans: &SpanRegistry, parent: &str) {
        for s in self.snapshot() {
            let path = format!("{parent}{}hot.{}", crate::span::PATH_SEPARATOR, s.name);
            spans.record_external(&path, s.count, s.total_ns);
        }
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
        assert_eq!(ProfMode::parse("Full"), Ok(ProfMode::Full));
    }

    #[test]
    fn prof_mode_rejects_typos_with_accepted_list() {
        let err = ProfMode::parse("span").unwrap_err();
        assert!(err.contains("span"), "{err}");
        assert!(err.contains("off, spans, full"), "{err}");
    }

    #[test]
    fn prof_mode_predicates_and_registry() {
        assert!(!ProfMode::Off.spans());
        assert!(ProfMode::Spans.spans());
        assert!(!ProfMode::Spans.hot());
        assert!(ProfMode::Full.hot());
        assert_eq!(ProfMode::Full.to_string(), "full");
        assert!(!ProfMode::Off.span_registry().enabled());
        assert!(ProfMode::Spans.span_registry().enabled());
    }

    #[test]
    fn phase_timer_accumulates_samples() {
        let t = PhaseTimer::new();
        t.record_ns(100);
        t.record_ns(50);
        let out = t.time(|| 42);
        assert_eq!(out, 42);
        assert_eq!(t.count(), 3);
        assert!(t.total_ns() >= 150);
        // Clones share totals.
        let t2 = t.clone();
        t2.record_ns(1);
        assert_eq!(t.count(), 4);
    }

    #[test]
    fn hot_profiler_snapshots_only_sampled_phases() {
        let prof = HotProfiler::new();
        let a = prof.timer("btb-lookup");
        let _idle = prof.timer("never-sampled");
        a.record_ns(10);
        a.record_ns(20);
        let snap = prof.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "btb-lookup");
        assert_eq!(snap[0].count, 2);
        assert_eq!(snap[0].total_ns, 30);
        assert!((snap[0].mean_ns() - 15.0).abs() < f64::EPSILON);
        // Re-requesting a timer returns the same totals.
        assert_eq!(prof.timer("btb-lookup").count(), 2);
    }

    #[test]
    fn hot_profiler_folds_under_a_span_parent() {
        let prof = HotProfiler::new();
        prof.timer("tc-lookup").record_ns(500);
        let spans = SpanRegistry::new();
        {
            let _g = spans.span("harness-replay");
        }
        prof.fold_into(&spans, "harness-replay");
        let snap = spans.snapshot();
        assert_eq!(snap[1].path, "harness-replay;hot.tc-lookup");
        assert_eq!(snap[1].total_ns, 500);
    }

    #[test]
    fn hot_profiler_json_parses() {
        let prof = HotProfiler::new();
        prof.timer("ras-push").record_ns(7);
        let text = prof.to_json().to_string();
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(
            v.get("ras-push").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn concurrent_timer_samples_do_not_lose_counts() {
        let prof = HotProfiler::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = prof.timer("shared");
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.record_ns(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = prof.snapshot();
        assert_eq!(snap[0].count, 4000);
        assert_eq!(snap[0].total_ns, 4000);
    }
}
