//! Shared machinery: trace budgets, functional and timing runs.
//!
//! Every entry point takes an explicit [`TelemetryCtx`] and, when it
//! carries a hub, records spans, per-run counters, and mispredict
//! events without changing its results. A [`TelemetryCtx::off`] context
//! runs everything uninstrumented.

use crate::telemetry::{self as hub, TelemetryCtx};
use branch_predictors::BranchClassStats;
use hps_uarch::{MachineConfig, SimReport, TimingSweep};
use sim_isa::VecTrace;
use sim_trace::TraceKey;
use sim_workloads::Benchmark;
use std::path::PathBuf;
use std::time::Instant;
use target_cache::harness::{FrontEndConfig, IndirectPredictor, PredictionHarness};
use target_cache::{HarnessTelemetry, TargetCacheConfig};

/// How much of each workload's canonical run to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scale {
    /// ~100k instructions per benchmark: CI-sized, shapes still hold.
    Quick,
    /// ~400k instructions: the default for `repro`.
    #[default]
    Standard,
    /// The workloads' full canonical budgets (1–2M instructions).
    Full,
}

impl Scale {
    /// The instruction budget this scale implies for a benchmark.
    pub fn budget(self, bench: Benchmark) -> usize {
        let full = bench.workload().default_budget();
        match self {
            Scale::Quick => full.min(100_000),
            Scale::Standard => full.min(400_000),
            Scale::Full => full,
        }
    }

    /// The values [`Scale::parse`] accepts, for error messages.
    pub const ACCEPTED: &'static str = "quick (alias: ci), standard, full";

    /// Parses a scale name (`quick` / `standard` / `full`,
    /// case-insensitive). `ci` is an alias for `quick`: CI pipelines read
    /// better when they name the intent rather than the size.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value.to_ascii_lowercase().as_str() {
            "quick" | "ci" => Ok(Scale::Quick),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            _ => Err(format!(
                "unrecognized REPRO_SCALE value {value:?}; accepted values: {}",
                Scale::ACCEPTED
            )),
        }
    }

    /// The scale's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

/// Whether `repro table1` simulates every instruction or only the
/// SimPoint-style representative slices chosen by phase clustering.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SampleMode {
    /// Exact simulation: every chunk of every trace.
    #[default]
    Off,
    /// Phase sampling: cluster chunk BBV fingerprints, simulate only the
    /// weighted representative slices, recombine by cluster weight, and
    /// report sampled-vs-exact error (see [`crate::sample`]).
    Simpoint,
}

impl SampleMode {
    /// The values [`SampleMode::parse`] accepts, for error messages.
    pub const ACCEPTED: &'static str = "off, simpoint";

    /// Parses a sampling-mode name (`off` / `simpoint`, case-insensitive).
    pub fn parse(value: &str) -> Result<SampleMode, String> {
        match value.to_ascii_lowercase().as_str() {
            "off" => Ok(SampleMode::Off),
            "simpoint" => Ok(SampleMode::Simpoint),
            _ => Err(format!(
                "unrecognized REPRO_SAMPLE value {value:?}; accepted values: {}",
                SampleMode::ACCEPTED
            )),
        }
    }

    /// The mode's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            SampleMode::Off => "off",
            SampleMode::Simpoint => "simpoint",
        }
    }
}

/// A short description of the front end's indirect predictor for run
/// manifests.
fn config_desc(config: &FrontEndConfig) -> String {
    match config.indirect {
        IndirectPredictor::BtbOnly => "btb-only".to_string(),
        IndirectPredictor::TargetCache(tc) => format!("target-cache {tc:?}"),
        IndirectPredictor::Oracle => "oracle".to_string(),
        IndirectPredictor::Cascade(c) => format!("cascade {c:?}"),
    }
}

/// The path of the canonical store file for a benchmark's trace at a
/// scale, whether or not it exists yet. Sampling keys its phase-map
/// cache off this path (`<stem>.phases.json` rides next to the
/// `.strc`).
pub fn trace_store_path(bench: Benchmark, scale: Scale) -> PathBuf {
    let store = crate::knobs::get().trace_store();
    store.path_for(&store_key(bench, scale))
}

/// The store key for a benchmark's canonical trace at a scale.
fn store_key(bench: Benchmark, scale: Scale) -> TraceKey {
    TraceKey {
        benchmark: bench.name().to_string(),
        scale: scale.name().to_string(),
        budget: scale.budget(bench) as u64,
        seed: bench.workload().seed(),
        generator_version: sim_workloads::GENERATOR_VERSION,
    }
}

/// Produces the canonical trace of a benchmark at the given scale:
/// replayed from the content-addressed trace store on a hit, generated
/// (and recorded) on a miss. The store is the one the process's knobs
/// name (`REPRO_TRACE_STORE=off|rw|ro`, `REPRO_TRACE_STORE_DIR`); the
/// default is `rw` under `results/traces/`.
///
/// With telemetry active this also declares `bench` as the benchmark
/// subsequent runs are attributed to (cells are sequential:
/// they generate one trace and run every configuration on it before
/// moving to the next benchmark), and accounts store hits, misses, and
/// decode throughput under `trace_store.*` counters.
///
/// When an installed fault plan (see [`crate::jobs::faults`]) truncates
/// this benchmark, the generated trace is proportionally shorter — the
/// downstream statistics all normalize by actual executed counts, so a
/// truncated trace degrades resolution, not correctness. Truncated
/// generation bypasses the store entirely: a degraded trace must never
/// be recorded under (or replayed from) the canonical cache key. A
/// corrupt store file (or an injected `truncate-store` fault) panics
/// with the store's diagnosis — under the campaign runner that is a
/// retryable cell failure, and the store has already deleted the bad
/// file so the retry regenerates it.
pub fn trace(ctx: &TelemetryCtx, bench: Benchmark, scale: Scale) -> VecTrace {
    trace_with_fingerprints(ctx, bench, scale).0
}

/// [`trace`], also returning the trace's BBV side-section when the
/// store replay carried one. Fingerprints are computed at record time
/// and validated against the header on replay, so phase sampling
/// clusters them directly instead of re-walking the trace — `None`
/// (store off, read-only miss, fault-truncated generation) means the
/// caller must fingerprint in memory.
pub fn trace_with_fingerprints(
    ctx: &TelemetryCtx,
    bench: Benchmark,
    scale: Scale,
) -> (VecTrace, Option<sim_trace::BbvSection>) {
    let budget = scale.budget(bench);
    let hub = ctx.hub();
    if let Some(hub) = hub {
        hub.set_benchmark(bench.name());
    }
    if let Some(fraction) = crate::jobs::faults::active_truncation(bench.name()) {
        let _g = hub.map(|h| h.spans().span("workload-gen"));
        return (bench.workload().generate_truncated(budget, fraction), None);
    }
    let store = crate::knobs::get().trace_store();
    let key = store_key(bench, scale);
    let corrupt = crate::jobs::faults::take_store_truncation(bench.name());
    let generate = || {
        let _g = hub.map(|h| h.spans().span("workload-gen"));
        bench.workload().generate(budget)
    };
    let outcome = {
        let _g = hub.map(|h| h.spans().span("trace-store"));
        store.load_or_record_with(&key, generate, corrupt)
    };
    match outcome {
        Ok(out) => {
            if let Some(hub) = hub {
                let metrics = hub.registry();
                metrics
                    .counter(if out.hit {
                        "trace_store.hits"
                    } else {
                        "trace_store.misses"
                    })
                    .add(1);
                if out.recorded {
                    metrics.counter("trace_store.records").add(1);
                    metrics.counter("trace_store.bytes_written").add(out.bytes);
                }
                if out.hit {
                    metrics.counter("trace_store.bytes_read").add(out.bytes);
                }
                if out.decode_ns > 0 {
                    metrics.counter("trace_store.decode_ns").add(out.decode_ns);
                    metrics
                        .counter("trace_store.decoded_instructions")
                        .add(out.trace.len() as u64);
                }
            }
            (out.trace, out.bbv)
        }
        Err(e) => panic!("trace store: {e}"),
    }
}

/// Runs the functional (accuracy-only) front end over a trace.
pub fn functional(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    frontend: FrontEndConfig,
) -> BranchClassStats {
    // Credit the replay to this thread's simulated-instruction account
    // (the jobs runner snapshots it per cell; telemetry or not).
    hub::add_instructions(trace.len() as u64);
    let mut h = PredictionHarness::new(frontend);
    if let Some(hub) = ctx.hub() {
        h.attach_telemetry(hub.harness_telemetry());
        let started = Instant::now();
        {
            let _g = hub.spans().span("harness-replay");
            h.run(trace);
        }
        hub.finish_run(
            &config_desc(h.config()),
            trace.len() as u64,
            h.stats(),
            h.target_cache_stats(),
            h.cascade_counts(),
            started.elapsed().as_nanos() as u64,
        );
    } else {
        h.run(trace);
    }
    h.stats().clone()
}

/// Runs the timing model over a trace: a [`Sweep`] of one configuration.
pub fn timing(ctx: &TelemetryCtx, trace: &VecTrace, frontend: FrontEndConfig) -> SimReport {
    Sweep::new(trace).timing(ctx, frontend)
}

/// Timing runs over one trace that share the configuration-independent
/// half of the timing model.
///
/// The first run on a given baseline front end and data cache records a
/// [`TimingSweep`] (inside that run's `uarch-sim` span, so the recording is
/// charged to the timing layer); every later run on the same key replays
/// only its indirect stage and schedule. Each run still gets its own
/// `uarch-sim` span, manifest run record and `trace.len()` instructions
/// of credit, exactly as [`timing`] does.
pub struct Sweep<'a> {
    trace: &'a VecTrace,
    sweeps: Vec<TimingSweep<'a>>,
}

impl<'a> Sweep<'a> {
    /// A sweep over `trace`; nothing is simulated until the first run.
    pub fn new(trace: &'a VecTrace) -> Self {
        Sweep {
            trace,
            sweeps: Vec::new(),
        }
    }

    /// Runs the paper's HPS machine with `frontend`.
    pub fn timing(&mut self, ctx: &TelemetryCtx, frontend: FrontEndConfig) -> SimReport {
        self.timing_on(ctx, &MachineConfig::isca97(frontend))
    }

    /// Runs an arbitrary machine (the per-machine override: widths,
    /// window, function units and depth may differ from run to run).
    pub fn timing_on(&mut self, ctx: &TelemetryCtx, machine: &MachineConfig) -> SimReport {
        let report = if let Some(hub) = ctx.hub() {
            let started = Instant::now();
            let report = {
                let _g = hub.spans().span("uarch-sim");
                let telemetry = hub.harness_telemetry();
                self.sweep_for(machine, Some(&telemetry))
                    .run_on(machine, Some(telemetry))
            };
            hub.finish_run(
                &config_desc(&machine.frontend),
                report.instructions,
                &report.branch_stats,
                None,
                None,
                started.elapsed().as_nanos() as u64,
            );
            report
        } else {
            self.sweep_for(machine, None).run_on(machine, None)
        };
        hub::add_instructions(self.trace.len() as u64);
        report
    }

    /// Execution-time reduction of a target-cache configuration against a
    /// baseline report from this sweep.
    pub fn exec_reduction(
        &mut self,
        ctx: &TelemetryCtx,
        base: &SimReport,
        tc: TargetCacheConfig,
    ) -> f64 {
        self.timing(ctx, FrontEndConfig::isca97_with(tc))
            .exec_time_reduction_vs(base)
    }

    /// The recorded sweep serving `machine`, recording it on first use.
    fn sweep_for(
        &mut self,
        machine: &MachineConfig,
        telemetry: Option<&HarnessTelemetry>,
    ) -> &TimingSweep<'a> {
        let i = match self.sweeps.iter().position(|s| s.serves(machine)) {
            Some(i) => i,
            None => {
                self.sweeps.push(TimingSweep::new_instrumented(
                    self.trace, machine, telemetry,
                ));
                self.sweeps.len() - 1
            }
        };
        &self.sweeps[i]
    }
}

/// The paper's headline derived metric: execution-time reduction of a
/// target-cache configuration over the BTB-only baseline, on one trace.
pub fn exec_time_reduction(ctx: &TelemetryCtx, trace: &VecTrace, tc: TargetCacheConfig) -> f64 {
    let (base, with_tc) = baseline_and_tc(ctx, trace, tc);
    with_tc.exec_time_reduction_vs(&base)
}

/// Both runs at once, when the caller wants the reports too.
pub fn baseline_and_tc(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    tc: TargetCacheConfig,
) -> (SimReport, SimReport) {
    let mut sweep = Sweep::new(trace);
    (
        sweep.timing(ctx, FrontEndConfig::isca97_baseline()),
        sweep.timing(ctx, FrontEndConfig::isca97_with(tc)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_budgets_are_ordered() {
        for bench in [Benchmark::Perl, Benchmark::Compress] {
            assert!(Scale::Quick.budget(bench) <= Scale::Standard.budget(bench));
            assert!(Scale::Standard.budget(bench) <= Scale::Full.budget(bench));
        }
    }

    #[test]
    fn functional_and_timing_agree_on_mispredictions() {
        // The timing model embeds the same harness, so per-class stats must
        // be identical.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::M88ksim, Scale::Quick);
        let f = functional(&ctx, &t, FrontEndConfig::isca97_baseline());
        let r = timing(&ctx, &t, FrontEndConfig::isca97_baseline());
        assert_eq!(&f, &r.branch_stats);
    }

    #[test]
    fn a_sweep_records_once_and_accounts_every_run() {
        use crate::telemetry::{session_with_config, ProfMode, TelemetryConfig, TelemetryMode};

        let off = TelemetryCtx::off();
        let t = trace(&off, Benchmark::Perl, Scale::Quick);
        let frontends = [
            FrontEndConfig::isca97_baseline(),
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
            FrontEndConfig::isca97_oracle(),
        ];
        let single: Vec<SimReport> = frontends.iter().map(|&f| timing(&off, &t, f)).collect();

        let dir = std::env::temp_dir().join(format!("runner-sweep-{}", std::process::id()));
        let session = session_with_config(
            "sweep",
            Scale::Quick,
            TelemetryConfig {
                mode: TelemetryMode::Summary,
                prof: ProfMode::Full,
                dir: dir.clone(),
                ..TelemetryConfig::off()
            },
        );
        let ctx = session.ctx();
        hub::take_instructions();
        let mut sweep = Sweep::new(&t);
        for (frontend, want) in frontends.iter().zip(&single) {
            assert_eq!(&sweep.timing(&ctx, *frontend), want);
        }

        // Every configuration keeps its own credit, span and counters ...
        let (len, branches) = (t.len() as u64, t.stats().branches());
        assert_eq!(hub::take_instructions(), 3 * len);
        let h = ctx.hub().expect("telemetry on");
        let spans = h.spans().snapshot();
        let uarch = spans.iter().find(|s| s.name() == "uarch-sim").unwrap();
        assert_eq!(uarch.count, 3);
        let counters = h.registry().snapshot();
        assert_eq!(counters.counter("harness.branches"), 3 * branches);
        // ... while the baseline front end is sampled once, at recording.
        let hot = h.hot().snapshot();
        let samples = |name: &str| hot.iter().find(|s| s.name == name).map_or(0, |s| s.count);
        for stage in ["uarch-fetch", "uarch-execute", "uarch-retire"] {
            assert_eq!(samples(stage), 3 * len, "{stage}");
        }
        assert_eq!(samples("btb-lookup"), branches);

        // One manifest run record per configuration.
        let manifest_path = session.manifest_path();
        drop(session);
        let manifest =
            sim_telemetry::json::parse(&std::fs::read_to_string(&manifest_path).unwrap())
                .expect("manifest parses");
        let runs = manifest.get("runs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(runs.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn target_cache_reduces_execution_time_on_perl() {
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Perl, Scale::Quick);
        let red = exec_time_reduction(&ctx, &t, TargetCacheConfig::isca97_tagless_gshare());
        assert!(red > 0.0, "target cache must speed up perl, got {red}");
    }
}

/// A path-history scheme axis shared by Tables 5, 6 and 8: per-address, or
/// global under one of the four recording filters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathScheme {
    /// One register per static indirect jump.
    PerAddress,
    /// A single global register with the given filter.
    Global(branch_predictors::PathFilter),
}

impl PathScheme {
    /// All schemes, in the paper's column order (per-addr, then the global
    /// filters).
    pub fn all() -> Vec<PathScheme> {
        use branch_predictors::PathFilter;
        vec![
            PathScheme::PerAddress,
            PathScheme::Global(PathFilter::ConditionalOnly),
            PathScheme::Global(PathFilter::Control),
            PathScheme::Global(PathFilter::IndirectJump),
            PathScheme::Global(PathFilter::CallReturn),
        ]
    }

    /// The paper's column label.
    pub fn label(&self) -> &'static str {
        match self {
            PathScheme::PerAddress => "per-addr",
            PathScheme::Global(f) => f.label(),
        }
    }

    /// Builds the history source for this scheme with the given register
    /// shape.
    pub fn source(
        &self,
        total_bits: u32,
        bits_per_target: u32,
        target_bit_lo: u32,
    ) -> target_cache::HistorySource {
        use branch_predictors::{PathFilter, PathHistoryConfig};
        let config = |filter: PathFilter| PathHistoryConfig {
            total_bits,
            bits_per_target,
            target_bit_lo,
            filter,
        };
        match self {
            PathScheme::PerAddress => {
                target_cache::HistorySource::PerAddressPath(config(PathFilter::IndirectJump))
            }
            PathScheme::Global(f) => target_cache::HistorySource::GlobalPath(config(*f)),
        }
    }
}
