//! Shared machinery: trace budgets, functional and timing runs.
//!
//! Every entry point takes an explicit [`TelemetryCtx`] and, when it
//! carries a hub, records spans, per-run counters, and mispredict
//! events without changing its results. A [`TelemetryCtx::off`] context
//! runs everything uninstrumented.

use crate::jobs::CellData;
use crate::telemetry::{self as hub, TelemetryCtx};
use branch_predictors::BranchClassStats;
use hps_uarch::{MachineConfig, SimReport};
use sim_isa::{Addr, VecTrace};
use sim_trace::TraceKey;
use sim_workloads::{Benchmark, Workload};
use std::path::PathBuf;
use std::time::Instant;
use target_cache::harness::{
    FrontEndConfig, IndirectPredictor, Lane, PredictionHarness, PredictionOutcome,
};
use target_cache::{HarnessTelemetry, TargetCacheConfig, TargetCacheStats};

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
        self.budget_for(bench.workload().default_budget())
    }

    /// The instruction budget this scale implies for a workload whose
    /// canonical run is `full` instructions long.
    pub(crate) fn budget_for(self, full: usize) -> usize {
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
    store.path_for(&store_key(&bench.workload(), scale))
}

/// The store key for a workload's canonical trace at a scale.
fn store_key(workload: &Workload, scale: Scale) -> TraceKey {
    TraceKey {
        benchmark: workload.name().to_string(),
        scale: scale.name().to_string(),
        budget: scale.budget_for(workload.default_budget()) as u64,
        seed: workload.seed(),
        generator_version: sim_workloads::GENERATOR_VERSION,
    }
}

/// Produces the canonical trace of a benchmark at the given scale: a
/// [`workload_trace`] of its workload.
pub fn trace(ctx: &TelemetryCtx, bench: Benchmark, scale: Scale) -> VecTrace {
    workload_trace(ctx, &bench.workload(), scale)
}

/// Produces the canonical trace of a workload (a SPECint95 model or an
/// OO one) at the given scale: replayed from the content-addressed trace
/// store on a hit, generated (and recorded) on a miss. The store is the
/// one the process's knobs name (`REPRO_TRACE_STORE=off|rw|ro`,
/// `REPRO_TRACE_STORE_DIR`); the default is `rw` under `results/traces/`.
///
/// With telemetry active this also declares the workload as the
/// benchmark subsequent runs are attributed to (cells are sequential:
/// they generate one trace and run every configuration on it before
/// moving to the next benchmark), and accounts store hits, misses, and
/// decode throughput under `trace_store.*` counters.
///
/// When an installed fault plan (see [`crate::jobs::faults`]) truncates
/// this workload, the generated trace is proportionally shorter — the
/// downstream statistics all normalize by actual executed counts, so a
/// truncated trace degrades resolution, not correctness. Truncated
/// generation bypasses the store entirely: a degraded trace must never
/// be recorded under (or replayed from) the canonical cache key. A
/// corrupt store file (or an injected `truncate-store` fault) panics
/// with the store's diagnosis — under the campaign runner that is a
/// retryable cell failure, and the store has already deleted the bad
/// file so the retry regenerates it.
pub fn workload_trace(ctx: &TelemetryCtx, workload: &Workload, scale: Scale) -> VecTrace {
    let name = workload.name();
    let budget = scale.budget_for(workload.default_budget());
    let hub = ctx.hub();
    if let Some(hub) = hub {
        hub.set_benchmark(name);
    }
    if let Some(fraction) = crate::jobs::faults::active_truncation(name) {
        let _g = hub.map(|h| h.spans().span("workload-gen"));
        return workload.generate_truncated(budget, fraction);
    }
    let store = crate::knobs::get().trace_store();
    let key = store_key(workload, scale);
    let corrupt = crate::jobs::faults::take_store_truncation(name);
    let generate = || {
        let _g = hub.map(|h| h.spans().span("workload-gen"));
        workload.generate(budget)
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
            out.trace
        }
        Err(e) => panic!("trace store: {e}"),
    }
}

/// Runs the functional (accuracy-only) front end over a trace: a
/// [`functional_sweep`] of one configuration.
pub fn functional(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    frontend: FrontEndConfig,
) -> BranchClassStats {
    functional_sweep(ctx, trace, &[frontend])
        .pop()
        .expect("a sweep of one reports once")
        .stats()
        .clone()
}

/// Runs every configuration in `configs` over one trace through the
/// functional front end and returns their harness lanes — statistics,
/// target-cache statistics, cascade counts — in the same order.
///
/// Configurations that [share a baseline](FrontEndConfig::shares_base)
/// form one batch: one [`PredictionHarness`] drives the batch's BTB,
/// direction predictor and return stack once and every configuration's
/// indirect stage beside them, in one pass inside one `harness-replay`
/// span. Each configuration still gets its own manifest run record, event
/// stream and `trace.len()` instructions of credit, exactly as a lone
/// [`functional`] run does; a run record's wall time is its even share of
/// its batch's.
pub fn functional_sweep(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    configs: &[FrontEndConfig],
) -> Vec<Lane> {
    functional_sweep_observed(ctx, trace, configs, |_, _, _| {})
}

/// [`functional_sweep`], handing each branch's outcome under each
/// configuration to `observe` as `(index into configs, pc, outcome)`.
pub fn functional_sweep_observed(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    configs: &[FrontEndConfig],
    mut observe: impl FnMut(usize, Addr, &PredictionOutcome),
) -> Vec<Lane> {
    run_batches(
        ctx,
        trace,
        "harness-replay",
        configs,
        |a, b| configs[a].shares_base(&configs[b]),
        |batch, hooks| {
            let batch_configs: Vec<FrontEndConfig> = batch.iter().map(|&i| configs[i]).collect();
            let mut h = PredictionHarness::batch(&batch_configs);
            for (lane, hooks) in hooks.into_iter().flatten().enumerate() {
                h.attach_lane_telemetry(lane, hooks.clone());
            }
            h.run_observed(trace, |lane, pc, outcome| observe(batch[lane], pc, outcome));
            h.into_lanes()
        },
        |lane| {
            let indirect = lane.indirect();
            (
                lane.stats(),
                indirect.target_cache_stats(),
                indirect.cascade_counts(),
            )
        },
    )
}

/// Runs the timing model over a trace: a [`timing_sweep`] of one
/// configuration.
pub fn timing(ctx: &TelemetryCtx, trace: &VecTrace, frontend: FrontEndConfig) -> SimReport {
    timing_sweep(ctx, trace, &[MachineConfig::isca97(frontend)])
        .pop()
        .expect("a sweep of one reports once")
}

/// Runs every machine in `machines` over one trace and returns their
/// reports in the same order.
///
/// Machines that [share a baseline](MachineConfig::shares_base) — front
/// end and data cache — form one batch, simulated in one lockstep pass
/// ([`hps_uarch::simulate_batch`]) inside one `uarch-sim` span. Each
/// machine still gets its own manifest run record (with its target-cache
/// and cascade counts), event stream and `trace.len()` instructions of
/// credit, exactly as a lone [`timing`] run does; a run record's wall time
/// is its even share of its batch's.
pub fn timing_sweep(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    machines: &[MachineConfig],
) -> Vec<SimReport> {
    let frontends: Vec<FrontEndConfig> = machines.iter().map(|m| m.frontend).collect();
    run_batches(
        ctx,
        trace,
        "uarch-sim",
        &frontends,
        |a, b| machines[a].shares_base(&machines[b]),
        |batch, hooks| {
            let lanes: Vec<MachineConfig> = batch.iter().map(|&i| machines[i].clone()).collect();
            hps_uarch::simulate_batch(trace, &lanes, hooks)
        },
        |report| {
            (
                &report.branch_stats,
                report.target_cache_stats.as_ref(),
                report.cascade_counts,
            )
        },
    )
}

/// What a configuration's run record books: its branch statistics,
/// target-cache statistics and cascade counts.
type Books<'a> = (
    &'a BranchClassStats,
    Option<&'a TargetCacheStats>,
    Option<(u64, u64)>,
);

/// Runs one configuration per entry of `frontends` over `trace`, in
/// batches, and returns their results in the same order.
///
/// A batch is the first configuration not yet run plus every later one
/// `shares` pairs with it. `run` replays a batch, given its configuration
/// indices and, when telemetry is on, one set of hooks (so one event sink)
/// per member, inside one `span` span. Every configuration then gets its
/// own manifest run record (from its [`Books`]), event stream and
/// `trace.len()` instructions of credit; a run record's wall time is its
/// even share of its batch's.
fn run_batches<R>(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    span: &'static str,
    frontends: &[FrontEndConfig],
    shares: impl Fn(usize, usize) -> bool,
    mut run: impl FnMut(&[usize], Option<&[HarnessTelemetry]>) -> Vec<R>,
    books: impl Fn(&R) -> Books<'_>,
) -> Vec<R> {
    let mut results: Vec<Option<R>> = frontends.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..frontends.len()).collect();
    while let Some(&first) = pending.first() {
        let (batch, rest): (Vec<usize>, Vec<usize>) =
            pending.iter().partition(|&&i| shares(first, i));
        let hooks: Option<Vec<HarnessTelemetry>> = ctx
            .hub()
            .map(|hub| batch.iter().map(|_| hub.harness_telemetry()).collect());
        let started = Instant::now();
        let guard = ctx.hub().map(|hub| hub.spans().span(span));
        let out = run(&batch, hooks.as_deref());
        drop(guard);
        let wall_ns = started.elapsed().as_nanos() as u64 / batch.len() as u64;
        for (k, (&i, result)) in batch.iter().zip(out).enumerate() {
            if let (Some(hub), Some(hooks)) = (ctx.hub(), &hooks) {
                let (stats, tc, cascade) = books(&result);
                hub.finish_run(
                    &hooks[k],
                    &config_desc(&frontends[i]),
                    trace.len() as u64,
                    stats,
                    tc,
                    cascade,
                    wall_ns,
                );
            }
            results[i] = Some(result);
        }
        pending = rest;
    }
    // Credit every run to this thread's simulated-instruction account
    // (the jobs runner snapshots it per cell; telemetry or not).
    hub::add_instructions(frontends.len() as u64 * trace.len() as u64);
    results
        .into_iter()
        .map(|r| r.expect("every configuration runs in some batch"))
        .collect()
}

/// The paper's headline derived metric for each keyed target-cache
/// configuration — its execution-time reduction over the BTB-only
/// baseline on one trace — as cell data under the configuration's key.
/// The baseline and every configuration run as one [`timing_sweep`],
/// baseline first.
pub fn exec_reductions(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    configs: &[(String, TargetCacheConfig)],
) -> CellData {
    let machines: Vec<MachineConfig> = std::iter::once(FrontEndConfig::isca97_baseline())
        .chain(
            configs
                .iter()
                .map(|&(_, tc)| FrontEndConfig::isca97_with(tc)),
        )
        .map(MachineConfig::isca97)
        .collect();
    let reports = timing_sweep(ctx, trace, &machines);
    let (base, with_tc) = reports.split_first().expect("the baseline runs first");
    let mut d = CellData::new();
    for ((key, _), report) in configs.iter().zip(with_tc) {
        d.set(key.clone(), report.exec_time_reduction_vs(base));
    }
    d
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
        let machines = [
            FrontEndConfig::isca97_baseline(),
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
            FrontEndConfig::isca97_oracle(),
        ]
        .map(MachineConfig::isca97);
        let single: Vec<SimReport> = machines
            .iter()
            .map(|m| timing(&off, &t, m.frontend))
            .collect();

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
        assert_eq!(timing_sweep(&ctx, &t, &machines), single);

        // Every configuration keeps its own credit and counters ...
        let (len, branches) = (t.len() as u64, t.stats().branches());
        assert_eq!(hub::take_instructions(), 3 * len);
        let h = ctx.hub().expect("telemetry on");
        let counters = h.registry().snapshot();
        assert_eq!(counters.counter("harness.branches"), 3 * branches);
        // ... and its own pipeline-stage samples, while the batch is one
        // span and the baseline front end is sampled once per branch.
        let spans = h.spans().snapshot();
        let uarch = spans.iter().find(|s| s.name() == "uarch-sim").unwrap();
        assert_eq!(uarch.count, 1);
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
    fn a_batched_cell_records_what_batches_of_one_record() {
        use crate::telemetry::{session_with_config, ProfMode, TelemetryConfig, TelemetryMode};
        use sim_telemetry::Json;

        // One Table 5 cell under an events session with full profiling:
        // everything a timing run records must be the same whether the 26
        // configurations replay as one batch (as the cell runs them) or
        // as 26 batches of one.
        let configs = crate::table5::configs();
        let len = trace(&TelemetryCtx::off(), Benchmark::Perl, Scale::Quick).len() as u64;
        let observe = |batched: bool| {
            let dir = std::env::temp_dir()
                .join(format!("runner-parity-{}-{batched}", std::process::id()));
            let session = session_with_config(
                "parity",
                Scale::Quick,
                TelemetryConfig {
                    mode: TelemetryMode::Events,
                    prof: ProfMode::Full,
                    dir: dir.clone(),
                    ..TelemetryConfig::off()
                },
            );
            let ctx = session.ctx();
            let cell = if batched {
                crate::table5::cell(&ctx, "perl", Scale::Quick)
            } else {
                let t = trace(&ctx, Benchmark::Perl, Scale::Quick);
                let machines = std::iter::once(FrontEndConfig::isca97_baseline())
                    .chain(
                        configs
                            .iter()
                            .map(|&(_, tc)| FrontEndConfig::isca97_with(tc)),
                    )
                    .map(MachineConfig::isca97);
                let reports: Vec<SimReport> = machines
                    .flat_map(|m| timing_sweep(&ctx, &t, std::slice::from_ref(&m)))
                    .collect();
                let mut d = CellData::new();
                for ((key, _), report) in configs.iter().zip(&reports[1..]) {
                    d.set(key.clone(), report.exec_time_reduction_vs(&reports[0]));
                }
                d
            };
            let h = ctx.hub().expect("telemetry on").clone();
            // Wall-clock counters aside, every counter must agree.
            let counters: Vec<(String, u64)> = h
                .registry()
                .snapshot()
                .counters()
                .filter(|(name, _)| !name.ends_with("_ns"))
                .map(|(name, v)| (name.to_string(), v))
                .collect();
            let hot = h.hot().snapshot();
            let samples = |name: &str| hot.iter().find(|s| s.name == name).map_or(0, |s| s.count);
            let stages = ["uarch-fetch", "uarch-execute", "uarch-retire"].map(samples);
            let (manifest_path, events_path) = (session.manifest_path(), session.events_path());
            drop(session);
            let manifest =
                sim_telemetry::json::parse(&std::fs::read_to_string(&manifest_path).unwrap())
                    .expect("manifest parses");
            let runs: Vec<Json> = manifest
                .get("runs")
                .and_then(Json::as_arr)
                .expect("manifest lists its runs")
                .iter()
                .map(|run| {
                    let mut run = run.clone();
                    if let Json::Obj(fields) = &mut run {
                        fields.remove("wall_ns");
                    }
                    run
                })
                .collect();
            let events = std::fs::read_to_string(&events_path).expect("events written");
            let _ = std::fs::remove_dir_all(&dir);
            (cell, counters, stages, runs, events)
        };
        let (batched, one_by_one) = (observe(true), observe(false));
        assert_eq!(batched.0, one_by_one.0, "cell values");
        assert_eq!(batched.1, one_by_one.1, "counters");
        assert_eq!(batched.2, [26 * len; 3], "uarch stage samples");
        assert_eq!(batched.2, one_by_one.2);
        assert_eq!(batched.3.len(), 26);
        assert_eq!(batched.3, one_by_one.3, "manifest run records");
        // Event streams run to megabytes: name the first difference.
        let (events, alone): (Vec<&str>, Vec<&str>) =
            (batched.4.lines().collect(), one_by_one.4.lines().collect());
        assert!(!events.is_empty(), "perl mispredicts some jumps");
        assert_eq!(events.len(), alone.len(), "event count");
        if let Some(i) = events.iter().zip(&alone).position(|(a, b)| a != b) {
            panic!("event {i} differs: {} vs {}", events[i], alone[i]);
        }
    }

    /// A quick-scale telemetry session writing under a fresh scratch
    /// directory.
    fn scratch_session(
        name: &str,
        mode: crate::telemetry::TelemetryMode,
        prof: crate::telemetry::ProfMode,
    ) -> (crate::telemetry::Session, PathBuf) {
        use crate::telemetry::{session_with_config, TelemetryConfig};
        let dir = std::env::temp_dir().join(format!("runner-{name}-{}", std::process::id()));
        let session = session_with_config(
            name,
            Scale::Quick,
            TelemetryConfig {
                mode,
                prof,
                dir: dir.clone(),
                ..TelemetryConfig::off()
            },
        );
        (session, dir)
    }

    /// The manifest's run records, each without its wall time.
    fn run_records(manifest_path: &std::path::Path) -> Vec<sim_telemetry::Json> {
        use sim_telemetry::Json;
        let manifest = sim_telemetry::json::parse(&std::fs::read_to_string(manifest_path).unwrap())
            .expect("manifest parses");
        manifest
            .get("runs")
            .and_then(Json::as_arr)
            .expect("manifest lists its runs")
            .iter()
            .map(|run| {
                let mut run = run.clone();
                if let Json::Obj(fields) = &mut run {
                    fields.remove("wall_ns");
                }
                run
            })
            .collect()
    }

    #[test]
    fn a_batched_functional_cell_records_what_batches_of_one_record() {
        use crate::telemetry::{ProfMode, TelemetryMode};

        // One cascade-study cell under an events session with full
        // profiling: everything a functional run records must be the same
        // whether its four configurations replay as one batch (as the cell
        // runs them) or as four batches of one.
        let t = trace(&TelemetryCtx::off(), Benchmark::Perl, Scale::Quick);
        let stats = t.stats();
        let (len, branches, jumps) = (t.len() as u64, stats.branches(), stats.indirect_jumps());
        let observe = |batched: bool| {
            let (session, dir) = scratch_session(
                &format!("fparity-{batched}"),
                TelemetryMode::Events,
                ProfMode::Full,
            );
            let ctx = session.ctx();
            hub::take_instructions();
            let cell = if batched {
                crate::extension_cascade::cell(&ctx, "perl", Scale::Quick)
            } else {
                let t = trace(&ctx, Benchmark::Perl, Scale::Quick);
                let mut d = CellData::new();
                for (key, fe) in crate::extension_cascade::configs() {
                    let lane = functional_sweep(&ctx, &t, &[fe]).pop().unwrap();
                    d.set(key, lane.stats().indirect_jump_misprediction_rate());
                    if key == "cascade_512" {
                        d.set(
                            "filter_rate",
                            lane.indirect().cascade_filter_rate().unwrap(),
                        );
                    }
                }
                d
            };
            let credit = hub::take_instructions();
            let h = ctx.hub().expect("telemetry on").clone();
            // Wall-clock counters aside, every counter must agree.
            let counters: Vec<(String, u64)> = h
                .registry()
                .snapshot()
                .counters()
                .filter(|(name, _)| !name.ends_with("_ns"))
                .map(|(name, v)| (name.to_string(), v))
                .collect();
            let hot = h.hot().snapshot();
            let samples = |name: &str| hot.iter().find(|s| s.name == name).map_or(0, |s| s.count);
            let lane_phases = ["tc-index", "tc-lookup", "tc-update", "history-update"].map(samples);
            let base_phases = ["btb-lookup", "ras", "dir-update", "btb-update"].map(samples);
            let spans = h.spans().snapshot();
            let replays: u64 = spans
                .iter()
                .filter(|s| s.name() == "harness-replay")
                .map(|s| s.count)
                .sum();
            let (manifest_path, events_path) = (session.manifest_path(), session.events_path());
            drop(session);
            let runs = run_records(&manifest_path);
            let events = std::fs::read_to_string(&events_path).expect("events written");
            let _ = std::fs::remove_dir_all(&dir);
            (
                cell,
                counters,
                lane_phases,
                runs,
                events,
                credit,
                base_phases,
                replays,
            )
        };
        let (batched, one_by_one) = (observe(true), observe(false));
        assert_eq!(batched.0, one_by_one.0, "cell values");
        assert_eq!(batched.1, one_by_one.1, "counters");
        // Each lane samples its indirect-stage phases: the history update
        // on every branch, the target-cache phases only on the branches
        // its indirect stage handles (perl's sites each have one class, so
        // those are its indirect jumps and calls).
        assert_eq!(batched.2, one_by_one.2, "indirect-stage phase samples");
        assert_eq!(batched.2, [4 * jumps, 4 * jumps, 4 * jumps, 4 * branches]);
        assert_eq!(batched.3.len(), 4);
        assert_eq!(batched.3, one_by_one.3, "manifest run records");
        assert_eq!(batched.5, 4 * len, "instruction credit");
        assert_eq!(batched.5, one_by_one.5);
        // The baseline is sampled once per batch, in one span.
        assert_eq!(batched.6, [branches; 4], "baseline phase samples");
        assert_eq!(one_by_one.6, [4 * branches; 4]);
        assert_eq!((batched.7, one_by_one.7), (1, 4), "harness-replay spans");
        // Event streams run to megabytes: name the first difference.
        let (events, alone): (Vec<&str>, Vec<&str>) =
            (batched.4.lines().collect(), one_by_one.4.lines().collect());
        assert!(!events.is_empty(), "perl mispredicts some jumps");
        assert_eq!(events.len(), alone.len(), "event count");
        if let Some(i) = events.iter().zip(&alone).position(|(a, b)| a != b) {
            panic!("event {i} differs: {} vs {}", events[i], alone[i]);
        }
    }

    #[test]
    fn timing_run_records_carry_the_target_cache_counters_of_the_functional_run() {
        use crate::telemetry::{ProfMode, TelemetryMode};
        use sim_telemetry::Json;

        // The headline cell runs its target cache functionally and in the
        // timing model: both drive one indirect stage over the same
        // resolved branch stream, so their target-cache counters agree.
        let (session, dir) = scratch_session("tc-counters", TelemetryMode::Summary, ProfMode::Off);
        crate::headline::cell(&session.ctx(), "perl", Scale::Quick);
        let manifest_path = session.manifest_path();
        drop(session);
        let runs = run_records(&manifest_path);
        let _ = std::fs::remove_dir_all(&dir);
        let tc_runs: Vec<&Json> = runs
            .iter()
            .filter(|run| {
                run.get("config")
                    .and_then(Json::as_str)
                    .is_some_and(|c| c.starts_with("target-cache"))
            })
            .collect();
        assert_eq!(tc_runs.len(), 2, "one functional and one timing run");
        let tc = |run: &Json| {
            ["tc.lookups", "tc.hits", "tc.misses", "tc.updates"].map(|name| {
                run.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("{name} missing"))
            })
        };
        let (functional, timing) = (tc(tc_runs[0]), tc(tc_runs[1]));
        assert!(functional[0] > 0, "perl looks its jumps up");
        assert_eq!(timing[1] + timing[2], timing[0], "hits + misses == lookups");
        assert_eq!(timing, functional);
    }

    #[test]
    fn target_cache_reduces_execution_time_on_perl() {
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Perl, Scale::Quick);
        let red = exec_reductions(
            &ctx,
            &t,
            &[("tc".into(), TargetCacheConfig::isca97_tagless_gshare())],
        )
        .req("tc");
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
