//! The perf-trajectory harness behind `repro-bench`.
//!
//! Runs a standardized scenario matrix — per-benchmark trace generation,
//! per-predictor functional prediction, the timing model, and an
//! end-to-end table regeneration — for a configurable number of warmup
//! and measured iterations, and writes a machine-readable
//! `BENCH_<n>.json` snapshot: median/min/max wall nanoseconds,
//! instructions per second, per-phase span breakdowns, the git revision,
//! and the scale. Consecutive snapshots form a performance trajectory;
//! [`gate`] diffs two of them and reports scenarios whose median time
//! regressed beyond a tolerance, which CI uses to fail the build.
//!
//! The matrix reuses the same [`crate::runner`] entry points the
//! registry cells and the `bench` crate's Criterion benches run, so
//! `cargo bench` and `repro-bench` measure the same code paths.

use crate::runner::{self, Scale};
use crate::telemetry::{self as hub, TelemetryCtx};
use sim_telemetry::json::{obj, parse, Json};
use sim_telemetry::manifest::per_sec;
use sim_telemetry::SpanStat;
use sim_workloads::Benchmark;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// The `BENCH_<n>.json` format version, bumped on breaking changes.
pub const BENCH_FORMAT: u64 = 1;

/// One named, repeatable unit of work in the scenario matrix.
pub struct Scenario {
    /// Scenario id (`functional-tc/perl`), stable across runs so
    /// trajectories and baselines can be matched scenario-by-scenario.
    pub name: String,
    run: Box<dyn FnMut() -> u64>,
}

impl Scenario {
    /// Wraps a closure that performs the work once and returns the
    /// number of simulated (or generated) instructions it processed.
    pub fn new(name: impl Into<String>, run: impl FnMut() -> u64 + 'static) -> Scenario {
        Scenario {
            name: name.into(),
            run: Box::new(run),
        }
    }

    /// Performs the scenario's work once, untimed, returning the
    /// instruction count — for callers (like the Criterion benches)
    /// that bring their own timing loop.
    pub fn run_once(&mut self) -> u64 {
        (self.run)()
    }
}

/// Builds the standard scenario matrix at a scale.
///
/// * `trace-gen/<bench>` — workload trace generation, all 8 benchmarks.
///   Calls the generator directly (bypassing the trace store) so the
///   scenario keeps measuring generation even when `results/traces/` is
///   warm.
/// * `trace-encode/<bench>` — `.strc` encoding of a pre-generated
///   trace, all 8 benchmarks. Reports `bytes` (and so bytes/instr).
/// * `trace-decode/<bench>` — streaming `.strc` decode back to a
///   [`sim_isa::VecTrace`], all 8 benchmarks.
/// * `functional-btb/<bench>` — functional prediction, BTB-only
///   baseline front end, all 8 benchmarks.
/// * `functional-tc/<bench>` — functional prediction with the paper's
///   tagless gshare target cache, all 8 benchmarks.
/// * `timing/<bench>` — the cycle-level timing model on the two
///   heaviest indirect-jump workloads (perl, gcc): one configuration, a
///   batch of one.
/// * `timing-sweep/<bench>` — Table 5's 26 configurations (the BTB
///   baseline plus 25 target caches) on one trace as one batch
///   ([`runner::exec_reductions`]), as the timing tables run them; its
///   time per instruction is the cost per configuration.
/// * `functional-sweep/<bench>` — the cascade study's four front ends on
///   one trace as one batch ([`runner::functional_sweep`]), as the
///   functional tables run them; its time per instruction is the cost per
///   configuration.
/// * `analysis-static` — the full static-analysis stack (verification
///   plus the predictability profile) over all 8 benchmark models.
/// * `analysis-conformance` — trace-conformance replay of the shared
///   gcc trace against its static image.
/// * `simpoint-fingerprint` — BBV fingerprinting plus phase clustering
///   over the two heaviest indirect-jump workloads (perl, gcc).
/// * `simpoint-sampled-table1` — the per-run sampled measurement path
///   (cached phase map, warmed representative slices, weighted
///   recombination) on perl and gcc; compare against
///   `functional-btb/{perl,gcc}` for the sampling speedup.
/// * `e2e/table1` — end-to-end Table 1 regeneration at quick scale.
///
/// Traces for the replay scenarios are generated once up front and
/// shared, so their samples measure prediction, not generation.
pub fn scenario_matrix(ctx: &TelemetryCtx, scale: Scale) -> Vec<Scenario> {
    use target_cache::harness::FrontEndConfig;
    use target_cache::TargetCacheConfig;

    // Each scenario re-declares its benchmark for manifest run
    // attribution (shared traces mean generation happens up front).
    // Scenario closures are 'static, so each captures its own clone of
    // the (cheap, Arc-backed) context.
    let claim = {
        let ctx = ctx.clone();
        move |bench: Benchmark| {
            if let Some(hub) = ctx.hub() {
                hub.set_benchmark(bench.name());
            }
        }
    };
    let mut scenarios = Vec::new();
    for bench in Benchmark::ALL {
        let budget = scale.budget(bench);
        let ctx = ctx.clone();
        let claim = claim.clone();
        scenarios.push(Scenario::new(format!("trace-gen/{bench}"), move || {
            claim(bench);
            let _g = ctx.hub().map(|h| h.spans().span("workload-gen"));
            bench.workload().generate(budget).len() as u64
        }));
    }
    let traces: BTreeMap<&'static str, Rc<sim_isa::VecTrace>> = Benchmark::ALL
        .iter()
        .map(|&b| (b.name(), Rc::new(runner::trace(ctx, b, scale))))
        .collect();
    let meta_for = move |bench: Benchmark| sim_trace::TraceMeta {
        benchmark: bench.name().to_string(),
        scale: scale.name().to_string(),
        seed: bench.workload().seed(),
        generator_version: sim_workloads::GENERATOR_VERSION,
    };
    for bench in Benchmark::ALL {
        let trace = Rc::clone(&traces[bench.name()]);
        let claim = claim.clone();
        scenarios.push(Scenario::new(format!("trace-encode/{bench}"), move || {
            claim(bench);
            let bytes =
                sim_trace::encode_to_vec(meta_for(bench), &trace).expect("in-memory encode");
            set_scenario_bytes(bytes.len() as u64);
            std::hint::black_box(&bytes);
            trace.len() as u64
        }));
    }
    for bench in Benchmark::ALL {
        let trace = Rc::clone(&traces[bench.name()]);
        let encoded: Rc<Vec<u8>> =
            Rc::new(sim_trace::encode_to_vec(meta_for(bench), &trace).expect("in-memory encode"));
        let claim = claim.clone();
        scenarios.push(Scenario::new(format!("trace-decode/{bench}"), move || {
            claim(bench);
            set_scenario_bytes(encoded.len() as u64);
            let decoded = sim_trace::TraceReader::new(encoded.as_slice())
                .and_then(sim_trace::TraceReader::read_to_end)
                .expect("decode of a fresh encode");
            decoded.len() as u64
        }));
    }
    for bench in Benchmark::ALL {
        let trace = Rc::clone(&traces[bench.name()]);
        let ctx = ctx.clone();
        let claim = claim.clone();
        scenarios.push(Scenario::new(
            format!("functional-btb/{bench}"),
            move || {
                claim(bench);
                runner::functional(&ctx, &trace, FrontEndConfig::isca97_baseline());
                trace.len() as u64
            },
        ));
    }
    for bench in Benchmark::ALL {
        let trace = Rc::clone(&traces[bench.name()]);
        let ctx = ctx.clone();
        let claim = claim.clone();
        scenarios.push(Scenario::new(format!("functional-tc/{bench}"), move || {
            claim(bench);
            runner::functional(
                &ctx,
                &trace,
                FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
            );
            trace.len() as u64
        }));
    }
    for bench in [Benchmark::Perl, Benchmark::Gcc] {
        let trace = Rc::clone(&traces[bench.name()]);
        let ctx = ctx.clone();
        let claim = claim.clone();
        scenarios.push(Scenario::new(format!("timing/{bench}"), move || {
            claim(bench);
            runner::timing(&ctx, &trace, FrontEndConfig::isca97_baseline()).instructions
        }));
    }
    for bench in [Benchmark::Perl, Benchmark::Gcc] {
        let trace = Rc::clone(&traces[bench.name()]);
        let ctx = ctx.clone();
        let claim = claim.clone();
        scenarios.push(Scenario::new(format!("timing-sweep/{bench}"), move || {
            claim(bench);
            let configs = crate::table5::configs();
            std::hint::black_box(runner::exec_reductions(&ctx, &trace, &configs));
            (1 + configs.len() as u64) * trace.len() as u64
        }));
    }
    for bench in [Benchmark::Perl, Benchmark::Gcc] {
        let trace = Rc::clone(&traces[bench.name()]);
        let ctx = ctx.clone();
        let claim = claim.clone();
        scenarios.push(Scenario::new(
            format!("functional-sweep/{bench}"),
            move || {
                claim(bench);
                let configs: Vec<FrontEndConfig> = crate::extension_cascade::configs()
                    .into_iter()
                    .map(|(_, fe)| fe)
                    .collect();
                std::hint::black_box(runner::functional_sweep(&ctx, &trace, &configs));
                configs.len() as u64 * trace.len() as u64
            },
        ));
    }
    scenarios.push(Scenario::new("analysis-static", move || {
        // The whole static-analysis stack over every benchmark model:
        // CFG/layout verification plus the predictability profile.
        let mut sites = 0u64;
        let mut instrs = 0u64;
        for bench in Benchmark::ALL {
            let workload = bench.workload();
            let mut findings = sim_analysis::Findings::new();
            let a = sim_analysis::analyze_program(workload.program(), &mut findings)
                .expect("benchmark models analyze clean");
            let stat = sim_analysis::StaticPredictability::compute(
                workload.program(),
                &a.cfg,
                &a.image,
                sim_analysis::predictability::DEFAULT_PATH_DEPTH,
            );
            sites += stat.sites.len() as u64;
            instrs += a.metrics.static_instructions as u64;
        }
        std::hint::black_box(sites);
        instrs
    }));
    {
        let bench = Benchmark::Gcc;
        let trace = Rc::clone(&traces[bench.name()]);
        let claim = claim.clone();
        scenarios.push(Scenario::new("analysis-conformance", move || {
            claim(bench);
            let workload = bench.workload();
            let mut findings = sim_analysis::Findings::new();
            let a = sim_analysis::analyze_program(workload.program(), &mut findings)
                .expect("benchmark models analyze clean");
            let stats = trace.stats();
            let report = sim_analysis::check_trace(
                &a.image,
                trace.as_ref(),
                &stats,
                Some(trace.len()),
                &mut findings,
            );
            report.instructions as u64
        }));
    }
    {
        // Phase-sampling layer, on the two heaviest indirect-jump
        // workloads. `simpoint-fingerprint` isolates BBV fingerprinting
        // plus clustering — the cost of building a phase map, paid only
        // when the trace has no cached `.phases.json` map.
        // `simpoint-sampled-table1` is the sampled measurement path a
        // campaign actually pays per run: the cached phase map beside
        // the store file plus warmed representative simulation. Its
        // wall clock against exact `functional-btb/{perl,gcc}` is the
        // sampling speedup the BENCH trajectory documents.
        let perl = Rc::clone(&traces[Benchmark::Perl.name()]);
        let gcc = Rc::clone(&traces[Benchmark::Gcc.name()]);
        scenarios.push(Scenario::new("simpoint-fingerprint", {
            let (perl, gcc) = (Rc::clone(&perl), Rc::clone(&gcc));
            move || {
                let mut instructions = 0u64;
                for trace in [&perl, &gcc] {
                    let bbv = sim_trace::fingerprint_trace(trace);
                    let map = simpoint::cluster(&bbv.chunks, &simpoint::ClusterConfig::default());
                    std::hint::black_box(map.k);
                    instructions += trace.len() as u64;
                }
                instructions
            }
        }));
        let ctx = ctx.clone();
        scenarios.push(Scenario::new("simpoint-sampled-table1", move || {
            let _ = hub::take_instructions();
            for (bench, trace) in [(Benchmark::Perl, &perl), (Benchmark::Gcc, &gcc)] {
                // The real campaign prologue: cached phase map beside
                // the store file (fingerprinted and clustered on the
                // first-ever run), then warmed representative
                // simulation.
                let map = crate::sample::stored_phase_map(&ctx, bench, scale, trace);
                let rate = crate::sample::sampled_indirect_mispred(
                    &ctx,
                    trace,
                    &map,
                    crate::sample::WARMUP_RECORDS,
                    FrontEndConfig::isca97_baseline(),
                );
                std::hint::black_box(rate);
            }
            hub::take_instructions()
        }));
    }
    let e2e_ctx = ctx.clone();
    scenarios.push(Scenario::new("e2e/table1", move || {
        let def = crate::jobs::registry::find("table1").expect("table1 is registered");
        let _ = hub::take_instructions();
        let _ = (def.render)(&def.compute(&e2e_ctx, Scale::Quick));
        hub::take_instructions()
    }));
    scenarios
}

/// Scenario closures that produce a byte artifact (an encoded `.strc`
/// image) report its size here; [`measure`] collects it into
/// [`ScenarioResult::bytes`] so snapshots can derive bytes/instruction.
/// Scenarios that don't call this report 0 bytes.
pub fn set_scenario_bytes(n: u64) {
    SCENARIO_BYTES.store(n, std::sync::atomic::Ordering::Relaxed);
}

fn take_scenario_bytes() -> u64 {
    SCENARIO_BYTES.swap(0, std::sync::atomic::Ordering::Relaxed)
}

static SCENARIO_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How a matrix run is sampled.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Scale the scenarios run at.
    pub scale: Scale,
    /// Untimed warmup iterations per scenario.
    pub warmup: u32,
    /// Timed iterations per scenario (clamped to at least 1).
    pub iters: u32,
}

/// One scenario's measured result.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Scenario id, matching [`Scenario::name`].
    pub name: String,
    /// Median wall nanoseconds per iteration.
    pub median_ns: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
    /// Instructions processed per iteration.
    pub instructions: u64,
    /// Bytes of output artifact per iteration (0 for scenarios that
    /// don't produce one; the `trace-encode`/`trace-decode` scenarios
    /// report the `.strc` image size).
    pub bytes: u64,
    /// Per-phase breakdown: span path → (count, total ns) summed over
    /// the measured iterations. Empty when telemetry is off.
    pub phases: BTreeMap<String, (u64, u64)>,
}

impl ScenarioResult {
    /// Throughput at the median: instructions per second.
    pub fn instr_per_sec(&self) -> f64 {
        per_sec(self.instructions, self.median_ns)
    }

    /// Encoded-artifact density: bytes per instruction (0.0 when the
    /// scenario reports no bytes).
    pub fn bytes_per_instr(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.bytes as f64 / self.instructions as f64
        }
    }

    fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|(path, &(count, total_ns))| {
                (
                    path.clone(),
                    obj([
                        ("count", Json::from(count)),
                        ("total_ns", Json::from(total_ns)),
                    ]),
                )
            })
            .collect();
        let json = obj([
            ("name", Json::from(self.name.as_str())),
            ("median_ns", Json::from(self.median_ns)),
            ("min_ns", Json::from(self.min_ns)),
            ("max_ns", Json::from(self.max_ns)),
            ("instructions", Json::from(self.instructions)),
            ("instr_per_sec", Json::from(self.instr_per_sec())),
            ("phases", Json::Obj(phases)),
        ]);
        if self.bytes == 0 {
            return json;
        }
        let Json::Obj(mut fields) = json else {
            unreachable!("obj() builds an object");
        };
        fields.insert("bytes".to_string(), Json::from(self.bytes));
        fields.insert(
            "bytes_per_instr".to_string(),
            Json::from(self.bytes_per_instr()),
        );
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<ScenarioResult, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("scenario missing numeric {name:?}"))
        };
        let mut phases = BTreeMap::new();
        if let Some(Json::Obj(map)) = v.get("phases") {
            for (path, entry) in map {
                let count = entry.get("count").and_then(Json::as_u64).unwrap_or(0);
                let total = entry.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
                phases.insert(path.clone(), (count, total));
            }
        }
        Ok(ScenarioResult {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("scenario missing \"name\"")?
                .to_string(),
            median_ns: field("median_ns")?,
            min_ns: field("min_ns")?,
            max_ns: field("max_ns")?,
            instructions: field("instructions")?,
            // Tolerant: snapshots written before the trace-format
            // scenarios existed have no "bytes" field.
            bytes: v.get("bytes").and_then(Json::as_u64).unwrap_or(0),
            phases,
        })
    }
}

/// A full `BENCH_<n>.json` document: one matrix run's results plus the
/// provenance needed to compare it against other runs.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Git revision the run measured (`"unknown"` outside a checkout).
    pub git_rev: String,
    /// Scale name the matrix ran at.
    pub scale: String,
    /// Warmup iterations per scenario.
    pub warmup: u32,
    /// Measured iterations per scenario.
    pub iters: u32,
    /// Unix seconds when the run finished.
    pub unix_secs: u64,
    /// Per-scenario results, in matrix order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Serializes to the `BENCH_<n>.json` document.
    pub fn to_json(&self) -> Json {
        obj([
            ("bench_format", Json::from(BENCH_FORMAT)),
            ("tool", Json::from("repro-bench")),
            ("git_rev", Json::from(self.git_rev.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("warmup", Json::from(u64::from(self.warmup))),
            ("iters", Json::from(u64::from(self.iters))),
            ("unix_secs", Json::from(self.unix_secs)),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioResult::to_json).collect()),
            ),
        ])
    }

    /// Parses a `BENCH_<n>.json` document with the strict JSON parser.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let v = parse(text).map_err(|e| e.to_string())?;
        let format = v
            .get("bench_format")
            .and_then(Json::as_u64)
            .ok_or("missing \"bench_format\"")?;
        if format != BENCH_FORMAT {
            return Err(format!(
                "unsupported bench_format {format} (this build reads {BENCH_FORMAT})"
            ));
        }
        let scenarios = v
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("missing \"scenarios\" array")?
            .iter()
            .map(ScenarioResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("missing {name:?}"))
        };
        Ok(BenchReport {
            git_rev: str_field("git_rev")?,
            scale: str_field("scale")?,
            warmup: v.get("warmup").and_then(Json::as_u64).unwrap_or(0) as u32,
            iters: v.get("iters").and_then(Json::as_u64).unwrap_or(1) as u32,
            unix_secs: v.get("unix_secs").and_then(Json::as_u64).unwrap_or(0),
            scenarios,
        })
    }

    /// The result for a scenario name, if present.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Measures one scenario: warmup iterations, then `iters` timed samples,
/// with per-phase span deltas captured across the measured window.
pub fn measure(
    ctx: &TelemetryCtx,
    config: &BenchConfig,
    scenario: &mut Scenario,
) -> ScenarioResult {
    let _ = hub::take_instructions();
    for _ in 0..config.warmup {
        (scenario.run)();
        let _ = hub::take_instructions();
    }
    let _ = take_scenario_bytes();
    let span_base = span_snapshot(ctx);
    let mut samples = Vec::new();
    let mut instructions = 0;
    for _ in 0..config.iters.max(1) {
        let started = Instant::now();
        instructions = (scenario.run)();
        samples.push(started.elapsed().as_nanos() as u64);
        let _ = hub::take_instructions();
    }
    samples.sort_unstable();
    ScenarioResult {
        name: scenario.name.clone(),
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: *samples.last().expect("at least one sample"),
        instructions,
        bytes: take_scenario_bytes(),
        phases: span_delta(&span_base, &span_snapshot(ctx)),
    }
}

/// Runs every scenario through [`measure`], invoking `on_result` after
/// each so callers can stream progress.
pub fn run_matrix(
    ctx: &TelemetryCtx,
    config: &BenchConfig,
    mut scenarios: Vec<Scenario>,
    mut on_result: impl FnMut(&ScenarioResult),
) -> Vec<ScenarioResult> {
    scenarios
        .iter_mut()
        .map(|s| {
            let result = measure(ctx, config, s);
            on_result(&result);
            result
        })
        .collect()
}

fn span_snapshot(ctx: &TelemetryCtx) -> BTreeMap<String, (u64, u64)> {
    match ctx.hub() {
        Some(h) => h
            .spans()
            .snapshot()
            .into_iter()
            .map(
                |SpanStat {
                     path,
                     count,
                     total_ns,
                     ..
                 }| (path, (count, total_ns)),
            )
            .collect(),
        None => BTreeMap::new(),
    }
}

/// What the span registry accumulated between two snapshots.
fn span_delta(
    before: &BTreeMap<String, (u64, u64)>,
    after: &BTreeMap<String, (u64, u64)>,
) -> BTreeMap<String, (u64, u64)> {
    after
        .iter()
        .filter_map(|(path, &(count, ns))| {
            let (c0, n0) = before.get(path).copied().unwrap_or((0, 0));
            let delta = (count.saturating_sub(c0), ns.saturating_sub(n0));
            (delta.0 > 0 || delta.1 > 0).then(|| (path.clone(), delta))
        })
        .collect()
}

/// One scenario whose median time regressed beyond the gate tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Scenario id.
    pub scenario: String,
    /// Baseline median nanoseconds.
    pub baseline_ns: u64,
    /// Current median nanoseconds.
    pub current_ns: u64,
    /// Observed slowdown in percent (120.0 = 2.2× the baseline).
    pub pct: f64,
}

/// Diffs `current` against `baseline`: every scenario present in both
/// whose median time grew by more than `tolerance_pct` percent is a
/// regression. Scenarios missing from either side are skipped — adding
/// or retiring a scenario must not trip the gate.
pub fn gate(current: &BenchReport, baseline: &BenchReport, tolerance_pct: f64) -> Vec<Regression> {
    current
        .scenarios
        .iter()
        .filter_map(|s| {
            let base = baseline.scenario(&s.name)?;
            if base.median_ns == 0 {
                return None;
            }
            let pct = (s.median_ns as f64 / base.median_ns as f64 - 1.0) * 100.0;
            (pct > tolerance_pct).then(|| Regression {
                scenario: s.name.clone(),
                baseline_ns: base.median_ns,
                current_ns: s.median_ns,
                pct,
            })
        })
        .collect()
}

/// The first unused `BENCH_<n>.json` path in `dir` (`BENCH_0.json` for
/// an empty directory).
pub fn next_bench_path(dir: &Path) -> PathBuf {
    let next = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let n: u64 = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some(n + 1)
        })
        .max()
        .unwrap_or(0);
    dir.join(format!("BENCH_{next}.json"))
}

/// The current git revision, or `"unknown"` outside a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, median_ns: u64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            median_ns,
            min_ns: median_ns / 2,
            max_ns: median_ns * 2,
            instructions: 100_000,
            bytes: 0,
            phases: BTreeMap::from([("harness-replay".to_string(), (3, median_ns))]),
        }
    }

    fn report(medians: &[(&str, u64)]) -> BenchReport {
        BenchReport {
            git_rev: "abc123".into(),
            scale: "quick".into(),
            warmup: 1,
            iters: 3,
            unix_secs: 1_700_000_000,
            scenarios: medians.iter().map(|&(n, m)| result(n, m)).collect(),
        }
    }

    #[test]
    fn bench_report_round_trips_through_strict_parser() {
        let mut original = report(&[("functional-tc/perl", 4_000_000), ("timing/gcc", 9_000_000)]);
        let mut encode = result("trace-encode/perl", 1_000_000);
        encode.bytes = 250_000; // 2.5 bytes/instr over 100k instructions
        original.scenarios.push(encode);
        let text = original.to_json().to_string();
        let parsed = BenchReport::parse(&text).unwrap();
        assert_eq!(parsed, original);
        let s = parsed.scenario("functional-tc/perl").unwrap();
        assert_eq!(s.phases["harness-replay"], (3, 4_000_000));
        assert!((s.instr_per_sec() - 25_000_000.0).abs() < 1.0);
        // Byte-free scenarios omit the field entirely; byte-producing
        // ones round-trip it and derive density.
        assert_eq!(s.bytes, 0);
        let e = parsed.scenario("trace-encode/perl").unwrap();
        assert_eq!(e.bytes, 250_000);
        assert!((e.bytes_per_instr() - 2.5).abs() < 1e-12);
        assert!(text.contains("\"bytes_per_instr\""));
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_format() {
        assert!(BenchReport::parse("{not json").is_err());
        assert!(BenchReport::parse("{\"bench_format\": 99}").is_err());
        assert!(
            BenchReport::parse("{\"bench_format\": 1}").is_err(),
            "missing scenarios"
        );
    }

    #[test]
    fn gate_trips_only_beyond_tolerance() {
        let base = report(&[("a", 1_000), ("b", 1_000), ("gone", 500)]);
        let current = report(&[("a", 1_200), ("b", 2_000), ("new", 9_999)]);
        // 20% growth passes a 25% gate; 100% growth fails it; scenarios
        // present on only one side never trip.
        let regressions = gate(&current, &base, 25.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].scenario, "b");
        assert!((regressions[0].pct - 100.0).abs() < 1e-9);
        // A 10x slowdown trips even the loose 200% CI gate.
        let slow = report(&[("a", 10_000), ("b", 10_000)]);
        assert_eq!(gate(&slow, &base, 200.0).len(), 2);
    }

    #[test]
    fn measure_times_every_iteration_of_the_scenario() {
        let mut spin = Scenario::new("spin", || {
            let mut x = 0u64;
            for i in 0..50_000 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            50_000
        });
        let config = BenchConfig {
            scale: Scale::Quick,
            warmup: 0,
            iters: 3,
        };
        let r = measure(&TelemetryCtx::off(), &config, &mut spin);
        assert_eq!(r.instructions, 50_000);
        assert!(0 < r.min_ns && r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn committed_snapshots_still_parse() {
        // Snapshots written before the synthetic-slowdown hook was
        // removed carry a `slowdown` field; `bench-report` must still
        // read every committed one.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut parsed = 0;
        for entry in std::fs::read_dir(&root).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(entry.path()).unwrap();
                BenchReport::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                parsed += 1;
            }
        }
        assert!(parsed > 0, "no BENCH_*.json under {}", root.display());
    }

    #[test]
    fn bench_paths_number_sequentially() {
        let dir = std::env::temp_dir().join(format!("repro-bench-paths-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_0.json"));
        std::fs::write(dir.join("BENCH_0.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_7.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_baseline.json"), "{}").unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_8.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_matrix_covers_every_benchmark_and_layer() {
        let names: Vec<String> = scenario_matrix(&TelemetryCtx::off(), Scale::Quick)
            .into_iter()
            .map(|s| s.name)
            .collect();
        for bench in Benchmark::ALL {
            assert!(names.contains(&format!("trace-gen/{bench}")));
            assert!(names.contains(&format!("trace-encode/{bench}")));
            assert!(names.contains(&format!("trace-decode/{bench}")));
            assert!(names.contains(&format!("functional-btb/{bench}")));
            assert!(names.contains(&format!("functional-tc/{bench}")));
        }
        assert!(names.contains(&"timing/perl".to_string()));
        assert!(names.contains(&"timing-sweep/gcc".to_string()));
        assert!(names.contains(&"functional-sweep/perl".to_string()));
        assert!(names.contains(&"analysis-static".to_string()));
        assert!(names.contains(&"analysis-conformance".to_string()));
        assert!(names.contains(&"simpoint-fingerprint".to_string()));
        assert!(names.contains(&"simpoint-sampled-table1".to_string()));
        assert!(names.contains(&"e2e/table1".to_string()));
        assert_eq!(names.len(), 8 * 5 + 2 + 2 + 2 + 2 + 2 + 1);
    }

    #[test]
    fn trace_format_scenarios_report_bytes_and_roundtrip_identity() {
        let config = BenchConfig {
            scale: Scale::Quick,
            warmup: 0,
            iters: 1,
        };
        let ctx = TelemetryCtx::off();
        let mut matrix = scenario_matrix(&ctx, Scale::Quick);
        let encode = matrix
            .iter_mut()
            .find(|s| s.name == "trace-encode/perl")
            .unwrap();
        let encoded = measure(&ctx, &config, encode);
        assert!(encoded.bytes > 0, "encode reports the .strc image size");
        assert!(encoded.bytes_per_instr() > 0.0);
        let decode = matrix
            .iter_mut()
            .find(|s| s.name == "trace-decode/perl")
            .unwrap();
        let decoded = measure(&ctx, &config, decode);
        assert_eq!(decoded.instructions, encoded.instructions);
        assert_eq!(decoded.bytes, encoded.bytes);
    }
}
