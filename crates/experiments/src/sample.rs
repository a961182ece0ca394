//! SimPoint-style sampled simulation: phase maps over BBV chunk
//! fingerprints, sharded representative-slice measurement, weighted
//! recombination, and the mandatory exact-vs-sampled error report.
//!
//! `REPRO_SAMPLE=simpoint repro table1` turns the exact per-benchmark cells
//! into shard cells over *representative slices*: the trace is
//! fingerprinted ([`sim_trace::fingerprint_trace`]), the chunk BBVs are
//! clustered ([`simpoint::cluster`]), and each phase is sampled at up
//! to one member chunk per [`REP_SPACING`] members (the SimPoint-3.0
//! "multiple simulation points" device — a lone 4096-record slice
//! carries too much variance to stand for a whole phase). Each slice is
//! simulated — after warming predictor state on the [`WARMUP_RECORDS`]
//! records before it — as an independent cell on the jobs worker pool,
//! with the usual panic isolation, retry, and campaign-log semantics. Shard cell ids carry their cluster, chunk, and weight
//! (`table1/perl#p2c37@0.0714`) so live views can tell representative
//! shards from exact cells.
//!
//! Per-benchmark misprediction rates are then recombined by slice
//! weight ([`simpoint::recombine`]), and — unless
//! `REPRO_SAMPLE_EXACT=off` — the exact rates are computed inline and
//! compared: the error report (absolute error in percentage points and
//! relative error per benchmark) is printed, written to
//! `results/sampling/<run>-error-report.json`, and gated against
//! `REPRO_SAMPLE_TOLERANCE_PP` (default 1.0). A benchmark whose sampled
//! slices executed too few indirect jumps to resolve the tolerance
//! (one misprediction flip moves the rate by `100/n` pp) is reported
//! as `low-signal` and excluded from the gate: at small scales the
//! sparse-indirect workloads (compress, ijpeg) simply do not carry
//! enough events per slice for a percentage-point bound to be
//! statistically meaningful.
//!
//! The same machinery backs the `simpoint` registry experiment, whose
//! cells compute sampled *and* exact rates per benchmark and report the
//! error columns as a regular table.

use crate::jobs::cli::{drive_campaign, epilogue, operator_error};
use crate::jobs::pool::CellTask;
use crate::jobs::{cell_id, registry::ExperimentDef, CellData, CellSet};
use crate::knobs::Knobs;
use crate::report::{count, pct, TextTable};
use crate::runner::{functional, trace, Scale};
use crate::table1;
use crate::telemetry::{self, TelemetryCtx};
use branch_predictors::ClassCounters;
use sim_isa::VecTrace;
use sim_telemetry::json::obj;
use sim_telemetry::Json;
use sim_trace::CHUNK_RECORDS;
use simpoint::{cluster, recombine, ClusterConfig, PhaseMap, SliceStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use target_cache::harness::{FrontEndConfig, PredictionHarness};

/// Records of predictor warm-up simulated before each representative
/// slice. 1024 records fill the BTB's hot set at the table sizes the
/// paper studies — a sweep over {4096, 3072, 2048, 1024, 512} records
/// at standard scale shows every signal-bearing benchmark's error flat
/// (or improving) down to 1024, so longer warm-up would only eat into
/// the sampling speedup. Warm-up is priced in records, not chunks: it
/// is predictor state, not a sampling unit.
pub const WARMUP_RECORDS: usize = 1024;

/// Sentinel warm-up meaning "the entire trace prefix": with an
/// exhaustive phase map this makes sampling bit-identical to exact
/// simulation, which is the recombination-identity invariant the tests
/// pin.
pub const FULL_WARMUP: usize = usize::MAX;

/// Default for `REPRO_SAMPLE_TOLERANCE_PP`: the documented error bound,
/// in percentage points of indirect-jump misprediction rate.
pub const DEFAULT_TOLERANCE_PP: f64 = 1.0;

/// Where error reports land unless `REPRO_SAMPLE_DIR` says otherwise.
pub const DEFAULT_SAMPLING_DIR: &str = "results/sampling";

/// One representative slice is measured per (up to) this many member
/// chunks of a phase — the accuracy/speed dial. Larger values sample
/// fewer slices (faster, noisier); each phase always gets at least one.
pub const REP_SPACING: usize = 9;

/// The shard suffix appended to a cell id:
/// `#p<cluster>c<chunk>@<weight>`.
pub fn shard_suffix(cluster: u32, chunk: u64, weight: f64) -> String {
    format!("#p{cluster}c{chunk}@{weight:.4}")
}

/// A shard cell id: `table1/perl#p2c37@0.0714`.
pub fn shard_cell_id(
    experiment: &str,
    bench: &str,
    cluster: u32,
    chunk: u64,
    weight: f64,
) -> String {
    format!(
        "{}{}",
        cell_id(experiment, bench),
        shard_suffix(cluster, chunk, weight)
    )
}

/// Splits a shard cell id back into `(base_cell, cluster, chunk,
/// weight)`; `None` for plain (exact) cell ids.
pub fn parse_shard(cell: &str) -> Option<(&str, u32, u64, f64)> {
    let (base, rest) = cell.rsplit_once("#p")?;
    let (cluster_chunk, weight) = rest.split_once('@')?;
    let (cluster, chunk) = cluster_chunk.split_once('c')?;
    Some((
        base,
        cluster.parse().ok()?,
        chunk.parse().ok()?,
        weight.parse().ok()?,
    ))
}

/// Fingerprints a trace ([`sim_trace::fingerprint_trace`]) and clusters
/// its chunk BBVs into a phase map with the default deterministic
/// configuration. Records the `sampling.chunks` / `sampling.phases` /
/// `sampling.total_instructions` manifest counters when telemetry is
/// on.
pub fn phase_map(ctx: &TelemetryCtx, t: &VecTrace) -> PhaseMap {
    let map = {
        let _g = ctx.hub().map(|h| h.spans().span("phase-cluster"));
        let fingerprint = sim_trace::fingerprint_trace(t);
        cluster(&fingerprint.chunks, &ClusterConfig::default())
    };
    if let Some(hub) = ctx.hub() {
        let metrics = hub.registry();
        metrics.counter("sampling.chunks").add(map.chunks);
        metrics
            .counter("sampling.phases")
            .add(map.phases.len() as u64);
        metrics
            .counter("sampling.total_instructions")
            .add(t.len() as u64);
    }
    map
}

/// The number of whole-or-partial 4096-record chunks in a trace.
fn trace_chunks(t: &VecTrace) -> u64 {
    (t.len() as u64).div_ceil(u64::from(CHUNK_RECORDS))
}

/// The canonical phase map of a store-resident benchmark trace.
///
/// SimPoint practice publishes phase selections as artifacts next to
/// the trace (the `.simpoints`/`.weights` files), and this follows
/// suit: the map is cached as `<stem>.phases.json` beside the `.strc`,
/// so a campaign's per-run sampling prologue is a small JSON parse
/// rather than a cluster pass. A cache entry is honored only when its
/// chunk count matches the trace and it was built with the whole default
/// [`ClusterConfig`] — anything stale or corrupt fingerprints the trace,
/// re-clusters and, in read-write mode, rewrites the cache atomically.
/// `REPRO_TRACE_STORE=off` disables the cache along with the store.
pub fn stored_phase_map(
    ctx: &TelemetryCtx,
    bench: sim_workloads::Benchmark,
    scale: crate::Scale,
    t: &VecTrace,
) -> PhaseMap {
    let mode = crate::knobs::get().trace_store;
    if mode == sim_trace::StoreMode::Off {
        return phase_map(ctx, t);
    }
    let path = crate::runner::trace_store_path(bench, scale).with_extension("phases.json");
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(map) = PhaseMap::parse(&text) {
            if map.chunks == trace_chunks(t) && map.config == ClusterConfig::default() {
                if let Some(hub) = ctx.hub() {
                    hub.registry().counter("sampling.map_cache_hits").add(1);
                }
                return map;
            }
        }
        // Stale or unparseable cache: fall through and re-cluster.
    }
    let map = phase_map(ctx, t);
    if mode == sim_trace::StoreMode::ReadWrite {
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            let tmp = path.with_file_name(format!("{name}.{}.tmp", std::process::id()));
            if std::fs::write(&tmp, map.to_json().to_string()).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
    }
    map
}

/// One slice of the sampling plan: a member chunk measured on behalf of
/// `multiplier` chunks of its phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Representative {
    /// Phase (cluster) the slice belongs to.
    pub cluster: u32,
    /// Chunk index of the slice.
    pub chunk: u64,
    /// Member chunks this slice stands for; multipliers within a phase
    /// sum to the phase size, so plan weights recombine exactly like
    /// the phase weights would.
    pub multiplier: u64,
}

/// Expands a phase map into the sampling plan: each phase's members
/// (from the per-chunk assignments) are split into up to
/// `members / REP_SPACING` (rounded up) equal strata, and the center
/// chunk of each stratum is measured for the whole stratum. A
/// single-member phase yields exactly its one chunk with multiplier 1,
/// so [`PhaseMap::exhaustive`] expands to the identity plan.
pub fn representatives(map: &PhaseMap) -> Vec<Representative> {
    let mut plan = Vec::new();
    for phase in &map.phases {
        let members: Vec<u64> = map
            .assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == phase.cluster)
            .map(|(i, _)| i as u64)
            .collect();
        if members.is_empty() {
            // A map without assignments (hand-written JSON) still
            // samples its canonical representative.
            plan.push(Representative {
                cluster: phase.cluster,
                chunk: phase.representative,
                multiplier: phase.size,
            });
            continue;
        }
        let n = members.len();
        let strata = n.div_ceil(REP_SPACING).max(1);
        let (base, extra) = (n / strata, n % strata);
        for i in 0..strata {
            plan.push(Representative {
                cluster: phase.cluster,
                chunk: members[((2 * i + 1) * n) / (2 * strata)],
                multiplier: (base + usize::from(i < extra)) as u64,
            });
        }
    }
    plan
}

/// Fraction of the trace the plan actually simulates (measured chunks
/// over total; warm-up excluded).
pub fn simulated_fraction(map: &PhaseMap) -> f64 {
    if map.chunks == 0 {
        0.0
    } else {
        representatives(map).len() as f64 / map.chunks as f64
    }
}

/// The record range of chunk `chunk` within a trace of `len` records.
fn chunk_bounds(len: usize, chunk: u64) -> (usize, usize) {
    let records = CHUNK_RECORDS as usize;
    let start = (chunk as usize).saturating_mul(records).min(len);
    let end = (chunk as usize + 1).saturating_mul(records).min(len);
    (start, end)
}

/// Measures one representative chunk: a fresh harness is warmed on the
/// `warmup_records` records before it ([`FULL_WARMUP`] = the whole
/// prefix), then the chunk itself is simulated and the indirect-jump
/// counter delta returned. Warm-up plus measurement instructions are
/// credited to the running cell's instruction account, and to the
/// `sampling.sampled_instructions` counter when telemetry is on.
pub fn measure_phase(
    ctx: &TelemetryCtx,
    t: &VecTrace,
    chunk: u64,
    warmup_records: usize,
    frontend: FrontEndConfig,
) -> ClassCounters {
    let (start, end) = chunk_bounds(t.len(), chunk);
    let warm_start = if warmup_records == FULL_WARMUP {
        0
    } else {
        start.saturating_sub(warmup_records)
    };
    telemetry::add_instructions((end - warm_start) as u64);
    if let Some(hub) = ctx.hub() {
        hub.registry()
            .counter("sampling.sampled_instructions")
            .add((end - warm_start) as u64);
    }
    let _g = ctx.hub().map(|h| h.spans().span("phase-measure"));
    let mut h = PredictionHarness::new(frontend);
    h.run(t.as_slice()[warm_start..start].iter());
    let before = h.stats().indirect_jump_counters();
    h.run(t.as_slice()[start..end].iter());
    let after = h.stats().indirect_jump_counters();
    ClassCounters {
        executed: after.executed - before.executed,
        correct: after.correct - before.correct,
    }
}

/// Wraps one measured slice as the recombination currency: indirect
/// executions and correct predictions, weighted by cluster size.
pub fn slice_stats(size: u64, counters: ClassCounters) -> SliceStats {
    SliceStats {
        multiplier: size,
        counts: BTreeMap::from([
            ("ij_executed".to_string(), counters.executed as f64),
            ("ij_correct".to_string(), counters.correct as f64),
        ]),
    }
}

/// Recombines measured slices into the sampled indirect-jump
/// misprediction rate. With an exhaustive phase map and [`FULL_WARMUP`]
/// this is bit-identical to the exact rate: every count is an integer
/// below 2⁵³, so the weighted sums and the final division see exactly
/// the operands exact simulation would.
pub fn rate_from_slices(slices: &[SliceStats]) -> f64 {
    let totals = recombine(slices);
    let executed = totals.get("ij_executed").copied().unwrap_or(0.0);
    let correct = totals.get("ij_correct").copied().unwrap_or(0.0);
    if executed == 0.0 {
        0.0
    } else {
        (executed - correct) / executed
    }
}

/// The full sampled measurement for one trace: measure every slice of
/// the plan ([`representatives`]) and return the weighted slice stats.
/// The sequential path the `simpoint` registry experiment and
/// `simpoint-pack compare` use; the sampled campaign driver runs the
/// same per-slice measurements as shard cells instead.
pub fn sampled_slices(
    ctx: &TelemetryCtx,
    t: &VecTrace,
    map: &PhaseMap,
    warmup_records: usize,
    frontend: FrontEndConfig,
) -> Vec<SliceStats> {
    representatives(map)
        .iter()
        .map(|r| {
            slice_stats(
                r.multiplier,
                measure_phase(ctx, t, r.chunk, warmup_records, frontend),
            )
        })
        .collect()
}

/// Raw (unweighted) indirect jumps executed inside measured slices —
/// the signal the error-report gate judges resolution by.
pub fn sampled_ij(slices: &[SliceStats]) -> u64 {
    slices
        .iter()
        .map(|s| s.counts.get("ij_executed").copied().unwrap_or(0.0))
        .sum::<f64>() as u64
}

/// Convenience: [`sampled_slices`] recombined into the sampled
/// indirect-jump misprediction rate.
pub fn sampled_indirect_mispred(
    ctx: &TelemetryCtx,
    t: &VecTrace,
    map: &PhaseMap,
    warmup_records: usize,
    frontend: FrontEndConfig,
) -> f64 {
    rate_from_slices(&sampled_slices(ctx, t, map, warmup_records, frontend))
}

/// One benchmark's row of the exact-vs-sampled error report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchError {
    /// Benchmark name.
    pub bench: String,
    /// Exact indirect-jump misprediction rate.
    pub exact: f64,
    /// Sampled (recombined) rate.
    pub sampled: f64,
    /// Chunks in the trace.
    pub chunks: u64,
    /// Phases (clusters) the map selected.
    pub phases: u64,
    /// Measured slices the plan expanded to.
    pub shards: u64,
    /// Raw indirect jumps executed inside measured slices.
    pub sampled_ij: u64,
}

impl BenchError {
    /// Absolute error in percentage points.
    pub fn abs_err_pp(&self) -> f64 {
        (self.sampled - self.exact).abs() * 100.0
    }

    /// Relative error against the exact rate (zero when exact is zero).
    pub fn rel_err(&self) -> f64 {
        if self.exact == 0.0 {
            0.0
        } else {
            (self.sampled - self.exact).abs() / self.exact
        }
    }

    /// The smallest rate difference the sampled slices can resolve, in
    /// percentage points: one misprediction flip moves the rate by
    /// `100 / sampled_ij`.
    pub fn resolution_pp(&self) -> f64 {
        if self.sampled_ij == 0 {
            f64::INFINITY
        } else {
            100.0 / self.sampled_ij as f64
        }
    }

    /// Whether the row carries enough indirect-jump signal for the
    /// tolerance to be meaningful (resolution at or below tolerance).
    /// Low-signal rows are reported but not gated.
    pub fn gated(&self, tolerance_pp: f64) -> bool {
        self.resolution_pp() <= tolerance_pp
    }
}

/// The exact-vs-sampled error report a sampled campaign must emit
/// whenever an exact baseline exists.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorReport {
    /// Tool that ran the sampled campaign.
    pub tool: String,
    /// Run id, for artifact correlation.
    pub run_id: String,
    /// Scale name.
    pub scale: String,
    /// The tolerance the report was gated against, in percentage points.
    pub tolerance_pp: f64,
    /// Per-benchmark errors, in benchmark order.
    pub rows: Vec<BenchError>,
}

impl ErrorReport {
    /// The largest absolute error among gated rows, in percentage
    /// points (low-signal rows are reported but never judged).
    pub fn worst_abs_err_pp(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.gated(self.tolerance_pp))
            .map(BenchError::abs_err_pp)
            .fold(0.0, f64::max)
    }

    /// Whether every gated benchmark is within the tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.worst_abs_err_pp() <= self.tolerance_pp
    }

    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        obj([
            ("tool", Json::from(self.tool.as_str())),
            ("run", Json::from(self.run_id.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("tolerance_pp", Json::from(self.tolerance_pp)),
            ("worst_abs_err_pp", Json::from(self.worst_abs_err_pp())),
            ("within_tolerance", Json::from(self.within_tolerance())),
            (
                "benchmarks",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj([
                                ("bench", Json::from(r.bench.as_str())),
                                ("exact", Json::from(r.exact)),
                                ("sampled", Json::from(r.sampled)),
                                ("abs_err_pp", Json::from(r.abs_err_pp())),
                                ("rel_err", Json::from(r.rel_err())),
                                ("chunks", Json::from(r.chunks)),
                                ("phases", Json::from(r.phases)),
                                ("shards", Json::from(r.shards)),
                                ("sampled_ij", Json::from(r.sampled_ij)),
                                ("gated", Json::from(r.gated(self.tolerance_pp))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report back from its JSON form (`simpoint-pack` and the
    /// binary-level tests read what the driver wrote).
    pub fn parse(text: &str) -> Result<ErrorReport, String> {
        let v = sim_telemetry::json::parse(text).map_err(|e| e.to_string())?;
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("error report missing {k:?}"))
        };
        let rows = v
            .get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or("error report missing \"benchmarks\"")?
            .iter()
            .map(|r| {
                let num = |k: &str| {
                    r.get(k)
                        .and_then(Json::as_f64)
                        .ok_or(format!("error report row missing {k:?}"))
                };
                Ok(BenchError {
                    bench: r
                        .get("bench")
                        .and_then(Json::as_str)
                        .ok_or("error report row missing \"bench\"")?
                        .to_string(),
                    exact: num("exact")?,
                    sampled: num("sampled")?,
                    chunks: num("chunks")? as u64,
                    phases: num("phases")? as u64,
                    shards: num("shards")? as u64,
                    sampled_ij: num("sampled_ij")? as u64,
                })
            })
            .collect::<Result<Vec<BenchError>, String>>()?;
        Ok(ErrorReport {
            tool: s("tool")?,
            run_id: s("run")?,
            scale: s("scale")?,
            tolerance_pp: v
                .get("tolerance_pp")
                .and_then(Json::as_f64)
                .ok_or("error report missing \"tolerance_pp\"")?,
            rows,
        })
    }

    /// The operator table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "benchmark".into(),
            "chunks".into(),
            "phases".into(),
            "shards".into(),
            "exact".into(),
            "sampled".into(),
            "abs err (pp)".into(),
            "rel err".into(),
            "gate".into(),
        ]);
        for r in &self.rows {
            let gate = if !r.gated(self.tolerance_pp) {
                format!("low-signal (n={})", r.sampled_ij)
            } else if r.abs_err_pp() <= self.tolerance_pp {
                "ok".to_string()
            } else {
                "OVER".to_string()
            };
            table.row(vec![
                r.bench.clone(),
                r.chunks.to_string(),
                r.phases.to_string(),
                r.shards.to_string(),
                pct(r.exact),
                pct(r.sampled),
                format!("{:.3}", r.abs_err_pp()),
                format!("{:.3}", r.rel_err()),
                gate,
            ]);
        }
        format!(
            "Sampling error report (tolerance {:.2} pp, worst {:.3} pp, {}):\n\n{}",
            self.tolerance_pp,
            self.worst_abs_err_pp(),
            if self.within_tolerance() {
                "within tolerance"
            } else {
                "OVER TOLERANCE"
            },
            table.render()
        )
    }

    /// Writes the report to `<dir>/<run>-error-report.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}-error-report.json", self.run_id));
        sim_telemetry::atomic_write(&path, self.to_json().to_string().as_bytes())?;
        Ok(path)
    }
}

/// One benchmark's sampled-campaign plan: the shared trace, its phase
/// map, and the exact (non-simulated) characterization fields.
struct BenchPlan {
    label: &'static str,
    trace: Arc<VecTrace>,
    map: PhaseMap,
}

/// The sampled campaign driver behind `REPRO_SAMPLE=simpoint`: shard
/// cells on the worker pool, weighted recombination, the sampled
/// Table 1, and the exact-vs-sampled error report. Exits like
/// [`epilogue`], plus status 1 when the report exceeds tolerance.
pub(crate) fn drive_sampled(tool: &str, defs: &[ExperimentDef], knobs: &Knobs) -> i32 {
    for def in defs {
        if def.name != "table1" {
            operator_error(&format!(
                "REPRO_SAMPLE=simpoint shards only the table1 experiment, not {:?}; \
                 run `REPRO_SAMPLE=simpoint repro table1` (the simpoint experiment reports \
                 sampled-vs-exact itself and needs no knob)",
                def.name
            ));
        }
    }
    let scale = knobs.scale;
    let session = telemetry::session(tool, knobs);
    let ctx = session.ctx();

    // Phase maps must exist before shard tasks can be enumerated. Trace
    // generation is store-cached and phase maps are cached next to the
    // store files; only a cold map fingerprints and clusters its trace
    // in memory — this sequential prologue costs a small fraction of one
    // exact simulation pass.
    let plans: Vec<BenchPlan> = table1::cell_labels()
        .into_iter()
        .map(|label| {
            let bench = crate::jobs::benchmark(label);
            let t = trace(&ctx, bench, scale);
            let map = stored_phase_map(&ctx, bench, scale, &t);
            BenchPlan {
                label,
                trace: Arc::new(t),
                map,
            }
        })
        .collect();

    let frontend = FrontEndConfig::isca97_baseline();
    let mut tasks: Vec<CellTask> = Vec::new();
    for plan in &plans {
        for rep in representatives(&plan.map) {
            let weight = rep.multiplier as f64 / plan.map.chunks.max(1) as f64;
            let id = shard_cell_id("table1", plan.label, rep.cluster, rep.chunk, weight);
            let t = Arc::clone(&plan.trace);
            let ctx = ctx.clone();
            tasks.push(CellTask::new(id, move || {
                let counters = measure_phase(&ctx, &t, rep.chunk, WARMUP_RECORDS, frontend);
                let mut d = CellData::new();
                d.set("multiplier", rep.multiplier as f64);
                d.set("ij_executed", counters.executed as f64);
                d.set("ij_correct", counters.correct as f64);
                d
            }));
        }
    }
    if let Some(hub) = ctx.hub() {
        hub.registry()
            .counter("sampling.shards")
            .add(tasks.len() as u64);
    }

    let driven = drive_campaign(tool, knobs, &session, tasks);

    // Recombine each benchmark's shard cells into a sampled Table 1. A
    // benchmark with any failed shard renders as ERR: a partial
    // recombination would silently re-weight the surviving phases.
    let mut cells = CellSet::new();
    let mut sampled_rates: BTreeMap<&str, (f64, u64, u64)> = BTreeMap::new();
    for plan in &plans {
        let mut slices = Vec::new();
        let mut failure = None;
        let reps = representatives(&plan.map);
        for rep in &reps {
            let weight = rep.multiplier as f64 / plan.map.chunks.max(1) as f64;
            let id = shard_cell_id("table1", plan.label, rep.cluster, rep.chunk, weight);
            let report = driven
                .outcome
                .report(&id)
                .expect("every enumerated shard was scheduled");
            match &report.outcome {
                Ok(d) => slices.push(SliceStats {
                    multiplier: rep.multiplier,
                    counts: d.0.clone(),
                }),
                Err(reason) => {
                    failure = Some(format!("shard p{}c{}: {reason}", rep.cluster, rep.chunk))
                }
            }
        }
        match failure {
            Some(reason) => cells.insert(plan.label, Err(reason)),
            None => {
                let rate = rate_from_slices(&slices);
                sampled_rates.insert(plan.label, (rate, reps.len() as u64, sampled_ij(&slices)));
                let stats = plan.trace.stats();
                let mut d = CellData::new();
                d.set("instructions", stats.instructions() as f64);
                d.set("branches", stats.branches() as f64);
                d.set("indirect_jumps", stats.indirect_jumps() as f64);
                d.set("static_sites", stats.static_indirect_jumps() as f64);
                d.set("btb_mispred", rate);
                cells.insert(plan.label, Ok(d));
            }
        }
    }

    println!(
        "sampled table1 (REPRO_SAMPLE=simpoint): rates recombined from phase representatives\n"
    );
    println!("{}", table1::render_cells(&cells));

    let status = epilogue(&driven.outcome, &driven.resume_command);
    if status != 0 {
        return status;
    }

    if !knobs.sample_exact {
        println!("sampling: exact baseline skipped (REPRO_SAMPLE_EXACT=off); no error report");
        return 0;
    }

    // The mandatory error report: exact rates computed inline, compared
    // per benchmark, written next to the campaign's other artifacts.
    let rows: Vec<BenchError> = plans
        .iter()
        .map(|plan| {
            let exact = functional(&ctx, &plan.trace, frontend).indirect_jump_misprediction_rate();
            let (sampled, shards, ij) = sampled_rates[plan.label];
            BenchError {
                bench: plan.label.to_string(),
                exact,
                sampled,
                chunks: plan.map.chunks,
                phases: plan.map.phases.len() as u64,
                shards,
                sampled_ij: ij,
            }
        })
        .collect();
    let report = ErrorReport {
        tool: tool.to_string(),
        run_id: driven.run_id.clone(),
        scale: scale.name().to_string(),
        tolerance_pp: knobs.sample_tolerance_pp,
        rows,
    };
    println!("{}", report.render());
    match report.write(&knobs.sample_dir) {
        Ok(path) => println!("error report: {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write the sampling error report: {e}");
            return 2;
        }
    }
    if !report.within_tolerance() {
        eprintln!(
            "error: sampled misprediction rates deviate from exact by up to {:.3} pp (tolerance {:.2} pp)",
            report.worst_abs_err_pp(),
            report.tolerance_pp
        );
        return 1;
    }
    0
}

// --- The `simpoint` registry experiment: sampled-vs-exact per benchmark ---

/// The benchmark labels the `simpoint` experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    table1::cell_labels()
}

/// Computes one benchmark's sampled-vs-exact cell.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let bench = crate::jobs::benchmark(label);
    let t = trace(ctx, bench, scale);
    let map = stored_phase_map(ctx, bench, scale, &t);
    let frontend = FrontEndConfig::isca97_baseline();
    let slices = sampled_slices(ctx, &t, &map, WARMUP_RECORDS, frontend);
    let sampled = rate_from_slices(&slices);
    let exact = functional(ctx, &t, frontend).indirect_jump_misprediction_rate();
    let row = BenchError {
        bench: label.to_string(),
        exact,
        sampled,
        chunks: map.chunks,
        phases: map.phases.len() as u64,
        shards: slices.len() as u64,
        sampled_ij: sampled_ij(&slices),
    };
    let mut d = CellData::new();
    d.set("chunks", map.chunks as f64);
    d.set("phases", map.phases.len() as f64);
    d.set("coverage", simulated_fraction(&map));
    d.set("sampled_mispred", sampled);
    d.set("exact_mispred", exact);
    d.set("abs_err_pp", row.abs_err_pp());
    d.set("rel_err", row.rel_err());
    d
}

/// Renders a (possibly partial) cell set as the sampled-vs-exact table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "chunks".into(),
        "phases".into(),
        "coverage".into(),
        "sampled".into(),
        "exact".into(),
        "abs err (pp)".into(),
    ]);
    for &b in &sim_workloads::Benchmark::ALL {
        let n = b.name();
        table.row(vec![
            n.into(),
            cells.fmt(n, "chunks", |v| count(v as u64)),
            cells.fmt(n, "phases", |v| (v as u64).to_string()),
            cells.fmt(n, "coverage", pct),
            cells.fmt(n, "sampled_mispred", pct),
            cells.fmt(n, "exact_mispred", pct),
            cells.fmt(n, "abs_err_pp", |v| format!("{v:.3}")),
        ]);
    }
    format!(
        "SimPoint phase sampling: sampled vs exact BTB indirect misprediction\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_workloads::Benchmark;

    #[test]
    fn shard_ids_round_trip() {
        let id = shard_cell_id("table1", "perl", 3, 37, 0.30612);
        assert_eq!(id, "table1/perl#p3c37@0.3061");
        let (base, cluster, chunk, weight) = parse_shard(&id).unwrap();
        assert_eq!(base, "table1/perl");
        assert_eq!(cluster, 3);
        assert_eq!(chunk, 37);
        assert!((weight - 0.3061).abs() < 1e-9);
        assert_eq!(parse_shard("table1/perl"), None);
        assert_eq!(parse_shard("table1/perl#p3"), None);
        assert_eq!(parse_shard("table1/perl#p3@0.5"), None);
    }

    #[test]
    fn representative_plan_covers_every_chunk_exactly_once() {
        // Multipliers across the plan partition the chunk count, each
        // slice belongs to its own phase, and the exhaustive map
        // expands to the identity plan.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Gcc, Scale::Standard);
        let map = phase_map(&ctx, &t);
        let plan = representatives(&map);
        assert_eq!(
            plan.iter().map(|r| r.multiplier).sum::<u64>(),
            map.chunks,
            "multipliers partition the trace"
        );
        for r in &plan {
            assert_eq!(map.assignments[r.chunk as usize], r.cluster);
        }
        assert!(plan.len() as u64 <= map.chunks);
        assert!(
            plan.len() >= map.chunks.div_ceil(REP_SPACING as u64) as usize,
            "at least one slice per {REP_SPACING} chunks"
        );

        let exhaustive = PhaseMap::exhaustive(9);
        let identity = representatives(&exhaustive);
        assert_eq!(identity.len(), 9);
        for (i, r) in identity.iter().enumerate() {
            assert_eq!((r.chunk, r.multiplier), (i as u64, 1));
        }
    }

    #[test]
    fn exhaustive_sampling_is_bit_identical_to_exact() {
        // The recombination-identity invariant at the experiments level:
        // every chunk its own phase + full-prefix warm-up must reproduce
        // the exact misprediction rate bit for bit.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::M88ksim, Scale::Quick);
        let chunks = t.len().div_ceil(CHUNK_RECORDS as usize);
        let map = PhaseMap::exhaustive(chunks);
        let frontend = FrontEndConfig::isca97_baseline();
        let sampled = sampled_indirect_mispred(&ctx, &t, &map, FULL_WARMUP, frontend);
        let exact = functional(&ctx, &t, frontend).indirect_jump_misprediction_rate();
        assert_eq!(sampled, exact, "exhaustive sampling must be exact");
    }

    #[test]
    fn phase_map_cache_round_trips_and_heals_corruption() {
        // First call populates `<stem>.phases.json` beside the store
        // file; the second parses it back bit-identical (Rust's float
        // Display is shortest-round-trip). A corrupted cache must be
        // recomputed and rewritten, never trusted.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Vortex, Scale::Quick);
        let fresh = phase_map(&ctx, &t);
        let first = stored_phase_map(&ctx, Benchmark::Vortex, Scale::Quick, &t);
        assert_eq!(first, fresh);
        let second = stored_phase_map(&ctx, Benchmark::Vortex, Scale::Quick, &t);
        assert_eq!(
            second, fresh,
            "cached map must reproduce the computed one exactly"
        );

        let path = crate::runner::trace_store_path(Benchmark::Vortex, Scale::Quick)
            .with_extension("phases.json");
        if path.exists() {
            std::fs::write(&path, "not a phase map").unwrap();
            let healed = stored_phase_map(&ctx, Benchmark::Vortex, Scale::Quick, &t);
            assert_eq!(healed, fresh, "corrupt cache falls back to recompute");
            let reparsed = PhaseMap::parse(&std::fs::read_to_string(&path).unwrap())
                .expect("healed cache is valid JSON again");
            assert_eq!(reparsed, fresh);

            // A map clustered under another configuration is stale too,
            // even with the default seed and dimensionality: serving it
            // would hand back its `max_k`.
            let narrow = ClusterConfig {
                max_k: 1,
                ..ClusterConfig::default()
            };
            let stale = cluster(&sim_trace::fingerprint_trace(&t).chunks, &narrow);
            std::fs::write(&path, stale.to_json().to_string()).unwrap();
            let replaced = stored_phase_map(&ctx, Benchmark::Vortex, Scale::Quick, &t);
            assert_eq!(replaced, fresh, "a map of another max_k is re-clustered");
            let reparsed = PhaseMap::parse(&std::fs::read_to_string(&path).unwrap())
                .expect("replaced cache is valid JSON");
            assert_eq!(reparsed, fresh, "and rewritten");
        }
    }

    #[test]
    fn sampled_rate_tracks_exact_on_perl() {
        // The real sampled configuration (clustered map, 1024-record
        // warm-up)
        // stays within the documented 1 pp bound on the hardest benchmark.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Perl, Scale::Quick);
        let map = phase_map(&ctx, &t);
        assert!(!map.phases.is_empty());
        let frontend = FrontEndConfig::isca97_baseline();
        let sampled = sampled_indirect_mispred(&ctx, &t, &map, WARMUP_RECORDS, frontend);
        let exact = functional(&ctx, &t, frontend).indirect_jump_misprediction_rate();
        assert!(
            (sampled - exact).abs() * 100.0 <= DEFAULT_TOLERANCE_PP,
            "sampled {sampled} vs exact {exact}"
        );
    }

    #[test]
    fn error_report_round_trips_and_gates() {
        let report = ErrorReport {
            tool: "table1".into(),
            run_id: "r-42".into(),
            scale: "quick".into(),
            tolerance_pp: 1.0,
            rows: vec![
                BenchError {
                    bench: "perl".into(),
                    exact: 0.762,
                    sampled: 0.7575,
                    chunks: 25,
                    phases: 4,
                    shards: 6,
                    sampled_ij: 800,
                },
                BenchError {
                    bench: "gcc".into(),
                    exact: 0.66,
                    sampled: 0.675,
                    chunks: 25,
                    phases: 5,
                    shards: 7,
                    sampled_ij: 500,
                },
            ],
        };
        assert!((report.worst_abs_err_pp() - 1.5).abs() < 1e-9);
        assert!(!report.within_tolerance());
        let parsed = ErrorReport::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(parsed, report);
        let text = report.render();
        assert!(text.contains("OVER TOLERANCE"), "{text}");
        assert!(text.contains("perl"), "{text}");
    }

    #[test]
    fn low_signal_rows_are_reported_but_not_gated() {
        // compress at small scales: the sampled slices see a handful of
        // indirect jumps, so a single flip overwhelms any pp tolerance.
        // The row must show up in the report without tripping the gate.
        let sparse = BenchError {
            bench: "compress".into(),
            exact: 0.054,
            sampled: 0.0,
            chunks: 98,
            phases: 3,
            shards: 7,
            sampled_ij: 20,
        };
        assert!(
            !sparse.gated(1.0),
            "resolution {} pp",
            sparse.resolution_pp()
        );
        let report = ErrorReport {
            tool: "table1".into(),
            run_id: "r-43".into(),
            scale: "standard".into(),
            tolerance_pp: 1.0,
            rows: vec![sparse],
        };
        assert!(report.within_tolerance(), "low-signal rows never gate");
        assert_eq!(report.worst_abs_err_pp(), 0.0);
        let text = report.render();
        assert!(text.contains("low-signal (n=20)"), "{text}");
        assert!(text.contains("within tolerance"), "{text}");
    }

    #[test]
    fn simpoint_cells_render_with_err_markers() {
        let mut cells = CellSet::new();
        for label in cell_labels() {
            cells.insert(label, Err("synthetic failure".to_string()));
        }
        let out = render_cells(&cells);
        assert!(out.contains("ERR(synthetic failure)"), "{out}");
    }
}
