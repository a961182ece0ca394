//! The experiments-side telemetry context: opt-in observability for
//! every `repro` campaign.
//!
//! A campaign opts in by holding a [`Session`] for its whole duration
//! and threading its [`TelemetryCtx`] into everything it runs:
//!
//! ```no_run
//! let knobs = experiments::knobs::get();
//! let telemetry = experiments::telemetry::session("table1", knobs);
//! let ctx = telemetry.ctx();
//! // ... pass &ctx to the runner / registry cells, print the table ...
//! ```
//!
//! The session takes an explicit [`TelemetryConfig`] — from the parsed
//! knobs ([`crate::knobs`]) in the binaries, built directly in tests and
//! embedders — and everything downstream works against the explicit
//! context. Unless the mode is `off`, the session owns a
//! [`Hub`] that the shared [`runner`](crate::runner) entry points feed
//! through the ctx they are handed: every trace generation, harness
//! replay, and timing simulation records spans, counters, and (in
//! `events` mode) per-mispredict structured events attributed to the
//! benchmark being run. When the session drops it writes
//!
//! * `<dir>/<tool>.manifest.json` — the [`RunManifest`]: configuration and
//!   per-run counters copied from the simulator's own statistics, span
//!   timings, the metrics snapshot, and (for sampled campaigns) the
//!   progress time series;
//! * `<dir>/<tool>.events.jsonl` (events mode) — one JSON object per
//!   mispredicted branch.
//!
//! `<dir>` defaults to `results/telemetry` under the working directory
//! (`REPRO_TELEMETRY_DIR`).
//!
//! There is deliberately no process-global "active hub" anymore: two
//! sessions can coexist in one process with different configurations
//! (the refactor the planned `repro-serve` daemon requires), and a
//! library caller that wants no telemetry passes [`TelemetryCtx::off`]
//! instead of mutating the environment.

use crate::runner::Scale;
use branch_predictors::BranchClassStats;
use sim_isa::BranchClass;
use sim_telemetry::{
    write_jsonl, CellRecord, Event, EventSink, HotProfiler, Json, MetricsRegistry, RunManifest,
    RunRecord, SampleRow, SpanRegistry,
};

pub use sim_telemetry::{ProfMode, TelemetryConfig, TelemetryMode};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;
use target_cache::telemetry::HarnessTelemetry;
use target_cache::TargetCacheStats;

thread_local! {
    /// Simulated instructions processed on this thread since the last
    /// [`take_instructions`] — the per-cell accounting the jobs runner
    /// snapshots around each attempt.
    static SIM_INSTRUCTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Credits `n` simulated instructions to the calling thread (called by
/// the shared runner entry points after each functional or timing run).
pub fn add_instructions(n: u64) {
    SIM_INSTRUCTIONS.with(|c| c.set(c.get().saturating_add(n)));
}

/// Returns and resets the calling thread's simulated-instruction count.
pub fn take_instructions() -> u64 {
    SIM_INSTRUCTIONS.with(|c| c.replace(0))
}

/// Mutable hub state: what each thread is running, and everything
/// collected so far. Benchmark attribution and event sinks are keyed by
/// thread id because the [`jobs`](crate::jobs) runner executes cells on
/// parallel workers — a shared label would cross-attribute their runs.
#[derive(Default)]
struct State {
    /// Per-thread label runs and events are attributed to (set by
    /// `runner::trace` on the thread that generates the workload).
    benchmark: HashMap<ThreadId, String>,
    /// Per-thread event sinks (events mode only).
    sinks: HashMap<ThreadId, EventSink>,
    /// Completed run records, in execution order.
    runs: Vec<RunRecord>,
    /// Drained events, labelled with the benchmark they belong to.
    events: Vec<(String, Event)>,
    /// Cell outcomes reported by the jobs runner.
    cells: Vec<CellRecord>,
    /// Fixed-tick campaign snapshots pushed at each log heartbeat.
    timeseries: Vec<SampleRow>,
    /// Campaign correlation id, stamped into the manifest when set.
    trace_id: String,
}

impl State {
    fn label(&self) -> String {
        self.benchmark
            .get(&std::thread::current().id())
            .cloned()
            .unwrap_or_default()
    }
}

/// The telemetry hub a [`Session`] owns and hands out via
/// [`TelemetryCtx`].
pub struct Hub {
    mode: TelemetryMode,
    prof: ProfMode,
    registry: MetricsRegistry,
    spans: SpanRegistry,
    hot: HotProfiler,
    state: Mutex<State>,
}

impl Hub {
    fn new(mode: TelemetryMode, prof: ProfMode) -> Self {
        Hub {
            mode,
            prof,
            registry: MetricsRegistry::new(),
            spans: prof.span_registry(),
            hot: HotProfiler::new(),
            state: Mutex::new(State::default()),
        }
    }

    /// The capture mode this hub runs at.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// The profiling depth this hub runs at (`REPRO_PROF`).
    pub fn prof_mode(&self) -> ProfMode {
        self.prof
    }

    /// The hub's span registry (for timing scopes).
    pub fn spans(&self) -> &SpanRegistry {
        &self.spans
    }

    /// The hub's hot-path profiler (populated in `full` prof mode only).
    pub fn hot(&self) -> &HotProfiler {
        &self.hot
    }

    /// The hub's metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Fresh harness hooks wired to this hub's registry and the calling
    /// thread's event sink. In `REPRO_PROF=full` the hooks carry the
    /// hub's hot-path profiler, so harness and engine phase timings all
    /// land in one place.
    pub fn harness_telemetry(&self) -> HarnessTelemetry {
        let sink = self.mode.events().then(|| {
            self.state
                .lock()
                .expect("hub state poisoned")
                .sinks
                .entry(std::thread::current().id())
                .or_default()
                .clone()
        });
        let t = HarnessTelemetry::new(&self.registry, sink);
        if self.prof.hot() {
            t.with_hot_profiler(self.hot.clone())
        } else {
            t
        }
    }

    /// Declares which benchmark the calling thread's subsequent runs and
    /// events belong to.
    pub fn set_benchmark(&self, name: &str) {
        self.state
            .lock()
            .expect("hub state poisoned")
            .benchmark
            .insert(std::thread::current().id(), name.to_string());
    }

    /// Stamps the campaign's correlation trace id so the manifest this
    /// hub's session writes joins the campaign log and the trace export
    /// on one grep-able key.
    pub fn set_trace_id(&self, id: &str) {
        self.state.lock().expect("hub state poisoned").trace_id = id.to_string();
    }

    /// Records one cell outcome from the jobs runner (attempts, deadline
    /// kills, resume hits) for the run manifest.
    pub fn record_cell(&self, record: CellRecord) {
        self.state
            .lock()
            .expect("hub state poisoned")
            .cells
            .push(record);
    }

    /// Appends one heartbeat's snapshot to the manifest's time series.
    pub fn push_sample(&self, row: SampleRow) {
        self.state
            .lock()
            .expect("hub state poisoned")
            .timeseries
            .push(row);
    }

    /// Records one completed harness (or timing) run: copies the
    /// simulator's statistics into a manifest [`RunRecord`] and drains the
    /// event sink, attributing events to the current benchmark.
    pub fn finish_run(
        &self,
        config: &str,
        instructions: u64,
        stats: &BranchClassStats,
        tc: Option<&TargetCacheStats>,
        cascade: Option<(u64, u64)>,
        wall_ns: u64,
    ) {
        let mut state = self.state.lock().expect("hub state poisoned");
        let label = state.label();
        let mut run = RunRecord::new(label.clone(), config);
        run.instructions = instructions;
        run.wall_ns = wall_ns;
        run.count("branches", stats.total_executed());
        run.count("mispredicts", stats.total_mispredicted());
        for class in BranchClass::ALL {
            let c = stats.class(class);
            if c.executed > 0 {
                run.count(&format!("class.{}.executed", class.mnemonic()), c.executed);
                run.count(
                    &format!("class.{}.mispredicted", class.mnemonic()),
                    c.mispredicted(),
                );
            }
        }
        if let Some(tc) = tc {
            run.count("tc.lookups", tc.lookups());
            run.count("tc.hits", tc.hits());
            run.count("tc.misses", tc.misses());
            run.count("tc.updates", tc.updates());
        }
        if let Some((filtered, total)) = cascade {
            run.count("cascade.filtered", filtered);
            run.count("cascade.total", total);
        }
        state.runs.push(run);
        if self.mode.events() {
            if let Some(sink) = state.sinks.get(&std::thread::current().id()).cloned() {
                state
                    .events
                    .extend(sink.drain().into_iter().map(|e| (label.clone(), e)));
            }
        }
    }
}

/// A cheap, clonable handle to a session's telemetry — the explicit
/// argument every instrumented code path takes instead of consulting a
/// process global.
///
/// An *off* context (no hub) is the zero value: `runner` entry points
/// handed one run uninstrumented, exactly as they used to with no hub
/// installed. Cloning shares the underlying hub.
#[derive(Clone, Default)]
pub struct TelemetryCtx {
    hub: Option<Arc<Hub>>,
}

impl TelemetryCtx {
    /// A context that captures nothing — for library callers and tests
    /// with no session.
    pub fn off() -> TelemetryCtx {
        TelemetryCtx { hub: None }
    }

    /// The hub behind this context, if telemetry is on.
    pub fn hub(&self) -> Option<&Arc<Hub>> {
        self.hub.as_ref()
    }

    /// Whether any telemetry is captured at all.
    pub fn enabled(&self) -> bool {
        self.hub.is_some()
    }
}

/// An active telemetry capture, held for the duration of a campaign.
/// Writes the manifest (and event stream) when dropped.
pub struct Session {
    hub: Option<Arc<Hub>>,
    tool: String,
    scale: Scale,
    config: TelemetryConfig,
    started: Instant,
}

/// Starts a capture for `tool` as the parsed knobs describe it: their
/// scale and telemetry configuration. With `REPRO_TELEMETRY` unset or
/// `off` the session is inert and costs nothing.
pub fn session(tool: &str, knobs: &crate::knobs::Knobs) -> Session {
    session_with_config(tool, knobs.scale, knobs.telemetry.clone())
}

/// A capture with everything explicit — the constructor behind
/// [`session`], and the one tests and embedders use.
pub fn session_with_config(tool: &str, scale: Scale, config: TelemetryConfig) -> Session {
    let hub = config
        .mode
        .enabled()
        .then(|| Arc::new(Hub::new(config.mode, config.prof)));
    Session {
        hub,
        tool: tool.to_string(),
        scale,
        config,
        started: Instant::now(),
    }
}

impl Session {
    /// The context instrumented code paths take. Off sessions hand out
    /// an off context; cloning is one `Option<Arc>` copy.
    pub fn ctx(&self) -> TelemetryCtx {
        TelemetryCtx {
            hub: self.hub.clone(),
        }
    }

    /// The configuration this session was built from (the heartbeat
    /// tick and trace-export knobs live here too — the campaign driver
    /// reads them off the session rather than the environment).
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Path of the manifest this session will write (unless inert).
    pub fn manifest_path(&self) -> PathBuf {
        self.config.dir.join(format!("{}.manifest.json", self.tool))
    }

    /// Path of the event stream this session will write in events mode.
    pub fn events_path(&self) -> PathBuf {
        self.config.dir.join(format!("{}.events.jsonl", self.tool))
    }

    /// Path of the folded-stack span dump this session writes when
    /// profiling is on (feed it to flamegraph tooling directly).
    pub fn folded_path(&self) -> PathBuf {
        self.config.dir.join(format!("{}.folded.txt", self.tool))
    }

    fn write_outputs(&self) -> std::io::Result<()> {
        let Some(hub) = &self.hub else {
            return Ok(());
        };

        let state = hub.state.lock().expect("hub state poisoned");
        let mut manifest = RunManifest::new(self.tool.clone());
        manifest.scale = self.scale.name().to_string();
        manifest.mode = hub.mode.name().to_string();
        manifest.prof_mode = hub.prof.name().to_string();
        manifest.instruction_budget = state.runs.iter().map(|r| r.instructions).max().unwrap_or(0);
        manifest.runs = state.runs.clone();
        manifest.cells = state.cells.clone();
        manifest.events_recorded = state.events.len() as u64;
        manifest.events_dropped = state.sinks.values().map(EventSink::dropped).sum();
        manifest.wall_ns = self.started.elapsed().as_nanos() as u64;
        manifest.hot_phases = hub.hot.snapshot();
        manifest.timeseries = state.timeseries.clone();
        manifest.trace_id = state.trace_id.clone();

        // Stage-and-rename writes: a crash mid-write must never leave a
        // truncated manifest or event stream behind.
        let mut buf = Vec::new();
        manifest.write_to(&mut buf, &hub.spans, &hub.registry.snapshot())?;
        sim_telemetry::atomic_write(&self.manifest_path(), &buf)?;

        let folded = hub.spans.folded();
        if !folded.is_empty() {
            sim_telemetry::atomic_write_str(&self.folded_path(), &folded)?;
        }

        if hub.mode.events() {
            let mut buf = Vec::new();
            for (label, event) in state.events.iter() {
                write_jsonl(&mut buf, label, std::slice::from_ref(event))?;
            }
            sim_telemetry::atomic_write(&self.events_path(), &buf)?;
        }
        Ok(())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.hub.is_none() {
            return;
        }
        match self.write_outputs() {
            Ok(()) => eprintln!("telemetry: wrote {}", self.manifest_path().display()),
            Err(e) => eprintln!("telemetry: failed to write outputs: {e}"),
        }
    }
}

/// Aggregated mispredictions of one static branch site within one
/// benchmark, as reported by `telemetry-report`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteReport {
    /// Branch address.
    pub pc: u64,
    /// Branch class mnemonic.
    pub class: String,
    /// Mispredictions recorded at this site.
    pub mispredicts: u64,
    /// Distinct actual targets seen in mispredict events.
    pub distinct_targets: usize,
    /// Mispredictions by predictor source, sorted descending.
    pub by_source: Vec<(String, u64)>,
}

/// Parses mispredict events out of JSONL lines and aggregates them per
/// benchmark and site, returning `(benchmark, top sites)` pairs with sites
/// sorted by descending mispredict count (at most `top_n` per benchmark).
/// Non-mispredict and malformed lines are skipped.
pub fn aggregate_events<'a, I>(lines: I, top_n: usize) -> Vec<(String, Vec<SiteReport>)>
where
    I: IntoIterator<Item = &'a str>,
{
    use std::collections::BTreeMap;

    struct Agg {
        class: String,
        count: u64,
        targets: std::collections::BTreeSet<u64>,
        by_source: BTreeMap<String, u64>,
    }
    // benchmark -> pc -> aggregate; BTreeMaps for deterministic output.
    let mut per_bench: BTreeMap<String, BTreeMap<u64, Agg>> = BTreeMap::new();

    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = sim_telemetry::json::parse(line) else {
            continue;
        };
        if v.get("event").and_then(Json::as_str) != Some("mispredict") {
            continue;
        }
        let (Some(run), Some(pc)) = (
            v.get("run").and_then(Json::as_str),
            v.get("pc").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let entry = per_bench
            .entry(run.to_string())
            .or_default()
            .entry(pc)
            .or_insert_with(|| Agg {
                class: v
                    .get("class")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                count: 0,
                targets: Default::default(),
                by_source: Default::default(),
            });
        entry.count += 1;
        if let Some(actual) = v.get("actual").and_then(Json::as_u64) {
            entry.targets.insert(actual);
        }
        if let Some(source) = v.get("source").and_then(Json::as_str) {
            *entry.by_source.entry(source.to_string()).or_insert(0) += 1;
        }
    }

    per_bench
        .into_iter()
        .map(|(bench, sites)| {
            let mut reports: Vec<SiteReport> = sites
                .into_iter()
                .map(|(pc, a)| SiteReport {
                    pc,
                    class: a.class,
                    mispredicts: a.count,
                    distinct_targets: a.targets.len(),
                    by_source: {
                        let mut v: Vec<(String, u64)> = a.by_source.into_iter().collect();
                        v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
                        v
                    },
                })
                .collect();
            reports.sort_by(|x, y| y.mispredicts.cmp(&x.mispredicts).then(x.pc.cmp(&y.pc)));
            reports.truncate(top_n);
            (bench, reports)
        })
        .collect()
}

/// Renders aggregated sites as a plain-text report: one block per
/// benchmark, one line per site.
pub fn render_report(aggregated: &[(String, Vec<SiteReport>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (bench, sites) in aggregated {
        let _ = writeln!(out, "{bench}:");
        if sites.is_empty() {
            let _ = writeln!(out, "  (no mispredict events)");
            continue;
        }
        for s in sites {
            let sources = s
                .by_source
                .iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  {:#010x}  {:>5}  {:>8} mispredicts, {:>3} targets  [{}]",
                s.pc, s.class, s.mispredicts, s.distinct_targets, sources
            );
        }
    }
    out
}

/// Reads an events JSONL file and renders the top-`top_n` report.
///
/// A line that is not valid JSON fails with a diagnostic naming the file
/// and line number — a corrupt capture should be reported precisely, not
/// silently skipped (the lenient path, [`aggregate_events`], still
/// ignores valid-JSON lines that merely aren't mispredict events).
pub fn report_from_file(path: &Path, top_n: usize) -> std::io::Result<String> {
    let text = std::fs::read_to_string(path)?;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.is_empty() {
            if let Err(e) = sim_telemetry::json::parse(line) {
                return Err(std::io::Error::other(format!(
                    "{}:{}: corrupt JSONL line: {e}",
                    path.display(),
                    i + 1
                )));
            }
        }
    }
    Ok(render_report(&aggregate_events(text.lines(), top_n)))
}

/// Runs every benchmark through the paper's canonical target-cache front
/// end with event capture forced on, and renders the top-`top_n`
/// mispredicting sites per benchmark. Also leaves the usual
/// `telemetry-report.manifest.json` / `.events.jsonl` pair behind in
/// `dir` (callers pass the configured telemetry directory — this
/// function reads no environment).
pub fn live_report(scale: Scale, top_n: usize, dir: impl Into<PathBuf>) -> String {
    use sim_workloads::Benchmark;
    use target_cache::harness::FrontEndConfig;
    use target_cache::TargetCacheConfig;

    let session = session_with_config(
        "telemetry-report",
        scale,
        TelemetryConfig {
            mode: TelemetryMode::Events,
            dir: dir.into(),
            ..TelemetryConfig::default()
        },
    );
    let ctx = session.ctx();
    let hub = ctx.hub().expect("events session owns a hub").clone();
    for bench in Benchmark::ALL {
        let trace = crate::runner::trace(&ctx, bench, scale);
        crate::runner::functional(
            &ctx,
            &trace,
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
        );
    }
    // Render the captured events to JSONL and aggregate them through the
    // same parser the file mode uses — one code path for both.
    let mut buf = Vec::new();
    {
        let state = hub.state.lock().expect("hub state poisoned");
        for (label, event) in state.events.iter() {
            write_jsonl(&mut buf, label, std::slice::from_ref(event))
                .expect("writing to a Vec cannot fail");
        }
    }
    drop(session);
    let text = String::from_utf8(buf).expect("JSONL is UTF-8");
    render_report(&aggregate_events(text.lines(), top_n))
}

fn parse_manifest(path: &Path) -> Result<sim_telemetry::Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    sim_telemetry::json::parse(text.trim())
        .map_err(|e| format!("{}: corrupt manifest: {e}", path.display()))
}

fn fmt_rate(per_sec: f64) -> String {
    format!("{:.2} M/s", per_sec / 1e6)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// Renders a manifest's throughput-accounting view: the aggregate and
/// per-run rates of the `perf` section, the hot-path phase totals
/// (`REPRO_PROF=full` runs), and the span totals with self time.
pub fn render_perf_report(manifest: &sim_telemetry::Json) -> String {
    use std::fmt::Write as _;
    let s = |k: &str| manifest.get(k).and_then(Json::as_str).unwrap_or("?");
    let mut out = format!(
        "# {} (scale {}, telemetry {}, prof {})\n",
        s("tool"),
        s("scale"),
        s("telemetry_mode"),
        s("prof_mode")
    );
    if let Some(perf) = manifest.get("perf") {
        let u = |k: &str| perf.get(k).and_then(Json::as_u64).unwrap_or(0);
        let f = |k: &str| perf.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "perf: {} instructions in {} -> {} instr; {} predictions -> {} pred",
            u("instructions"),
            fmt_ms(u("run_wall_ns")),
            fmt_rate(f("instr_per_sec")),
            u("predictions"),
            fmt_rate(f("predictions_per_sec")),
        );
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        let rates = perf.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        if !rates.is_empty() {
            let _ = writeln!(out, "\nruns:");
        }
        for (i, rate) in rates.iter().enumerate() {
            let rs = |k: &str| rate.get(k).and_then(Json::as_str).unwrap_or("?");
            let wall = runs
                .get(i)
                .and_then(|r| r.get("wall_ns"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<10} {:<44} {:>12} {:>14} instr",
                rs("label"),
                rs("config"),
                fmt_ms(wall),
                fmt_rate(
                    rate.get("instr_per_sec")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                ),
            );
        }
    }
    if let Some(Json::Obj(hot)) = manifest.get("hot_phases") {
        if !hot.is_empty() {
            let _ = writeln!(out, "\nhot phases (REPRO_PROF=full):");
            for (name, stat) in hot {
                let count = stat.get("count").and_then(Json::as_u64).unwrap_or(0);
                let total = stat.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
                let mean = if count == 0 {
                    0.0
                } else {
                    total as f64 / count as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12} calls {:>12} total {:>8.1} ns/call",
                    name,
                    count,
                    fmt_ms(total),
                    mean
                );
            }
        }
    }
    if let Some(Json::Obj(spans)) = manifest.get("spans") {
        if !spans.is_empty() {
            let _ = writeln!(out, "\nspans:");
            for (path, stat) in spans {
                let u = |k: &str| stat.get(k).and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {:<40} {:>8}x {:>12} total {:>12} self",
                    path,
                    u("count"),
                    fmt_ms(u("total_ns")),
                    fmt_ms(u("self_ns")),
                );
            }
        }
    }
    out
}

/// Renders a manifest's per-cell view: outcome, attempts, wall time,
/// simulated instructions, and throughput for every job-runner cell.
pub fn render_cells_report(manifest: &sim_telemetry::Json) -> String {
    use std::fmt::Write as _;
    let s = |k: &str| manifest.get(k).and_then(Json::as_str).unwrap_or("?");
    let mut out = format!("# {} (scale {})\n", s("tool"), s("scale"));
    let cells = manifest.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    if cells.is_empty() {
        out.push_str("no cells: this run did not go through the job runner\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<28} {:>4} {:>8} {:>10} {:>14} {:>12}",
        "cell", "ok", "attempts", "wall", "instructions", "instr/s"
    );
    for cell in cells {
        let u = |k: &str| cell.get(k).and_then(Json::as_u64).unwrap_or(0);
        let ok = cell.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let resumed = cell.get("resumed").and_then(Json::as_bool).unwrap_or(false);
        let mut line = format!(
            "  {:<28} {:>4} {:>8} {:>10} {:>14} {:>12}",
            cell.get("cell").and_then(Json::as_str).unwrap_or("?"),
            if ok { "ok" } else { "ERR" },
            u("attempts"),
            format!("{} ms", u("wall_ms")),
            u("instructions"),
            fmt_rate(
                cell.get("instr_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            ),
        );
        if resumed {
            line.push_str("  (resumed)");
        }
        if let Some(reason) = cell.get("reason").and_then(Json::as_str) {
            let _ = write!(line, "  {}", reason.lines().next().unwrap_or(reason));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// [`render_perf_report`] over a manifest file.
pub fn perf_report_from_manifest(path: &Path) -> Result<String, String> {
    Ok(render_perf_report(&parse_manifest(path)?))
}

/// [`render_cells_report`] over a manifest file.
pub fn cells_report_from_manifest(path: &Path) -> Result<String, String> {
    Ok(render_cells_report(&parse_manifest(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_ranks_and_truncates() {
        let lines = [
            r#"{"event":"mispredict","run":"perl","pc":64,"class":"ijmp","predicted":1,"actual":2,"history":0,"source":"target-cache"}"#,
            r#"{"event":"mispredict","run":"perl","pc":64,"class":"ijmp","predicted":1,"actual":3,"history":0,"source":"btb-fallback"}"#,
            r#"{"event":"mispredict","run":"perl","pc":64,"class":"ijmp","predicted":1,"actual":2,"history":0,"source":"target-cache"}"#,
            r#"{"event":"mispredict","run":"perl","pc":128,"class":"cond","predicted":1,"actual":2,"history":0,"source":"cond-direction"}"#,
            r#"{"event":"mispredict","run":"gcc","pc":256,"class":"ijmp","predicted":1,"actual":2,"history":0,"source":"btb"}"#,
            r#"{"event":"phase-start","run":"gcc","phase":"x"}"#,
            "not json at all",
        ];
        let agg = aggregate_events(lines.iter().copied(), 1);
        assert_eq!(agg.len(), 2, "two benchmarks");
        let (bench, sites) = &agg[1];
        assert_eq!(bench, "perl");
        assert_eq!(sites.len(), 1, "truncated to top 1");
        assert_eq!(sites[0].pc, 64);
        assert_eq!(sites[0].mispredicts, 3);
        assert_eq!(sites[0].distinct_targets, 2);
        assert_eq!(sites[0].by_source[0], ("target-cache".to_string(), 2));
        let rendered = render_report(&agg);
        assert!(rendered.contains("perl:"), "{rendered}");
        assert!(rendered.contains("0x00000040"), "{rendered}");
    }

    #[test]
    fn off_mode_session_is_inert() {
        let s = session_with_config(
            "inert-test",
            Scale::Quick,
            TelemetryConfig {
                dir: "/nonexistent".into(),
                ..TelemetryConfig::default()
            },
        );
        assert!(!s.ctx().enabled());
        assert!(s.ctx().hub().is_none());
        drop(s); // must not attempt to write anything
    }

    #[test]
    fn sessions_are_independent_not_global() {
        // Two live sessions in one process, different modes — the exact
        // situation the old process-global hub could not represent.
        let dir = std::env::temp_dir().join(format!("ctx-indep-{}", std::process::id()));
        let summary = TelemetryConfig {
            mode: TelemetryMode::Summary,
            dir: dir.clone(),
            ..TelemetryConfig::default()
        };
        let a = session_with_config("ctx-a", Scale::Quick, summary.clone());
        let b = session_with_config("ctx-b", Scale::Quick, summary);
        assert!(a.ctx().enabled() && b.ctx().enabled());
        assert!(!Arc::ptr_eq(a.ctx().hub().unwrap(), b.ctx().hub().unwrap()));
        // Cloned contexts share their session's hub.
        let c1 = a.ctx();
        let c2 = c1.clone();
        assert!(Arc::ptr_eq(c1.hub().unwrap(), c2.hub().unwrap()));
        // Data recorded through one ctx never leaks into the other.
        c1.hub().unwrap().record_cell(CellRecord {
            cell: "x/y".into(),
            ok: true,
            ..CellRecord::default()
        });
        assert_eq!(b.ctx().hub().unwrap().state.lock().unwrap().cells.len(), 0);
        drop(a);
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perf_and_cell_views_render_a_manifest() {
        let manifest = sim_telemetry::json::parse(
            r#"{
              "tool": "repro_all", "scale": "quick",
              "telemetry_mode": "summary", "prof_mode": "full",
              "runs": [{"label": "perl", "config": "btb-only",
                        "instructions": 100000, "counters": {}, "wall_ns": 50000000}],
              "perf": {"instructions": 100000, "run_wall_ns": 50000000,
                       "instr_per_sec": 2000000.0,
                       "predictions": 20000, "predictions_per_sec": 400000.0,
                       "runs": [{"label": "perl", "config": "btb-only",
                                 "instr_per_sec": 2000000.0,
                                 "predictions_per_sec": 400000.0}]},
              "hot_phases": {"btb-lookup": {"count": 20000, "total_ns": 4200000}},
              "spans": {"harness-replay": {"count": 1, "total_ns": 50000000, "self_ns": 1000000}},
              "cells": [
                {"cell": "table1/perl", "ok": true, "attempts": 1, "deadline_kills": 0,
                 "resumed": false, "wall_ms": 50, "instructions": 100000,
                 "instr_per_sec": 2000000.0},
                {"cell": "table1/gcc", "ok": false, "attempts": 3, "deadline_kills": 1,
                 "resumed": false, "wall_ms": 9, "instructions": 0,
                 "instr_per_sec": 0.0, "reason": "panicked: injected"}
              ]
            }"#,
        )
        .unwrap();

        let perf = render_perf_report(&manifest);
        assert!(perf.contains("prof full"), "{perf}");
        assert!(perf.contains("2.00 M/s"), "{perf}");
        assert!(perf.contains("btb-lookup"), "{perf}");
        assert!(perf.contains("210.0 ns/call"), "{perf}");
        assert!(perf.contains("harness-replay"), "{perf}");
        assert!(perf.contains("1.000 ms self"), "{perf}");

        let cells = render_cells_report(&manifest);
        assert!(cells.contains("table1/perl"), "{cells}");
        assert!(cells.contains("100000"), "{cells}");
        assert!(cells.contains("ERR"), "{cells}");
        assert!(cells.contains("panicked: injected"), "{cells}");

        // A manifest without cells says so instead of printing an
        // empty table.
        let bare = sim_telemetry::json::parse(r#"{"tool": "table1", "scale": "quick"}"#).unwrap();
        assert!(render_cells_report(&bare).contains("no cells"));
    }
}
