//! `campaign-bench`: the engine of the repository benchmark.
//!
//! `run.py` beside this package is the driver. It pins the environment,
//! builds this binary, and spawns one fresh process per step:
//!
//! * `setup <workload>` builds the private trace store the workload
//!   starts from, repeatedly, and prints each repetition's seconds;
//! * `campaign <workload> --work <dir> [--traced] [--bless]` runs one
//!   closed-loop campaign through the registry cells, the jobs pool and
//!   `render_cells` — the path the table binaries take — and diffs every
//!   rendered table byte for byte against the committed reference;
//! * `probe <workload> --seed <n>` makes direct timed calls into each
//!   layer's public entry point on seeded traces of the workload's
//!   benchmarks.
//!
//! The trace store is the one `REPRO_TRACE_STORE_DIR` names; the driver
//! points it at a private directory. Each step prints one JSON object on
//! stdout; `--help` lists the workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Instant, SystemTime};

use experiments::jobs::pool::{run_campaign_with, CellTask, RunControls, RunnerConfig};
use experiments::jobs::{cell_id, registry, CellSet, ExperimentDef, Journal};
use experiments::telemetry::{self, ProfMode, TelemetryConfig, TelemetryCtx, TelemetryMode};
use experiments::Scale;
use hps_uarch::MachineConfig;
use sim_telemetry::json::{obj, Json};
use sim_workloads::Benchmark;
use target_cache::harness::{FrontEndConfig, PredictionHarness};
use target_cache::TargetCacheConfig;

/// One benchmark workload: a campaign a user of the repository runs.
struct Workload {
    name: &'static str,
    scale: Scale,
    /// Registry experiments, in render order.
    experiments: &'static [&'static str],
    /// Whether the campaign replays a populated store (`true`) or records
    /// into an empty one.
    warm: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "replay-functional",
        scale: Scale::Standard,
        experiments: &[
            "table1",
            "table2",
            "fig_targets",
            "table4",
            "extension_cascade",
            "extension_hysteresis",
            "predictability",
            "simpoint",
        ],
        warm: true,
    },
    Workload {
        name: "timing-sweep",
        scale: Scale::Standard,
        experiments: &["table5", "table6", "table7", "table8", "table9"],
        warm: true,
    },
    Workload {
        name: "record-cold",
        scale: Scale::Full,
        experiments: &["table1"],
        warm: false,
    },
];

/// Setup repeats at least this often, then until [`SETUP_BUDGET_S`].
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.5;

/// Share of a traced campaign's wall time the named layers must cover.
const MIN_COVERAGE: f64 = 0.95;

impl Workload {
    fn find(name: &str) -> &'static Workload {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| fail(&format!("unknown workload {name:?}")))
    }

    fn defs(&self) -> Vec<ExperimentDef> {
        self.experiments
            .iter()
            .map(|name| {
                registry::find(name)
                    .unwrap_or_else(|| fail(&format!("experiment {name:?} is not registered")))
            })
            .collect()
    }

    /// The benchmarks whose traces the workload's cells load.
    fn benchmarks(&self) -> Vec<Benchmark> {
        let labels: BTreeSet<&str> = self.defs().iter().flat_map(|d| (d.labels)()).collect();
        Benchmark::ALL
            .into_iter()
            .filter(|b| labels.contains(b.name()))
            .collect()
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(2)
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: campaign-bench setup <workload>\n       \
         campaign-bench campaign <workload> --work <dir> [--traced] [--bless]\n       \
         campaign-bench probe <workload> --seed <n>\n\
         workloads: {}",
        names.join(", ")
    );
    exit(2)
}

fn main() {
    if cfg!(debug_assertions) {
        fail("campaign-bench measures optimized code only; build it with --release");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(step), Some(workload)) = (args.first(), args.get(1)) else {
        usage()
    };
    let workload = Workload::find(workload);
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
    };
    let out = match step.as_str() {
        "setup" => setup(workload),
        "campaign" => {
            let work = PathBuf::from(value("--work").unwrap_or_else(|| usage()));
            campaign(workload, &work, flag("--traced"), flag("--bless"))
        }
        "probe" => {
            let seed = value("--seed")
                .unwrap_or_else(|| usage())
                .parse()
                .unwrap_or_else(|_| fail("--seed must be an unsigned integer"));
            probe(workload, seed)
        }
        _ => usage(),
    };
    println!("{out}");
}

/// The private store directory the driver pinned.
fn store_dir() -> PathBuf {
    match std::env::var("REPRO_TRACE_STORE_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => fail("REPRO_TRACE_STORE_DIR must name the private store directory"),
    }
}

/// The `.strc` files in the store with their size and modification time:
/// a replay that misses records a file, so any change shows here.
fn store_files(dir: &Path) -> BTreeMap<String, (u64, SystemTime)> {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| fail(&format!("cannot list store {}: {e}", dir.display())));
    entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let meta = e.metadata().ok()?;
            let modified = meta.modified().ok()?;
            name.ends_with(".strc")
                .then_some((name, (meta.len(), modified)))
        })
        .collect()
}

/// Builds the workload's starting store from scratch, repeatedly: the
/// warm workloads record every trace they replay; `record-cold` only
/// creates the empty directory. The last repetition's store stays for
/// the campaigns.
fn setup(w: &Workload) -> Json {
    let store = store_dir();
    let benches = w.benchmarks();
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_SETUP_REPS
        || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && reps.len() < MAX_SETUP_REPS)
    {
        if store.exists() {
            std::fs::remove_dir_all(&store)
                .unwrap_or_else(|e| fail(&format!("cannot clear store {}: {e}", store.display())));
        }
        let t = Instant::now();
        std::fs::create_dir_all(&store)
            .unwrap_or_else(|e| fail(&format!("cannot create store {}: {e}", store.display())));
        if w.warm {
            for &bench in &benches {
                black_box(experiments::runner::trace(&TelemetryCtx::off(), bench, w.scale).len());
            }
        }
        reps.push(Json::from(t.elapsed().as_secs_f64()));
    }
    let traces = store_files(&store).len();
    let expected = if w.warm { benches.len() } else { 0 };
    if traces != expected {
        fail(&format!(
            "setup left {traces} traces in the store, expected {expected}"
        ));
    }
    obj([
        ("setup_s", Json::Arr(reps)),
        ("traces", Json::from(traces)),
        ("warm", Json::from(w.warm)),
        ("scale", Json::from(w.scale.name())),
    ])
}

/// The system allocator, counting the heap bytes live at once. The
/// resident set is no steady measure of what a campaign needs: it
/// depends on the host's paging and on which malloc arena each fresh
/// pool thread lands in. The live-byte high-water mark depends only on
/// what the program allocates.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Most heap bytes this process has had live at once, in MB.
fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

fn reference_path(w: &Workload, experiment: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(w.name)
        .join(format!("{experiment}.txt"))
}

/// One closed-loop campaign: every cell of the workload's experiments on
/// the jobs pool at its default worker count, then every render. With
/// `traced`, a telemetry session records the layer spans, the pool's
/// `cell:<experiment>` spans and this driver's `render:<experiment>` spans.
fn campaign(w: &Workload, work: &Path, traced: bool, bless: bool) -> Json {
    let store = store_dir();
    let defs = w.defs();
    let benches = w.benchmarks();
    let mut problems: Vec<String> = Vec::new();

    // Phase maps are cached beside the traces by the first campaign that
    // samples; dropping them keeps every campaign doing the same work.
    let before = store_files(&store);
    if w.warm {
        if before.len() != benches.len() {
            fail(&format!(
                "warm store holds {} traces, expected {}; run setup first",
                before.len(),
                benches.len()
            ));
        }
        for entry in std::fs::read_dir(&store).into_iter().flatten().flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .ends_with(".phases.json")
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    } else if std::fs::read_dir(&store).map_or(true, |mut d| d.next().is_some()) {
        fail("a cold campaign needs an existing, empty store directory; run setup first");
    }
    let references: Vec<Option<String>> = defs
        .iter()
        .map(|d| {
            if bless {
                return None;
            }
            let path = reference_path(w, d.name);
            Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
                fail(&format!("cannot read reference {}: {e}", path.display()))
            }))
        })
        .collect();
    let journal_dir = work.join("journal");
    std::fs::create_dir_all(&journal_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", journal_dir.display())));
    let config = if traced {
        TelemetryConfig {
            mode: TelemetryMode::Summary,
            prof: ProfMode::Spans,
            dir: work.join("telemetry"),
            ..TelemetryConfig::off()
        }
    } else {
        TelemetryConfig::off()
    };
    let session = telemetry::session_with_config("campaign-bench", w.scale, config);
    let ctx = session.ctx();

    let started = Instant::now();
    let tasks: Vec<CellTask> = defs
        .iter()
        .flat_map(|def| {
            let (name, cell, scale) = (def.name, def.cell, w.scale);
            let ctx = ctx.clone();
            (def.labels)().into_iter().map(move |label| {
                let ctx = ctx.clone();
                CellTask::new(cell_id(name, label), move || cell(&ctx, label, scale))
            })
        })
        .collect();
    let cells = tasks.len();
    let mut journal = Journal::create(&journal_dir, w.name, "campaign-bench", w.scale, cells)
        .unwrap_or_else(|e| fail(&format!("cannot create journal: {e}")));
    let pool_started = Instant::now();
    let outcome = run_campaign_with(
        tasks,
        &RunnerConfig::default(),
        &mut journal,
        &ctx,
        None,
        &RunControls::default(),
    )
    .unwrap_or_else(|e| fail(&e));
    let pool_s = pool_started.elapsed().as_secs_f64();
    let renders: Vec<String> = defs
        .iter()
        .map(|def| {
            let _g = ctx
                .hub()
                .map(|h| h.spans().span(&format!("render:{}", def.name)));
            let mut set = CellSet::new();
            for label in (def.labels)() {
                let report = outcome
                    .report(&cell_id(def.name, label))
                    .expect("every enumerated cell was scheduled");
                set.insert(label, report.outcome.clone());
            }
            (def.render)(&set)
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let heap = peak_heap_mb();

    let failed_cells: Vec<Json> = outcome
        .failures()
        .map(|r| {
            let reason = r.outcome.as_ref().err().map_or("", |s| s.as_str());
            Json::from(format!(
                "{}: {}",
                r.cell,
                reason.lines().next().unwrap_or("")
            ))
        })
        .collect();
    let mut mismatched = Vec::new();
    for ((def, render), reference) in defs.iter().zip(&renders).zip(&references) {
        match reference {
            None => {
                let path = reference_path(w, def.name);
                std::fs::create_dir_all(path.parent().expect("reference has a directory"))
                    .and_then(|()| std::fs::write(&path, render))
                    .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
            }
            Some(expected) if expected != render => mismatched.push(Json::from(def.name)),
            Some(_) => {}
        }
    }

    let after = store_files(&store);
    if w.warm && after != before {
        problems.push(format!(
            "warm store changed during the campaign ({} traces before, {} after): \
             a replay missed and recorded",
            before.len(),
            after.len()
        ));
    }
    if !w.warm && after.len() != benches.len() {
        problems.push(format!(
            "cold campaign recorded {} traces, expected {}",
            after.len(),
            benches.len()
        ));
    }

    let instructions: u64 = outcome.reports.iter().map(|r| r.instructions).sum();
    let mut fields = vec![
        ("wall_s", Json::from(wall_s)),
        ("pool_s", Json::from(pool_s)),
        ("instructions", Json::from(instructions)),
        ("cells", Json::from(cells)),
        ("failed_cells", Json::Arr(failed_cells)),
        ("tables", Json::from(defs.len())),
        ("mismatched_tables", Json::Arr(mismatched)),
        ("peak_heap_mb", Json::from(heap)),
    ];
    if let Some(hub) = ctx.hub() {
        let layers = attribute(&hub.spans().snapshot(), wall_s, pool_s);
        let counter = |name: &str| hub.registry().counter(name).get();
        let (hits, misses) = (counter("trace_store.hits"), counter("trace_store.misses"));
        let expected_misses = if w.warm { 0 } else { benches.len() as u64 };
        if misses != expected_misses || (!w.warm && hits != 0) {
            problems.push(format!(
                "trace store saw {hits} hits and {misses} misses; expected {} hits and \
                 {expected_misses} misses",
                if w.warm { "any" } else { "0" }
            ));
        }
        let coverage = layers.covered_s / wall_s;
        if coverage < MIN_COVERAGE {
            problems.push(format!(
                "named layers cover {:.1}% of the traced wall, below {:.0}%",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
        let mut layer_fields = layers.to_fields();
        layer_fields.push(("trace.store_hits", Json::from(hits)));
        layer_fields.push(("trace.store_misses", Json::from(misses)));
        layer_fields.push(("coverage", Json::from(coverage)));
        fields.push(("layers", obj(layer_fields)));
    }
    fields.push((
        "problems",
        Json::Arr(problems.into_iter().map(Json::from).collect()),
    ));
    obj(fields)
}

/// A traced campaign's wall time split by layer. Every span's self time
/// lands in exactly one layer, so the layers add up to the pool's wall;
/// what the pool spends outside its cells is `pool_overhead_s`, and
/// `unattributed_s` is what the driver spends outside both.
#[derive(Default)]
struct Layers {
    cells: u64,
    cell_self_s: f64,
    render_s: f64,
    pool_overhead_s: f64,
    gen_s: f64,
    store_s: f64,
    harness_s: f64,
    harness_runs: u64,
    sim_s: f64,
    sim_runs: u64,
    cluster_s: f64,
    measure_s: f64,
    covered_s: f64,
    unattributed_s: f64,
}

fn attribute(spans: &[sim_telemetry::SpanStat], wall_s: f64, pool_s: f64) -> Layers {
    let mut l = Layers::default();
    let mut cell_total_s = 0.0;
    for s in spans {
        let self_s = s.self_ns as f64 / 1e9;
        let name = s.name();
        if name.starts_with("cell:") {
            l.cells += s.count;
            l.cell_self_s += self_s;
            cell_total_s += s.total_ns as f64 / 1e9;
            continue;
        }
        if name.starts_with("render:") {
            l.render_s += self_s;
            continue;
        }
        match name {
            "workload-gen" => l.gen_s += self_s,
            "trace-store" => l.store_s += self_s,
            "harness-replay" => {
                l.harness_s += self_s;
                l.harness_runs += s.count;
            }
            "uarch-sim" => {
                l.sim_s += self_s;
                l.sim_runs += s.count;
            }
            "phase-cluster" => l.cluster_s += self_s,
            "phase-measure" => l.measure_s += self_s,
            // Any other span is left to `unattributed_s`.
            _ => {}
        }
    }
    l.pool_overhead_s = pool_s - cell_total_s;
    l.covered_s = l.cell_self_s
        + l.render_s
        + l.pool_overhead_s
        + l.gen_s
        + l.store_s
        + l.harness_s
        + l.sim_s
        + l.cluster_s
        + l.measure_s;
    l.unattributed_s = wall_s - l.covered_s;
    l
}

impl Layers {
    fn to_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("experiments.cells", Json::from(self.cells)),
            ("experiments.cell_self_s", Json::from(self.cell_self_s)),
            ("experiments.render_s", Json::from(self.render_s)),
            (
                "experiments.pool_overhead_s",
                Json::from(self.pool_overhead_s),
            ),
            ("workloads.gen_s", Json::from(self.gen_s)),
            ("trace.store_s", Json::from(self.store_s)),
            ("core.harness_s", Json::from(self.harness_s)),
            ("core.harness_runs", Json::from(self.harness_runs)),
            ("uarch.sim_s", Json::from(self.sim_s)),
            ("uarch.sim_runs", Json::from(self.sim_runs)),
            ("simpoint.cluster_s", Json::from(self.cluster_s)),
            ("simpoint.measure_s", Json::from(self.measure_s)),
            ("telemetry.unattributed_s", Json::from(self.unattributed_s)),
        ]
    }
}

/// Instructions processed and seconds spent by one layer's probe.
#[derive(Default)]
struct Rate {
    instructions: u64,
    seconds: f64,
}

impl Rate {
    fn time<T>(&mut self, instructions: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.seconds += t.elapsed().as_secs_f64();
        self.instructions += instructions as u64;
        out
    }

    fn minstr_per_s(&self) -> f64 {
        self.instructions as f64 / self.seconds / 1e6
    }
}

/// Direct timed calls into each layer's public entry point on traces of
/// the workload's benchmarks at its scale, generated from `seed` rather
/// than the canonical seeds, so a layer claim can be rechecked on a
/// held-out seed. Every decode must reproduce its trace exactly.
fn probe(w: &Workload, seed: u64) -> Json {
    let [mut gen, mut encode, mut decode, mut bbv, mut harness, mut sim, mut cluster] =
        std::array::from_fn(|_| Rate::default());
    let (mut bytes, mut static_s) = (0u64, 0.0);
    for bench in w.benchmarks() {
        let workload = bench.workload();
        let budget = w.scale.budget(bench);
        let trace = gen.time(budget, || workload.generate_seeded(seed, budget));
        let n = trace.len();
        let meta = sim_trace::TraceMeta {
            benchmark: bench.name().to_string(),
            scale: w.scale.name().to_string(),
            seed,
            generator_version: sim_workloads::GENERATOR_VERSION,
        };
        let encoded = encode.time(n, || {
            sim_trace::encode_to_vec(meta, &trace).expect("in-memory encode cannot fail")
        });
        bytes += encoded.len() as u64;
        let decoded = decode.time(n, || {
            sim_trace::TraceReader::new(encoded.as_slice())
                .and_then(sim_trace::TraceReader::read_to_end)
                .unwrap_or_else(|e| fail(&format!("{bench}: decode of a fresh encode: {e}")))
        });
        if decoded != trace {
            fail(&format!(
                "{bench}: decoded trace differs from the encoded one"
            ));
        }
        drop(decoded);
        let fingerprints = bbv.time(n, || sim_trace::fingerprint_trace(&trace));
        cluster.time(n, || {
            simpoint::cluster(&fingerprints.chunks, &simpoint::ClusterConfig::default())
        });
        for frontend in [
            FrontEndConfig::isca97_baseline(),
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
        ] {
            harness.time(n, || {
                let mut h = PredictionHarness::new(frontend);
                h.run(&trace);
                h.stats().total_mispredicted()
            });
        }
        let machine = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        sim.time(n, || hps_uarch::simulate(&trace, &machine).cycles);
        let t = Instant::now();
        let mut findings = sim_analysis::Findings::new();
        let analysis = sim_analysis::analyze_program(workload.program(), &mut findings)
            .unwrap_or_else(|| fail(&format!("{bench}: static analysis aborted")));
        black_box(sim_analysis::StaticPredictability::compute(
            workload.program(),
            &analysis.cfg,
            &analysis.image,
            sim_analysis::predictability::DEFAULT_PATH_DEPTH,
        ));
        static_s += t.elapsed().as_secs_f64();
    }
    obj([
        ("workloads.gen_minstr_per_s", Json::from(gen.minstr_per_s())),
        (
            "trace.encode_minstr_per_s",
            Json::from(encode.minstr_per_s()),
        ),
        (
            "trace.decode_minstr_per_s",
            Json::from(decode.minstr_per_s()),
        ),
        ("trace.bbv_minstr_per_s", Json::from(bbv.minstr_per_s())),
        (
            "trace.bytes_per_instr",
            Json::from(bytes as f64 / encode.instructions as f64),
        ),
        (
            "core.harness_minstr_per_s",
            Json::from(harness.minstr_per_s()),
        ),
        ("uarch.sim_minstr_per_s", Json::from(sim.minstr_per_s())),
        (
            "simpoint.cluster_minstr_per_s",
            Json::from(cluster.minstr_per_s()),
        ),
        ("analysis.static_s", Json::from(static_s)),
    ])
}
