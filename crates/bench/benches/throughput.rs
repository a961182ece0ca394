//! Raw component throughput: how many instructions per second each layer
//! of the stack processes.
//!
//! The bench bodies are the `repro-bench` scenario matrix
//! ([`experiments::perf::scenario_matrix`]) — the same closures, run
//! under the same telemetry session — so `cargo bench` and `repro-bench`
//! measure identical code paths and their instructions-per-second
//! numbers are directly comparable. Criterion's `Elements` throughput is
//! set to each scenario's instruction count, so the printed `elem/s`
//! *is* instr/s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use experiments::perf;
use experiments::telemetry::{self, TelemetryConfig, TelemetryMode};
use experiments::Scale;

/// The subset of the matrix worth a Criterion timing loop: one scenario
/// per stack layer, on the indirect-heavy workloads. `repro-bench`
/// covers the full matrix.
const KEEP: [&str; 6] = [
    "trace-gen/perl",
    "trace-gen/gcc",
    "functional-btb/perl",
    "functional-tc/perl",
    "timing/perl",
    "timing/gcc",
];

fn bench_throughput(c: &mut Criterion) {
    // One summary-mode session across the group, exactly as repro-bench
    // installs: spans accumulate per-phase timings and the manifest
    // (with its perf section) lands in results/telemetry/.
    // Cargo runs benches with the crate directory as cwd; anchor the
    // output at the workspace root so it lands in the ignored
    // `results/telemetry/` with everything else.
    let session = telemetry::session_with_config(
        "bench-throughput",
        Scale::Quick,
        TelemetryConfig {
            mode: TelemetryMode::Summary,
            dir: concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/telemetry").into(),
            ..TelemetryConfig::default()
        },
    );
    let ctx = session.ctx();
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    for mut scenario in perf::scenario_matrix(&ctx, Scale::Quick) {
        if !KEEP.contains(&scenario.name.as_str()) {
            continue;
        }
        // Untimed warm-up doubling as the per-iteration element count.
        let instructions = scenario.run_once();
        group.throughput(Throughput::Elements(instructions));
        group.bench_function(scenario.name.clone(), |b| b.iter(|| scenario.run_once()));
    }
    group.finish();
    drop(session);
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
