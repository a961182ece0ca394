//! One Criterion bench per registry experiment: the sequential
//! regeneration of its table or figure at quick scale
//! (`ExperimentDef::compute`, then its renderer), which also checks that
//! every experiment still runs.
//!
//! Run one experiment with e.g. `cargo bench --bench experiments -- table4`.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::jobs::registry;
use experiments::telemetry::TelemetryCtx;
use experiments::Scale;
use std::hint::black_box;

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    let ctx = TelemetryCtx::off();
    for def in registry::all() {
        group.bench_function(def.name, |b| {
            b.iter(|| black_box((def.render)(&def.compute(&ctx, Scale::Quick))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
