//! Trace-artifact round trip: generate a workload, record it as a `.strc`
//! file, read it back, and replay it through the predictors — the
//! workflow for sharing traces between machines or archiving the exact
//! inputs behind a result. (`trace-pack record|info|verify` does the same
//! from the command line.)
//!
//! Run with: `cargo run --release --example trace_replay`

use indirect_jump_prediction::prelude::*;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a canonical trace.
    let workload = Benchmark::Xlisp.workload();
    let original = workload.generate(120_000);
    println!("generated {} instructions of xlisp", original.len());

    // 2. Record it as a .strc file.
    let path = std::env::temp_dir().join(format!("ijp-trace-{}.strc", std::process::id()));
    let meta = sim_trace::TraceMeta {
        benchmark: "xlisp".into(),
        scale: "example".into(),
        seed: workload.seed(),
        generator_version: indirect_jump_prediction::workloads::GENERATOR_VERSION,
    };
    let file = std::fs::File::create(&path)?;
    let summary = sim_trace::write_trace(BufWriter::new(file), meta, &original)?;
    println!(
        "recorded to {} bytes ({:.2} bytes/instruction, {} chunks)",
        summary.bytes,
        summary.bytes as f64 / original.len() as f64,
        summary.chunks
    );

    // 3. Read it back and verify exact equality.
    let read = sim_trace::read_trace_file(&path);
    std::fs::remove_file(&path)?;
    let (header, replayed) = read?;
    assert_eq!(
        replayed, original,
        "the .strc format must round-trip exactly"
    );
    println!(
        "round trip verified: {} instructions identical (benchmark {}, seed {:#x})",
        replayed.len(),
        header.meta.benchmark,
        header.meta.seed
    );

    // 4. Replay through the predictors: results must match the original.
    let run = |trace: &VecTrace| {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_with(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        h.run(trace);
        h.stats().clone()
    };
    let a = run(&original);
    let b = run(&replayed);
    assert_eq!(a, b);
    println!(
        "replayed prediction run matches: {:.2}% indirect misprediction",
        b.indirect_jump_misprediction_rate() * 100.0
    );
    Ok(())
}
