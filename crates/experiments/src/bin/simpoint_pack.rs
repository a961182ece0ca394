//! simpoint-pack: operator tooling for phase sampling.
//!
//! * `fingerprint <trace.strc>` — per-chunk BBV summary, computed from
//!   the decoded trace.
//! * `cluster <trace.strc> [--seed N] [--max-k N] [--out map.json]` —
//!   cluster the chunk BBVs and print (or write) the phase map.
//! * `inspect <map.json>` — summarize a written phase map.
//! * `compare <trace.strc> [--map map.json] [--tolerance-pp F]` —
//!   sampled-vs-exact indirect misprediction on the trace's own phase
//!   map (or a written one); exits 1 when the error exceeds tolerance.

use experiments::sample;
use experiments::telemetry::TelemetryCtx;
use sim_isa::VecTrace;
use sim_trace::TraceFingerprint;
use simpoint::{cluster, ClusterConfig, PhaseMap};
use std::path::Path;
use std::process::exit;
use target_cache::harness::FrontEndConfig;

const USAGE: &str = "usage: simpoint-pack fingerprint <trace.strc>\n\
       simpoint-pack cluster <trace.strc> [--seed N] [--max-k N] [--out map.json]\n\
       simpoint-pack inspect <map.json>\n\
       simpoint-pack compare <trace.strc> [--map map.json] [--tolerance-pp F]";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(2)
}

/// Extracts `--flag value` from the argument list, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Decodes a trace and fingerprints its chunks.
fn load_trace(path: &str) -> (VecTrace, TraceFingerprint) {
    let (_, trace) = sim_trace::read_trace_file(Path::new(path))
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let bbv = sim_trace::fingerprint_trace(&trace);
    (trace, bbv)
}

fn print_map(map: &PhaseMap) {
    println!(
        "phase map: {} chunks, k={}, seed {:#018x}, coverage {:.1}%",
        map.chunks,
        map.k,
        map.seed,
        map.coverage() * 100.0
    );
    for p in &map.phases {
        println!(
            "  phase {:>2}: representative chunk {:>5}, {:>5} member chunk(s), weight {:.4}",
            p.cluster, p.representative, p.size, p.weight
        );
    }
}

fn main() {
    experiments::knobs::get();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        fail(USAGE);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "fingerprint" => {
            let [path] = args.as_slice() else { fail(USAGE) };
            let (trace, bbv) = load_trace(path);
            println!(
                "{path}: {} instruction(s), {} chunk(s)",
                trace.len(),
                bbv.chunks.len()
            );
            for (i, chunk) in bbv.chunks.iter().enumerate() {
                println!(
                    "  chunk {i:>5}: {:>6} record(s), {:>5} basic block(s)",
                    chunk.instructions(),
                    chunk.block_count()
                );
            }
        }
        "cluster" => {
            let mut cfg = ClusterConfig::default();
            if let Some(seed) = take_flag(&mut args, "--seed") {
                cfg.seed = seed
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --seed value {seed:?}")));
            }
            if let Some(k) = take_flag(&mut args, "--max-k") {
                cfg.max_k = k
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --max-k value {k:?}")));
            }
            let out = take_flag(&mut args, "--out");
            let [path] = args.as_slice() else { fail(USAGE) };
            let (_, bbv) = load_trace(path);
            let map = cluster(&bbv.chunks, &cfg);
            print_map(&map);
            if let Some(out) = out {
                std::fs::write(&out, map.to_json().to_string())
                    .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
                println!("wrote {out}");
            }
        }
        "inspect" => {
            let [path] = args.as_slice() else { fail(USAGE) };
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            let map = PhaseMap::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            print_map(&map);
        }
        "compare" => {
            let tolerance_pp = take_flag(&mut args, "--tolerance-pp")
                .map(|t| {
                    t.parse::<f64>()
                        .unwrap_or_else(|_| fail(&format!("bad --tolerance-pp value {t:?}")))
                })
                .unwrap_or(sample::DEFAULT_TOLERANCE_PP);
            let map_path = take_flag(&mut args, "--map");
            let [path] = args.as_slice() else { fail(USAGE) };
            let (trace, bbv) = load_trace(path);
            let map = match map_path {
                Some(p) => {
                    let text =
                        std::fs::read_to_string(&p).unwrap_or_else(|e| fail(&format!("{p}: {e}")));
                    PhaseMap::parse(&text).unwrap_or_else(|e| fail(&format!("{p}: {e}")))
                }
                None => cluster(&bbv.chunks, &ClusterConfig::default()),
            };
            if map.chunks as usize != bbv.chunks.len() {
                fail(&format!(
                    "phase map covers {} chunk(s) but the trace has {}",
                    map.chunks,
                    bbv.chunks.len()
                ));
            }
            let ctx = TelemetryCtx::off();
            let frontend = FrontEndConfig::isca97_baseline();
            let sampled = sample::sampled_indirect_mispred(
                &ctx,
                &trace,
                &map,
                sample::WARMUP_RECORDS,
                frontend,
            );
            let exact = experiments::runner::functional(&ctx, &trace, frontend)
                .indirect_jump_misprediction_rate();
            let abs_err_pp = (sampled - exact).abs() * 100.0;
            println!(
                "{path}: exact {:.2}%  sampled {:.2}%  abs err {:.3} pp  ({} phases over {} chunks)",
                exact * 100.0,
                sampled * 100.0,
                abs_err_pp,
                map.phases.len(),
                map.chunks
            );
            if abs_err_pp > tolerance_pp {
                eprintln!(
                    "error: sampling error {abs_err_pp:.3} pp exceeds tolerance {tolerance_pp:.2} pp"
                );
                exit(1);
            }
        }
        _ => fail(USAGE),
    }
}
