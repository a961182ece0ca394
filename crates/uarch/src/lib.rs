#![warn(missing_docs)]

//! HPS-like wide-issue out-of-order timing model.
//!
//! The paper measures the target cache's end-to-end benefit as *reduction
//! in execution time* on the HPS microarchitecture: a wide-issue,
//! out-of-order machine using Tomasulo-style dynamic scheduling with
//! checkpoint repair — "checkpoints are established for each branch; thus,
//! once a branch misprediction is determined, instructions from the correct
//! path are fetched in the next cycle."
//!
//! This crate reimplements that machine as a deterministic trace-driven
//! timing model:
//!
//! * **Front end** — the `target-cache` crate's front end (BTB + two-level
//!   predictor + return stack + optional target cache, split into a
//!   [`BaseFrontEnd`](target_cache::harness::BaseFrontEnd) and an
//!   [`IndirectStage`](target_cache::harness::IndirectStage)) decides, for
//!   every branch, whether the fetch stream was redirected correctly.
//!   Fetch supplies up to `fetch_width` instructions per cycle and cannot
//!   fetch past a taken branch within a cycle.
//! * **Execution core** — register renaming (modelled as per-register
//!   ready times), a bounded in-flight window with in-order retirement,
//!   `fu_count` universal function units with the class latencies of the
//!   paper's Table 3, and a simulated data cache with a fixed miss penalty.
//! * **Misprediction recovery** — a mispredicted branch blocks fetch of
//!   younger instructions until the cycle after the branch executes
//!   (checkpoint repair: no drain, no retrain).
//!
//! Because the model is trace-driven along the correct path, wrong-path
//! instructions are not simulated; their cost appears as the fetch gap
//! between a mispredicted branch and its resolution, which is the dominant
//! first-order effect the paper's execution-time numbers capture.
//!
//! # One recording per trace, one lockstep pass per batch
//!
//! The paper's Tables 5–9 vary only the target cache and its history
//! register; the rest of the machine is the fixed HPS baseline. A
//! [`TimingSweep`] exploits that. [`TimingSweep::new`] simulates once per
//! trace what no front-end configuration can change — the data cache,
//! kept as a load-miss bitmap, and the baseline BTB, direction predictor
//! and return stack, kept as a tape — and [`TimingSweep::run_all`]
//! replays a whole batch of configurations in one pass over the trace:
//! each instruction's operands, latency class, load-miss bit and tape
//! entry are read once, then every configuration's *lane* — its own
//! indirect stage (history register plus target cache, cascade or
//! oracle) and its own out-of-order schedule — advances by that
//! instruction. A replay is almost all schedule, a serial dependency
//! chain per configuration; lanes share no state, so they give the host
//! core independent chains to overlap.
//!
//! The split is exact, not an approximation. Along the correct path the
//! data cache sees addresses in program order, the BTB trains on computed
//! targets, the direction predictor on resolved outcomes and the return
//! stack on call/return classes: none of them ever sees a predicted target
//! or a cycle count. Each lane therefore returns the bit-identical
//! [`SimReport`] of simulating its whole machine alone, whatever else is
//! in the batch, which the reference-model property tests in
//! `tests/prop_engine.rs` check against the per-instruction engine this
//! crate used to run for every configuration.
//!
//! The tape holds one byte per branch (which structure predicted it and
//! whether it was right), the BTB hit's target for each branch the
//! indirect stage needs it for (target-cache-eligible branches and hits on
//! indirect-jump entries), the predicted address of each baseline
//! mispredict, and one bit per load. That is O(branches) bytes plus
//! O(indirect jumps) words beside the borrowed trace: 0.2–0.3 MB for the
//! standard-scale perl and gcc traces, about 1 % of the 22 MB trace.
//!
//! One tape serves every machine with the same baseline front end and data
//! cache ([`TimingSweep::serves`]): every configuration of one timing table
//! on one trace, and also machines that differ only in widths, window,
//! function units, latencies or depth. [`simulate`] and
//! [`TimingSweep::run_on`] are batches of one.
//!
//! # Example
//!
//! ```
//! use hps_uarch::{simulate, MachineConfig};
//! use target_cache::harness::FrontEndConfig;
//! use target_cache::TargetCacheConfig;
//! use sim_workloads::Benchmark;
//!
//! let trace = Benchmark::Perl.workload().generate(20_000);
//! let base = simulate(&trace, &MachineConfig::isca97(FrontEndConfig::isca97_baseline()));
//! let tc = simulate(&trace, &MachineConfig::isca97(FrontEndConfig::isca97_with(
//!     TargetCacheConfig::isca97_tagless_gshare(),
//! )));
//! assert!(tc.cycles <= base.cycles, "the target cache must not slow perl down");
//! ```

pub mod config;
pub mod dcache;
pub mod engine;
pub mod report;
mod tape;

pub use config::{ConfigError, DCacheConfig, MachineConfig};
pub use dcache::DataCache;
pub use engine::{simulate, simulate_instrumented, TimingSweep};
pub use report::SimReport;
