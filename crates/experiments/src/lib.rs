#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! Each experiment module decomposes its table into `(experiment ×
//! benchmark)` **cells**: `cell_labels` enumerates them, `cell` computes
//! one as a [`jobs::CellData`] map of named values, and `render_cells`
//! turns a (possibly partial) [`jobs::CellSet`] into the text table,
//! with `ERR(reason)` in any slot it cannot fill. That cell set is the
//! experiment's only result. The [`jobs::registry`] lists every
//! experiment by name; the `repro` binary runs one (`repro table4`) or
//! all of them (`repro all`) on the fault-tolerant [`jobs`] runner, with
//! panic isolation, per-cell deadlines, bounded retry, a resumable
//! campaign log, and deterministic fault injection (`REPRO_FAULTS`).
//! [`jobs::ExperimentDef::compute`] runs an experiment's cells in order
//! on the calling thread, for tests and benches.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 — benchmark characterization + BTB indirect misprediction |
//! | [`table2`] | Table 2 — default vs 2-bit BTB update strategy |
//! | [`fig_targets`] | Figures 1–8 — targets per indirect jump histograms |
//! | [`table4`] | Table 4 — tagless pattern-history schemes (GAg/GAs/gshare) |
//! | [`table5`] | Table 5 — path history: which target-address bits to record |
//! | [`table6`] | Table 6 — path history: bits recorded per target |
//! | [`table7`] | Table 7 — tagged indexing schemes × associativity |
//! | [`table8`] | Table 8 — tagged path-history schemes × associativity |
//! | [`table9`] | Table 9 — 9 vs 16 pattern-history bits |
//! | [`fig_tagless_vs_tagged`] | Figures 12–13 — tagless 512 vs tagged 256 |
//! | [`headline`] | The abstract's headline numbers |
//! | [`extension_oo`] | Section 5 future work: C++-style OO programs |
//! | [`extension_limits`] | Extension: oracle limit study |
//! | [`extension_cascade`] | Extension: cascaded (staged) prediction |
//! | [`costs`] | Section 4.2 hardware-budget model |
//! | [`lint`] | Static analysis: simlint ground truth for the workload models |
//! | [`extension_hysteresis`] | Extension: 2-bit update policy on the target cache |
//! | [`extension_scaling`] | Extension: benefit vs machine aggressiveness |
//! | [`predictability`] | Static predictability: census, accuracy envelopes, reconciliation |
//! | [`sample`] (`simpoint`) | SimPoint phase sampling: sampled vs exact misprediction |
//!
//! Traces are synthetic (see `sim-workloads`), so EXPERIMENTS.md compares
//! *shapes* — orderings, rough magnitudes, crossovers — against the paper,
//! not absolute numbers.
//!
//! Every campaign also honours `REPRO_TELEMETRY` (`off` / `summary` /
//! `events`): the [`telemetry`] module captures counters, span timings,
//! per-mispredict events, and a run manifest whose counters reconcile with
//! the simulators' own statistics, and the `telemetry-report` binary shows
//! the top mispredicting indirect branches per benchmark.

pub mod bench_report;
pub mod costs;
pub mod extension_cascade;
pub mod extension_hysteresis;
pub mod extension_limits;
pub mod extension_oo;
pub mod extension_scaling;
pub mod fig_tagless_vs_tagged;
pub mod fig_targets;
pub mod headline;
pub mod jobs;
pub mod knobs;
pub mod lint;
pub mod perf;
pub mod predictability;
pub mod report;
pub mod runner;
pub mod sample;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
pub mod telemetry;
pub mod watch;

pub use report::TextTable;
pub use runner::Scale;
