#![warn(missing_docs)]

//! Static analysis for the synthetic SPECint95 workload models.
//!
//! The paper's evaluation rests on the *structure* of its workloads — how
//! many static indirect-jump sites exist, how wide their target sets are,
//! how calls pair with returns — yet the rest of this workspace validates
//! the synthetic programs only dynamically. This crate computes that
//! structure ahead of execution and proves the dynamic traces conform to
//! it:
//!
//! * [`cfg`](mod@cfg) — block-level CFGs and the static call graph,
//! * [`dom`] — reachability, dominators, and natural-loop back edges,
//! * [`image`] — the exact per-address static instruction image,
//! * [`metrics`] — static instruction/branch class counts, switch arity,
//!   and per-site target fan-out (the static ground truth for Table 3),
//! * [`verify`] — structural and layout invariant checking (`SL001`–`SL007`),
//! * [`conformance`] — trace replay against the static image
//!   (`SL008`–`SL011`),
//! * [`predictability`] — per-site polymorphism classes, k-bounded path
//!   contexts, static accuracy envelopes, and the dynamic-vs-static
//!   reconciliation rules (`SL012`–`SL016`),
//! * [`rules`] — the stable rule catalogue and finding collector,
//! * [`sarif`] — JSON and SARIF 2.1.0 report rendering.
//!
//! The `simlint` binary in `crates/experiments` drives all of this over
//! the eight benchmark models.
//!
//! # Example
//!
//! ```
//! use sim_analysis::rules::Findings;
//! use sim_analysis::verify::analyze_program;
//! use sim_workloads::spec95::Benchmark;
//!
//! let workload = Benchmark::Perl.workload();
//! let mut findings = Findings::new();
//! let analysis = analyze_program(workload.program(), &mut findings).unwrap();
//! assert!(findings.is_clean());
//! assert!(!analysis.metrics.switch_sites.is_empty());
//! ```

pub mod cfg;
pub mod conformance;
pub mod dom;
pub mod image;
pub mod metrics;
pub mod predictability;
pub mod rules;
pub mod sarif;
pub mod verify;

pub use cfg::{ProgramCfg, RoutineCfg};
pub use conformance::{check_trace, ConformanceReport};
pub use image::{Slot, SlotKind, StaticImage};
pub use metrics::{SiteMetrics, StaticMetrics};
pub use predictability::{
    check_predictability, MeasuredConfig, PolyClass, PredictabilityReport, SiteOutcome,
    SitePredictability, StaticPredictability,
};
pub use rules::{Finding, Findings, Rule, Severity};
pub use sarif::{to_json, to_sarif, BenchReport};
pub use verify::{analyze_program, verify_graphs, verify_layout, Analysis};
