//! The `lint` experiment: static analysis and trace conformance over the
//! benchmark models, driven by `sim-analysis`.
//!
//! Unlike the table experiments this one reproduces no paper artifact —
//! it is the workspace's own ground truth. Each cell runs the full
//! static pass (`SL001`–`SL007`) over one benchmark's program, replays a
//! scale-sized trace against the static image (`SL008`–`SL011`), and
//! records the finding counts plus the static shape metrics the dynamic
//! tables must be consistent with. The `simlint` binary wraps the same
//! [`analyze`] entry point with report output and `--deny` gating.

use crate::jobs::{CellData, CellSet};
use crate::report::TextTable;
use crate::runner::{trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_analysis::rules::FINDINGS_PER_RULE_CAP;
use sim_analysis::{analyze_program, check_trace, BenchReport, ConformanceReport, Findings};
use sim_workloads::Benchmark;

/// Everything one benchmark's lint run produced.
#[derive(Clone, Debug)]
pub struct LintOutcome {
    /// Findings plus static metrics, ready for JSON/SARIF rendering.
    pub report: BenchReport,
    /// The trace-replay report, when conformance checking was requested
    /// and the static pass produced a usable image.
    pub conformance: Option<ConformanceReport>,
}

/// The static pass plus an optional conformance replay of a supplied
/// trace (with its expected instruction budget, if any). `cap` bounds
/// the findings retained per rule (0 = unlimited); counts are exact
/// either way.
fn analyze_common(
    bench: Benchmark,
    replay: Option<(&sim_isa::VecTrace, Option<usize>)>,
    cap: usize,
) -> LintOutcome {
    let workload = bench.workload();
    let mut findings = Findings::with_cap(cap);
    let analysis = analyze_program(workload.program(), &mut findings);
    let mut conf = None;
    if let (Some(a), Some((t, expected))) = (&analysis, replay) {
        let stats = t.stats();
        conf = Some(check_trace(&a.image, t, &stats, expected, &mut findings));
    }
    LintOutcome {
        report: BenchReport {
            bench: bench.name().to_string(),
            findings,
            metrics: analysis.map(|a| a.metrics),
            predictability: None,
        },
        conformance: conf,
    }
}

/// Runs the lint pass over one benchmark: the static analysis always,
/// plus — when `conformance` is set — a trace replay at `scale` through
/// the shared [`trace`] entry point (so telemetry attribution, the
/// trace store, and `REPRO_FAULTS` truncation apply, and a truncated
/// trace surfaces as an `SL011` finding).
pub fn analyze(
    ctx: &TelemetryCtx,
    bench: Benchmark,
    scale: Scale,
    conformance: bool,
) -> LintOutcome {
    analyze_with(ctx, bench, scale, conformance, FINDINGS_PER_RULE_CAP)
}

/// [`analyze`] with an explicit per-rule finding retention cap
/// (0 = unlimited) — the `simlint --max-per-rule` plumbing.
pub fn analyze_with(
    ctx: &TelemetryCtx,
    bench: Benchmark,
    scale: Scale,
    conformance: bool,
    cap: usize,
) -> LintOutcome {
    if conformance {
        let budget = scale.budget(bench);
        let t = trace(ctx, bench, scale);
        analyze_common(bench, Some((&t, Some(budget))), cap)
    } else {
        analyze_common(bench, None, cap)
    }
}

/// Runs the lint pass over one benchmark with an externally supplied
/// replay trace — typically one decoded from a `.strc` file — instead
/// of generating (or store-replaying) one. `expected_budget` is the
/// instruction count the trace is supposed to contain; a shortfall
/// surfaces as an `SL011` truncation finding.
pub fn analyze_replay(
    bench: Benchmark,
    t: &sim_isa::VecTrace,
    expected_budget: Option<usize>,
) -> LintOutcome {
    analyze_replay_with(bench, t, expected_budget, FINDINGS_PER_RULE_CAP)
}

/// [`analyze_replay`] with an explicit per-rule finding retention cap
/// (0 = unlimited).
pub fn analyze_replay_with(
    bench: Benchmark,
    t: &sim_isa::VecTrace,
    expected_budget: Option<usize>,
    cap: usize,
) -> LintOutcome {
    analyze_common(bench, Some((t, expected_budget)), cap)
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: static pass plus conformance replay.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let bench = crate::jobs::benchmark(label);
    let outcome = analyze(ctx, bench, scale, true);
    let mut d = CellData::new();
    d.set("errors", outcome.report.findings.errors() as f64);
    d.set("warnings", outcome.report.findings.warnings() as f64);
    if let Some(m) = &outcome.report.metrics {
        d.set("static_instructions", m.static_instructions as f64);
        d.set("switch_sites", m.switch_sites.len() as f64);
        d.set("icall_sites", m.icall_sites.len() as f64);
        d.set("max_switch_arity", m.max_switch_arity as f64);
        d.set("back_edges", m.back_edges as f64);
        d.set("reachable_routines", m.reachable_routines as f64);
        d.set("reachable_blocks", m.reachable_blocks as f64);
    }
    if let Some(c) = &outcome.conformance {
        d.set("traced_instructions", c.instructions as f64);
        d.set("max_call_depth", c.max_call_depth as f64);
    }
    d
}

/// Renders a (possibly partial) cell set as the static ground-truth
/// table, with `ERR(reason)` markers in failed slots.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "errors".into(),
        "warnings".into(),
        "static instrs".into(),
        "switch sites".into(),
        "icall sites".into(),
        "max arity".into(),
        "back edges".into(),
        "routines".into(),
        "blocks".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        let int = |v: f64| (v as u64).to_string();
        table.row(vec![
            n.into(),
            cells.fmt(n, "errors", int),
            cells.fmt(n, "warnings", int),
            cells.fmt(n, "static_instructions", int),
            cells.fmt(n, "switch_sites", int),
            cells.fmt(n, "icall_sites", int),
            cells.fmt(n, "max_switch_arity", int),
            cells.fmt(n, "back_edges", int),
            cells.fmt(n, "reachable_routines", int),
            cells.fmt(n, "reachable_blocks", int),
        ]);
    }
    format!(
        "Static analysis: simlint rules SL001-SL011 over the benchmark models\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_cell_is_clean_at_quick_scale() {
        let cells = crate::jobs::registry::quick("lint");
        for b in Benchmark::ALL {
            let d = cells.data(b.name()).unwrap();
            assert_eq!(d.req("errors"), 0.0, "{b}");
            assert_eq!(d.req("warnings"), 0.0, "{b}");
            assert!(d.req("static_instructions") > 0.0, "{b}");
            assert_eq!(
                d.req("traced_instructions") as usize,
                Scale::Quick.budget(b),
                "{b}"
            );
        }
        let text = render_cells(&cells);
        assert!(!text.contains("ERR("), "{text}");
        // gcc has by far the most static indirect-branch sites.
        let sites = |n: &str| {
            let d = cells.data(n).unwrap();
            d.req("switch_sites") + d.req("icall_sites")
        };
        assert!(sites("gcc") > sites("compress"), "{text}");
    }

    #[test]
    fn analyze_surfaces_truncation_as_sl011() {
        // A short generation (static pass on the full program, replay
        // against a budget larger than the trace) must warn, not error.
        let bench = Benchmark::Perl;
        let workload = bench.workload();
        let mut findings = Findings::new();
        let analysis = analyze_program(workload.program(), &mut findings).unwrap();
        let t = workload.generate(10_000);
        let stats = t.stats();
        check_trace(&analysis.image, &t, &stats, Some(20_000), &mut findings);
        assert_eq!(findings.errors(), 0);
        assert_eq!(findings.count(sim_analysis::Rule::TruncatedTrace), 1);
    }
}
