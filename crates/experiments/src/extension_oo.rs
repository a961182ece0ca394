//! Extension: the paper's future work — target caches on C++-style
//! object-oriented programs.
//!
//! "For object oriented programs where more indirect branches may be
//! executed, tagged caches should provide even greater performance
//! benefits. In the future, we will evaluate the performance benefit of
//! target caches for C++ benchmarks." (Section 5)
//!
//! This experiment performs that evaluation on the `ixx` (megamorphic
//! AST/visitor double dispatch) and `deltablue` (constraint propagation)
//! models, comparing the BTB baseline against tagless and tagged target
//! caches, and reports both misprediction and execution-time reduction.

use crate::jobs::{CellData, CellSet};
use crate::report::{count, pct, TextTable};
use crate::runner::{functional, Scale, Sweep};
use crate::telemetry::TelemetryCtx;
use sim_isa::VecTrace;
use sim_workloads::OoBenchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::TargetCacheConfig;

/// The predictor configurations compared.
pub fn configs() -> Vec<(&'static str, Option<TargetCacheConfig>)> {
    vec![
        ("BTB only", None),
        (
            "tagless 512 gshare",
            Some(TargetCacheConfig::isca97_tagless_gshare()),
        ),
        (
            "tagged 256 4-way",
            Some(TargetCacheConfig::isca97_tagged(4)),
        ),
        (
            "tagged 256 16-way",
            Some(TargetCacheConfig::isca97_tagged(16)),
        ),
    ]
}

/// One benchmark's results across the configurations.
#[derive(Clone, Debug)]
pub struct Row {
    /// The OO benchmark.
    pub benchmark: OoBenchmark,
    /// Dynamic indirect branches in the trace.
    pub indirect_jumps: u64,
    /// Fraction of instructions that are indirect branches.
    pub indirect_fraction: f64,
    /// Misprediction rate per configuration, in [`configs`] order.
    pub mispred: Vec<f64>,
    /// Execution-time reduction vs the BTB baseline per configuration
    /// (the first entry is 0 by construction).
    pub exec_reduction: Vec<f64>,
}

fn oo_trace(bench: OoBenchmark, scale: Scale) -> VecTrace {
    let w = bench.workload();
    let budget = match scale {
        Scale::Quick => 100_000,
        Scale::Standard => 400_000,
        Scale::Full => w.default_budget(),
    };
    w.generate(budget)
}

/// Resolves an OO benchmark from its cell label.
fn oo_benchmark(label: &str) -> OoBenchmark {
    OoBenchmark::ALL
        .into_iter()
        .find(|b| b.name() == label)
        .unwrap_or_else(|| panic!("unknown OO benchmark label {label:?}"))
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    OoBenchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: trace characterization plus
/// `mispred.<config>` / `exec.<config>` per configuration.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = oo_benchmark(label);
    let t = oo_trace(benchmark, scale);
    let stats = t.stats();
    let mut sweep = Sweep::new(&t);
    let base_report = sweep.timing(ctx, FrontEndConfig::isca97_baseline());
    let mut d = CellData::new();
    d.set("indirect_jumps", stats.indirect_jumps() as f64);
    d.set("indirect_fraction", stats.indirect_jump_fraction());
    for (name, tc) in configs() {
        let fe = match tc {
            None => FrontEndConfig::isca97_baseline(),
            Some(tc) => FrontEndConfig::isca97_with(tc),
        };
        d.set(
            format!("mispred.{name}"),
            functional(ctx, &t, fe).indirect_jump_misprediction_rate(),
        );
        d.set(
            format!("exec.{name}"),
            sweep.timing(ctx, fe).exec_time_reduction_vs(&base_report),
        );
    }
    d
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Row> {
    rows_from_cells(&CellSet::compute(&cell_labels(), |l| {
        cell(&TelemetryCtx::off(), l, scale)
    }))
}

/// Reconstructs rows from a fully-successful cell set.
pub fn rows_from_cells(cells: &CellSet) -> Vec<Row> {
    OoBenchmark::ALL
        .iter()
        .map(|&benchmark| {
            let d = cells
                .data(benchmark.name())
                .unwrap_or_else(|| panic!("extension_oo cell for {benchmark} missing or failed"));
            Row {
                benchmark,
                indirect_jumps: d.req("indirect_jumps") as u64,
                indirect_fraction: d.req("indirect_fraction"),
                mispred: configs()
                    .iter()
                    .map(|(name, _)| d.req(&format!("mispred.{name}")))
                    .collect(),
                exec_reduction: configs()
                    .iter()
                    .map(|(name, _)| d.req(&format!("exec.{name}")))
                    .collect(),
            }
        })
        .collect()
}

/// Converts rows back to cells.
pub fn cells_from_rows(rows: &[Row]) -> CellSet {
    let mut set = CellSet::new();
    for r in rows {
        let mut d = CellData::new();
        d.set("indirect_jumps", r.indirect_jumps as f64);
        d.set("indirect_fraction", r.indirect_fraction);
        for ((name, _), (&m, &e)) in configs()
            .iter()
            .zip(r.mispred.iter().zip(&r.exec_reduction))
        {
            d.set(format!("mispred.{name}"), m);
            d.set(format!("exec.{name}"), e);
        }
        set.insert(r.benchmark.name(), Ok(d));
    }
    set
}

/// Renders the extension table.
pub fn render(rows: &[Row]) -> String {
    render_cells(&cells_from_rows(rows))
}

/// Renders a (possibly partial) cell set as the extension table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Extension (paper section 5 future work): target caches on C++-style OO programs\n",
    );
    for &benchmark in &OoBenchmark::ALL {
        let n = benchmark.name();
        out.push_str(&format!(
            "\n[{benchmark}]  {} indirect branches ({} of instructions)\n",
            cells.fmt(n, "indirect_jumps", |v| count(v as u64)),
            cells.fmt(n, "indirect_fraction", pct)
        ));
        let mut table = TextTable::new(vec![
            "configuration".into(),
            "ind mispred".into(),
            "exec reduction".into(),
        ]);
        for (name, _) in configs() {
            table.row(vec![
                name.into(),
                cells.fmt(n, &format!("mispred.{name}"), pct),
                cells.fmt(n, &format!("exec.{name}"), pct),
            ]);
        }
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_workloads::Benchmark;

    #[test]
    fn oo_programs_execute_more_indirect_branches() {
        let rows = run(Scale::Quick);
        let gcc_frac = crate::runner::trace(&TelemetryCtx::off(), Benchmark::Gcc, Scale::Quick)
            .stats()
            .indirect_jump_fraction();
        for r in &rows {
            assert!(
                r.indirect_fraction > gcc_frac,
                "{}: OO indirect fraction {} should exceed gcc's {gcc_frac}",
                r.benchmark,
                r.indirect_fraction
            );
        }
    }

    #[test]
    fn target_caches_help_oo_programs_substantially() {
        let rows = run(Scale::Quick);
        for r in &rows {
            let btb = r.mispred[0];
            let best_tc = r.mispred[1..].iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                best_tc < btb * 0.6,
                "{}: best TC {best_tc} vs BTB {btb}",
                r.benchmark
            );
            // And it shows up in execution time.
            let best_exec = r.exec_reduction.iter().cloned().fold(f64::MIN, f64::max);
            assert!(
                best_exec > 0.02,
                "{}: best exec reduction {best_exec}",
                r.benchmark
            );
        }
    }

    #[test]
    fn tags_pay_off_more_for_oo_than_the_paper_benchmarks() {
        // The paper's speculation: with more indirect branches and more
        // polymorphism, interference grows and tags matter more. Compare
        // the tagged-16-way advantage over tagless on ixx vs on perl.
        let rows = run(Scale::Quick);
        let ixx = rows
            .iter()
            .find(|r| r.benchmark == OoBenchmark::Ixx)
            .unwrap();
        let tagless = ixx.mispred[1];
        let tagged16 = ixx.mispred[3];
        assert!(
            tagged16 < tagless,
            "ixx: 16-way tagged ({tagged16}) should beat tagless ({tagless})"
        );
    }
}
