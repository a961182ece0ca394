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
use crate::runner::{functional, timing_sweep, Scale};
use crate::telemetry::TelemetryCtx;
use hps_uarch::MachineConfig;
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
    let mut d = CellData::new();
    d.set("indirect_jumps", stats.indirect_jumps() as f64);
    d.set("indirect_fraction", stats.indirect_jump_fraction());
    let configs = configs();
    let frontends: Vec<FrontEndConfig> = configs
        .iter()
        .map(|(_, tc)| match tc {
            None => FrontEndConfig::isca97_baseline(),
            Some(tc) => FrontEndConfig::isca97_with(*tc),
        })
        .collect();
    for ((name, _), &fe) in configs.iter().zip(&frontends) {
        d.set(
            format!("mispred.{name}"),
            functional(ctx, &t, fe).indirect_jump_misprediction_rate(),
        );
    }
    // The baseline and every configuration replay as one batch.
    let machines: Vec<MachineConfig> = std::iter::once(FrontEndConfig::isca97_baseline())
        .chain(frontends)
        .map(MachineConfig::isca97)
        .collect();
    let reports = timing_sweep(ctx, &t, &machines);
    let (base, rest) = reports.split_first().expect("the baseline runs first");
    for ((name, _), report) in configs.iter().zip(rest) {
        d.set(format!("exec.{name}"), report.exec_time_reduction_vs(base));
    }
    d
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
    use crate::jobs::registry::quick;
    use sim_workloads::Benchmark;

    /// `<prefix>.<config>` for every configuration of `bench`, in
    /// [`configs`] order.
    fn series(cells: &CellSet, bench: OoBenchmark, prefix: &str) -> Vec<f64> {
        let d = cells.data(bench.name()).unwrap();
        configs()
            .iter()
            .map(|(name, _)| d.req(&format!("{prefix}.{name}")))
            .collect()
    }

    #[test]
    fn oo_programs_execute_more_indirect_branches() {
        let cells = quick("extension_oo");
        let gcc_frac = crate::runner::trace(&TelemetryCtx::off(), Benchmark::Gcc, Scale::Quick)
            .stats()
            .indirect_jump_fraction();
        for b in OoBenchmark::ALL {
            let frac = cells.data(b.name()).unwrap().req("indirect_fraction");
            assert!(
                frac > gcc_frac,
                "{b}: OO indirect fraction {frac} should exceed gcc's {gcc_frac}"
            );
        }
    }

    #[test]
    fn target_caches_help_oo_programs_substantially() {
        let cells = quick("extension_oo");
        for b in OoBenchmark::ALL {
            let mispred = series(&cells, b, "mispred");
            let btb = mispred[0];
            let best_tc = mispred[1..].iter().cloned().fold(f64::MAX, f64::min);
            assert!(best_tc < btb * 0.6, "{b}: best TC {best_tc} vs BTB {btb}");
            // And it shows up in execution time.
            let best_exec = series(&cells, b, "exec")
                .into_iter()
                .fold(f64::MIN, f64::max);
            assert!(best_exec > 0.02, "{b}: best exec reduction {best_exec}");
        }
    }

    #[test]
    fn tags_pay_off_more_for_oo_than_the_paper_benchmarks() {
        // The paper's speculation: with more indirect branches and more
        // polymorphism, interference grows and tags matter more. Compare
        // the tagged-16-way advantage over tagless on ixx vs on perl.
        let mispred = series(&quick("extension_oo"), OoBenchmark::Ixx, "mispred");
        let tagless = mispred[1];
        let tagged16 = mispred[3];
        assert!(
            tagged16 < tagless,
            "ixx: 16-way tagged ({tagged16}) should beat tagless ({tagless})"
        );
    }
}
