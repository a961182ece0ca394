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
use crate::runner::{functional_sweep, timing_sweep, Scale};
use crate::telemetry::TelemetryCtx;
use hps_uarch::MachineConfig;
use sim_isa::VecTrace;
use sim_workloads::OoBenchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::TargetCacheConfig;

/// The predictor configurations compared, the BTB-only baseline first.
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
/// `mispred.<config>` / `exec.<config>` per configuration. The
/// configurations run as one functional and one timing sweep; the first,
/// `BTB only`, is the baseline the execution-time reductions are measured
/// against.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = oo_benchmark(label);
    // The OO traces are generated here, not by `runner::trace`, so the
    // cell declares its benchmark for run attribution itself.
    if let Some(hub) = ctx.hub() {
        hub.set_benchmark(benchmark.name());
    }
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
    for ((name, _), lane) in configs.iter().zip(functional_sweep(ctx, &t, &frontends)) {
        d.set(
            format!("mispred.{name}"),
            lane.stats().indirect_jump_misprediction_rate(),
        );
    }
    let machines: Vec<MachineConfig> = frontends.into_iter().map(MachineConfig::isca97).collect();
    let reports = timing_sweep(ctx, &t, &machines);
    let base = &reports[0];
    for ((name, _), report) in configs.iter().zip(&reports) {
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
    fn a_cell_replays_each_configuration_once_per_model_under_its_label() {
        use crate::telemetry::{session_with_config, ProfMode, TelemetryConfig, TelemetryMode};
        use sim_telemetry::Json;

        for b in OoBenchmark::ALL {
            let dir = std::env::temp_dir().join(format!(
                "extension-oo-{}-{}",
                b.name(),
                std::process::id()
            ));
            let session = session_with_config(
                "extension_oo",
                Scale::Quick,
                TelemetryConfig {
                    mode: TelemetryMode::Summary,
                    prof: ProfMode::Spans,
                    dir: dir.clone(),
                    ..TelemetryConfig::off()
                },
            );
            cell(&session.ctx(), b.name(), Scale::Quick);
            let spans = session
                .ctx()
                .hub()
                .expect("telemetry on")
                .spans()
                .snapshot();
            let count = |name: &str| {
                spans
                    .iter()
                    .find(|s| s.name() == name)
                    .map_or(0, |s| s.count)
            };
            // One functional batch and one timing batch ...
            assert_eq!((count("harness-replay"), count("uarch-sim")), (1, 1), "{b}");
            let manifest_path = session.manifest_path();
            drop(session);
            let manifest =
                sim_telemetry::json::parse(&std::fs::read_to_string(&manifest_path).unwrap())
                    .expect("manifest parses");
            let _ = std::fs::remove_dir_all(&dir);
            // ... of four configurations each: every configuration runs
            // once functionally and once in the timing model, and every run
            // is attributed to the model.
            let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
            assert_eq!(runs.len(), 8, "{b}");
            let field =
                |run: &Json, key: &str| run.get(key).and_then(Json::as_str).unwrap().to_string();
            for run in runs {
                assert_eq!(field(run, "label"), b.name());
            }
            let (functional, timing) = runs.split_at(4);
            let configs =
                |runs: &[Json]| runs.iter().map(|r| field(r, "config")).collect::<Vec<_>>();
            assert_eq!(configs(functional), configs(timing), "{b}");
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
