//! Extension: limit study — how much performance is left on the table?
//!
//! An *oracle* indirect-target predictor (perfect prediction for every
//! BTB-detected indirect branch) bounds what any target predictor could
//! deliver on this machine. Comparing the target cache's realized
//! execution-time reduction against the oracle's shows how much of the
//! available headroom the paper's mechanism captures — and for which
//! benchmarks residual mispredictions still matter.

use crate::headline::best_tagless_for;
use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{timing_sweep, trace, Scale};
use crate::telemetry::TelemetryCtx;
use hps_uarch::MachineConfig;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;

/// The fraction of the oracle's headroom the target cache captures,
/// from the two execution-time reductions.
fn capture_ratio(target_cache: f64, oracle: f64) -> f64 {
    if oracle <= 0.0 {
        1.0
    } else {
        (target_cache / oracle).clamp(-1.0, 1.0)
    }
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let machines = [
        FrontEndConfig::isca97_baseline(),
        FrontEndConfig::isca97_with(best_tagless_for(benchmark)),
        FrontEndConfig::isca97_oracle(),
    ]
    .map(MachineConfig::isca97);
    let reports = timing_sweep(ctx, &t, &machines);
    let (base, tc, oracle) = (&reports[0], &reports[1], &reports[2]);
    let mut d = CellData::new();
    d.set("target_cache", tc.exec_time_reduction_vs(base));
    d.set("oracle", oracle.exec_time_reduction_vs(base));
    d
}

/// Renders a (possibly partial) cell set as the limit-study table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "target cache".into(),
        "oracle".into(),
        "captured".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        table.row(vec![
            n.into(),
            cells.fmt(n, "target_cache", pct),
            cells.fmt(n, "oracle", pct),
            cells.fmt_derived(n, &["target_cache", "oracle"], |v| {
                pct(capture_ratio(v[0], v[1]))
            }),
        ]);
    }
    format!(
        "Extension: limit study — execution-time reduction vs BTB baseline\n\
         (oracle = perfect target prediction for BTB-detected indirect branches)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick;

    /// `(target cache, oracle)` execution-time reductions per benchmark.
    fn reductions() -> Vec<(Benchmark, f64, f64)> {
        let cells = quick("extension_limits");
        Benchmark::ALL
            .iter()
            .map(|&b| {
                let d = cells.data(b.name()).unwrap();
                (b, d.req("target_cache"), d.req("oracle"))
            })
            .collect()
    }

    #[test]
    fn oracle_bounds_the_target_cache() {
        for (b, target_cache, oracle) in reductions() {
            assert!(
                target_cache <= oracle + 0.005,
                "{b}: target cache ({target_cache}) cannot beat the oracle ({oracle})"
            );
            assert!(oracle >= -0.005, "{b}: oracle cannot slow the machine");
        }
    }

    #[test]
    fn perl_captures_most_of_its_headroom() {
        let (_, target_cache, oracle) = reductions()
            .into_iter()
            .find(|r| r.0 == Benchmark::Perl)
            .unwrap();
        let ratio = capture_ratio(target_cache, oracle);
        assert!(
            ratio > 0.8,
            "perl: path-history target cache captures {ratio} of the oracle headroom"
        );
    }

    #[test]
    fn headroom_concentrates_in_the_hard_benchmarks() {
        let rows = reductions();
        let get = |b: Benchmark| rows.iter().find(|r| r.0 == b).unwrap().2;
        assert!(get(Benchmark::Perl) > get(Benchmark::Compress));
        assert!(get(Benchmark::Gcc) > get(Benchmark::Ijpeg));
    }
}
