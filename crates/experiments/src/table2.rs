//! Table 2: the BTB's default target-update strategy vs Calder &
//! Grunwald's 2-bit strategy.
//!
//! "The 2-bit strategy reduced the misprediction rates for the compress,
//! gcc, ijpeg, and perl benchmarks, but increased the misprediction rates
//! for the m88ksim, vortex, and xlisp benchmarks." The target cache beats
//! both by a wide margin.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{functional, trace, Scale};
use crate::telemetry::TelemetryCtx;
use branch_predictors::{BtbConfig, UpdatePolicy};
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let rate = |policy| {
        functional(
            ctx,
            &t,
            FrontEndConfig::isca97_baseline().with_btb(BtbConfig::new(256, 4, policy)),
        )
        .indirect_jump_misprediction_rate()
    };
    let mut d = CellData::new();
    d.set("default", rate(UpdatePolicy::Always));
    d.set("two_bit", rate(UpdatePolicy::TwoBit));
    d
}

/// Renders a (possibly partial) cell set as the paper's Table 2.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "BTB (default)".into(),
        "2-bit BTB".into(),
        "2-bit effect".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        table.row(vec![
            n.into(),
            cells.fmt(n, "default", pct),
            cells.fmt(n, "two_bit", pct),
            cells.fmt_derived(n, &["default", "two_bit"], |v| {
                if v[1] < v[0] { "helps" } else { "hurts" }.to_string()
            }),
        ]);
    }
    format!(
        "Table 2: indirect-jump misprediction, default vs 2-bit BTB update strategy\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use crate::jobs::registry::quick;
    use sim_workloads::Benchmark;

    #[test]
    fn two_bit_strategy_changes_rates_and_hurts_bursty_benchmarks() {
        let cells = quick("table2");
        let rates = |b: Benchmark| {
            let d = cells.data(b.name()).unwrap();
            (d.req("default"), d.req("two_bit"))
        };
        // The 2-bit strategy delays adoption of a new target, so benchmarks
        // whose dispatch moves in sticky runs pay an extra miss per run —
        // the paper found it *hurts* m88ksim, vortex, and xlisp.
        for bursty in [Benchmark::M88ksim, Benchmark::Vortex, Benchmark::Xlisp] {
            let (default, two_bit) = rates(bursty);
            assert!(
                two_bit >= default * 0.98,
                "{bursty}: 2-bit should not help a sticky dispatch (default {default}, 2-bit {two_bit})"
            );
        }
        // Rates stay sane everywhere.
        for b in Benchmark::ALL {
            let (default, two_bit) = rates(b);
            assert!((0.0..=1.0).contains(&default));
            assert!((0.0..=1.0).contains(&two_bit));
        }
    }
}
