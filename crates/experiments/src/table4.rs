//! Table 4: tagless target caches indexed with pattern history — the
//! GAg(9) / GAs(8,1) / GAs(7,2) / gshare hashing study.
//!
//! Paper findings: "For the perl benchmark, GAg(9) outperforms GAs(8,1),
//! showing that branch pattern history provides marginally more useful
//! information than branch address ... On the other hand, GAs(8,1) is
//! competitive with GAg(9) for the gcc benchmark, a benchmark which
//! executes a large number of static indirect jumps. ... the gshare scheme
//! outperforms the GAs scheme because it effectively utilizes more of the
//! entries in the target cache."

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{functional_sweep, trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::{HistorySource, IndexScheme, Organization, TargetCacheConfig};

/// Index schemes studied, in the paper's Table 4 order.
pub fn schemes() -> Vec<IndexScheme> {
    vec![
        IndexScheme::GAg,
        IndexScheme::GAs { addr_bits: 1 },
        IndexScheme::GAs { addr_bits: 2 },
        IndexScheme::Gshare,
    ]
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: every scheme's misprediction rate on
/// that benchmark's trace, keyed by scheme label. The schemes run as one
/// [`functional_sweep`].
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let configs: Vec<FrontEndConfig> = schemes()
        .into_iter()
        .map(|scheme| {
            FrontEndConfig::isca97_with(TargetCacheConfig::new(
                Organization::Tagless {
                    entries: 512,
                    scheme,
                },
                HistorySource::Pattern { bits: 9 },
            ))
        })
        .collect();
    let mut d = CellData::new();
    for (scheme, lane) in schemes()
        .into_iter()
        .zip(functional_sweep(ctx, &t, &configs))
    {
        d.set(
            scheme.label(9),
            lane.stats().indirect_jump_misprediction_rate(),
        );
    }
    d
}

/// Renders a (possibly partial) cell set as the paper's Table 4.
pub fn render_cells(cells: &CellSet) -> String {
    let mut headers = vec!["scheme".to_string()];
    headers.extend(Benchmark::FOCUS.iter().map(|b| b.name().to_string()));
    let mut table = TextTable::new(headers);
    for scheme in schemes() {
        let label = scheme.label(9);
        let mut row = vec![label.clone()];
        row.extend(
            Benchmark::FOCUS
                .iter()
                .map(|b| cells.fmt(b.name(), &label, pct)),
        );
        table.row(row);
    }
    format!(
        "Table 4: 512-entry tagless target caches, 9 pattern-history bits\n\
         (indirect-jump misprediction rate)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick;

    /// Every scheme's misprediction rate on `bench`, keyed by label.
    fn col(cells: &CellSet, bench: Benchmark) -> Vec<(String, f64)> {
        let d = cells.data(bench.name()).unwrap();
        schemes()
            .iter()
            .map(|s| (s.label(9), d.req(&s.label(9))))
            .collect()
    }

    #[test]
    fn gshare_is_best_and_all_beat_the_btb() {
        let cells = quick("table4");
        for &bench in &Benchmark::FOCUS {
            let c = col(&cells, bench);
            let gshare = c.iter().find(|(l, _)| l == "gshare").unwrap().1;
            for (label, m) in &c {
                assert!(
                    gshare <= m * 1.15,
                    "{bench}: gshare ({gshare}) should be at/near the best, {label} = {m}"
                );
            }
            // And the best scheme must massively improve on the BTB
            // baseline (66% / 76% in the paper).
            assert!(gshare < 0.5, "{bench}: gshare mispred {gshare}");
        }
    }

    #[test]
    fn address_bits_matter_more_for_gcc_than_perl() {
        // Paper: GAg > GAs for perl (pattern bits beat address bits);
        // GAs competitive with GAg for gcc (many static jumps).
        let gcc = col(&quick("table4"), Benchmark::Gcc);
        let gag_gcc = gcc.iter().find(|(l, _)| l == "GAg(9)").unwrap().1;
        let gas_gcc = gcc.iter().find(|(l, _)| l == "GAs(8,1)").unwrap().1;
        // For gcc, spending an index bit on the address must not hurt much
        // (it distinguishes gcc's many sites).
        assert!(
            gas_gcc <= gag_gcc * 1.1,
            "gcc: GAs(8,1) {gas_gcc} should be competitive with GAg {gag_gcc}"
        );
    }
}
