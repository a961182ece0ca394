//! The paper's headline results (abstract and conclusions).
//!
//! "For the perl and gcc benchmarks, this mechanism reduces the indirect
//! jump misprediction rate by 93.4% and 63.3% and the overall execution
//! time by 14% and 5%."
//!
//! "For example, a 512-entry target cache achieves the misprediction rates
//! of 30.4% and 30.9% for gcc and perl respectively" (vs 66.0% / 76.2% for
//! the BTB).

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{exec_reductions, functional_sweep, trace, Scale};
use crate::telemetry::TelemetryCtx;
use branch_predictors::PathFilter;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::TargetCacheConfig;

/// The per-benchmark "best" tagless configuration the paper converges on:
/// path history (Ind jmp filter) for perl — the interpreter case study —
/// and pattern history (gshare) for gcc and the rest.
pub fn best_tagless_for(bench: Benchmark) -> TargetCacheConfig {
    match bench {
        Benchmark::Perl => TargetCacheConfig::isca97_tagless_path(PathFilter::IndirectJump),
        _ => TargetCacheConfig::isca97_tagless_gshare(),
    }
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let tc = best_tagless_for(benchmark);
    let lanes = functional_sweep(
        ctx,
        &t,
        &[
            FrontEndConfig::isca97_baseline(),
            FrontEndConfig::isca97_with(tc),
        ],
    );
    let [btb_mispred, tc_mispred] =
        [&lanes[0], &lanes[1]].map(|lane| lane.stats().indirect_jump_misprediction_rate());
    let mut d = exec_reductions(ctx, &t, &[("exec_reduction".into(), tc)]);
    d.set("btb_mispred", btb_mispred);
    d.set("tc_mispred", tc_mispred);
    d.set(
        "mispred_reduction",
        if btb_mispred > 0.0 {
            (btb_mispred - tc_mispred) / btb_mispred
        } else {
            0.0
        },
    );
    d
}

/// Renders a (possibly partial) cell set as the headline table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "BTB mispred".into(),
        "TC mispred".into(),
        "mispred reduction".into(),
        "exec time reduction".into(),
    ]);
    for &b in &Benchmark::FOCUS {
        let n = b.name();
        table.row(vec![
            n.into(),
            cells.fmt(n, "btb_mispred", pct),
            cells.fmt(n, "tc_mispred", pct),
            cells.fmt(n, "mispred_reduction", pct),
            cells.fmt(n, "exec_reduction", pct),
        ]);
    }
    format!(
        "Headline: 512-entry tagless target cache vs BTB baseline\n\
         (paper: perl 93.4% / gcc 63.3% misprediction reduction; ~14% / 5% execution time)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use crate::jobs::registry::quick;

    #[test]
    fn headline_shape_holds() {
        let cells = quick("headline");
        let perl = cells.data("perl").unwrap();
        let gcc = cells.data("gcc").unwrap();
        let (perl_mispred, gcc_mispred) =
            (perl.req("mispred_reduction"), gcc.req("mispred_reduction"));

        // Large relative misprediction reductions, perl's larger than gcc's
        // (paper: 93.4% vs 63.3%).
        assert!(perl_mispred > 0.6, "perl reduction {perl_mispred}");
        assert!(gcc_mispred > 0.3, "gcc reduction {gcc_mispred}");
        assert!(perl_mispred > gcc_mispred);

        // Execution time improves for both, more for perl (paper: 14% vs 5%).
        let (perl_exec, gcc_exec) = (perl.req("exec_reduction"), gcc.req("exec_reduction"));
        assert!(perl_exec > 0.0);
        assert!(gcc_exec > 0.0);
        assert!(perl_exec > gcc_exec);
    }
}
