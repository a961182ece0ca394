//! Extension: does Calder & Grunwald's 2-bit update strategy help the
//! *target cache*?
//!
//! Table 2 evaluates the 2-bit strategy on the BTB, where each entry folds
//! all of a jump's history together; the target cache already separates
//! occurrences by history, so each entry's target stream is far more
//! stable. This study crosses the two papers' ideas: target caches whose
//! entries only replace their stored target after two consecutive
//! mismatches.
//!
//! Observed shape: hysteresis *stabilizes* entries whose residual target
//! stream is bimodal — interference mixes between two jumps' targets, or
//! pattern-history aliasing between cycle positions (perl and ijpeg gain
//! several points) — and *hurts* entries whose stream moves in runs (go,
//! xlisp), exactly the helps/hurts split Table 2 found for BTBs, one level
//! up. Either way the effect is second-order next to the indexing scheme.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{functional_sweep, trace, Scale};
use crate::telemetry::TelemetryCtx;
use branch_predictors::UpdatePolicy;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::TargetCacheConfig;

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: both organisations under both update
/// policies, as one [`functional_sweep`].
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let tagless = TargetCacheConfig::isca97_tagless_gshare();
    let tagged = TargetCacheConfig::isca97_tagged(4);
    let two_bit = |tc: TargetCacheConfig| tc.with_update_policy(UpdatePolicy::TwoBit);
    let configs = [
        ("tagless.always", tagless),
        ("tagless.two_bit", two_bit(tagless)),
        ("tagged.always", tagged),
        ("tagged.two_bit", two_bit(tagged)),
    ];
    let frontends: Vec<FrontEndConfig> = configs
        .iter()
        .map(|&(_, tc)| FrontEndConfig::isca97_with(tc))
        .collect();
    let mut d = CellData::new();
    for ((key, _), lane) in configs.iter().zip(functional_sweep(ctx, &t, &frontends)) {
        d.set(*key, lane.stats().indirect_jump_misprediction_rate());
    }
    d
}

/// Renders a (possibly partial) cell set as the study's table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "tagless".into(),
        "tagless 2-bit".into(),
        "tagged 4w".into(),
        "tagged 4w 2-bit".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        table.row(vec![
            n.into(),
            cells.fmt(n, "tagless.always", pct),
            cells.fmt(n, "tagless.two_bit", pct),
            cells.fmt(n, "tagged.always", pct),
            cells.fmt(n, "tagged.two_bit", pct),
        ]);
    }
    format!(
        "Extension: 2-bit update hysteresis applied to the target cache\n\
         (indirect-jump misprediction rate)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick;

    /// `[always, two-bit]` misprediction rates of the `org` cache
    /// (`tagless` or `tagged`) on `b`.
    fn rates(cells: &CellSet, b: Benchmark, org: &str) -> [f64; 2] {
        let d = cells.data(b.name()).unwrap();
        [
            d.req(&format!("{org}.always")),
            d.req(&format!("{org}.two_bit")),
        ]
    }

    #[test]
    fn hysteresis_is_second_order_next_to_indexing() {
        // The update policy moves rates by points, not the tens of points
        // the indexing scheme is worth.
        let perl = rates(&quick("extension_hysteresis"), Benchmark::Perl, "tagless");
        assert!(
            (perl[0] - perl[1]).abs() < 0.12,
            "perl: policies should be within a few points, got {perl:?}"
        );
    }

    #[test]
    fn hysteresis_never_blows_up_a_benchmark() {
        let cells = quick("extension_hysteresis");
        for b in Benchmark::ALL {
            for org in ["tagless", "tagged"] {
                let r = rates(&cells, b, org);
                assert!(r[1] < r[0] + 0.15, "{b}: 2-bit {org} {r:?}");
            }
        }
    }
}
