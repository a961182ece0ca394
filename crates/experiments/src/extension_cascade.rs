//! Extension: cascaded (staged) prediction — can a confidence filter let a
//! *smaller* target cache do the same job?
//!
//! Most static indirect jumps are monomorphic (Figures 1–8) and the BTB
//! already handles them; letting them allocate target-cache entries wastes
//! the capacity the polymorphic jumps need. The cascade keeps BTB-confident
//! sites out of the second stage (see `target_cache::cascade`). This study
//! compares, per benchmark:
//!
//! * the paper's plain 512-entry tagless target cache,
//! * a cascade whose second stage is the same 512-entry cache,
//! * a cascade with a **half-size (256-entry)** second stage.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{functional_sweep, trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::{HistorySource, IndexScheme, Organization, TargetCacheConfig};

fn tagless(entries: usize) -> TargetCacheConfig {
    TargetCacheConfig::new(
        Organization::Tagless {
            entries,
            scheme: IndexScheme::Gshare,
        },
        HistorySource::Pattern { bits: 9 },
    )
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// The study's front ends, keyed by cell-data name.
pub fn configs() -> Vec<(&'static str, FrontEndConfig)> {
    vec![
        ("baseline", FrontEndConfig::isca97_baseline()),
        ("plain_512", FrontEndConfig::isca97_with(tagless(512))),
        ("cascade_512", FrontEndConfig::isca97_cascade(tagless(512))),
        ("cascade_256", FrontEndConfig::isca97_cascade(tagless(256))),
    ]
}

/// Computes one benchmark's cell: every configuration as one
/// [`functional_sweep`], plus the 512-entry cascade's filter rate.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let configs = configs();
    let frontends: Vec<FrontEndConfig> = configs.iter().map(|&(_, fe)| fe).collect();
    let mut d = CellData::new();
    for ((key, _), lane) in configs.iter().zip(functional_sweep(ctx, &t, &frontends)) {
        d.set(*key, lane.stats().indirect_jump_misprediction_rate());
        if *key == "cascade_512" {
            d.set(
                "filter_rate",
                lane.indirect()
                    .cascade_filter_rate()
                    .expect("cascade configured"),
            );
        }
    }
    d
}

/// Renders a (possibly partial) cell set as the cascade table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "BTB".into(),
        "plain 512".into(),
        "cascade 512".into(),
        "cascade 256".into(),
        "filtered".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        table.row(vec![
            n.into(),
            cells.fmt(n, "baseline", pct),
            cells.fmt(n, "plain_512", pct),
            cells.fmt(n, "cascade_512", pct),
            cells.fmt(n, "cascade_256", pct),
            cells.fmt(n, "filter_rate", pct),
        ]);
    }
    format!(
        "Extension: cascaded prediction (indirect-jump misprediction rate)\n\
         stage 1 = per-site BTB-confidence filter; stage 2 = tagless gshare cache\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick;

    #[test]
    fn monomorphic_benchmarks_are_mostly_filtered() {
        let cells = quick("extension_cascade");
        let filter_rate = |b: Benchmark| cells.data(b.name()).unwrap().req("filter_rate");
        for easy in [Benchmark::Compress, Benchmark::Ijpeg, Benchmark::Vortex] {
            let rate = filter_rate(easy);
            assert!(
                rate > 0.5,
                "{easy}: filter rate {rate} should be high for monomorphic dispatch"
            );
        }
        // perl's dispatch is polymorphic: almost nothing should be filtered
        // once confidence collapses.
        assert!(filter_rate(Benchmark::Perl) < 0.5);
    }

    #[test]
    fn cascade_trades_protection_for_training_density() {
        // The study's two-sided finding: the filter *protects* benchmarks
        // the plain cache pollutes (ijpeg, xlisp — where the plain cache is
        // worse than the BTB), but on bursty dispatch (go, m88ksim) the
        // confidence bit oscillates and starves the second stage. Either
        // way the cascade must never be meaningfully worse than *both* the
        // plain cache and the raw BTB.
        let cells = quick("extension_cascade");
        for b in Benchmark::ALL {
            let d = cells.data(b.name()).unwrap();
            let envelope = d.req("plain_512").max(d.req("baseline")) + 0.03;
            let cascade = d.req("cascade_512");
            assert!(
                cascade <= envelope,
                "{b}: cascade 512 ({cascade}) outside the BTB/plain envelope ({envelope})"
            );
        }
        // And the protection effect is real where the plain cache hurts.
        let ijpeg = cells.data(Benchmark::Ijpeg.name()).unwrap();
        let (plain, cascade) = (ijpeg.req("plain_512"), ijpeg.req("cascade_512"));
        if plain > ijpeg.req("baseline") {
            assert!(
                cascade < plain,
                "ijpeg: cascade ({cascade}) should undo the plain cache's pollution ({plain})"
            );
        }
    }

    #[test]
    fn half_size_cascade_stays_close_to_full_size_plain_cache() {
        // The capacity argument: with monomorphic traffic filtered, half
        // the entries go (nearly) as far on the interference-bound
        // benchmark.
        let cells = quick("extension_cascade");
        let gcc = cells.data(Benchmark::Gcc.name()).unwrap();
        let (half, plain) = (gcc.req("cascade_256"), gcc.req("plain_512"));
        assert!(
            half <= plain + 0.10,
            "gcc: half-size cascade ({half}) should stay close to plain 512 ({plain})"
        );
    }
}
