//! Figures 12 & 13: tagless vs tagged target caches at equal hardware
//! budget.
//!
//! "For a given implementation cost, a tagless target cache can have more
//! entries than a tagged target cache. ... The tagless target cache
//! outperforms tagged target caches with a small degree of
//! set-associativity. On the other hand, a tagged target cache with \[4\] or
//! more entries per set outperforms the tagless target cache."
//!
//! Series: a 512-entry tagless gshare cache (flat line) vs 256-entry
//! History-Xor tagged caches across associativities; cells are
//! execution-time reduction vs the BTB baseline.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{exec_reductions, trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::TargetCacheConfig;

/// Associativities swept for the tagged series (the figures use 1..=256).
pub const ASSOCS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The cell key of the tagged cache's reduction at `assoc` ways.
fn tagged_key(assoc: usize) -> String {
    format!("tagged.{assoc}")
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: the tagless reduction (`tagless`) plus
/// the tagged reduction per associativity (`tagged.<assoc>`).
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let mut configs = vec![(
        "tagless".to_string(),
        TargetCacheConfig::isca97_tagless_gshare(),
    )];
    configs.extend(
        ASSOCS
            .iter()
            .map(|&assoc| (tagged_key(assoc), TargetCacheConfig::isca97_tagged(assoc))),
    );
    exec_reductions(ctx, &t, &configs)
}

/// Renders a (possibly partial) cell set as the figures' series.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Figures 12-13: tagless (512 entries) vs tagged (256 entries) target caches\n\
         equal hardware budget; execution-time reduction vs BTB baseline\n",
    );
    for &benchmark in &Benchmark::FOCUS {
        let n = benchmark.name();
        let mut table = TextTable::new(vec![
            "set-assoc".into(),
            "tagged 256".into(),
            "tagless 512".into(),
        ]);
        for &assoc in &ASSOCS {
            table.row(vec![
                assoc.to_string(),
                cells.fmt(n, &tagged_key(assoc), pct),
                cells.fmt(n, "tagless", pct),
            ]);
        }
        // The crossover: the smallest associativity at which the tagged
        // cache matches or beats the tagless one.
        let keys: Vec<String> = ASSOCS.iter().map(|&a| tagged_key(a)).collect();
        let keys: Vec<&str> = std::iter::once("tagless")
            .chain(keys.iter().map(String::as_str))
            .collect();
        let crossover = cells.fmt_derived(n, &keys, |v| {
            ASSOCS
                .iter()
                .zip(&v[1..])
                .find(|(_, &tagged)| tagged >= v[0])
                .map_or("no".to_string(), |(a, _)| a.to_string())
        });
        out.push_str(&format!(
            "\n[{benchmark}]  (crossover at {crossover} ways)\n{}",
            table.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick;

    #[test]
    fn tagged_catches_tagless_as_associativity_grows() {
        let cells = quick("fig_tagless_vs_tagged");
        for &b in &Benchmark::FOCUS {
            let d = cells.data(b.name()).unwrap();
            let tagless = d.req("tagless");
            // Both organizations beat the baseline.
            assert!(tagless > 0.0, "{b}: tagless reduction {tagless}");
            // The tagged series is (weakly) increasing from direct-mapped
            // to fully associative.
            let first = d.req(&tagged_key(ASSOCS[0]));
            let last = d.req(&tagged_key(ASSOCS[ASSOCS.len() - 1]));
            assert!(
                last >= first - 0.005,
                "{b}: tagged should not degrade with associativity ({first} -> {last})"
            );
            // At full associativity the tagged cache is at least close to
            // the tagless one (the paper's crossover claim).
            assert!(
                last >= tagless * 0.8,
                "{b}: fully-associative tagged ({last}) should approach tagless ({tagless})"
            );
        }
    }
}
