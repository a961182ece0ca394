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
use crate::runner::{trace, Scale, Sweep};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::TargetCacheConfig;

/// Associativities swept for the tagged series (the figures use 1..=256).
pub const ASSOCS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One benchmark's two series.
#[derive(Clone, Debug)]
pub struct Series {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The 512-entry tagless cache's execution-time reduction.
    pub tagless: f64,
    /// The 256-entry tagged cache's reduction at each associativity, in
    /// [`ASSOCS`] order.
    pub tagged: Vec<f64>,
}

impl Series {
    /// The smallest associativity at which the tagged cache matches or
    /// beats the tagless one (the figures' crossover), if any.
    pub fn crossover_assoc(&self) -> Option<usize> {
        ASSOCS
            .iter()
            .zip(&self.tagged)
            .find(|(_, &red)| red >= self.tagless)
            .map(|(&a, _)| a)
    }
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
    let mut sweep = Sweep::new(&t);
    let base = sweep.timing(ctx, FrontEndConfig::isca97_baseline());
    let mut d = CellData::new();
    d.set(
        "tagless",
        sweep.exec_reduction(ctx, &base, TargetCacheConfig::isca97_tagless_gshare()),
    );
    for &assoc in &ASSOCS {
        d.set(
            format!("tagged.{assoc}"),
            sweep.exec_reduction(ctx, &base, TargetCacheConfig::isca97_tagged(assoc)),
        );
    }
    d
}

/// Runs the comparison for the focus benchmarks.
pub fn run(scale: Scale) -> Vec<Series> {
    rows_from_cells(&CellSet::compute(&cell_labels(), |l| {
        cell(&TelemetryCtx::off(), l, scale)
    }))
}

/// Reconstructs the series from a fully-successful cell set.
pub fn rows_from_cells(cells: &CellSet) -> Vec<Series> {
    Benchmark::FOCUS
        .iter()
        .map(|&benchmark| {
            let d = cells.data(benchmark.name()).unwrap_or_else(|| {
                panic!("fig_tagless_vs_tagged cell for {benchmark} missing or failed")
            });
            Series {
                benchmark,
                tagless: d.req("tagless"),
                tagged: ASSOCS
                    .iter()
                    .map(|a| d.req(&format!("tagged.{a}")))
                    .collect(),
            }
        })
        .collect()
}

/// Converts the series back to cells.
pub fn cells_from_rows(series: &[Series]) -> CellSet {
    let mut set = CellSet::new();
    for s in series {
        let mut d = CellData::new();
        d.set("tagless", s.tagless);
        for (&assoc, &red) in ASSOCS.iter().zip(&s.tagged) {
            d.set(format!("tagged.{assoc}"), red);
        }
        set.insert(s.benchmark.name(), Ok(d));
    }
    set
}

/// Renders both figures' series.
pub fn render(series: &[Series]) -> String {
    render_cells(&cells_from_rows(series))
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
                cells.fmt(n, &format!("tagged.{assoc}"), pct),
                cells.fmt(n, "tagless", pct),
            ]);
        }
        let crossover = match cells.data(n) {
            Some(d) => {
                let tagless = d.req("tagless");
                ASSOCS
                    .iter()
                    .find(|a| d.req(&format!("tagged.{a}")) >= tagless)
                    .map_or("no".to_string(), |a| a.to_string())
            }
            None => crate::jobs::err_marker(cells.failure(n).unwrap_or("cell missing")),
        };
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

    #[test]
    fn tagged_catches_tagless_as_associativity_grows() {
        let series = run(Scale::Quick);
        for s in &series {
            // Both organizations beat the baseline.
            assert!(
                s.tagless > 0.0,
                "{}: tagless reduction {}",
                s.benchmark,
                s.tagless
            );
            // The tagged series is (weakly) increasing from direct-mapped
            // to fully associative.
            let first = s.tagged[0];
            let last = *s.tagged.last().unwrap();
            assert!(
                last >= first - 0.005,
                "{}: tagged should not degrade with associativity ({first} -> {last})",
                s.benchmark
            );
            // At full associativity the tagged cache is at least close to
            // the tagless one (the paper's crossover claim).
            assert!(
                last >= s.tagless * 0.8,
                "{}: fully-associative tagged ({last}) should approach tagless ({})",
                s.benchmark,
                s.tagless
            );
        }
    }
}
