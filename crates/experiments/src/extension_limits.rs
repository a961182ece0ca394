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
use crate::runner::{trace, Scale, Sweep};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;

/// One benchmark's limit-study numbers.
#[derive(Clone, Debug)]
pub struct Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Exec-time reduction of the best 512-entry tagless target cache.
    pub target_cache: f64,
    /// Exec-time reduction of the oracle target predictor.
    pub oracle: f64,
}

impl Row {
    /// Fraction of the oracle's headroom the target cache captures.
    pub fn capture_ratio(&self) -> f64 {
        if self.oracle <= 0.0 {
            1.0
        } else {
            (self.target_cache / self.oracle).clamp(-1.0, 1.0)
        }
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
    let mut sweep = Sweep::new(&t);
    let base = sweep.timing(ctx, FrontEndConfig::isca97_baseline());
    let tc = sweep.timing(
        ctx,
        FrontEndConfig::isca97_with(best_tagless_for(benchmark)),
    );
    let oracle = sweep.timing(ctx, FrontEndConfig::isca97_oracle());
    let mut d = CellData::new();
    d.set("target_cache", tc.exec_time_reduction_vs(&base));
    d.set("oracle", oracle.exec_time_reduction_vs(&base));
    d
}

/// Runs the limit study over the full suite.
pub fn run(scale: Scale) -> Vec<Row> {
    rows_from_cells(&CellSet::compute(&cell_labels(), |l| {
        cell(&TelemetryCtx::off(), l, scale)
    }))
}

/// Reconstructs rows from a fully-successful cell set.
pub fn rows_from_cells(cells: &CellSet) -> Vec<Row> {
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let d = cells.data(benchmark.name()).unwrap_or_else(|| {
                panic!("extension_limits cell for {benchmark} missing or failed")
            });
            Row {
                benchmark,
                target_cache: d.req("target_cache"),
                oracle: d.req("oracle"),
            }
        })
        .collect()
}

/// Converts rows back to cells.
pub fn cells_from_rows(rows: &[Row]) -> CellSet {
    let mut set = CellSet::new();
    for r in rows {
        let mut d = CellData::new();
        d.set("target_cache", r.target_cache);
        d.set("oracle", r.oracle);
        set.insert(r.benchmark.name(), Ok(d));
    }
    set
}

/// Renders the limit-study table.
pub fn render(rows: &[Row]) -> String {
    render_cells(&cells_from_rows(rows))
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
        let captured = match cells.data(n) {
            Some(d) => pct(Row {
                benchmark: b,
                target_cache: d.req("target_cache"),
                oracle: d.req("oracle"),
            }
            .capture_ratio()),
            None => crate::jobs::err_marker(cells.failure(n).unwrap_or("cell missing")),
        };
        table.row(vec![
            n.into(),
            cells.fmt(n, "target_cache", pct),
            cells.fmt(n, "oracle", pct),
            captured,
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

    #[test]
    fn oracle_bounds_the_target_cache() {
        for r in run(Scale::Quick) {
            assert!(
                r.target_cache <= r.oracle + 0.005,
                "{}: target cache ({}) cannot beat the oracle ({})",
                r.benchmark,
                r.target_cache,
                r.oracle
            );
            assert!(
                r.oracle >= -0.005,
                "{}: oracle cannot slow the machine",
                r.benchmark
            );
        }
    }

    #[test]
    fn perl_captures_most_of_its_headroom() {
        let rows = run(Scale::Quick);
        let perl = rows
            .iter()
            .find(|r| r.benchmark == Benchmark::Perl)
            .unwrap();
        assert!(
            perl.capture_ratio() > 0.8,
            "perl: path-history target cache captures {} of the oracle headroom",
            perl.capture_ratio()
        );
    }

    #[test]
    fn headroom_concentrates_in_the_hard_benchmarks() {
        let rows = run(Scale::Quick);
        let get = |b: Benchmark| rows.iter().find(|r| r.benchmark == b).unwrap().oracle;
        assert!(get(Benchmark::Perl) > get(Benchmark::Compress));
        assert!(get(Benchmark::Gcc) > get(Benchmark::Ijpeg));
    }
}
