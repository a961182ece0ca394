//! Table 8: tagged target caches indexed with path history.
//!
//! "The path history schemes reported in this section record one bit from
//! each target address into the 9-bit path history register. ... As in the
//! tagless schemes, using pattern history results in better performance for
//! gcc and using global path history results in better performance for
//! perl."
//!
//! 256-entry History-Xor tagged caches; cells are execution-time reduction
//! vs the BTB baseline.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{trace, PathScheme, Scale, Sweep};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::{Organization, TaggedIndexScheme, TargetCacheConfig};

/// Associativities studied.
pub const ASSOCS: [usize; 5] = [1, 2, 4, 8, 16];

/// One row: a benchmark × associativity slice across the path schemes.
#[derive(Clone, Debug)]
pub struct Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Ways per set.
    pub assoc: usize,
    /// Execution-time reduction per scheme, in [`PathScheme::all`] order.
    pub reductions: Vec<f64>,
}

/// The cell key for one (associativity × path scheme) slot.
fn key(assoc: usize, scheme: &PathScheme) -> String {
    format!("a{assoc}.{}", scheme.label())
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: execution-time reductions for every
/// (associativity × path scheme) combination, keyed `a<assoc>.<scheme>`.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let mut sweep = Sweep::new(&t);
    let base = sweep.timing(ctx, FrontEndConfig::isca97_baseline());
    let mut d = CellData::new();
    for &assoc in &ASSOCS {
        for scheme in PathScheme::all() {
            let config = TargetCacheConfig::new(
                Organization::Tagged {
                    entries: 256,
                    assoc,
                    scheme: TaggedIndexScheme::HistoryXor,
                },
                scheme.source(9, 1, 0),
            );
            d.set(
                key(assoc, &scheme),
                sweep.exec_reduction(ctx, &base, config),
            );
        }
    }
    d
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Row> {
    rows_from_cells(&CellSet::compute(&cell_labels(), |l| {
        cell(&TelemetryCtx::off(), l, scale)
    }))
}

/// Reconstructs rows from a fully-successful cell set.
pub fn rows_from_cells(cells: &CellSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for &benchmark in &Benchmark::FOCUS {
        let d = cells
            .data(benchmark.name())
            .unwrap_or_else(|| panic!("table8 cell for {benchmark} missing or failed"));
        for &assoc in &ASSOCS {
            rows.push(Row {
                benchmark,
                assoc,
                reductions: PathScheme::all()
                    .iter()
                    .map(|s| d.req(&key(assoc, s)))
                    .collect(),
            });
        }
    }
    rows
}

/// Converts rows back to cells.
pub fn cells_from_rows(rows: &[Row]) -> CellSet {
    let mut set = CellSet::new();
    for &benchmark in &Benchmark::FOCUS {
        let mut d = CellData::new();
        for r in rows.iter().filter(|r| r.benchmark == benchmark) {
            for (scheme, &x) in PathScheme::all().iter().zip(&r.reductions) {
                d.set(key(r.assoc, scheme), x);
            }
        }
        set.insert(benchmark.name(), Ok(d));
    }
    set
}

/// Renders the rows as the paper's Table 8.
pub fn render(rows: &[Row]) -> String {
    render_cells(&cells_from_rows(rows))
}

/// Renders a (possibly partial) cell set as the paper's Table 8.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Table 8: 256-entry tagged target caches, 9 path-history bits (1 bit/target)\n\
         (execution-time reduction vs BTB baseline)\n",
    );
    for &benchmark in &Benchmark::FOCUS {
        let mut headers = vec!["set-assoc".to_string()];
        headers.extend(PathScheme::all().iter().map(|s| s.label().to_string()));
        let mut table = TextTable::new(headers);
        for &assoc in &ASSOCS {
            let mut row = vec![assoc.to_string()];
            row.extend(
                PathScheme::all()
                    .iter()
                    .map(|s| cells.fmt(benchmark.name(), &key(assoc, s), pct)),
            );
            table.row(row);
        }
        out.push_str(&format!("\n[{}]\n{}", benchmark, table.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perl_prefers_path_history_in_tagged_caches_too() {
        let rows = run(Scale::Quick);
        let r = rows
            .iter()
            .find(|r| r.benchmark == Benchmark::Perl && r.assoc == 4)
            .unwrap();
        let ind_jmp = r.reductions[3];
        assert!(
            ind_jmp > 0.02,
            "perl tagged path ind-jmp reduction {ind_jmp}"
        );
        // Path ind-jmp beats call/ret for perl in tagged form as well.
        assert!(ind_jmp > r.reductions[4]);
    }

    #[test]
    fn associativity_helps_or_holds_for_perl_ind_jmp() {
        let rows = run(Scale::Quick);
        let get = |assoc: usize| {
            rows.iter()
                .find(|r| r.benchmark == Benchmark::Perl && r.assoc == assoc)
                .unwrap()
                .reductions[3]
        };
        assert!(
            get(8) >= get(1) - 0.01,
            "8-way {} vs direct {}",
            get(8),
            get(1)
        );
    }
}
