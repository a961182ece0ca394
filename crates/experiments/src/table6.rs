//! Table 6: path history — how many bits of each target to record.
//!
//! "Because the length of the history register is fixed, there is also a
//! tradeoff between identifying more branches in the past history and
//! better identifying each branch in the past history. ... In general, with
//! nine history bits, the performance benefit of the target cache decreases
//! as the number of address bits recorded per target increases." (Most
//! pronounced for the Control and Branch filters, whose uncorrelated
//! branches displace useful history fastest.)

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{trace, PathScheme, Scale, Sweep};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;
use target_cache::{Organization, TargetCacheConfig};

/// Bits-per-target values studied (the paper uses 1, 2, 3).
pub const BITS_PER_TARGET: [u32; 3] = [1, 2, 3];

/// One row: a benchmark × bits-per-target slice across all path schemes.
#[derive(Clone, Debug)]
pub struct Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// How many bits of each target were recorded.
    pub bits_per_target: u32,
    /// Execution-time reduction per scheme, in [`PathScheme::all`] order.
    pub reductions: Vec<f64>,
}

/// The cell key for one (bits-per-target × path scheme) slot.
fn key(bits: u32, scheme: &PathScheme) -> String {
    format!("t{bits}.{}", scheme.label())
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: execution-time reductions for every
/// (bits-per-target × path scheme) combination, keyed `t<bits>.<scheme>`.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let mut sweep = Sweep::new(&t);
    let base = sweep.timing(ctx, FrontEndConfig::isca97_baseline());
    let mut d = CellData::new();
    for &bits in &BITS_PER_TARGET {
        for scheme in PathScheme::all() {
            let config = TargetCacheConfig::new(
                Organization::Tagless {
                    entries: 512,
                    scheme: target_cache::IndexScheme::Gshare,
                },
                scheme.source(9, bits, 0),
            );
            d.set(key(bits, &scheme), sweep.exec_reduction(ctx, &base, config));
        }
    }
    d
}

/// Runs the experiment: 9-bit path registers recording 1, 2, or 3 low bits
/// per target.
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
            .unwrap_or_else(|| panic!("table6 cell for {benchmark} missing or failed"));
        for &bits in &BITS_PER_TARGET {
            rows.push(Row {
                benchmark,
                bits_per_target: bits,
                reductions: PathScheme::all()
                    .iter()
                    .map(|s| d.req(&key(bits, s)))
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
                d.set(key(r.bits_per_target, scheme), x);
            }
        }
        set.insert(benchmark.name(), Ok(d));
    }
    set
}

/// Renders the rows as the paper's Table 6.
pub fn render(rows: &[Row]) -> String {
    render_cells(&cells_from_rows(rows))
}

/// Renders a (possibly partial) cell set as the paper's Table 6.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Table 6: path history bits recorded per target (execution-time reduction vs BTB baseline)\n\
         512-entry tagless gshare, 9-bit path register, low target bits\n",
    );
    for &benchmark in &Benchmark::FOCUS {
        let mut headers = vec!["bits/target".to_string()];
        headers.extend(PathScheme::all().iter().map(|s| s.label().to_string()));
        let mut table = TextTable::new(headers);
        for &bits in &BITS_PER_TARGET {
            let mut row = vec![bits.to_string()];
            row.extend(
                PathScheme::all()
                    .iter()
                    .map(|s| cells.fmt(benchmark.name(), &key(bits, s), pct)),
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
    fn one_bit_per_target_wins_for_perl_ind_jmp() {
        // The paper's best configuration records 1 bit per target: depth
        // of history beats per-target resolution.
        let rows = run(Scale::Quick);
        let ind_jmp = 3;
        let get = |bits: u32| {
            rows.iter()
                .find(|r| r.benchmark == Benchmark::Perl && r.bits_per_target == bits)
                .unwrap()
                .reductions[ind_jmp]
        };
        let one = get(1);
        let three = get(3);
        assert!(
            one >= three,
            "perl ind-jmp: 1 bit/target ({one}) should beat 3 bits/target ({three})"
        );
    }
}
