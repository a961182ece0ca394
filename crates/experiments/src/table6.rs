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
use crate::runner::{exec_reductions, trace, PathScheme, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::{Organization, TargetCacheConfig};

/// Bits-per-target values studied (the paper uses 1, 2, 3).
pub const BITS_PER_TARGET: [u32; 3] = [1, 2, 3];

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
    let mut configs = Vec::new();
    for &bits in &BITS_PER_TARGET {
        for scheme in PathScheme::all() {
            configs.push((
                key(bits, &scheme),
                TargetCacheConfig::new(
                    Organization::Tagless {
                        entries: 512,
                        scheme: target_cache::IndexScheme::Gshare,
                    },
                    scheme.source(9, bits, 0),
                ),
            ));
        }
    }
    exec_reductions(ctx, &t, &configs)
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
    use crate::jobs::registry::quick;

    #[test]
    fn one_bit_per_target_wins_for_perl_ind_jmp() {
        // The paper's best configuration records 1 bit per target: depth
        // of history beats per-target resolution.
        let cells = quick("table6");
        let ind_jmp = &PathScheme::all()[3];
        let d = cells.data(Benchmark::Perl.name()).unwrap();
        let one = d.req(&key(1, ind_jmp));
        let three = d.req(&key(3, ind_jmp));
        assert!(
            one >= three,
            "perl ind-jmp: 1 bit/target ({one}) should beat 3 bits/target ({three})"
        );
    }
}
