//! Table 5: path history — which bits of each target address to record.
//!
//! "Since only a few bits from each target are recorded in the path history
//! register, different targets may have the same representation ... the
//! performance of a path based target cache depends on the address bits
//! from each target used to form the path history. Table 5 shows that the
//! lower address bits provide more information than the higher address
//! bits."
//!
//! Cells are execution-time reduction against the BTB-only baseline, as in
//! the paper.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{exec_reductions, trace, PathScheme, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::{Organization, TargetCacheConfig};

/// Target-address bit offsets studied (0 = the lowest bits above the
/// alignment bits, as the paper recommends).
pub const BIT_OFFSETS: [u32; 5] = [0, 1, 2, 4, 8];

/// The cell key for one (bit offset × path scheme) slot.
fn key(bit_offset: u32, scheme: &PathScheme) -> String {
    format!("b{bit_offset}.{}", scheme.label())
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// The table's 25 target-cache configurations — 512-entry tagless gshare
/// caches indexed with 9-bit path history recording 1 bit per target —
/// keyed `b<offset>.<scheme>`, in render order.
pub fn configs() -> Vec<(String, TargetCacheConfig)> {
    let mut configs = Vec::new();
    for &bit_offset in &BIT_OFFSETS {
        for scheme in PathScheme::all() {
            let config = TargetCacheConfig::new(
                Organization::Tagless {
                    entries: 512,
                    scheme: target_cache::IndexScheme::Gshare,
                },
                scheme.source(9, 1, bit_offset),
            );
            configs.push((key(bit_offset, &scheme), config));
        }
    }
    configs
}

/// Computes one benchmark's cell: execution-time reductions for every
/// (bit offset × path scheme) combination, keyed `b<offset>.<scheme>`.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    exec_reductions(ctx, &t, &configs())
}

/// Renders a (possibly partial) cell set as the paper's Table 5.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Table 5: path history address-bit selection (execution-time reduction vs BTB baseline)\n\
         512-entry tagless gshare, 9-bit path register, 1 bit per target\n",
    );
    for &benchmark in &Benchmark::FOCUS {
        let mut headers = vec!["addr bit".to_string()];
        headers.extend(PathScheme::all().iter().map(|s| s.label().to_string()));
        let mut table = TextTable::new(headers);
        for &bit_offset in &BIT_OFFSETS {
            let mut row = vec![bit_offset.to_string()];
            row.extend(
                PathScheme::all()
                    .iter()
                    .map(|s| cells.fmt(benchmark.name(), &key(bit_offset, s), pct)),
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

    /// Perl's reduction for the Ind jmp path scheme (the paper's winner)
    /// recording target-address bit `bit_offset`.
    fn perl(cells: &CellSet, bit_offset: u32, scheme: usize) -> f64 {
        let d = cells.data(Benchmark::Perl.name()).unwrap();
        d.req(&key(bit_offset, &PathScheme::all()[scheme]))
    }

    // Indices into PathScheme::all(): per-addr, branch, control, ind jmp,
    // call/ret.
    const IND_JMP: usize = 3;
    const CALL_RET: usize = 4;

    #[test]
    fn low_bits_beat_high_bits_for_the_winning_perl_scheme() {
        let cells = quick("table5");
        // For perl's ind-jmp scheme (the paper's winner), recording the low
        // bit must beat recording bit 8.
        let perl_low = perl(&cells, 0, IND_JMP);
        let perl_high = perl(&cells, 8, IND_JMP);
        assert!(
            perl_low >= perl_high,
            "perl ind-jmp: bit 0 ({perl_low}) must beat bit 8 ({perl_high})"
        );
        assert!(perl_low > 0.03, "perl ind-jmp low-bit reduction {perl_low}");
    }

    #[test]
    fn perl_favors_path_ind_jmp_over_call_ret() {
        let cells = quick("table5");
        let ind_jmp = perl(&cells, 0, IND_JMP);
        let call_ret = perl(&cells, 0, CALL_RET);
        assert!(
            ind_jmp > call_ret,
            "perl: ind jmp ({ind_jmp}) should beat call/ret ({call_ret})"
        );
    }
}
