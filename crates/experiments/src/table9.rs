//! Table 9: tagged target caches — 9 vs 16 pattern-history bits.
//!
//! "For tagged target caches, the number of branch history bits used is not
//! limited to the size of the target cache because additional history bits
//! can be stored in the tag fields. ... For caches with a high degree of
//! set-associativity, using more history bits results in a significant
//! performance improvement. ... For target caches with a small degree of
//! set-associativity, using more history bits degrades performance"
//! (conflict misses outweigh the better identification).

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{exec_reductions, trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::{HistorySource, Organization, TaggedIndexScheme, TargetCacheConfig};

/// Associativities studied.
pub const ASSOCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// History lengths compared.
pub const HISTORY_BITS: [u32; 2] = [9, 16];

/// The cell key for one (associativity × history length) slot.
fn key(assoc: usize, bits: u32) -> String {
    format!("a{assoc}.h{bits}")
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: execution-time reductions for every
/// (associativity × history length) combination, keyed `a<assoc>.h<bits>`.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let mut configs = Vec::new();
    for &assoc in &ASSOCS {
        for &bits in &HISTORY_BITS {
            configs.push((
                key(assoc, bits),
                TargetCacheConfig::new(
                    Organization::Tagged {
                        entries: 256,
                        assoc,
                        scheme: TaggedIndexScheme::HistoryXor,
                    },
                    HistorySource::Pattern { bits },
                ),
            ));
        }
    }
    exec_reductions(ctx, &t, &configs)
}

/// Renders a (possibly partial) cell set as the paper's Table 9.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Table 9: tagged target cache, 9 vs 16 pattern-history bits\n\
         256 entries, History-Xor (execution-time reduction vs BTB baseline)\n",
    );
    for &benchmark in &Benchmark::FOCUS {
        let mut table = TextTable::new(vec!["set-assoc".into(), "9 bits".into(), "16 bits".into()]);
        for &assoc in &ASSOCS {
            table.row(vec![
                assoc.to_string(),
                cells.fmt(benchmark.name(), &key(assoc, HISTORY_BITS[0]), pct),
                cells.fmt(benchmark.name(), &key(assoc, HISTORY_BITS[1]), pct),
            ]);
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
    fn long_history_gains_more_from_associativity_than_short() {
        // The paper's core observation, in relative form: going from
        // direct-mapped to highly-associative helps the 16-bit cache more
        // than the 9-bit cache (long histories need associativity to
        // contain the conflict misses they create).
        let cells = quick("table9");
        for &bench in &Benchmark::FOCUS {
            let d = cells.data(bench.name()).unwrap();
            let gain = |bits: u32| d.req(&key(32, bits)) - d.req(&key(1, bits));
            let (gain9, gain16) = (gain(9), gain(16));
            assert!(
                gain16 >= gain9 - 0.01,
                "{bench}: assoc gain with 16 bits ({gain16}) should be at least the 9-bit gain ({gain9})"
            );
        }
    }
}
