//! Table 7: tagged target caches — indexing scheme × set associativity.
//!
//! "The Address selection scheme results in a significant number of
//! conflict misses in target caches with a low degree of set-associativity
//! because all targets of an indirect jump are mapped to the same set. ...
//! The History Concatenate and History Xor schemes suffer a much smaller
//! number of conflict misses because they can map the targets of an
//! indirect jump into any set in the target cache."
//!
//! 256-entry tagged caches, 9 bits of global pattern history; cells are
//! execution-time reduction vs the BTB baseline.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{exec_reductions, trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::{HistorySource, Organization, TaggedIndexScheme, TargetCacheConfig};

/// Associativities studied (the paper sweeps 1..=256; we sample it).
pub const ASSOCS: [usize; 7] = [1, 2, 4, 8, 16, 64, 256];

/// The cell key for one (associativity × indexing scheme) slot.
fn key(assoc: usize, scheme: TaggedIndexScheme) -> String {
    format!("a{assoc}.{}", scheme.label())
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: execution-time reductions for every
/// (associativity × indexing scheme) combination, keyed `a<assoc>.<scheme>`.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let mut configs = Vec::new();
    for &assoc in &ASSOCS {
        for &scheme in &TaggedIndexScheme::ALL {
            configs.push((
                key(assoc, scheme),
                TargetCacheConfig::new(
                    Organization::Tagged {
                        entries: 256,
                        assoc,
                        scheme,
                    },
                    HistorySource::Pattern { bits: 9 },
                ),
            ));
        }
    }
    exec_reductions(ctx, &t, &configs)
}

/// Renders a (possibly partial) cell set as the paper's Table 7.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Table 7: 256-entry tagged target caches, 9 pattern-history bits\n\
         (execution-time reduction vs BTB baseline)\n",
    );
    for &benchmark in &Benchmark::FOCUS {
        let mut headers = vec!["set-assoc".to_string()];
        headers.extend(TaggedIndexScheme::ALL.iter().map(|s| s.label().to_string()));
        let mut table = TextTable::new(headers);
        for &assoc in &ASSOCS {
            let mut row = vec![assoc.to_string()];
            row.extend(
                TaggedIndexScheme::ALL
                    .iter()
                    .map(|&s| cells.fmt(benchmark.name(), &key(assoc, s), pct)),
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
    fn address_scheme_needs_associativity_history_xor_does_not() {
        let cells = quick("table7");
        for &bench in &Benchmark::FOCUS {
            let d = cells.data(bench.name()).unwrap();
            let get = |assoc: usize, scheme| d.req(&key(assoc, scheme));
            let addr_1 = get(1, TaggedIndexScheme::Address);
            let xor_1 = get(1, TaggedIndexScheme::HistoryXor);
            // Direct-mapped: Address indexing thrashes, History-Xor works.
            assert!(
                xor_1 > addr_1,
                "{bench}: direct-mapped xor ({xor_1}) must beat address ({addr_1})"
            );
            // High associativity rescues the Address scheme (paper: "a high
            // degree of set-associativity is required to avoid trashing").
            let addr_wide = get(256, TaggedIndexScheme::Address);
            assert!(
                addr_wide > addr_1,
                "{bench}: 256-way address ({addr_wide}) must beat direct-mapped ({addr_1})"
            );
        }
    }
}
