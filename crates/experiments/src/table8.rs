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
use crate::runner::{exec_reductions, trace, PathScheme, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::{Organization, TaggedIndexScheme, TargetCacheConfig};

/// Associativities studied.
pub const ASSOCS: [usize; 5] = [1, 2, 4, 8, 16];

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
    let mut configs = Vec::new();
    for &assoc in &ASSOCS {
        for scheme in PathScheme::all() {
            configs.push((
                key(assoc, &scheme),
                TargetCacheConfig::new(
                    Organization::Tagged {
                        entries: 256,
                        assoc,
                        scheme: TaggedIndexScheme::HistoryXor,
                    },
                    scheme.source(9, 1, 0),
                ),
            ));
        }
    }
    exec_reductions(ctx, &t, &configs)
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
    use crate::jobs::registry::quick;

    /// Perl's reduction at `assoc` ways for path scheme `scheme` (an
    /// index into `PathScheme::all()`: 3 is Ind jmp, 4 is Call/ret).
    fn perl(cells: &CellSet, assoc: usize, scheme: usize) -> f64 {
        let d = cells.data(Benchmark::Perl.name()).unwrap();
        d.req(&key(assoc, &PathScheme::all()[scheme]))
    }

    #[test]
    fn perl_prefers_path_history_in_tagged_caches_too() {
        let cells = quick("table8");
        let ind_jmp = perl(&cells, 4, 3);
        assert!(
            ind_jmp > 0.02,
            "perl tagged path ind-jmp reduction {ind_jmp}"
        );
        // Path ind-jmp beats call/ret for perl in tagged form as well.
        assert!(ind_jmp > perl(&cells, 4, 4));
    }

    #[test]
    fn associativity_helps_or_holds_for_perl_ind_jmp() {
        let cells = quick("table8");
        let get = |assoc: usize| perl(&cells, assoc, 3);
        assert!(
            get(8) >= get(1) - 0.01,
            "8-way {} vs direct {}",
            get(8),
            get(1)
        );
    }
}
