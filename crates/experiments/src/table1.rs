//! Table 1: benchmark characterization and BTB indirect-jump
//! misprediction rates.
//!
//! The paper's Table 1 lists, per SPECint95 benchmark, the dynamic
//! instruction count, branch count, indirect-jump count, and the
//! indirect-jump target misprediction rate of a 1K-entry 4-way
//! set-associative BTB (66.0% for gcc, 76.2% for perl).

use crate::jobs::{CellData, CellSet};
use crate::report::{count, pct, TextTable};
use crate::runner::{functional, trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let stats = t.stats();
    let pred = functional(ctx, &t, FrontEndConfig::isca97_baseline());
    let mut d = CellData::new();
    d.set("instructions", stats.instructions() as f64);
    d.set("branches", stats.branches() as f64);
    d.set("indirect_jumps", stats.indirect_jumps() as f64);
    d.set("static_sites", stats.static_indirect_jumps() as f64);
    d.set("btb_mispred", pred.indirect_jump_misprediction_rate());
    d
}

/// Renders a (possibly partial) cell set as the paper's Table 1, with
/// `ERR(reason)` markers in failed slots.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "input".into(),
        "#instructions".into(),
        "#branches".into(),
        "#ind jumps".into(),
        "static sites".into(),
        "BTB ind mispred".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        table.row(vec![
            n.into(),
            b.reference_input().into(),
            cells.fmt(n, "instructions", |v| count(v as u64)),
            cells.fmt(n, "branches", |v| count(v as u64)),
            cells.fmt(n, "indirect_jumps", |v| count(v as u64)),
            cells.fmt(n, "static_sites", |v| (v as u64).to_string()),
            cells.fmt(n, "btb_mispred", pct),
        ]);
    }
    format!(
        "Table 1: benchmark characterization, 1K-entry 4-way BTB baseline\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use crate::jobs::registry::quick;
    use sim_workloads::Benchmark;

    #[test]
    fn table1_shape_matches_paper() {
        let cells = quick("table1");
        let get = |b: Benchmark, key: &str| cells.data(b.name()).unwrap().req(key);
        let mispred = |b: Benchmark| get(b, "btb_mispred");

        // The paper's headline orderings: perl and gcc are the
        // hard-to-predict benchmarks; compress/ijpeg/vortex/xlisp are easy.
        let perl = mispred(Benchmark::Perl);
        let gcc = mispred(Benchmark::Gcc);
        assert!(perl > 0.55, "perl BTB mispred {perl}");
        assert!(gcc > 0.45, "gcc BTB mispred {gcc}");
        for easy in [
            Benchmark::Compress,
            Benchmark::Ijpeg,
            Benchmark::Vortex,
            Benchmark::Xlisp,
        ] {
            let r = mispred(easy);
            assert!(r < 0.35, "{easy} BTB mispred {r} should be low");
            assert!(perl > r);
            assert!(gcc > r);
        }
        // m88ksim sits in the middle (paper: 37.3%).
        let m88k = mispred(Benchmark::M88ksim);
        assert!((0.2..0.55).contains(&m88k), "m88ksim {m88k}");
        // gcc has by far the most static sites.
        assert!(get(Benchmark::Gcc, "static_sites") > get(Benchmark::Perl, "static_sites"));
    }
}
