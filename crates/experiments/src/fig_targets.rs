//! Figures 1–8: the number of distinct dynamic targets per static indirect
//! jump, per benchmark.
//!
//! The paper plots, for each benchmark, the percentage of indirect jumps
//! exhibiting k distinct dynamic targets (k = 1..29, ≥30). Benchmarks with
//! near-monomorphic jumps (compress, ijpeg, vortex, xlisp) are the easy
//! cases for a BTB; gcc and perl spread across many targets.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;

/// The paper's histogram cap: the last bucket is "≥ 30".
pub const CAP: usize = 30;

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell. Histogram slots are stored sparsely
/// (`s<k>` static, `d<k>` dynamic, k 1-based; absent slot = zero).
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let stats = trace(ctx, benchmark, scale).stats();
    let mut d = CellData::new();
    for (prefix, hist) in [
        ("s", stats.targets_per_jump_histogram(CAP)),
        ("d", stats.dynamic_targets_per_jump_histogram(CAP)),
    ] {
        for (k, &n) in hist.iter().enumerate() {
            if n > 0 {
                d.set(format!("{prefix}{}", k + 1), n as f64);
            }
        }
    }
    d
}

/// Reads a sparse histogram back: slot k-1 holds `<prefix><k>`, zero
/// when absent.
fn hist_from_cell(d: &CellData, prefix: &str) -> Vec<f64> {
    (1..=CAP)
        .map(|k| d.get(&format!("{prefix}{k}")).unwrap_or(0.0))
        .collect()
}

/// The share of the histogram's mass in slots `lo..hi` (0 when empty).
fn share(hist: &[f64], lo: usize, hi: usize) -> f64 {
    let total: f64 = hist.iter().sum();
    if total == 0.0 {
        0.0
    } else {
        hist[lo..hi].iter().sum::<f64>() / total
    }
}

/// Renders one benchmark's per-k histogram as ASCII bars, the shape the
/// paper's figures plot (percentage of dynamic indirect jumps whose site
/// has exactly k distinct targets).
fn render_figure(benchmark: Benchmark, dynamic_hist: &[f64]) -> String {
    let total: f64 = dynamic_hist.iter().sum();
    let mut out = format!("Figure: {benchmark} — targets per indirect jump\n");
    if total == 0.0 {
        out.push_str("  (no indirect jumps)\n");
        return out;
    }
    for (k, &n) in dynamic_hist.iter().enumerate() {
        if n == 0.0 {
            continue;
        }
        let frac = n / total;
        let bar = "#".repeat((frac * 50.0).round() as usize);
        let label = if k + 1 == CAP {
            ">=30".to_string()
        } else {
            format!("{:>4}", k + 1)
        };
        out.push_str(&format!("  {label} |{bar:<50} {:5.1}%\n", frac * 100.0));
    }
    out
}

/// Renders a (possibly partial) cell set: failed benchmarks get `ERR`
/// table slots and an explicit marker in place of their figure.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "sites".into(),
        "dyn % 1 target".into(),
        "dyn % 2-4".into(),
        "dyn % 5-15".into(),
        "dyn % >=16".into(),
    ]);
    let marker =
        |b: Benchmark| crate::jobs::err_marker(cells.failure(b.name()).unwrap_or("cell missing"));
    for &b in &Benchmark::ALL {
        let slots = match cells.data(b.name()) {
            Some(d) => {
                let dynamic = hist_from_cell(d, "d");
                let sites: f64 = hist_from_cell(d, "s").iter().sum();
                vec![
                    (sites as u64).to_string(),
                    pct(share(&dynamic, 0, 1)),
                    pct(share(&dynamic, 1, 4)),
                    pct(share(&dynamic, 4, 15)),
                    pct(share(&dynamic, 15, CAP)),
                ]
            }
            None => vec![marker(b); 5],
        };
        table.row(std::iter::once(b.name().to_string()).chain(slots).collect());
    }
    let mut out = format!(
        "Figures 1-8: distinct dynamic targets per static indirect jump\n\
         (dynamic-execution-weighted buckets; per-k bars below)\n\n{}",
        table.render()
    );
    for &b in &Benchmark::ALL {
        out.push('\n');
        match cells.data(b.name()) {
            Some(d) => out.push_str(&render_figure(b, &hist_from_cell(d, "d"))),
            None => out.push_str(&format!("Figure: {b} — {}\n", marker(b))),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick;

    #[test]
    fn easy_benchmarks_are_dominated_by_monomorphic_jumps() {
        let cells = quick("fig_targets");
        // The share of dynamic indirect jumps executed at sites with at
        // least 5 distinct targets.
        let at_least_5 = |b: Benchmark| {
            let dynamic = hist_from_cell(cells.data(b.name()).unwrap(), "d");
            share(&dynamic, 4, CAP)
        };
        // perl and gcc: most dynamic indirect jumps run at polymorphic
        // sites (Figures 2 and 6 show wide distributions).
        for hard in [Benchmark::Perl, Benchmark::Gcc] {
            let f = at_least_5(hard);
            assert!(
                f > 0.5,
                "{hard}: only {f} of dynamic jumps at >=5-target sites"
            );
        }
        // compress and ijpeg: narrow distributions.
        for easy in [Benchmark::Compress, Benchmark::Ijpeg] {
            let f = at_least_5(easy);
            assert!(f < 0.5, "{easy}: {f} of dynamic jumps at >=5-target sites");
        }
    }

    #[test]
    fn histogram_mass_is_consistent() {
        let cells = quick("fig_targets");
        for b in Benchmark::ALL {
            let d = cells.data(b.name()).unwrap();
            assert!(hist_from_cell(d, "s").iter().sum::<f64>() > 0.0, "{b}");
            assert!(hist_from_cell(d, "d").iter().sum::<f64>() > 0.0, "{b}");
            // Every stored slot lies inside the 1..=CAP histogram.
            for key in d.0.keys() {
                let k: usize = key[1..].parse().unwrap();
                assert!((1..=CAP).contains(&k), "{b}: slot {key}");
            }
        }
    }
}
