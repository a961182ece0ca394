//! Extension: the paper's opening claim, measured.
//!
//! "As the issue rate and pipeline depth of high performance superscalar
//! processors increase, the amount of speculative work issued also
//! increases. Because speculative work must be thrown away in the event of
//! a branch misprediction, wide-issue, deeply pipelined processors must
//! employ accurate branch predictors to effectively exploit their
//! performance potential."
//!
//! This study sweeps machine aggressiveness — narrow/shallow, the paper's
//! HPS configuration, and a wide/deep future machine — and measures the
//! target cache's execution-time reduction on each: the benefit must grow
//! with the machine, which is exactly why the paper mattered more every
//! year after it was published.

use crate::headline::best_tagless_for;
use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{trace, Scale, Sweep};
use crate::telemetry::TelemetryCtx;
use hps_uarch::MachineConfig;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;

/// The machine design points swept.
pub fn machines() -> Vec<(&'static str, MachineConfig)> {
    let base = |frontend| MachineConfig::isca97(frontend);
    let narrow = |frontend| {
        let mut m = base(frontend);
        m.fetch_width = 2;
        m.retire_width = 2;
        m.fu_count = 2;
        m.window_size = 8;
        m.front_depth = 1;
        m
    };
    let wide_deep = |frontend| {
        let mut m = base(frontend);
        m.fetch_width = 16;
        m.retire_width = 16;
        m.fu_count = 16;
        m.window_size = 128;
        m.front_depth = 6;
        m
    };
    vec![
        ("2-wide, shallow", narrow(FrontEndConfig::isca97_baseline())),
        ("8-wide (paper)", base(FrontEndConfig::isca97_baseline())),
        (
            "16-wide, deep",
            wide_deep(FrontEndConfig::isca97_baseline()),
        ),
    ]
}

/// One benchmark's benefit across machine design points.
#[derive(Clone, Debug)]
pub struct Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Execution-time reduction of the best tagless target cache per
    /// machine, in [`machines`] order.
    pub reductions: Vec<f64>,
    /// Baseline IPC per machine (context for the reductions).
    pub base_ipc: Vec<f64>,
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: `red.<machine>` and `ipc.<machine>` per
/// design point. The machines differ only in schedule parameters, so all
/// six runs share one sweep.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let tc = best_tagless_for(benchmark);
    let mut sweep = Sweep::new(&t);
    let mut d = CellData::new();
    for (name, machine) in machines() {
        let base = sweep.timing_on(ctx, &machine);
        let mut with_tc = machine.clone();
        with_tc.frontend = FrontEndConfig::isca97_with(tc);
        let faster = sweep.timing_on(ctx, &with_tc);
        d.set(format!("red.{name}"), faster.exec_time_reduction_vs(&base));
        d.set(format!("ipc.{name}"), base.ipc());
    }
    d
}

/// Runs the sweep for the focus benchmarks.
pub fn run(scale: Scale) -> Vec<Row> {
    rows_from_cells(&CellSet::compute(&cell_labels(), |l| {
        cell(&TelemetryCtx::off(), l, scale)
    }))
}

/// Reconstructs rows from a fully-successful cell set.
pub fn rows_from_cells(cells: &CellSet) -> Vec<Row> {
    Benchmark::FOCUS
        .iter()
        .map(|&benchmark| {
            let d = cells.data(benchmark.name()).unwrap_or_else(|| {
                panic!("extension_scaling cell for {benchmark} missing or failed")
            });
            Row {
                benchmark,
                reductions: machines()
                    .iter()
                    .map(|(name, _)| d.req(&format!("red.{name}")))
                    .collect(),
                base_ipc: machines()
                    .iter()
                    .map(|(name, _)| d.req(&format!("ipc.{name}")))
                    .collect(),
            }
        })
        .collect()
}

/// Converts rows back to cells.
pub fn cells_from_rows(rows: &[Row]) -> CellSet {
    let mut set = CellSet::new();
    for r in rows {
        let mut d = CellData::new();
        for ((name, _), (&red, &ipc)) in machines().iter().zip(r.reductions.iter().zip(&r.base_ipc))
        {
            d.set(format!("red.{name}"), red);
            d.set(format!("ipc.{name}"), ipc);
        }
        set.insert(r.benchmark.name(), Ok(d));
    }
    set
}

/// Renders the sweep.
pub fn render(rows: &[Row]) -> String {
    render_cells(&cells_from_rows(rows))
}

/// Renders a (possibly partial) cell set as the sweep's tables.
pub fn render_cells(cells: &CellSet) -> String {
    let mut out = String::from(
        "Extension: target-cache benefit vs machine aggressiveness\n\
         (execution-time reduction of the best tagless cache per machine)\n",
    );
    for &benchmark in &Benchmark::FOCUS {
        let n = benchmark.name();
        let mut table = TextTable::new(vec![
            "machine".into(),
            "baseline IPC".into(),
            "exec reduction".into(),
        ]);
        for (name, _) in machines() {
            table.row(vec![
                name.into(),
                cells.fmt(n, &format!("ipc.{name}"), |v| format!("{v:.3}")),
                cells.fmt(n, &format!("red.{name}"), pct),
            ]);
        }
        out.push_str(&format!("\n[{benchmark}]\n{}", table.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benefit_grows_with_machine_aggressiveness() {
        // The paper's opening sentence, as an assertion.
        for r in run(Scale::Quick) {
            assert!(
                r.reductions[2] > r.reductions[0],
                "{}: wide/deep machine ({}) should gain more than narrow/shallow ({})",
                r.benchmark,
                r.reductions[2],
                r.reductions[0]
            );
            assert!(
                r.reductions[1] >= r.reductions[0] - 0.01,
                "{}: the paper's machine should gain at least the narrow one",
                r.benchmark
            );
        }
    }

    #[test]
    fn every_timing_run_is_credited_to_the_cell() {
        let ctx = TelemetryCtx::off();
        let len = trace(&ctx, Benchmark::Perl, Scale::Quick).len() as u64;
        crate::telemetry::take_instructions();
        cell(&ctx, "perl", Scale::Quick);
        let runs = 2 * machines().len() as u64;
        assert_eq!(crate::telemetry::take_instructions(), runs * len);
    }

    #[test]
    fn wider_machines_have_higher_baseline_ipc() {
        for r in run(Scale::Quick) {
            assert!(
                r.base_ipc[2] > r.base_ipc[0],
                "{}: IPC must grow with width ({:?})",
                r.benchmark,
                r.base_ipc
            );
        }
    }
}
