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
use crate::runner::{timing_sweep, trace, Scale};
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

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::FOCUS.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: `red.<machine>` and `ipc.<machine>` per
/// design point. The machines differ only in schedule parameters and
/// indirect predictor, so all six runs simulate as one batch.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark, scale);
    let tc = best_tagless_for(benchmark);
    let machines = machines();
    let runs: Vec<MachineConfig> = machines
        .iter()
        .flat_map(|(_, machine)| {
            let mut with_tc = machine.clone();
            with_tc.frontend = FrontEndConfig::isca97_with(tc);
            [machine.clone(), with_tc]
        })
        .collect();
    let reports = timing_sweep(ctx, &t, &runs);
    let mut d = CellData::new();
    for ((name, _), pair) in machines.iter().zip(reports.chunks(2)) {
        let (base, faster) = (&pair[0], &pair[1]);
        d.set(format!("red.{name}"), faster.exec_time_reduction_vs(base));
        d.set(format!("ipc.{name}"), base.ipc());
    }
    d
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
    use crate::jobs::registry::quick;

    /// `<prefix>.<machine>` for every machine of `b`, in [`machines`]
    /// order.
    fn series(cells: &CellSet, b: Benchmark, prefix: &str) -> Vec<f64> {
        let d = cells.data(b.name()).unwrap();
        machines()
            .iter()
            .map(|(name, _)| d.req(&format!("{prefix}.{name}")))
            .collect()
    }

    #[test]
    fn benefit_grows_with_machine_aggressiveness() {
        // The paper's opening sentence, as an assertion.
        let cells = quick("extension_scaling");
        for &b in &Benchmark::FOCUS {
            let red = series(&cells, b, "red");
            assert!(
                red[2] > red[0],
                "{b}: wide/deep machine ({}) should gain more than narrow/shallow ({})",
                red[2],
                red[0]
            );
            assert!(
                red[1] >= red[0] - 0.01,
                "{b}: the paper's machine should gain at least the narrow one"
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
        let cells = quick("extension_scaling");
        for &b in &Benchmark::FOCUS {
            let ipc = series(&cells, b, "ipc");
            assert!(ipc[2] > ipc[0], "{b}: IPC must grow with width ({ipc:?})");
        }
    }
}
