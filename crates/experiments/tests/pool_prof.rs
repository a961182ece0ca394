//! End-to-end profiling through the fault-tolerant pool: with more than
//! one worker (the `REPRO_JOBS>1` configuration) and an active telemetry
//! session, worker threads must record nested `cell:<experiment>` spans
//! into the shared registry without cross-thread interleaving, and every
//! cell's simulated-instruction count must survive into the campaign
//! journal.

use experiments::jobs::pool::CellTask;
use experiments::jobs::{run_campaign, CellData, Journal, RunnerConfig};
use experiments::runner::{self, Scale};
use experiments::telemetry::{self, ProfMode, TelemetryConfig, TelemetryMode};
use sim_workloads::Benchmark;
use std::path::PathBuf;
use target_cache::harness::FrontEndConfig;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro-pool-prof-{}-{name}", std::process::id()))
}

#[test]
fn parallel_pool_records_nested_spans_and_instruction_counts() {
    let journal_dir = scratch("journal");
    let out_dir = scratch("telemetry");
    let store_dir = scratch("traces");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    // Point the trace store at an empty scratch directory so every cell
    // deterministically generates (cold store). The process reads its
    // knobs once, at the first trace lookup; this binary holds a single
    // test, which sets them before that.
    std::env::set_var("REPRO_TRACE_STORE", "rw");
    std::env::set_var("REPRO_TRACE_STORE_DIR", &store_dir);

    let session = telemetry::session_with_config(
        "pool-prof-test",
        Scale::Quick,
        TelemetryConfig {
            mode: TelemetryMode::Summary,
            prof: ProfMode::Spans,
            dir: out_dir.clone(),
            ..TelemetryConfig::off()
        },
    );
    let ctx = session.ctx();
    let hub = ctx.hub().cloned().expect("summary session installs a hub");

    let benches = [
        Benchmark::Perl,
        Benchmark::Gcc,
        Benchmark::Go,
        Benchmark::Xlisp,
    ];
    let tasks: Vec<CellTask> = benches
        .iter()
        .map(|&bench| {
            let ctx = ctx.clone();
            CellTask::new(format!("prof/{bench}"), move || {
                let trace = runner::trace(&ctx, bench, Scale::Quick);
                runner::functional(&ctx, &trace, FrontEndConfig::isca97_baseline());
                let mut data = CellData::new();
                data.set("instructions", trace.len() as f64);
                data
            })
        })
        .collect();

    let config = RunnerConfig {
        workers: 3,
        ..RunnerConfig::default()
    };
    let mut journal = Journal::create(
        &journal_dir,
        "r1",
        "pool-prof-test",
        Scale::Quick,
        tasks.len(),
    )
    .unwrap();
    let outcome = run_campaign(tasks, &config, &mut journal, &ctx, None).unwrap();

    // Every cell succeeded and carries its replayed instruction count.
    assert_eq!(outcome.reports.len(), benches.len());
    for report in &outcome.reports {
        assert!(
            report.outcome.is_ok(),
            "{}: {:?}",
            report.cell,
            report.outcome
        );
        assert!(
            report.instructions >= 50_000,
            "{} counted only {} instructions",
            report.cell,
            report.instructions
        );
    }

    // The counts were logged, so a resumed run restores them.
    let resumed = Journal::resume(&journal_dir, "r1", "pool-prof-test", Scale::Quick).unwrap();
    for record in resumed.records() {
        assert!(record.ok());
        assert!(record.instructions >= 50_000, "{}", record.cell);
    }

    // Concurrent workers nested their phases under the cell span: the
    // registry holds `cell:prof` roots with `trace-store` (wrapping the
    // cold-store `workload-gen`) and `harness-replay` children, each
    // entered once per benchmark, and no cross-thread path like
    // `workload-gen;harness-replay`.
    let spans = hub.spans().snapshot();
    let count_of = |path: &str| {
        spans
            .iter()
            .find(|s| s.path == path)
            .map(|s| s.count)
            .unwrap_or(0)
    };
    let n = benches.len() as u64;
    assert_eq!(count_of("cell:prof"), n, "{spans:?}");
    assert_eq!(count_of("cell:prof;trace-store"), n, "{spans:?}");
    assert_eq!(
        count_of("cell:prof;trace-store;workload-gen"),
        n,
        "{spans:?}"
    );
    assert_eq!(count_of("cell:prof;harness-replay"), n, "{spans:?}");
    assert!(
        spans.iter().all(|s| s.path.starts_with("cell:prof")),
        "unexpected span paths: {spans:?}"
    );

    // The session's folded dump (flamegraph input) reflects the same
    // hierarchy once the session closes.
    drop(session);
    let folded = std::fs::read_to_string(out_dir.join("pool-prof-test.folded.txt")).unwrap();
    assert!(
        folded.contains("cell:prof;trace-store;workload-gen"),
        "{folded}"
    );
    assert!(folded.contains("cell:prof;harness-replay"), "{folded}");

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
}
