//! Binary-level contract of the campaign log as a live progress
//! stream: a chaos campaign (injected panics, retries, parallel workers)
//! must write a well-formed log, `repro-top --json` and the post-mortem
//! timeline must agree with it, and the quiet panic hook must keep
//! injected cell panics off stderr while the log still records them as
//! retries.

use sim_telemetry::{parse_events, read_events, CampaignEvent, CellStatus};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-progress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs a table binary with a hermetic REPRO_* environment.
fn run_tool(exe: &str, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    for var in [
        "REPRO_SCALE",
        "REPRO_TELEMETRY",
        "REPRO_TELEMETRY_DIR",
        "REPRO_PROF",
        "REPRO_PROGRESS_TICK_MS",
        "REPRO_FAULTS",
        "REPRO_RUN_ID",
        "REPRO_RESUME",
        "REPRO_JOURNAL_DIR",
        "REPRO_JOBS",
        "REPRO_RETRIES",
        "REPRO_DEADLINE_MS",
        "REPRO_BACKOFF_MS",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn tool")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn chaos_campaign_writes_a_well_formed_log_and_repro_top_agrees() {
    let dir = scratch("chaos");
    let journal_dir = dir.join("journal");
    let out = run_tool(
        env!("CARGO_BIN_EXE_table2"),
        &[
            ("REPRO_SCALE", "quick"),
            ("REPRO_TELEMETRY", "off"),
            ("REPRO_PROGRESS_TICK_MS", "25"),
            ("REPRO_JOURNAL_DIR", journal_dir.to_str().unwrap()),
            ("REPRO_RUN_ID", "chaos1"),
            ("REPRO_JOBS", "2"),
            // table2/gcc panics on its first attempt, then recovers;
            // table2/perl's delay keeps the campaign alive for several
            // heartbeat ticks.
            ("REPRO_FAULTS", "flaky:table2/gcc:1,delay:table2/perl:200"),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));

    // The quiet panic hook: the injected panic retried silently — no
    // default "thread ... panicked" spew reached stderr.
    assert!(
        !stderr(&out).contains("panicked"),
        "cell panics must be silenced by the pool's hook:\n{}",
        stderr(&out)
    );

    let log_path = journal_dir.join("chaos1.jsonl");
    let log = read_events(&log_path).expect("log parses");
    assert!(!log.torn_tail, "a finished campaign has no torn tail");

    // Bookends: campaign-started first, campaign-finished last.
    match log.entries.first().map(|e| &e.event) {
        Some(CampaignEvent::CampaignStarted {
            run,
            tool,
            scale,
            cells,
            workers,
            ..
        }) => {
            assert_eq!(run, "chaos1");
            assert_eq!(tool, "table2");
            assert_eq!(scale, "quick");
            assert_eq!(*cells, 8);
            assert_eq!(*workers, 2);
        }
        other => panic!("first event must be campaign-started, got {other:?}"),
    }
    match log.entries.last().map(|e| &e.event) {
        Some(CampaignEvent::CampaignFinished {
            ok,
            failed,
            cancelled,
        }) => {
            assert_eq!((*ok, *failed, cancelled.as_deref()), (8, 0, None));
        }
        other => panic!("last event must be campaign-finished, got {other:?}"),
    }

    // Every started cell finished exactly once; the flaky cell retried.
    let mut started: BTreeMap<&str, u64> = BTreeMap::new();
    let mut finished: BTreeMap<&str, u64> = BTreeMap::new();
    let mut retried: Vec<(&str, u32)> = Vec::new();
    let mut failures: Vec<(&str, u32)> = Vec::new();
    let mut beats: Vec<(u64, u64)> = Vec::new();
    for entry in &log.entries {
        match &entry.event {
            CampaignEvent::AttemptStarted { cell, attempt: 1 } => {
                *started.entry(cell).or_insert(0) += 1;
            }
            CampaignEvent::AttemptStarted { cell, attempt } => retried.push((cell, *attempt)),
            CampaignEvent::AttemptFailed { cell, attempt, .. } => failures.push((cell, *attempt)),
            CampaignEvent::CellFinished(o) => {
                *finished.entry(&o.cell).or_insert(0) += 1;
                let expected_attempts = if o.cell == "table2/gcc" { 2 } else { 1 };
                assert_eq!(o.status, CellStatus::Ok, "{}", o.cell);
                assert_eq!(o.attempts, expected_attempts, "{}", o.cell);
            }
            CampaignEvent::Heartbeat { done, .. } => beats.push((entry.t_us, *done)),
            _ => {}
        }
    }
    assert_eq!(started.len(), 8, "{started:?}");
    assert_eq!(finished, started, "every started cell finished once");
    assert!(started.values().all(|&n| n == 1), "{started:?}");
    assert_eq!(retried, vec![("table2/gcc", 2)], "{retried:?}");
    assert_eq!(failures, vec![("table2/gcc", 1)], "{failures:?}");

    // Stamps are monotone; the scheduler's heartbeats (a 200ms campaign
    // on a 25ms tick) are monotone in completed work.
    assert!(log.entries.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    assert!(beats.len() >= 2, "25ms tick over 200ms: {beats:?}");
    for pair in beats.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "done monotone: {beats:?}");
    }

    // repro-top --json reports the same campaign: done == total.
    let top = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args(["--json", log_path.to_str().unwrap()])
        .output()
        .expect("spawn repro-top");
    assert_eq!(top.status.code(), Some(0), "{}", stderr(&top));
    let status = sim_telemetry::json::parse(String::from_utf8_lossy(&top.stdout).trim())
        .expect("repro-top --json parses");
    assert_eq!(status.get("done").unwrap().as_u64(), Some(8));
    assert_eq!(status.get("total").unwrap().as_u64(), Some(8));
    assert_eq!(status.get("failed").unwrap().as_u64(), Some(0));
    assert_eq!(status.get("finished").unwrap().as_bool(), Some(true));

    // The post-mortem viewer renders the same log.
    let report = Command::new(env!("CARGO_BIN_EXE_telemetry-report"))
        .args(["--progress", log_path.to_str().unwrap()])
        .output()
        .expect("spawn telemetry-report");
    assert_eq!(report.status.code(), Some(0), "{}", stderr(&report));
    let text = String::from_utf8_lossy(&report.stdout).into_owned();
    for needle in [
        "timeline",
        "attempts histogram",
        "table2/gcc",
        "2 attempt(s): 1 cell(s)",
    ] {
        assert!(text.contains(needle), "missing {needle:?}:\n{text}");
    }

    // Torn-tail tolerance end to end: a crash mid-append leaves a
    // partial final line, and the viewers still read everything before
    // it.
    let torn_path = dir.join("torn.jsonl");
    let mut torn = std::fs::read_to_string(&log_path).unwrap();
    torn.push_str("{\"event\":\"heartbeat\",\"done\":9");
    std::fs::write(&torn_path, &torn).unwrap();
    let reread = parse_events(&torn, "torn.jsonl").unwrap();
    assert!(reread.torn_tail);
    assert_eq!(reread.entries.len(), log.entries.len());
    let top = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args(["--json", torn_path.to_str().unwrap()])
        .output()
        .expect("spawn repro-top");
    assert_eq!(top.status.code(), Some(0), "{}", stderr(&top));
    let status = sim_telemetry::json::parse(String::from_utf8_lossy(&top.stdout).trim()).unwrap();
    assert_eq!(status.get("torn_tail").unwrap().as_bool(), Some(true));
    assert_eq!(status.get("done").unwrap().as_u64(), Some(8));

    // The same fragment newline-terminated is corruption: refused with
    // the file and line, exit 2.
    torn.push('\n');
    std::fs::write(&torn_path, &torn).unwrap();
    let top = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args(["--json", torn_path.to_str().unwrap()])
        .output()
        .expect("spawn repro-top");
    assert_eq!(top.status.code(), Some(2), "{}", stderr(&top));
    let line = log.entries.len() + 1;
    assert!(
        stderr(&top).contains(&format!("torn.jsonl:{line}:")),
        "{}",
        stderr(&top)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_typoed_progress_knob_is_an_operator_error() {
    let dir = scratch("typo");
    let out = run_tool(
        env!("CARGO_BIN_EXE_table2"),
        &[
            ("REPRO_SCALE", "quick"),
            ("REPRO_PROGRESS_TICK_MS", "fast"),
            ("REPRO_JOURNAL_DIR", dir.to_str().unwrap()),
        ],
    );
    assert_eq!(out.status.code(), Some(2), "stderr:\n{}", stderr(&out));
    assert!(
        stderr(&out).contains("REPRO_PROGRESS_TICK_MS"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keeps `bench-report` honest against the committed snapshots — the
/// same invocation CI runs for the trajectory artifact.
#[test]
fn bench_report_renders_the_committed_trajectory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(root.join("BENCH_baseline.json").is_file());
    assert!(root.join("BENCH_0.json").is_file());
    let out = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(["--dir", root.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn bench-report");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = sim_telemetry::json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("bench-report --json parses");
    let snaps = doc.get("snapshots").unwrap().as_arr().unwrap();
    assert!(snaps.len() >= 2, "baseline + at least one BENCH_<n>");
    assert_eq!(snaps[0].get("label").unwrap().as_str(), Some("baseline"));
    let scenarios = doc.get("scenarios").unwrap().as_arr().unwrap();
    assert!(!scenarios.is_empty());
    for s in scenarios {
        assert!(!s.get("points").unwrap().as_arr().unwrap().is_empty());
    }
}
