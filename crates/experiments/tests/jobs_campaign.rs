//! End-to-end contract of the fault-tolerant campaign driver, exercised
//! through a real campaign (`repro table4`: two focus-benchmark cells,
//! fast at quick scale).
//!
//! These tests assert the operator-visible behavior ISSUE-level tooling
//! relies on: injected faults fail *one cell* while the rest of the run
//! prints, failures render as `ERR(reason)` markers and exit status 1,
//! resuming re-runs only the failed cells and appends to the same
//! campaign log under the same trace id, retry recovers flaky cells,
//! and operator mistakes exit 2 with guidance instead of a backtrace.

use experiments::watch::CellState;
use sim_telemetry::json::{self, Json};
use sim_telemetry::{CampaignEvent, CellStatus};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-jobs-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro <experiment>` with a hermetic REPRO_* environment.
fn run_repro(experiment: &str, journal_dir: &Path, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg(experiment);
    for var in [
        "REPRO_SCALE",
        "REPRO_TELEMETRY",
        "REPRO_TELEMETRY_DIR",
        "REPRO_FAULTS",
        "REPRO_RUN_ID",
        "REPRO_RESUME",
        "REPRO_JOURNAL_DIR",
        "REPRO_JOBS",
        "REPRO_RETRIES",
        "REPRO_DEADLINE_MS",
        "REPRO_BACKOFF_MS",
        "REPRO_TRACE_STORE",
        "REPRO_TRACE_STORE_DIR",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_SCALE", "quick")
        .env("REPRO_TELEMETRY", "off")
        .env("REPRO_JOURNAL_DIR", journal_dir)
        .env("REPRO_TRACE_STORE_DIR", journal_dir.join("traces"))
        .env("REPRO_BACKOFF_MS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn injected_panic_fails_one_cell_and_resume_reruns_only_it() {
    let dir = scratch("resume");

    let first = run_repro(
        "table4",
        &dir,
        &[
            ("REPRO_FAULTS", "panic:table4/perl"),
            ("REPRO_RUN_ID", "chaos"),
        ],
    );
    let (out, err) = (stdout(&first), stderr(&first));
    assert_eq!(
        first.status.code(),
        Some(1),
        "stdout:\n{out}\nstderr:\n{err}"
    );
    // The campaign still rendered the table: gcc's column has real numbers,
    // perl's slots carry ERR markers instead of aborting the run.
    assert!(out.contains("ERR("), "missing ERR marker:\n{out}");
    assert!(out.contains("gcc"), "table should still print:\n{out}");
    assert!(out.contains("campaign: 1/2 cells ok"), "{out}");
    assert!(
        err.contains("table4/perl"),
        "failure summary names the cell:\n{err}"
    );
    assert!(err.contains("REPRO_RESUME=chaos"), "resume hint:\n{err}");

    let journal = dir.join("chaos.jsonl");
    let first_log = sim_telemetry::read_events(&journal).expect("campaign log parses");
    assert_eq!(
        first_log.last_outcomes()["table4/perl"].status,
        CellStatus::Err,
        "the log records the failure"
    );

    // Resume without faults: the ok cell is restored, only perl re-runs.
    let second = run_repro("table4", &dir, &[("REPRO_RESUME", "chaos")]);
    let out = stdout(&second);
    assert_eq!(
        second.status.code(),
        Some(0),
        "stdout:\n{out}\nstderr:\n{}",
        stderr(&second)
    );
    assert!(!out.contains("ERR("), "all cells ok after resume:\n{out}");
    assert!(out.contains("restored from journal"), "{out}");
    assert!(out.contains("campaign: 2/2 cells ok"), "{out}");

    // The resume appended to the same log: both runs, one trace id.
    let log = sim_telemetry::read_events(&journal).expect("campaign log parses");
    let starts: Vec<&str> = log
        .entries
        .iter()
        .filter_map(|e| match &e.event {
            CampaignEvent::CampaignStarted { trace_id, .. } => Some(trace_id.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 2, "{starts:?}");
    assert_eq!(starts[0], starts[1], "one trace id across the resume");
    assert_eq!(
        log.entries[..first_log.entries.len()],
        first_log.entries[..]
    );
    // The fold: gcc was restored, perl re-ran and succeeded.
    let last = log.last_outcomes();
    assert_eq!(last["table4/gcc"].status, CellStatus::Resumed);
    assert_eq!(last["table4/perl"].status, CellStatus::Ok);
    let status = experiments::watch::CampaignStatus::from_log(&log);
    let state = |cell: &str| status.cells.iter().find(|c| c.cell == cell).unwrap().state;
    assert_eq!(state("table4/gcc"), CellState::Resumed);
    assert_eq!(state("table4/perl"), CellState::Ok);
    // repro-top reads the same log to the same verdict.
    let top = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args(["--json", journal.to_str().unwrap()])
        .output()
        .expect("spawn repro-top");
    assert_eq!(top.status.code(), Some(0), "{}", stderr(&top));
    let top = sim_telemetry::json::parse(String::from_utf8_lossy(&top.stdout).trim()).unwrap();
    let field = |k: &str| top.get(k).and_then(sim_telemetry::Json::as_u64);
    assert_eq!(field("done"), field("total"), "{top:?}");
    assert_eq!(field("total"), Some(2));
    assert_eq!(field("failed"), Some(0));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flaky_cell_recovers_within_the_retry_budget() {
    let dir = scratch("flaky");
    let out = run_repro(
        "table4",
        &dir,
        &[
            ("REPRO_FAULTS", "flaky:table4/perl:1"),
            ("REPRO_RETRIES", "3"),
            ("REPRO_RUN_ID", "flaky"),
        ],
    );
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{text}\nstderr:\n{}",
        stderr(&out)
    );
    assert!(!text.contains("ERR("), "{text}");
    assert!(text.contains("needed retries"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn operator_errors_exit_two_with_guidance() {
    let dir = scratch("operator");

    let bad_faults = run_repro("table4", &dir, &[("REPRO_FAULTS", "explode:everything")]);
    assert_eq!(bad_faults.status.code(), Some(2));
    assert!(
        stderr(&bad_faults).contains("REPRO_FAULTS"),
        "{}",
        stderr(&bad_faults)
    );

    let bad_resume = run_repro("table4", &dir, &[("REPRO_RESUME", "no-such-run")]);
    assert_eq!(bad_resume.status.code(), Some(2));
    assert!(
        stderr(&bad_resume).contains("cannot resume"),
        "{}",
        stderr(&bad_resume)
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_manifest_records_cell_outcomes() {
    let dir = scratch("manifest");
    let telemetry_dir = dir.join("telemetry");
    let out = run_repro(
        "table4",
        &dir,
        &[
            ("REPRO_TELEMETRY", "summary"),
            ("REPRO_TELEMETRY_DIR", telemetry_dir.to_str().unwrap()),
            ("REPRO_FAULTS", "panic:table4/perl"),
            ("REPRO_RUN_ID", "manifest"),
        ],
    );
    assert_eq!(out.status.code(), Some(1), "stderr:\n{}", stderr(&out));
    let manifest =
        fs::read_to_string(telemetry_dir.join("table4.manifest.json")).expect("manifest written");
    assert!(manifest.contains("table4/perl"), "{manifest}");
    assert!(manifest.contains("table4/gcc"), "{manifest}");
    assert!(manifest.contains("deadline_kills"), "{manifest}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restored_cell_missing_a_key_renders_err_and_exits_one() {
    // A campaign log is outside input: a restored ok cell may lack a key
    // its table reads. The table still prints, the slots that need the
    // key read ERR(missing <key>), nothing panics, and the run exits 1.
    let dir = scratch("missing-key");
    let first = run_repro("table2", &dir, &[("REPRO_RUN_ID", "gone")]);
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));

    let journal = dir.join("gone.jsonl");
    let mut edited = String::new();
    for line in fs::read_to_string(&journal).unwrap().lines() {
        let mut event = json::parse(line).expect("campaign log line parses");
        let perl = event.get("cell").and_then(Json::as_str) == Some("table2/perl");
        if let (true, Json::Obj(fields)) = (perl, &mut event) {
            if let Some(Json::Obj(data)) = fields.get_mut("data") {
                assert!(data.remove("two_bit").is_some(), "{line}");
            }
        }
        edited.push_str(&event.to_string());
        edited.push('\n');
    }
    fs::write(&journal, edited).unwrap();

    let resumed = run_repro("table2", &dir, &[("REPRO_RESUME", "gone")]);
    let (out, err) = (stdout(&resumed), stderr(&resumed));
    assert_eq!(
        resumed.status.code(),
        Some(1),
        "stdout:\n{out}\nstderr:\n{err}"
    );
    assert!(out.contains("campaign: 8/8 cells ok, 8 restored"), "{out}");
    let perl = out
        .lines()
        .find(|l| l.starts_with("perl"))
        .unwrap_or_else(|| panic!("table not printed:\n{out}"));
    assert_eq!(perl.matches("ERR(missing two_bit)").count(), 2, "{perl}");
    let gcc = out.lines().find(|l| l.starts_with("gcc")).unwrap();
    assert!(!gcc.contains("ERR("), "{gcc}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
