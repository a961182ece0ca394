//! End-to-end contract of the campaign log's correlation views,
//! exercised through a real campaign (`repro table4`) and the
//! `trace-viz` operator tool.
//!
//! Covered here: `REPRO_TRACE_EXPORT=chrome` writes a strictly valid
//! Chrome trace export — a fold of the campaign log — for a faulted
//! campaign; one trace id correlates the log's first line, the
//! telemetry manifest, the trace export, and the driver's stdout; the
//! log's final outcome for the faulted cell is the injected failure;
//! and `trace-viz` verify/summary/merge round-trip the export.

use sim_telemetry::json::{self, Json};
use sim_telemetry::{traceviz, CampaignEvent, CellStatus};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-flight-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro table4` with a hermetic REPRO_* environment and the
/// full observability stack pointed into `dir`.
fn run_table4(dir: &Path, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("table4");
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
        "REPRO_TRACE_EXPORT",
        "REPRO_TRACEVIZ_DIR",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_SCALE", "quick")
        .env("REPRO_TELEMETRY", "summary")
        .env("REPRO_TELEMETRY_DIR", dir.join("telemetry"))
        .env("REPRO_TRACE_EXPORT", "chrome")
        .env("REPRO_TRACEVIZ_DIR", dir.join("traceviz"))
        .env("REPRO_JOURNAL_DIR", dir.join("journal"))
        .env("REPRO_TRACE_STORE_DIR", dir.join("traces"))
        .env("REPRO_BACKOFF_MS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn repro table4")
}

fn parse_file(path: &Path) -> Json {
    let text =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()))
}

fn trace_viz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace-viz"))
        .args(args)
        .output()
        .expect("spawn trace-viz")
}

#[test]
fn one_trace_id_correlates_every_artifact_of_a_faulted_campaign() {
    let dir = scratch("correlate");
    let out = run_table4(
        &dir,
        &[
            ("REPRO_FAULTS", "panic:table4/perl"),
            ("REPRO_RUN_ID", "flt"),
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "faulted campaign exits 1\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // The log's first line owns the canonical trace id.
    let log_path = dir.join("journal").join("flt.jsonl");
    let log = sim_telemetry::read_events(&log_path).expect("campaign log parses");
    let Some(CampaignEvent::CampaignStarted { trace_id, .. }) = log.header() else {
        panic!("the log opens with campaign-started: {log:?}");
    };
    let first_line = fs::read_to_string(&log_path).unwrap();
    let first_line = first_line.lines().next().unwrap();
    assert!(first_line.contains(trace_id.as_str()), "{first_line}");
    assert!(trace_id.starts_with("tr-"), "{trace_id}");

    // The driver banner surfaces the same id to the operator.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(trace_id.as_str()),
        "banner carries the id:\n{stdout}"
    );

    // The log's final outcome for the faulted cell is the injected
    // failure, after every attempt.
    let perl = &log.last_outcomes()["table4/perl"];
    assert_eq!(perl.status, CellStatus::Err, "{perl:?}");
    assert_eq!(perl.attempts, 3, "{perl:?}");
    assert!(
        perl.reason.as_deref().unwrap_or("").contains("injected"),
        "{perl:?}"
    );

    // The telemetry manifest carries it.
    let manifest = parse_file(&dir.join("telemetry").join("table4.manifest.json"));
    assert_eq!(
        manifest.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );

    // The Chrome export validates strictly (non-decreasing ts per lane
    // is part of validation) and carries it.
    let trace_file = dir.join("traceviz").join("flt.trace.json");
    let doc = parse_file(&trace_file);
    let summary =
        traceviz::validate(&doc).unwrap_or_else(|e| panic!("trace export fails validation: {e}"));
    assert_eq!(summary.trace_id.as_deref(), Some(trace_id.as_str()));
    assert_eq!(summary.run.as_deref(), Some("flt"));
    // Three failed perl attempts + one ok gcc cell = four cell slices,
    // plus whatever span slices the telemetry hub contributed; perl's
    // two retries are the instants.
    assert!(summary.complete >= 4, "{summary:?}");
    assert_eq!(summary.instants, 2, "retry instants exported: {summary:?}");
    assert!(
        summary.lanes >= 2,
        "control lane + worker lane: {summary:?}"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trace_viz_verifies_summarizes_and_merges_real_exports() {
    let dir = scratch("viz");
    // Two campaigns: one clean, one faulted.
    let ok = run_table4(&dir, &[("REPRO_RUN_ID", "ok-run")]);
    assert_eq!(ok.status.code(), Some(0));
    let faulted = run_table4(
        &dir,
        &[
            ("REPRO_FAULTS", "panic:table4/perl"),
            ("REPRO_RUN_ID", "bad-run"),
        ],
    );
    assert_eq!(faulted.status.code(), Some(1));

    let ok_trace = dir.join("traceviz").join("ok-run.trace.json");
    let bad_trace = dir.join("traceviz").join("bad-run.trace.json");

    // verify: both exports pass, exit 0.
    let verify = trace_viz(&[
        "verify",
        ok_trace.to_str().unwrap(),
        bad_trace.to_str().unwrap(),
    ]);
    assert_eq!(
        verify.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );

    // summary: names the run and trace id.
    let summary = trace_viz(&["summary", bad_trace.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&summary.stdout);
    assert_eq!(summary.status.code(), Some(0));
    assert!(text.contains("run bad-run"), "{text}");
    assert!(text.contains("trace tr-"), "{text}");

    // merge: one document, distinct pids per input, still valid.
    let merged_path = dir.join("merged.trace.json");
    let merge = trace_viz(&[
        "merge",
        "-o",
        merged_path.to_str().unwrap(),
        ok_trace.to_str().unwrap(),
        bad_trace.to_str().unwrap(),
    ]);
    assert_eq!(
        merge.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&merge.stderr)
    );
    let merged = parse_file(&merged_path);
    let s = traceviz::validate(&merged).expect("merged export validates");
    let ok_events = traceviz::validate(&parse_file(&ok_trace)).unwrap().events;
    let bad_events = traceviz::validate(&parse_file(&bad_trace)).unwrap().events;
    assert_eq!(s.events, ok_events + bad_events);

    // A corrupted export is an exit-1 verification failure, not a crash.
    let broken = dir.join("broken.trace.json");
    fs::write(
        &broken,
        r#"{"traceEvents": [{"name": "x", "ph": "E", "pid": 1, "tid": 1, "ts": 5}]}"#,
    )
    .unwrap();
    let verify = trace_viz(&["verify", broken.to_str().unwrap()]);
    assert_eq!(verify.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&verify.stderr).contains("INVALID"),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );

    let _ = fs::remove_dir_all(&dir);
}
