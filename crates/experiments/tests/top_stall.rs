//! `repro-top --follow --strict` stall detection: a campaign log
//! whose producer died (hung daemon, `kill -9`) stops growing, and the
//! follower must fail fast with exit 3 instead of redrawing forever.

use experiments::jobs::Journal;
use experiments::Scale;
use sim_telemetry::CampaignEvent;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-top-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A plausible unfinished log, written through the campaign log writer
/// by a producer that heartbeat every 50ms and then died: the follower
/// must measure the 50ms interval from the log and declare a stall
/// after ~3 missed beats, not after 3 × the 1000ms default. Returns the
/// log path and its trace id.
fn write_dead_log(dir: &std::path::Path) -> (PathBuf, String) {
    let mut journal = Journal::create(dir, "dead-run", "table2", Scale::Quick, 4).unwrap();
    journal.append(journal.start_event(1)).unwrap();
    journal
        .append(CampaignEvent::AttemptStarted {
            cell: "table2/perl".into(),
            attempt: 1,
        })
        .unwrap();
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(50));
        journal
            .append(CampaignEvent::Heartbeat { done: 0, active: 1 })
            .unwrap();
    }
    (journal.path().to_path_buf(), journal.trace_id().to_string())
}

#[test]
fn strict_follow_exits_3_on_a_stalled_stream() {
    let dir = scratch("strict");
    let (log, _) = write_dead_log(&dir);

    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args([
            "--follow",
            "--strict",
            "--interval",
            "25",
            log.to_str().unwrap(),
        ])
        .output()
        .expect("spawn repro-top");
    let elapsed = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(out.status.code(), Some(3), "stderr:\n{stderr}");
    assert!(stderr.contains("stalled"), "{stderr}");
    // 3 missed 50ms beats ≈ 150ms idle; well under the 3s it would take
    // if the follower fell back to the 1000ms default interval.
    assert!(
        elapsed < Duration::from_secs(3),
        "stall detection took {elapsed:?} — measured heartbeat interval ignored?"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_strict_follow_reports_the_stall_but_keeps_watching() {
    let dir = scratch("lenient");
    let (log, trace_id) = write_dead_log(&dir);

    // Without --strict the follower must NOT exit on a stall; give it
    // ample time to (wrongly) do so, then kill it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args(["--follow", "--interval", "25", log.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro-top");
    std::thread::sleep(Duration::from_millis(800));
    let still_running = child.try_wait().expect("try_wait").is_none();
    let _ = child.kill();
    let out = child.wait_with_output().expect("collect output");
    assert!(
        still_running,
        "without --strict the follower must keep watching a stalled stream"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("STALLED"),
        "the live view must carry the STALLED banner"
    );
    assert!(
        stdout.contains(&format!("[{trace_id}]")),
        "the header must carry the campaign's trace id:\n{stdout}"
    );
    assert!(
        stdout.contains("last events are at the tail of") && stdout.contains("dead-run.jsonl"),
        "the STALLED banner must point at the log:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
