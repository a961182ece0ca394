//! End-to-end contract of the trace store under the fault-tolerant
//! campaign driver, exercised through a real campaign (`repro table4`:
//! two focus-benchmark cells, fast at quick scale).
//!
//! The operator-visible behavior: a torn store write (injected via
//! `truncate-store:`) is caught by the chunk checksums in the *same*
//! attempt, journaled as a retryable cell failure, and healed by the
//! retry; generation-level truncation (`truncate:`) bypasses the store
//! so degraded traces are never cached; and a warm store replays the
//! whole campaign with zero generation, visible in the telemetry
//! manifest and in byte-identical table output.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-tracestore-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro table4` with a hermetic REPRO_* environment and the
/// trace store rooted inside `dir` (at `<dir>/traces`).
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
    ] {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_SCALE", "quick")
        .env("REPRO_TELEMETRY", "off")
        .env("REPRO_JOURNAL_DIR", dir.join("journal"))
        .env("REPRO_TRACE_STORE_DIR", dir.join("traces"))
        .env("REPRO_BACKOFF_MS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn repro table4")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The store files under `<dir>/traces`, sorted by name.
fn store_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir.join("traces"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".strc"))
        .collect();
    names.sort();
    names
}

#[test]
fn torn_store_write_is_caught_and_healed_by_retry() {
    let dir = scratch("torn");
    let out = run_table4(
        &dir,
        &[
            ("REPRO_FAULTS", "truncate-store:perl:0.5"),
            ("REPRO_RETRIES", "2"),
            ("REPRO_RUN_ID", "torn"),
        ],
    );
    let text = stdout(&out);
    // The torn write failed the perl cell's first attempt (read-back
    // verification caught the truncation), the retry recorded cleanly,
    // and the campaign finished with every cell ok.
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{text}\nstderr:\n{}",
        stderr(&out)
    );
    assert!(!text.contains("ERR("), "{text}");
    assert!(text.contains("needed retries"), "{text}");

    // Whatever is in the store now is valid: every file decodes fully.
    let files = store_files(&dir);
    assert!(
        files.iter().any(|f| f.starts_with("perl-")),
        "perl was re-recorded after the torn write: {files:?}"
    );
    for name in &files {
        let path = dir.join("traces").join(name);
        let (header, trace) = sim_trace::read_trace_file(&path)
            .unwrap_or_else(|e| panic!("{name} must decode after healing: {e}"));
        assert_eq!(header.instructions, trace.len() as u64, "{name}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn without_retries_the_torn_write_fails_the_cell_loudly() {
    let dir = scratch("noretry");
    let out = run_table4(
        &dir,
        &[
            ("REPRO_FAULTS", "truncate-store:perl:0.5"),
            ("REPRO_RETRIES", "1"),
            ("REPRO_RUN_ID", "noretry"),
        ],
    );
    let (text, err) = (stdout(&out), stderr(&out));
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout:\n{text}\nstderr:\n{err}"
    );
    assert!(text.contains("ERR("), "{text}");
    assert!(
        err.contains("trace store"),
        "failure reason names the store:\n{err}"
    );
    // The corrupt file was deleted on detection, not left to poison
    // later runs.
    let files = store_files(&dir);
    assert!(
        !files.iter().any(|f| f.starts_with("perl-")),
        "corrupt perl file must not survive: {files:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn generation_truncation_bypasses_the_store() {
    let dir = scratch("genfault");
    let out = run_table4(
        &dir,
        &[
            ("REPRO_FAULTS", "truncate:perl:0.5"),
            ("REPRO_RUN_ID", "genfault"),
        ],
    );
    // A degraded (truncated) generation must never be cached: the store
    // holds gcc's trace but nothing for perl.
    let files = store_files(&dir);
    assert!(
        !files.iter().any(|f| f.starts_with("perl-")),
        "truncated generation must bypass the store: {files:?}"
    );
    assert!(
        files.iter().any(|f| f.starts_with("gcc-")),
        "unfaulted benchmarks still record: {files:?}"
    );
    drop(out);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_store_replays_with_zero_misses_and_identical_output() {
    let dir = scratch("warm");
    let telemetry_dir = dir.join("telemetry");
    let envs = [
        ("REPRO_TELEMETRY", "summary"),
        ("REPRO_TELEMETRY_DIR", telemetry_dir.to_str().unwrap()),
    ];

    let cold = run_table4(&dir, &envs);
    assert_eq!(cold.status.code(), Some(0), "stderr:\n{}", stderr(&cold));
    let manifest =
        fs::read_to_string(telemetry_dir.join("table4.manifest.json")).expect("cold manifest");
    assert!(manifest.contains("\"trace_store\""), "{manifest}");
    assert!(manifest.contains("\"hits\":0"), "{manifest}");
    assert!(manifest.contains("\"misses\":2"), "{manifest}");
    assert!(manifest.contains("\"records\":2"), "{manifest}");

    let warm = run_table4(&dir, &envs);
    assert_eq!(warm.status.code(), Some(0), "stderr:\n{}", stderr(&warm));
    let manifest =
        fs::read_to_string(telemetry_dir.join("table4.manifest.json")).expect("warm manifest");
    assert!(manifest.contains("\"hits\":2"), "{manifest}");
    assert!(manifest.contains("\"misses\":0"), "{manifest}");
    assert!(manifest.contains("\"records\":0"), "{manifest}");

    // Replay-from-store is invisible in the results: the rendered table
    // is byte-identical to the generated run's (modulo the `run:`
    // header line, which carries the auto-generated run id).
    let table = |out: &Output| -> String {
        stdout(out)
            .lines()
            .filter(|l| !l.starts_with("run:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        table(&cold),
        table(&warm),
        "store replay changed the table output"
    );

    // A read-only store serves hits but never writes: priming a fresh
    // store dir in ro mode records nothing.
    let ro_dir = scratch("warm-ro");
    let ro = run_table4(
        &ro_dir,
        &[("REPRO_TRACE_STORE", "ro"), ("REPRO_RUN_ID", "ro")],
    );
    assert_eq!(ro.status.code(), Some(0), "stderr:\n{}", stderr(&ro));
    assert_eq!(store_files(&ro_dir), Vec::<String>::new());
    // And a typo in the mode is an operator error: exit 2 with guidance,
    // before the campaign starts — the journal directory still holds only
    // the `ro` run's log.
    let logs = || -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(ro_dir.join("journal"))
            .expect("the ro run wrote its log")
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        names
    };
    assert_eq!(logs(), ["ro.jsonl"]);
    let bad = run_table4(&ro_dir, &[("REPRO_TRACE_STORE", "sometimes")]);
    assert_eq!(bad.status.code(), Some(2), "stderr:\n{}", stderr(&bad));
    assert!(
        stderr(&bad).contains("REPRO_TRACE_STORE"),
        "{}",
        stderr(&bad)
    );
    assert_eq!(logs(), ["ro.jsonl"], "the typo run started a campaign");

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ro_dir);
}
