//! End-to-end contract of `REPRO_SAMPLE=simpoint` through a real
//! `repro table1` campaign: the sharded campaign runs to completion, the
//! mandatory exact-vs-sampled error report is written and parseable,
//! and the perl/gcc rows stay inside the default 1 pp tolerance.

use experiments::sample::{ErrorReport, DEFAULT_TOLERANCE_PP};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-sample-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs a table binary with a hermetic REPRO_* environment.
fn run_tool(experiment: &str, dir: &Path, envs: &[(&str, &str)]) -> Output {
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
        "REPRO_SAMPLE",
        "REPRO_SAMPLE_EXACT",
        "REPRO_SAMPLE_TOLERANCE_PP",
        "REPRO_SAMPLE_DIR",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_SCALE", "quick")
        .env("REPRO_TELEMETRY", "off")
        .env("REPRO_JOURNAL_DIR", dir.join("journal"))
        .env("REPRO_TRACE_STORE_DIR", dir.join("traces"))
        .env("REPRO_SAMPLE_DIR", dir.join("sampling"));
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
fn sampled_table1_stays_within_tolerance_and_writes_the_error_report() {
    // Standard scale: the scale the documented 1 pp perl/gcc bound is
    // stated at (quick traces are too short for dense phase maps).
    let dir = scratch("table1");
    let out = run_tool(
        "table1",
        &dir,
        &[
            ("REPRO_SAMPLE", "simpoint"),
            ("REPRO_SCALE", "standard"),
            ("REPRO_RUN_ID", "sampled"),
        ],
    );
    let (text, err) = (stdout(&out), stderr(&out));
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{text}\nstderr:\n{err}"
    );
    assert!(text.contains("sampled table1"), "{text}");
    assert!(text.contains("within tolerance"), "{text}");
    assert!(!text.contains("OVER TOLERANCE"), "{text}");

    let path = dir.join("sampling").join("sampled-error-report.json");
    let report = ErrorReport::parse(&fs::read_to_string(&path).expect("error report written"))
        .expect("error report parses");
    assert_eq!(report.run_id, "sampled");
    assert_eq!(report.scale, "standard");
    assert_eq!(report.tolerance_pp, DEFAULT_TOLERANCE_PP);
    assert!(
        report.within_tolerance(),
        "worst {}",
        report.worst_abs_err_pp()
    );
    for bench in ["perl", "gcc"] {
        let row = report
            .rows
            .iter()
            .find(|r| r.bench == bench)
            .unwrap_or_else(|| panic!("{bench} row missing"));
        assert!(
            row.abs_err_pp() <= DEFAULT_TOLERANCE_PP,
            "{bench}: sampled {} vs exact {} ({} pp)",
            row.sampled,
            row.exact,
            row.abs_err_pp()
        );
        assert!(row.phases >= 1 && row.phases <= row.chunks, "{bench}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sample_knob_parses_strictly_and_only_shards_table1() {
    let dir = scratch("knob");

    let typo = run_tool("table1", &dir, &[("REPRO_SAMPLE", "simpont")]);
    assert_eq!(typo.status.code(), Some(2), "{}", stderr(&typo));
    assert!(stderr(&typo).contains("REPRO_SAMPLE"), "{}", stderr(&typo));
    assert!(stderr(&typo).contains("simpoint"), "{}", stderr(&typo));

    let wrong_tool = run_tool("table4", &dir, &[("REPRO_SAMPLE", "simpoint")]);
    assert_eq!(wrong_tool.status.code(), Some(2), "{}", stderr(&wrong_tool));
    assert!(
        stderr(&wrong_tool).contains("shards only the table1 experiment"),
        "{}",
        stderr(&wrong_tool)
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn exact_off_skips_the_error_report() {
    let dir = scratch("exact-off");
    let out = run_tool(
        "table1",
        &dir,
        &[
            ("REPRO_SAMPLE", "simpoint"),
            ("REPRO_SAMPLE_EXACT", "off"),
            ("REPRO_RUN_ID", "no-exact"),
        ],
    );
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));
    assert!(text.contains("exact baseline skipped"), "{text}");
    assert!(
        !dir.join("sampling")
            .join("no-exact-error-report.json")
            .exists(),
        "no report when the exact baseline is skipped"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Runs the printed resume command through `sh`, with `repro` swapped
/// for the built binary, in `cwd`, with `env` as the only `REPRO_*`
/// variables: everything else must come from the command itself.
fn run_printed(printed: &str, cwd: &Path, env: &[(&str, &Path)]) -> Output {
    let command = printed
        .strip_suffix(" repro table1")
        .unwrap_or_else(|| panic!("resume command does not end in `repro table1`: {printed}"));
    let mut sh = Command::new("sh");
    sh.arg("-c")
        .arg(format!(
            "{command} '{}' table1",
            env!("CARGO_BIN_EXE_repro")
        ))
        .current_dir(cwd);
    for (var, _) in std::env::vars() {
        if var.starts_with("REPRO_") {
            sh.env_remove(var);
        }
    }
    sh.env("REPRO_TELEMETRY", "off");
    for (k, v) in env {
        sh.env(k, v);
    }
    sh.output().expect("spawn sh")
}

/// The resume command a failed campaign printed on stderr.
fn printed_resume(first: &Output) -> String {
    let err = stderr(first);
    assert_eq!(first.status.code(), Some(1), "stderr:\n{err}");
    err.lines()
        .find_map(|l| l.strip_prefix("re-run only the failed cells with: "))
        .unwrap_or_else(|| panic!("no resume command in stderr:\n{err}"))
        .to_string()
}

#[test]
fn printed_resume_command_resumes_a_sampled_campaign() {
    // A sampled campaign's log holds shard cells; the resume command the
    // epilogue prints must carry REPRO_SAMPLE=simpoint, or the resumed
    // run schedules exact cells and refuses the log, and it must carry
    // REPRO_SAMPLE_EXACT=off, or the resumed run computes an exact
    // baseline the campaign was never asked for and fails its gate. The
    // resumed run's environment has no REPRO_SAMPLE, REPRO_SAMPLE_EXACT,
    // REPRO_SCALE or REPRO_JOURNAL_DIR: only the printed command supplies
    // them.
    let dir = scratch("resume");
    let first = run_tool(
        "table1",
        &dir,
        &[
            ("REPRO_SAMPLE", "simpoint"),
            ("REPRO_SAMPLE_EXACT", "off"),
            ("REPRO_FAULTS", "random:3:0.5"),
            ("REPRO_RETRIES", "1"),
            ("REPRO_BACKOFF_MS", "1"),
            ("REPRO_RUN_ID", "s1"),
        ],
    );
    let printed = printed_resume(&first);
    assert!(printed.contains("REPRO_SAMPLE=simpoint"), "{printed}");
    assert!(printed.contains("REPRO_SAMPLE_EXACT=off"), "{printed}");
    let traces = dir.join("traces");
    let sampling = dir.join("sampling");
    let resumed = run_printed(
        &printed,
        &dir,
        &[
            ("REPRO_TRACE_STORE_DIR", &traces),
            ("REPRO_SAMPLE_DIR", &sampling),
        ],
    );
    let text = stdout(&resumed);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "command: {printed}\nstdout:\n{text}\nstderr:\n{}",
        stderr(&resumed)
    );
    assert!(text.contains("restored from journal"), "{text}");
    assert!(text.contains("exact baseline skipped"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn printed_resume_command_keeps_the_tolerance_and_report_directory() {
    // With the exact baseline on, a quick-scale sampled Table 1 deviates
    // by up to about 12 pp, so the first run widens the gate to 20 pp and
    // sends its report to a private directory. The resumed run, started in
    // the scratch directory with neither variable set, must be judged and
    // report the same way.
    let dir = scratch("resume-judged");
    let private = dir.join("private-reports");
    let first = run_tool(
        "table1",
        &dir,
        &[
            ("REPRO_SAMPLE", "simpoint"),
            ("REPRO_SAMPLE_TOLERANCE_PP", "20"),
            ("REPRO_SAMPLE_DIR", private.to_str().unwrap()),
            ("REPRO_FAULTS", "random:3:0.5"),
            ("REPRO_RETRIES", "1"),
            ("REPRO_BACKOFF_MS", "1"),
            ("REPRO_RUN_ID", "s2"),
        ],
    );
    let printed = printed_resume(&first);
    let traces = dir.join("traces");
    let resumed = run_printed(&printed, &dir, &[("REPRO_TRACE_STORE_DIR", &traces)]);
    let text = stdout(&resumed);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "command: {printed}\nstdout:\n{text}\nstderr:\n{}",
        stderr(&resumed)
    );
    assert!(text.contains("restored from journal"), "{text}");
    let report = ErrorReport::parse(
        &fs::read_to_string(private.join("s2-error-report.json"))
            .expect("report in the private dir"),
    )
    .expect("error report parses");
    assert_eq!(report.tolerance_pp, 20.0);
    let _ = fs::remove_dir_all(&dir);
}
