//! The campaign driver behind the `repro` binary.
//!
//! `repro <experiment>` and `repro all` funnel through [`repro`]: take
//! the parsed knobs ([`crate::knobs`]), enumerate one `(experiment × benchmark)`
//! cell task per registry entry, execute them on the fault-tolerant pool
//! ([`super::pool`]), render everything that succeeded — failed cells
//! appear as `ERR(reason)` markers inside otherwise-complete tables —
//! and exit with a status that distinguishes data loss from operator
//! error:
//!
//! * `0` — every cell produced data and every table slot rendered,
//! * `1` — the campaign finished but some cells failed after retries, or
//!   a slot printed `ERR(` (a restored cell lacking a key),
//! * `2` — the invocation itself was unusable (no or an unknown
//!   experiment name, a malformed knob, a campaign log that cannot be
//!   resumed, a log write failure).
//!
//! The knobs are listed in the README's knob reference: `REPRO_RUN_ID`
//! names a fresh campaign log, `REPRO_RESUME` continues an existing one
//! (its finished cells are restored and only the rest execute, appending
//! to the same log), and the pool knobs fill
//! [`RunnerConfig`](super::pool::RunnerConfig).

use std::path::PathBuf;
use std::process::exit;
use std::time::{SystemTime, UNIX_EPOCH};

use sim_telemetry::{CellRecord, ChromeTrace};

use super::journal::Journal;
use super::pool::{run_campaign_with, CampaignOutcome, CellTask, RunControls};
use super::registry::ExperimentDef;
use super::{cell_id, faults, CellSet};
use crate::knobs::{Knobs, Resume, KNOBS};
use crate::runner::SampleMode;
use crate::telemetry;

/// Where campaign logs live unless `REPRO_JOURNAL_DIR` says otherwise.
pub const DEFAULT_JOURNAL_DIR: &str = "results/journal";

fn default_run_id(tool: &str) -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!("{tool}-{secs}-{}", std::process::id())
}

pub(crate) fn operator_error(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(2)
}

/// The `repro` entry point, given its arguments without the program
/// name: `[name]` runs the registry experiment `name`, `["all"]` runs
/// every one in registry order. The argument is the tool name in the
/// campaign log, the manifest and the resume command. Anything else
/// exits 2 listing the names.
pub fn repro(args: &[String]) -> ! {
    let defs = super::registry::all();
    let selected: Vec<ExperimentDef> = match args {
        [name] => defs
            .iter()
            .filter(|d| name == "all" || d.name == name)
            .copied()
            .collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        eprintln!(
            "usage: repro <experiment> | repro all\nexperiments: {}",
            names.join(", ")
        );
        exit(2)
    }
    let tool = &args[0];
    if tool == "all" {
        println!("Reproduction of 'Target Prediction for Indirect Jumps' (ISCA 1997)");
    }
    exit(drive(tool, &selected))
}

fn drive(tool: &str, defs: &[ExperimentDef]) -> i32 {
    let knobs = crate::knobs::get();
    if knobs.sample == SampleMode::Simpoint {
        return crate::sample::drive_sampled(tool, defs, knobs);
    }

    // The session must outlive the campaign so cell records land in the
    // manifest. Every cell task carries a clone of its context.
    let scale = knobs.scale;
    let session = telemetry::session(tool, knobs);
    let ctx = session.ctx();

    let tasks: Vec<CellTask> = defs
        .iter()
        .flat_map(|def| {
            let (name, cell) = (def.name, def.cell);
            let ctx = ctx.clone();
            (def.labels)().into_iter().map(move |label| {
                let ctx = ctx.clone();
                CellTask::new(cell_id(name, label), move || cell(&ctx, label, scale))
            })
        })
        .collect();

    let driven = drive_campaign(tool, knobs, &session, tasks);

    let mut err_slots = 0;
    for def in defs {
        let mut cells = CellSet::new();
        for label in (def.labels)() {
            let report = driven
                .outcome
                .report(&cell_id(def.name, label))
                .expect("every enumerated cell was scheduled");
            cells.insert(label, report.outcome.clone());
        }
        let render = (def.render)(&cells);
        err_slots += render.matches("ERR(").count();
        println!("{render}");
    }

    let status = epilogue(&driven.outcome, &driven.resume_command);
    if status == 0 && err_slots > 0 {
        // Every cell is ok, yet a slot could not be rendered: restored
        // data lacks a key the table reads.
        eprintln!("error: {err_slots} table slot(s) printed ERR( although every cell is ok");
        return 1;
    }
    status
}

/// What [`drive_plan`] hands back to its caller for rendering and the
/// exit epilogue.
pub(crate) struct DrivenCampaign {
    /// The run id (campaign log name) this campaign executed under.
    pub run_id: String,
    /// The command that resumes this campaign, as its log records it.
    pub resume_command: String,
    /// Every cell's report.
    pub outcome: CampaignOutcome,
}

/// Where a campaign's log starts from.
pub(crate) enum LogSource {
    /// A fresh log with a newly minted trace id.
    Fresh,
    /// Continue the plan's own log: restore its finished cells and
    /// append under its trace id.
    Continue,
    /// A fresh log that restores from another run's log (directory, run
    /// id) and adopts its trace id.
    RestoreFrom(PathBuf, String),
}

/// Everything [`drive_plan`] needs besides the tasks: the run id and
/// what the log starts from, the embedding hooks, and the knobs the
/// campaign runs under — scale, log directory, pool, and the values its
/// resume command carries.
pub(crate) struct CampaignPlan {
    /// Run id (the log's file stem).
    pub run_id: String,
    /// What the log starts from.
    pub source: LogSource,
    /// Cancellation and shared worker slots.
    pub controls: RunControls,
    /// The campaign's knobs.
    pub knobs: Knobs,
}

/// [`drive_plan`] for the batch binaries: `REPRO_RESUME` continues a
/// log, otherwise `REPRO_RUN_ID` (or a fresh id) names a new one; the
/// fault plan is installed for the campaign's lifetime, and any error is
/// an operator error (exit 2).
pub(crate) fn drive_campaign(
    tool: &str,
    knobs: &Knobs,
    session: &telemetry::Session,
    tasks: Vec<CellTask>,
) -> DrivenCampaign {
    let (run_id, source) = match &knobs.resume {
        Some(id) => (id.clone(), LogSource::Continue),
        None => (
            knobs.run_id.clone().unwrap_or_else(|| default_run_id(tool)),
            LogSource::Fresh,
        ),
    };
    let plan = CampaignPlan {
        run_id,
        source,
        controls: RunControls::default(),
        knobs: knobs.clone(),
    };
    // The fault guard must outlive the campaign so workload truncation
    // faults stay visible to trace generation on worker threads.
    let _faults = faults::install(knobs.runner.faults.clone());
    drive_plan(tool, session, tasks, plan).unwrap_or_else(|e| operator_error(&e))
}

/// The campaign execution core shared by the exact driver ([`drive`]),
/// the sampled driver ([`crate::sample::drive_sampled`]), and
/// `repro-serve`'s per-request execution: open the campaign log, run
/// the pool (whose scheduler writes every lifecycle event into it), and
/// fold the log into the manifest `cells` array and, when
/// `REPRO_TRACE_EXPORT=chrome`, the Chrome trace export. The caller owns
/// task enumeration, rendering, and the exit epilogue.
pub(crate) fn drive_plan(
    tool: &str,
    session: &telemetry::Session,
    tasks: Vec<CellTask>,
    plan: CampaignPlan,
) -> Result<DrivenCampaign, String> {
    let CampaignPlan {
        run_id,
        source,
        controls,
        knobs,
    } = plan;
    let (scale, journal_dir, runner) = (knobs.scale, &knobs.journal_dir, &knobs.runner);
    let cells = tasks.len();
    let mut journal = match source {
        LogSource::Fresh => {
            Journal::create(journal_dir, &run_id, tool, scale, cells).map_err(|e| {
                format!(
                    "cannot create campaign log {}: {e}",
                    super::journal::journal_path(journal_dir, &run_id).display()
                )
            })?
        }
        LogSource::Continue => Journal::resume(journal_dir, &run_id, tool, scale)?,
        LogSource::RestoreFrom(dir, run) => {
            Journal::create_restoring(journal_dir, &run_id, tool, scale, cells, &dir, &run)?
        }
    };
    // Whoever finds this log after a crash (the epilogue, `repro-serve`'s
    // status endpoint) can surface the resume command verbatim.
    let resume_command = resume_command(tool, &run_id, &knobs);
    journal.set_resume_command(resume_command.clone());
    let ctx = session.ctx();
    if let Some(hub) = ctx.hub() {
        hub.set_trace_id(journal.trace_id());
    }

    println!(
        "run: {run_id}  trace: {}  scale: {}  cells: {cells}  workers: {}  log: {}\n",
        journal.trace_id(),
        scale.name(),
        runner.workers,
        journal.path().display()
    );

    let outcome = run_campaign_with(
        tasks,
        runner,
        &mut journal,
        &ctx,
        Some(session.config().progress_tick),
        &controls,
    )?;

    let export = session.config().trace_export.enabled();
    if ctx.enabled() || export {
        let log = journal.read()?;
        if let Some(hub) = ctx.hub() {
            for outcome in log.segment_outcomes().values() {
                hub.record_cell(CellRecord::from(outcome));
            }
        }
        if export {
            let mut trace = ChromeTrace::from_log(&log);
            if let Some(hub) = ctx.hub() {
                trace.add_spans(hub.spans());
            }
            match trace.write(&session.config().traceviz_dir) {
                Ok(path) => println!("trace export: {}", path.display()),
                Err(e) => eprintln!("warning: cannot write trace export: {e}"),
            }
        }
    }

    Ok(DrivenCampaign {
        run_id,
        resume_command,
        outcome,
    })
}

/// The full, copy-pasteable resume command for a failed campaign: the
/// knob table's resume column ([`Resume`]) rendered from the campaign's
/// knobs, every value shell-quoted, then `REPRO_RESUME` and the tool.
/// The scale is always pinned (the log refuses a resume at another
/// scale); the log directory and the sampled-report knobs ride along
/// when they differ from their defaults, so a resumed campaign finds its
/// log and is judged the way the one it resumes was. Written into every
/// campaign-started line and printed by the failure epilogue.
pub(crate) fn resume_command(tool: &str, run_id: &str, knobs: &Knobs) -> String {
    let resumed = Knobs {
        resume: Some(run_id.to_string()),
        ..knobs.clone()
    };
    let defaults = Knobs::default();
    let mut cmd = String::new();
    for knob in &KNOBS {
        let (show, always) = match knob.resume {
            Resume::No => continue,
            Resume::Always(show) => (show, true),
            Resume::UnlessDefault(show) => (show, false),
        };
        let value = show(&resumed);
        if always || value != show(&defaults) {
            cmd.push_str(&format!("{}={} ", knob.name, shell_quote(&value)));
        }
    }
    cmd + "repro " + tool
}

/// `value` as one POSIX shell word: bare when every character is in
/// `[A-Za-z0-9_./:@%+=-]`, otherwise single-quoted with each `'`
/// written `'\''`.
fn shell_quote(value: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "_./:@%+=-".contains(c);
    if !value.is_empty() && value.chars().all(plain) {
        value.to_string()
    } else {
        format!("'{}'", value.replace('\'', r"'\''"))
    }
}

pub(crate) fn epilogue(outcome: &CampaignOutcome, resume_command: &str) -> i32 {
    let total = outcome.reports.len();
    let failed = outcome.failures().count();
    let resumed = outcome.reports.iter().filter(|r| r.resumed).count();
    let retried = outcome.reports.iter().filter(|r| r.attempts > 1).count();
    let mut line = format!("campaign: {}/{} cells ok", total - failed, total);
    if resumed > 0 {
        line.push_str(&format!(", {resumed} restored from journal"));
    }
    if retried > 0 {
        line.push_str(&format!(", {retried} needed retries"));
    }
    println!("{line}");
    if failed == 0 {
        return 0;
    }
    eprintln!("error: {failed} cell(s) failed after retries:");
    for r in outcome.failures() {
        let reason = r.outcome.as_ref().err().map(String::as_str).unwrap_or("?");
        eprintln!("  {}: {}", r.cell, reason.lines().next().unwrap_or(reason));
    }
    eprintln!("re-run only the failed cells with: {resume_command}");
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    fn quick() -> Knobs {
        Knobs {
            scale: Scale::Quick,
            ..Knobs::default()
        }
    }

    /// Runs `cmd` through `sh` with `repro` swapped for `printenv`,
    /// printing the named variables as the shell parsed them.
    fn shell_env(cmd: &str, tool: &str, vars: &[&str]) -> String {
        let probe = cmd.replace(
            &format!("repro {tool}"),
            &format!("printenv {}", vars.join(" ")),
        );
        let out = std::process::Command::new("sh")
            .args(["-c", &probe])
            .output()
            .expect("spawn sh");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    }

    #[test]
    fn resume_command_is_complete_and_copy_pasteable() {
        // Default journal dir: scale + resume id only.
        let cmd = resume_command("table4", "run-7", &Knobs::default());
        assert_eq!(cmd, "REPRO_SCALE=standard REPRO_RESUME=run-7 repro table4");
        // A sampled campaign's log holds shard cells: only a sampled
        // campaign can resume it.
        let sampled = Knobs {
            sample: SampleMode::Simpoint,
            ..quick()
        };
        let cmd = resume_command("table1", "s1", &sampled);
        assert_eq!(
            cmd,
            "REPRO_SCALE=quick REPRO_SAMPLE=simpoint REPRO_RESUME=s1 repro table1"
        );
        // A custom journal dir must ride along or the resume cannot find
        // the journal. Knobs outside the resume column never ride, and the
        // run id printed is the campaign's, whatever resumed it.
        let mut custom = Knobs {
            journal_dir: PathBuf::from("/tmp/j"),
            resume: Some("older".into()),
            ..quick()
        };
        custom.runner.workers = 4;
        custom.telemetry.mode = telemetry::TelemetryMode::Events;
        let cmd = resume_command("all", "r1", &custom);
        assert_eq!(
            cmd,
            "REPRO_SCALE=quick REPRO_JOURNAL_DIR=/tmp/j REPRO_RESUME=r1 repro all"
        );
        // A directory a shell would split or unquote is quoted, so the
        // printed command still names it exactly.
        let dir = "/tmp/q dir/it's";
        let quoted = Knobs {
            journal_dir: PathBuf::from(dir),
            ..quick()
        };
        let cmd = resume_command("table2", "q1", &quoted);
        assert_eq!(
            cmd,
            r"REPRO_SCALE=quick REPRO_JOURNAL_DIR='/tmp/q dir/it'\''s' REPRO_RESUME=q1 repro table2"
        );
        assert_eq!(
            shell_env(&cmd, "table2", &["REPRO_JOURNAL_DIR"]),
            format!("{dir}\n")
        );
        // A sampled campaign is judged by its exact mode, tolerance and
        // report directory: each rides along when it is not the default.
        let judged = Knobs {
            sample_exact: false,
            sample_tolerance_pp: 2.5,
            sample_dir: PathBuf::from("/tmp/s dir"),
            ..sampled
        };
        let cmd = resume_command("table1", "s2", &judged);
        assert_eq!(
            cmd,
            "REPRO_SCALE=quick REPRO_SAMPLE=simpoint REPRO_SAMPLE_EXACT=off \
             REPRO_SAMPLE_TOLERANCE_PP=2.5 REPRO_SAMPLE_DIR='/tmp/s dir' REPRO_RESUME=s2 \
             repro table1"
        );
        assert_eq!(
            shell_env(
                &cmd,
                "table1",
                &[
                    "REPRO_SAMPLE_EXACT",
                    "REPRO_SAMPLE_TOLERANCE_PP",
                    "REPRO_SAMPLE_DIR"
                ]
            ),
            "off\n2.5\n/tmp/s dir\n"
        );
    }
}
