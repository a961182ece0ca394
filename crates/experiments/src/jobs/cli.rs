//! The shared campaign driver behind every reproduction binary.
//!
//! `repro_all` and each per-table tool funnel through [`run_tool`]: read
//! the operator environment, enumerate one `(experiment × benchmark)`
//! cell task per registry entry, execute them on the fault-tolerant pool
//! ([`super::pool`]), render everything that succeeded — failed cells
//! appear as `ERR(reason)` markers inside otherwise-complete tables —
//! and exit with a status that distinguishes data loss from operator
//! error:
//!
//! * `0` — every cell produced data,
//! * `1` — the campaign finished but some cells failed after retries,
//! * `2` — the invocation itself was unusable (bad env, a campaign log
//!   that cannot be resumed, a log write failure).
//!
//! Environment:
//!
//! * `REPRO_RUN_ID` — the campaign log's name for a fresh run (default
//!   `<tool>-<unix-secs>-<pid>`).
//! * `REPRO_RESUME` — run id of an existing campaign log; its finished
//!   cells are restored and only the rest execute, appending to the same
//!   log.
//! * `REPRO_JOURNAL_DIR` — campaign log directory (default
//!   [`DEFAULT_JOURNAL_DIR`]).
//! * `REPRO_JOBS`, `REPRO_RETRIES`, `REPRO_DEADLINE_MS`,
//!   `REPRO_BACKOFF_MS`, `REPRO_FAULTS` — see
//!   [`super::pool::RunnerConfig`] and [`super::faults`].

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{SystemTime, UNIX_EPOCH};

use sim_telemetry::{CellRecord, ChromeTrace};

use super::journal::Journal;
use super::pool::{run_campaign_with, CampaignOutcome, CellTask, RunControls, RunnerConfig};
use super::registry::ExperimentDef;
use super::{cell_id, faults, CellSet};
use crate::runner::Scale;
use crate::telemetry;

/// Where campaign logs live unless `REPRO_JOURNAL_DIR` says otherwise.
pub const DEFAULT_JOURNAL_DIR: &str = "results/journal";

fn env_nonempty(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

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

/// Runs a full campaign over `defs` and exits the process.
pub fn run_tool(tool: &str, defs: &[ExperimentDef]) -> ! {
    exit(drive(tool, defs))
}

/// Runs the single registry experiment `name` — the body of every
/// per-table binary.
pub fn run_single(name: &str) -> ! {
    match super::registry::find(name) {
        Some(def) => run_tool(name, &[def]),
        None => operator_error(&format!("unknown experiment {name:?}")),
    }
}

fn drive(tool: &str, defs: &[ExperimentDef]) -> i32 {
    let scale = Scale::from_env_or_exit();
    if crate::runner::SampleMode::from_env_or_exit() == crate::runner::SampleMode::Simpoint {
        return crate::sample::drive_sampled(tool, defs, scale);
    }

    // The session parses the telemetry knob surface (the one env
    // read) and must outlive the campaign so cell records land in
    // the manifest. Every cell task carries a clone of its context.
    let session = telemetry::session_or_exit(tool, scale);
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

    let driven = drive_campaign(tool, scale, &session, tasks);

    for def in defs {
        let mut cells = CellSet::new();
        for label in (def.labels)() {
            let report = driven
                .outcome
                .report(&cell_id(def.name, label))
                .expect("every enumerated cell was scheduled");
            cells.insert(label, report.outcome.clone());
        }
        println!("{}", (def.render)(&cells));
    }

    epilogue(
        tool,
        &driven.run_id,
        scale,
        &driven.journal_dir,
        &driven.outcome,
    )
}

/// What [`drive_plan`] hands back to its caller for rendering and the
/// exit epilogue.
pub(crate) struct DrivenCampaign {
    /// The run id (campaign log name) this campaign executed under.
    pub run_id: String,
    /// Campaign log directory, for the resume command.
    pub journal_dir: PathBuf,
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

/// Everything [`drive_plan`] needs besides the tasks: where the log
/// goes and what it starts from, the pool configuration, and the
/// embedding hooks.
pub(crate) struct CampaignPlan {
    /// Campaign log directory.
    pub journal_dir: PathBuf,
    /// Run id (the log's file stem).
    pub run_id: String,
    /// What the log starts from.
    pub source: LogSource,
    /// Pool configuration.
    pub runner: RunnerConfig,
    /// Cancellation and shared worker slots.
    pub controls: RunControls,
}

impl CampaignPlan {
    /// The batch binaries' plan, from `REPRO_RESUME`, `REPRO_RUN_ID`,
    /// `REPRO_JOURNAL_DIR`, and the pool knobs. `REPRO_TRACE_STORE` is
    /// checked here too: workers open the store per trace, so a typo must
    /// stop the campaign before its log exists.
    pub(crate) fn from_env(tool: &str) -> Result<CampaignPlan, String> {
        sim_trace::StoreMode::from_env()?;
        let journal_dir = PathBuf::from(
            env_nonempty("REPRO_JOURNAL_DIR").unwrap_or_else(|| DEFAULT_JOURNAL_DIR.into()),
        );
        let (run_id, source) = match env_nonempty("REPRO_RESUME") {
            Some(id) => (id, LogSource::Continue),
            None => (
                env_nonempty("REPRO_RUN_ID").unwrap_or_else(|| default_run_id(tool)),
                LogSource::Fresh,
            ),
        };
        Ok(CampaignPlan {
            journal_dir,
            run_id,
            source,
            runner: RunnerConfig::from_env()?,
            controls: RunControls::default(),
        })
    }
}

/// [`drive_plan`] for the batch binaries: the plan comes from the
/// environment, the fault plan is installed for the campaign's
/// lifetime, and any error is an operator error (exit 2).
pub(crate) fn drive_campaign(
    tool: &str,
    scale: Scale,
    session: &telemetry::Session,
    tasks: Vec<CellTask>,
) -> DrivenCampaign {
    let plan = CampaignPlan::from_env(tool).unwrap_or_else(|e| operator_error(&e));
    // The fault guard must outlive the campaign so workload truncation
    // faults stay visible to trace generation on worker threads.
    let _faults = faults::install(plan.runner.faults.clone());
    drive_plan(tool, scale, session, tasks, plan).unwrap_or_else(|e| operator_error(&e))
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
    scale: Scale,
    session: &telemetry::Session,
    tasks: Vec<CellTask>,
    plan: CampaignPlan,
) -> Result<DrivenCampaign, String> {
    let CampaignPlan {
        journal_dir,
        run_id,
        source,
        runner,
        controls,
    } = plan;
    let cells = tasks.len();
    let mut journal = match source {
        LogSource::Fresh => {
            Journal::create(&journal_dir, &run_id, tool, scale, cells).map_err(|e| {
                format!(
                    "cannot create campaign log {}: {e}",
                    super::journal::journal_path(&journal_dir, &run_id).display()
                )
            })?
        }
        LogSource::Continue => Journal::resume(&journal_dir, &run_id, tool, scale)?,
        LogSource::RestoreFrom(dir, run) => {
            Journal::create_restoring(&journal_dir, &run_id, tool, scale, cells, &dir, &run)?
        }
    };
    // Whoever finds this log after a crash (the epilogue, `repro-serve`'s
    // status endpoint) can surface the resume command verbatim.
    journal.set_resume_command(resume_command(tool, &run_id, scale, &journal_dir));
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
        &runner,
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
        journal_dir,
        outcome,
    })
}

/// The full, copy-pasteable resume command for a failed campaign: the
/// scale is pinned (a resume from a different shell must not silently
/// run at another scale, which the journal would reject anyway) and a
/// non-default log directory rides along. Written into every
/// campaign-started line and printed by the failure epilogue.
pub(crate) fn resume_command(tool: &str, run_id: &str, scale: Scale, journal_dir: &Path) -> String {
    let mut cmd = format!("REPRO_SCALE={}", scale.name());
    if journal_dir != Path::new(DEFAULT_JOURNAL_DIR) {
        cmd.push_str(&format!(" REPRO_JOURNAL_DIR={}", journal_dir.display()));
    }
    cmd.push_str(&format!(" REPRO_RESUME={run_id} {tool}"));
    cmd
}

pub(crate) fn epilogue(
    tool: &str,
    run_id: &str,
    scale: Scale,
    journal_dir: &Path,
    outcome: &CampaignOutcome,
) -> i32 {
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
    eprintln!(
        "re-run only the failed cells with: {}",
        resume_command(tool, run_id, scale, journal_dir)
    );
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_command_is_complete_and_copy_pasteable() {
        // Default journal dir: scale + resume id only.
        let cmd = resume_command(
            "table4",
            "run-7",
            Scale::Standard,
            Path::new(DEFAULT_JOURNAL_DIR),
        );
        assert_eq!(cmd, "REPRO_SCALE=standard REPRO_RESUME=run-7 table4");
        // A custom journal dir must ride along or the resume cannot find
        // the journal.
        let cmd = resume_command("repro_all", "r1", Scale::Quick, Path::new("/tmp/j"));
        assert_eq!(
            cmd,
            "REPRO_SCALE=quick REPRO_JOURNAL_DIR=/tmp/j REPRO_RESUME=r1 repro_all"
        );
    }
}
