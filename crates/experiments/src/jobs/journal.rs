//! The campaign log writer.
//!
//! One append-only JSONL file per run, `<dir>/<run-id>.jsonl`, in the
//! [`sim_telemetry::progress`] vocabulary. The pool scheduler is the
//! only writer: it appends every lifecycle event through
//! [`Journal::append`], which stamps it from the journal's monotonic
//! microsecond clock:
//!
//! ```json
//! {"cells":2,"event":"campaign-started","format":2,"run":"chaos","scale":"quick","t_us":0,"tool":"table4","trace_id":"tr-9f2ab04c71d3e586",...}
//! {"attempt":1,"cell":"table4/gcc","event":"attempt-started","t_us":41}
//! {"attempts":1,"cell":"table4/gcc","data":{"btb_mispred":0.139,...},"event":"cell-finished","status":"ok",...}
//! {"attempt":3,"cell":"table4/perl","event":"attempt-failed","killed":false,"reason":"panicked: injected fault",...}
//! {"attempts":3,"cell":"table4/perl","event":"cell-finished","reason":"panicked: injected fault","status":"err",...}
//! ```
//!
//! Every `ok`/`err` outcome is fsynced before the scheduler moves on, so
//! a `kill -9` at any instant leaves a log whose complete lines
//! describe exactly the cells that finished; a line torn mid-append is
//! skipped on read and its cell re-runs. On resume, the log's last
//! outcome per cell is the resume map: `ok` and `resumed` cells are
//! restored and skipped, `err` cells re-run, and the resumed run
//! appends to the same file under the same trace id.

use crate::runner::Scale;
use sim_telemetry::progress::complete_len;
use sim_telemetry::{
    read_events, CampaignEvent, CampaignLog, CellOutcome, CellStatus, LogEntry, TraceId,
};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// An open campaign log: the append handle, the campaign's identity,
/// and the resume map folded from everything logged so far.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    run: String,
    tool: String,
    scale: Scale,
    cells: usize,
    trace_id: String,
    resume_command: Option<String>,
    /// Stamps are `base_us` plus the time since `clock` started, so a
    /// resumed log continues from its last stamp instead of restarting.
    clock: Instant,
    base_us: u64,
    outcomes: BTreeMap<String, CellOutcome>,
}

/// The log file path for a run id.
pub fn journal_path(dir: &Path, run_id: &str) -> PathBuf {
    dir.join(format!("{run_id}.jsonl"))
}

impl Journal {
    /// Starts a fresh log for `run_id` with a newly minted trace id,
    /// discarding any previous log of the same id. The pool writes its
    /// first line when the campaign of `cells` cells starts.
    pub fn create(
        dir: &Path,
        run_id: &str,
        tool: &str,
        scale: Scale,
        cells: usize,
    ) -> std::io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, run_id);
        let file = File::create(&path)?;
        // The new directory entry must survive a crash too; not every
        // platform can open a directory to sync it, so best-effort.
        if let Ok(parent) = File::open(dir) {
            let _ = parent.sync_all();
        }
        Ok(Journal {
            path,
            file,
            run: run_id.to_string(),
            tool: tool.to_string(),
            scale,
            cells,
            trace_id: TraceId::mint().to_string(),
            resume_command: None,
            clock: Instant::now(),
            base_us: 0,
            outcomes: BTreeMap::new(),
        })
    }

    /// Reopens an existing log to continue it: the resumed campaign
    /// appends to the same file under the same trace id. A torn final
    /// line is cut off first so the next append starts a clean line.
    /// Fails with an operator-facing message if the file is missing or
    /// refused by the parser, or was written by a different tool or
    /// scale (mixing scales would splice incomparable numbers into one
    /// table).
    pub fn resume(dir: &Path, run_id: &str, tool: &str, scale: Scale) -> Result<Journal, String> {
        let (path, log) = load(dir, run_id, tool, scale)?;
        let fail =
            |e: std::io::Error| format!("cannot resume run {run_id:?}: {}: {e}", path.display());
        let file = OpenOptions::new().append(true).open(&path).map_err(fail)?;
        if log.torn_tail {
            let complete = complete_len(&std::fs::read(&path).map_err(fail)?);
            file.set_len(complete as u64).map_err(fail)?;
        }
        let Some(CampaignEvent::CampaignStarted {
            cells, trace_id, ..
        }) = log.last_segment().first().map(|e| &e.event).cloned()
        else {
            unreachable!("load() refuses logs without a campaign-started line")
        };
        Ok(Journal {
            file,
            run: run_id.to_string(),
            tool: tool.to_string(),
            scale,
            cells: cells as usize,
            trace_id,
            resume_command: None,
            clock: Instant::now(),
            base_us: log.entries.last().map_or(0, |e| e.t_us),
            outcomes: log.last_outcomes(),
            path,
        })
    }

    /// Starts a fresh log for `run_id` in `dir` that restores from
    /// another run's log (`from_dir`/`from_run`): it adopts that
    /// campaign's trace id and resume map, and the pool announces every
    /// restored cell as a `resumed` outcome, data included, so the new
    /// log alone is enough for status and any later resume.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn create_restoring(
        dir: &Path,
        run_id: &str,
        tool: &str,
        scale: Scale,
        cells: usize,
        from_dir: &Path,
        from_run: &str,
    ) -> Result<Journal, String> {
        let (_, source) = load(from_dir, from_run, tool, scale)?;
        let mut journal = Journal::create(dir, run_id, tool, scale, cells).map_err(|e| {
            format!(
                "cannot create campaign log {}: {e}",
                journal_path(dir, run_id).display()
            )
        })?;
        if let Some(CampaignEvent::CampaignStarted { trace_id, .. }) = source.header() {
            journal.trace_id = trace_id.clone();
        }
        journal.outcomes = source.last_outcomes();
        Ok(journal)
    }

    /// Records the copy-pasteable command that resumes this log; it
    /// rides in the campaign-started line so anything that reads the
    /// log — the failure epilogue, `repro-serve`'s `GET /status` — can
    /// surface it after a crash.
    pub(crate) fn set_resume_command(&mut self, command: String) {
        self.resume_command = Some(command);
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The campaign correlation trace id, kept across resumes.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// The cells the campaign schedules, restored ones included.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// The last logged outcome for `cell`, if any.
    pub fn record(&self, cell: &str) -> Option<&CellOutcome> {
        self.outcomes.get(cell)
    }

    /// The last logged outcome of every cell, in cell order.
    pub fn records(&self) -> impl Iterator<Item = &CellOutcome> {
        self.outcomes.values()
    }

    /// The campaign-started event for a run of this log's campaign on
    /// `workers` workers.
    pub fn start_event(&self, workers: usize) -> CampaignEvent {
        CampaignEvent::CampaignStarted {
            run: self.run.clone(),
            tool: self.tool.clone(),
            scale: self.scale.name().to_string(),
            cells: self.cells as u64,
            workers: workers as u64,
            trace_id: self.trace_id.clone(),
            resume_command: self.resume_command.clone(),
            unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
        }
    }

    /// Stamps `event` and appends it as one complete line. Every `ok`
    /// or `err` outcome and the campaign end are fsynced before this
    /// returns; a `resumed` announcement restates an outcome that is
    /// already durable, so it waits for the next sync.
    pub fn append(&mut self, event: CampaignEvent) -> std::io::Result<()> {
        let t_us = self.base_us + self.clock.elapsed().as_micros() as u64;
        let entry = LogEntry { t_us, event };
        let mut line = entry.to_json().to_string();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        match entry.event {
            CampaignEvent::CellFinished(outcome) => {
                if outcome.status != CellStatus::Resumed {
                    self.file.sync_all()?;
                }
                self.outcomes.insert(outcome.cell.clone(), outcome);
            }
            CampaignEvent::CampaignFinished { .. } => self.file.sync_all()?,
            _ => {}
        }
        Ok(())
    }

    /// Reads the log back from disk — the input every view folds.
    pub(crate) fn read(&self) -> Result<CampaignLog, String> {
        read_events(&self.path)
    }
}

/// Reads and checks the log a resume starts from: it must parse, hold
/// a campaign-started line, and name this tool and scale.
fn load(
    dir: &Path,
    run_id: &str,
    tool: &str,
    scale: Scale,
) -> Result<(PathBuf, CampaignLog), String> {
    let path = journal_path(dir, run_id);
    if let Err(e) = std::fs::metadata(&path) {
        return Err(format!(
            "cannot resume run {run_id:?}: {} is unreadable ({e}); \
             start a fresh run or check REPRO_JOURNAL_DIR",
            path.display()
        ));
    }
    let log = read_events(&path).map_err(|e| format!("cannot resume run {run_id:?}: {e}"))?;
    let Some(CampaignEvent::CampaignStarted {
        tool: got_tool,
        scale: got_scale,
        ..
    }) = log.header()
    else {
        return Err(format!(
            "cannot resume run {run_id:?}: {}:1: the campaign log is empty; start a fresh run",
            path.display()
        ));
    };
    for (field, got, want) in [("tool", got_tool, tool), ("scale", got_scale, scale.name())] {
        if got != want {
            return Err(format!(
                "cannot resume run {run_id:?}: {}:1: the log was written by {field}={got}, \
                 this invocation is {field}={want}; start a fresh run",
                path.display()
            ));
        }
    }
    Ok((path, log))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("repro-journal-{}-{name}", std::process::id()))
    }

    fn outcome(cell: &str, status: CellStatus, value: f64) -> CellOutcome {
        CellOutcome {
            cell: cell.to_string(),
            status,
            attempts: 3,
            deadline_kills: u32::from(status == CellStatus::Err),
            wall_ms: 5,
            instructions: 100_000,
            reason: (status == CellStatus::Err).then(|| "panicked: injected".to_string()),
            data: (status != CellStatus::Err).then(|| BTreeMap::from([("v".to_string(), value)])),
        }
    }

    /// A log as the pool writes it: the start line, then outcomes.
    fn started(dir: &Path, run: &str, outcomes: &[CellOutcome]) -> Journal {
        let mut journal = Journal::create(dir, run, "repro_all", Scale::Quick, 3).unwrap();
        journal.append(journal.start_event(1)).unwrap();
        for o in outcomes {
            journal
                .append(CampaignEvent::CellFinished(o.clone()))
                .unwrap();
        }
        journal
    }

    #[test]
    fn resume_folds_the_last_outcome_per_cell_and_appends() {
        let dir = scratch("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let first = started(
            &dir,
            "r1",
            &[
                outcome("table4/gcc", CellStatus::Ok, 0.31),
                outcome("table4/perl", CellStatus::Err, 0.0),
            ],
        );
        let trace_id = first.trace_id().to_string();
        drop(first);

        let mut resumed = Journal::resume(&dir, "r1", "repro_all", Scale::Quick).unwrap();
        assert_eq!(resumed.trace_id(), trace_id, "a resume keeps the trace id");
        assert_eq!(resumed.records().count(), 2);
        let ok = resumed.record("table4/gcc").unwrap();
        assert!(ok.ok());
        assert_eq!(ok.data.as_ref().unwrap()["v"], 0.31);
        assert_eq!(ok.instructions, 100_000, "instruction count round-trips");
        let err = resumed.record("table4/perl").unwrap();
        assert!(!err.ok());
        assert_eq!(err.reason.as_deref(), Some("panicked: injected"));
        assert_eq!(err.deadline_kills, 1);

        // The resumed run appends a second start under the same id; its
        // stamps continue the first run's clock.
        resumed.append(resumed.start_event(2)).unwrap();
        resumed
            .append(CampaignEvent::CellFinished(outcome(
                "table4/perl",
                CellStatus::Ok,
                0.5,
            )))
            .unwrap();
        let log = resumed.read().unwrap();
        assert_eq!(log.entries.len(), 5);
        assert!(log.entries.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert!(log.last_outcomes().values().all(CellOutcome::ok));
        assert!(resumed.record("table4/perl").unwrap().ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_missing_corrupt_and_mismatched_journals() {
        let dir = scratch("reject");
        let _ = std::fs::remove_dir_all(&dir);

        // Missing.
        let err = Journal::resume(&dir, "absent", "repro_all", Scale::Quick).unwrap_err();
        assert!(err.contains("absent"), "{err}");
        assert!(err.contains("start a fresh run"), "{err}");

        // Corrupt record line: the error names the file and line number.
        let journal = started(&dir, "bad", &[outcome("a/b", CellStatus::Ok, 1.0)]);
        let path = journal.path().to_path_buf();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{not json\n");
        std::fs::write(&path, text).unwrap();
        let err = Journal::resume(&dir, "bad", "repro_all", Scale::Quick).unwrap_err();
        assert!(err.contains(":3:"), "line number in {err}");
        assert!(err.contains("bad.jsonl"), "file name in {err}");
        assert!(err.contains("start a fresh run"), "{err}");

        // A journal from before the append-only log is refused, not
        // misread.
        let v1 = journal_path(&dir, "v1");
        std::fs::write(
            &v1,
            "{\"journal\":1,\"run\":\"v1\",\"tool\":\"repro_all\",\"scale\":\"quick\",\"cells\":1}\n",
        )
        .unwrap();
        let err = Journal::resume(&dir, "v1", "repro_all", Scale::Quick).unwrap_err();
        assert!(err.contains("v1.jsonl:1:"), "{err}");
        assert!(err.contains("format-1 journal"), "{err}");

        // Scale mismatch.
        drop(started(&dir, "s", &[]));
        let err = Journal::resume(&dir, "s", "repro_all", Scale::Full).unwrap_err();
        assert!(err.contains("scale") && err.contains("s.jsonl:1:"), "{err}");

        // Tool mismatch.
        let err = Journal::resume(&dir, "s", "table1", Scale::Quick).unwrap_err();
        assert!(err.contains("tool"), "{err}");

        // A torn final line is the one thing tolerated: its cell is not
        // restored, and the next append starts on a clean line.
        let journal = started(&dir, "torn", &[outcome("a/b", CellStatus::Ok, 1.0)]);
        let path = journal.path().to_path_buf();
        drop(journal);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"cell\":\"c/d\",\"event\":\"cell-fini");
        std::fs::write(&path, &text).unwrap();
        let mut resumed = Journal::resume(&dir, "torn", "repro_all", Scale::Quick).unwrap();
        assert!(resumed.record("a/b").is_some());
        assert!(resumed.record("c/d").is_none(), "the torn cell re-runs");
        resumed.append(resumed.start_event(1)).unwrap();
        let log = resumed.read().unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.entries.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restoring_log_adopts_the_source_trace_id_and_outcomes() {
        let dir = scratch("restore");
        let _ = std::fs::remove_dir_all(&dir);
        let source = started(&dir, "prior", &[outcome("t/a", CellStatus::Ok, 2.0)]);
        let restored = Journal::create_restoring(
            &dir.join("next"),
            "next",
            "repro_all",
            Scale::Quick,
            3,
            &dir,
            "prior",
        )
        .unwrap();
        assert_eq!(restored.trace_id(), source.trace_id());
        assert!(restored.record("t/a").unwrap().ok());
        assert_eq!(restored.path(), journal_path(&dir.join("next"), "next"));
        let err = Journal::create_restoring(&dir, "x", "table1", Scale::Quick, 1, &dir, "prior")
            .unwrap_err();
        assert!(err.contains("tool"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_command_rides_in_the_start_line() {
        let dir = scratch("resume-cmd");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = "REPRO_SCALE=quick REPRO_RESUME=r9 table4";
        let mut journal = Journal::create(&dir, "r9", "table4", Scale::Quick, 8).unwrap();
        journal.set_resume_command(cmd.to_string());
        journal.append(journal.start_event(1)).unwrap();
        match journal.read().unwrap().header() {
            Some(CampaignEvent::CampaignStarted {
                resume_command,
                trace_id,
                ..
            }) => {
                assert_eq!(resume_command.as_deref(), Some(cmd));
                assert_eq!(trace_id, journal.trace_id());
            }
            other => panic!("unexpected header {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
