//! Campaign status: the live fold of a campaign log.
//!
//! `repro-top` (live), `telemetry-report --progress` (post-mortem), and
//! `repro-serve`'s `GET /status` share this one reader:
//! [`CampaignStatus::from_log`] folds the entries
//! [`sim_telemetry::read_events`] parsed from a campaign log into
//! per-cell state, and the render functions turn that into an operator
//! table, a JSON document, or a timeline report. The status describes
//! the log's latest run: a resume starts a new run in the same log and
//! re-announces every restored cell, so the fold starts over at each
//! `campaign-started`.

use crate::report::TextTable;
use sim_telemetry::json::{obj, Json};
use sim_telemetry::manifest::per_sec;
use sim_telemetry::{eta_ms, CampaignEvent, CampaignLog, CellStatus};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where a cell currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellState {
    /// An attempt is in flight.
    Running,
    /// A retry attempt is in flight after at least one failure.
    Retrying,
    /// Final outcome: produced data.
    Ok,
    /// Final outcome: failed after retries.
    Err,
    /// Final outcome: restored from a resume journal without running.
    Resumed,
}

impl CellState {
    /// The state's display name.
    pub fn name(self) -> &'static str {
        match self {
            CellState::Running => "running",
            CellState::Retrying => "retrying",
            CellState::Ok => "ok",
            CellState::Err => "err",
            CellState::Resumed => "resumed",
        }
    }

    /// Whether the cell has reached a final outcome.
    pub fn is_final(self) -> bool {
        matches!(self, CellState::Ok | CellState::Err | CellState::Resumed)
    }
}

/// Everything the log says about one cell.
#[derive(Clone, Debug)]
pub struct CellView {
    /// Cell id (`table4/perl`).
    pub cell: String,
    /// Current lifecycle state.
    pub state: CellState,
    /// `t_ms` of the first attempt (absent for resumed cells).
    pub started_ms: Option<u64>,
    /// `t_ms` of the final outcome (absent while running).
    pub finished_ms: Option<u64>,
    /// Attempts executed (0 for resumed cells; for a running cell, the
    /// attempt number currently in flight).
    pub attempts: u64,
    /// Wall milliseconds across attempts (final outcome only).
    pub wall_ms: u64,
    /// Simulated instructions (final outcome only).
    pub instructions: u64,
    /// Throughput at the final outcome.
    pub instr_per_sec: f64,
    /// Most recent failure reason (retry or final `err`).
    pub reason: Option<String>,
    /// `(cluster, chunk, weight)` for sampled-campaign shard cells (ids
    /// like `table1/perl#p2c37@0.0714`); `None` for exact cells.
    pub shard: Option<(u32, u64, f64)>,
}

impl CellView {
    fn new(cell: &str) -> CellView {
        CellView {
            cell: cell.to_string(),
            state: CellState::Running,
            started_ms: None,
            finished_ms: None,
            attempts: 0,
            wall_ms: 0,
            instructions: 0,
            instr_per_sec: 0.0,
            reason: None,
            shard: crate::sample::parse_shard(cell)
                .map(|(_, cluster, chunk, weight)| (cluster, chunk, weight)),
        }
    }

    /// The detail column: the failure reason when there is one, the
    /// shard's phase label for sampled shard cells otherwise — live
    /// views tell representative shards from exact cells at a glance.
    fn detail(&self) -> String {
        match (&self.reason, self.shard) {
            (Some(reason), _) => reason.clone(),
            (None, Some((cluster, chunk, weight))) => {
                format!("phase p{cluster} chunk {chunk} weight {weight:.4}")
            }
            (None, None) => String::new(),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = match obj([
            ("cell", Json::from(self.cell.as_str())),
            ("state", Json::from(self.state.name())),
            ("attempts", Json::from(self.attempts)),
            ("wall_ms", Json::from(self.wall_ms)),
            ("instructions", Json::from(self.instructions)),
            ("instr_per_sec", Json::from(self.instr_per_sec)),
        ]) {
            Json::Obj(fields) => fields,
            _ => unreachable!("obj() builds an object"),
        };
        if let Some(t) = self.started_ms {
            fields.insert("started_ms".to_string(), Json::from(t));
        }
        if let Some(t) = self.finished_ms {
            fields.insert("finished_ms".to_string(), Json::from(t));
        }
        if let Some(reason) = &self.reason {
            fields.insert("reason".to_string(), Json::from(reason.as_str()));
        }
        if let Some((cluster, chunk, weight)) = self.shard {
            fields.insert("cluster".to_string(), Json::from(cluster as u64));
            fields.insert("chunk".to_string(), Json::from(chunk));
            fields.insert("weight".to_string(), Json::from(weight));
        }
        Json::Obj(fields)
    }
}

/// A campaign's reconstructed status: the fold of its log.
#[derive(Clone, Debug, Default)]
pub struct CampaignStatus {
    /// Run id (empty when the log has no `campaign-started` yet).
    pub run: String,
    /// Tool name.
    pub tool: String,
    /// Scale name.
    pub scale: String,
    /// Correlation id from `campaign-started`.
    pub trace_id: String,
    /// The command that resumes the campaign, if the log carries one.
    pub resume_command: Option<String>,
    /// Worker threads.
    pub workers: u64,
    /// Cells scheduled.
    pub total: u64,
    /// Per-cell views, sorted by cell id.
    pub cells: Vec<CellView>,
    /// Linear ETA estimate in milliseconds, if any cell has finished.
    pub eta_ms: Option<u64>,
    /// How far into the run the log reaches, in ms since its
    /// `campaign-started`.
    pub last_t_ms: u64,
    /// Whether `campaign-finished` was seen.
    pub finished: bool,
    /// Why the campaign was cancelled, if it was.
    pub cancelled: Option<String>,
    /// Whether the log ended in a torn (skipped) trailing line.
    pub torn_tail: bool,
    /// The interval between the log's last two heartbeats, if it has
    /// at least two — the measured tick a stall detector should expect
    /// the next beat within.
    pub heartbeat_interval_ms: Option<u64>,
}

/// How many heartbeat intervals may pass without the log growing
/// before an unfinished campaign is declared stalled.
pub const STALL_MISSED_BEATS: u64 = 3;

impl CampaignStatus {
    /// Folds a parsed campaign log into the status of its latest run.
    pub fn from_log(log: &CampaignLog) -> CampaignStatus {
        let mut status = CampaignStatus::default();
        let mut cells: BTreeMap<String, CellView> = BTreeMap::new();
        let mut run_start_us = 0;
        let mut prev_beat_ms: Option<u64> = None;
        for entry in &log.entries {
            let t_ms = entry.t_us.saturating_sub(run_start_us) / 1000;
            status.last_t_ms = status.last_t_ms.max(t_ms);
            match &entry.event {
                CampaignEvent::CampaignStarted {
                    run,
                    tool,
                    scale,
                    cells: total,
                    workers,
                    trace_id,
                    resume_command,
                    ..
                } => {
                    status = CampaignStatus {
                        run: run.clone(),
                        tool: tool.clone(),
                        scale: scale.clone(),
                        trace_id: trace_id.clone(),
                        resume_command: resume_command.clone(),
                        workers: *workers,
                        total: *total,
                        ..CampaignStatus::default()
                    };
                    cells.clear();
                    run_start_us = entry.t_us;
                    prev_beat_ms = None;
                }
                CampaignEvent::AttemptStarted { cell, attempt } => {
                    let view = view(&mut cells, cell);
                    view.attempts = u64::from(*attempt);
                    if *attempt == 1 {
                        view.state = CellState::Running;
                        view.started_ms = Some(t_ms);
                    } else {
                        view.state = CellState::Retrying;
                    }
                }
                CampaignEvent::AttemptFailed { cell, reason, .. } => {
                    let view = view(&mut cells, cell);
                    view.state = CellState::Retrying;
                    view.reason = Some(first_line(reason));
                }
                CampaignEvent::CellFinished(o) => {
                    let view = view(&mut cells, &o.cell);
                    view.state = match o.status {
                        CellStatus::Ok => CellState::Ok,
                        CellStatus::Err => CellState::Err,
                        CellStatus::Resumed => CellState::Resumed,
                    };
                    view.finished_ms = Some(t_ms);
                    view.attempts = u64::from(o.attempts);
                    view.wall_ms = o.wall_ms;
                    view.instructions = o.instructions;
                    view.instr_per_sec =
                        per_sec(o.instructions, o.wall_ms.saturating_mul(1_000_000));
                    if let Some(reason) = &o.reason {
                        view.reason = Some(first_line(reason));
                    }
                }
                CampaignEvent::Heartbeat { .. } => {
                    if let Some(delta) = prev_beat_ms.map(|prev| t_ms.saturating_sub(prev)) {
                        if delta > 0 {
                            status.heartbeat_interval_ms = Some(delta);
                        }
                    }
                    prev_beat_ms = Some(t_ms);
                }
                CampaignEvent::CampaignFinished { cancelled, .. } => {
                    status.finished = true;
                    status.cancelled = cancelled.clone();
                }
            }
        }
        status.cells = cells.into_values().collect();
        status.torn_tail = log.torn_tail;
        if status.total == 0 {
            status.total = status.cells.len() as u64;
        }
        status.eta_ms = if status.finished {
            Some(0)
        } else {
            eta_ms(status.done(), status.total, status.last_t_ms)
        };
        status
    }

    /// Cells whose final outcome is a failure (cancelled ones included).
    pub fn failed(&self) -> u64 {
        self.count(CellState::Err)
    }

    fn count(&self, state: CellState) -> u64 {
        self.cells.iter().filter(|c| c.state == state).count() as u64
    }

    /// The heartbeat period a stall detector should expect: measured
    /// from the log's last two beats, else the configured default tick.
    pub fn expected_beat_ms(&self) -> u64 {
        self.heartbeat_interval_ms
            .unwrap_or(sim_telemetry::DEFAULT_PROGRESS_TICK_MS)
            .max(1)
    }

    /// Whether an unfinished campaign whose log has not grown for
    /// `idle_ms` wall milliseconds should be declared `STALLED`: more
    /// than [`STALL_MISSED_BEATS`] expected heartbeats have been
    /// missed. A finished campaign never stalls, however stale its
    /// file — there is no producer left to expect beats from.
    pub fn stalled(&self, idle_ms: u64) -> bool {
        !self.finished && idle_ms > STALL_MISSED_BEATS * self.expected_beat_ms()
    }

    /// Cells with a final outcome (including failed and resumed).
    pub fn done(&self) -> u64 {
        self.cells.iter().filter(|c| c.state.is_final()).count() as u64
    }

    /// Cells with an attempt currently in flight.
    pub fn active(&self) -> u64 {
        self.cells.iter().filter(|c| !c.state.is_final()).count() as u64
    }

    /// One-line summary: `run r1 (table4, quick): 5/8 done, ...`.
    pub fn headline(&self) -> String {
        let identity = if self.run.is_empty() {
            "campaign".to_string()
        } else if self.trace_id.is_empty() {
            format!("run {} ({}, {} scale)", self.run, self.tool, self.scale)
        } else {
            format!(
                "run {} [{}] ({}, {} scale)",
                self.run, self.trace_id, self.tool, self.scale
            )
        };
        let tail = if self.finished {
            format!("finished in {}", fmt_ms(self.last_t_ms))
        } else {
            let eta = match self.eta_ms {
                Some(ms) => format!("eta {}", fmt_ms(ms)),
                None => "eta —".to_string(),
            };
            format!("{} active, {eta}", self.active())
        };
        format!(
            "{identity}: {}/{} cells done, {} failed, {tail}{}",
            self.done(),
            self.total,
            self.failed(),
            if self.torn_tail { "  [torn tail]" } else { "" }
        )
    }

    /// The operator table `repro-top` prints.
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "cell".into(),
            "state".into(),
            "attempts".into(),
            "wall".into(),
            "instr/s".into(),
            "detail".into(),
        ]);
        for c in &self.cells {
            let (wall, rate) = if c.state.is_final() {
                (fmt_ms(c.wall_ms), fmt_rate(c.instr_per_sec))
            } else {
                ("…".to_string(), "…".to_string())
            };
            table.row(vec![
                c.cell.clone(),
                c.state.name().to_string(),
                c.attempts.to_string(),
                wall,
                rate,
                c.detail(),
            ]);
        }
        format!("{}\n\n{}", self.headline(), table.render())
    }

    /// Machine-readable status (`repro-top --json`).
    pub fn to_json(&self) -> Json {
        let mut fields = match obj([
            ("run", Json::from(self.run.as_str())),
            ("tool", Json::from(self.tool.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("workers", Json::from(self.workers)),
            ("total", Json::from(self.total)),
            ("done", Json::from(self.done())),
            ("failed", Json::from(self.failed())),
            ("active", Json::from(self.active())),
            ("finished", Json::from(self.finished)),
            ("torn_tail", Json::from(self.torn_tail)),
            ("last_t_ms", Json::from(self.last_t_ms)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellView::to_json).collect()),
            ),
        ]) {
            Json::Obj(fields) => fields,
            _ => unreachable!("obj() builds an object"),
        };
        if let Some(eta) = self.eta_ms {
            fields.insert("eta_ms".to_string(), Json::from(eta));
        }
        if !self.trace_id.is_empty() {
            fields.insert("trace_id".to_string(), Json::from(self.trace_id.as_str()));
        }
        if let Some(cmd) = &self.resume_command {
            fields.insert("resume_command".to_string(), Json::from(cmd.as_str()));
        }
        if let Some(reason) = &self.cancelled {
            fields.insert("cancelled".to_string(), Json::from(reason.as_str()));
        }
        Json::Obj(fields)
    }

    /// The post-mortem report (`telemetry-report --progress`): per-cell
    /// timeline, the slowest cells, and a retry histogram.
    pub fn render_timeline(&self, top_n: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.headline());
        out.push_str("\n\ntimeline (ms since campaign start):\n");
        let mut by_start: Vec<&CellView> = self.cells.iter().collect();
        by_start.sort_by_key(|c| (c.started_ms.unwrap_or(0), c.cell.clone()));
        let mut timeline = TextTable::new(vec![
            "cell".into(),
            "started".into(),
            "finished".into(),
            "state".into(),
            "wall".into(),
        ]);
        for c in &by_start {
            timeline.row(vec![
                c.cell.clone(),
                c.started_ms.map_or("—".to_string(), |t| t.to_string()),
                c.finished_ms.map_or("…".to_string(), |t| t.to_string()),
                c.state.name().to_string(),
                if c.state.is_final() {
                    fmt_ms(c.wall_ms)
                } else {
                    "…".to_string()
                },
            ]);
        }
        out.push_str(&timeline.render());

        let mut slowest: Vec<&CellView> =
            self.cells.iter().filter(|c| c.state.is_final()).collect();
        slowest.sort_by(|a, b| b.wall_ms.cmp(&a.wall_ms).then(a.cell.cmp(&b.cell)));
        slowest.truncate(top_n);
        if !slowest.is_empty() {
            out.push_str(&format!("\nslowest {} cell(s):\n", slowest.len()));
            for c in &slowest {
                out.push_str(&format!(
                    "  {:<28} {:>9}  {:>10}  {}\n",
                    c.cell,
                    fmt_ms(c.wall_ms),
                    fmt_rate(c.instr_per_sec),
                    c.state.name()
                ));
            }
        }

        let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
        for c in &self.cells {
            *histogram.entry(c.attempts).or_insert(0) += 1;
        }
        out.push_str("\nattempts histogram:\n");
        for (attempts, count) in &histogram {
            out.push_str(&format!("  {attempts} attempt(s): {count} cell(s)\n"));
        }
        out
    }
}

/// The view of `cell`, created on first sight.
fn view<'a>(cells: &'a mut BTreeMap<String, CellView>, cell: &str) -> &'a mut CellView {
    cells
        .entry(cell.to_string())
        .or_insert_with(|| CellView::new(cell))
}

/// The first line of a (possibly multi-line) failure reason.
fn first_line(reason: &str) -> String {
    reason.lines().next().unwrap_or(reason).to_string()
}

/// Milliseconds as a human duration (`450ms`, `12.3s`, `4m08s`).
pub fn fmt_ms(ms: u64) -> String {
    if ms < 1_000 {
        format!("{ms}ms")
    } else if ms < 120_000 {
        format!("{:.1}s", ms as f64 / 1_000.0)
    } else {
        format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1_000)
    }
}

/// Instructions/sec as a compact rate (`12.4M/s`).
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.1}M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1}k/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0}/s")
    }
}

/// The most recently modified campaign log (`*.jsonl`) under `dir`.
pub fn newest_log(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".jsonl"))
        })
        .max_by_key(|e| {
            e.metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH)
        })
        .map(|e| e.path())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::{CellOutcome, LogEntry};

    fn log(events: Vec<(u64, CampaignEvent)>) -> CampaignLog {
        CampaignLog {
            entries: events
                .into_iter()
                .map(|(t_ms, event)| LogEntry {
                    t_us: t_ms * 1000,
                    event,
                })
                .collect(),
            torn_tail: false,
        }
    }

    fn started(total: u64) -> CampaignEvent {
        CampaignEvent::CampaignStarted {
            run: "r1".into(),
            tool: "table4".into(),
            scale: "quick".into(),
            cells: total,
            workers: 2,
            trace_id: "tr-00000000deadbeef".into(),
            resume_command: Some("REPRO_RESUME=r1 table4".into()),
            unix_ms: 1_700_000_000_000,
        }
    }

    fn attempt(cell: &str, attempt: u32) -> CampaignEvent {
        CampaignEvent::AttemptStarted {
            cell: cell.into(),
            attempt,
        }
    }

    fn finished(cell: &str, status: CellStatus, wall_ms: u64) -> CampaignEvent {
        CampaignEvent::CellFinished(CellOutcome {
            cell: cell.into(),
            status,
            attempts: u32::from(status != CellStatus::Resumed),
            deadline_kills: 0,
            wall_ms,
            instructions: 1_000,
            reason: (status == CellStatus::Err).then(|| "boom\nbacktrace".to_string()),
            data: (status != CellStatus::Err).then(BTreeMap::new),
        })
    }

    fn end() -> CampaignEvent {
        CampaignEvent::CampaignFinished {
            ok: 2,
            failed: 0,
            cancelled: None,
        }
    }

    fn beat() -> CampaignEvent {
        CampaignEvent::Heartbeat { done: 0, active: 1 }
    }

    #[test]
    fn fold_reconstructs_live_state_and_counts() {
        let status = CampaignStatus::from_log(&log(vec![
            (0, started(3)),
            (1, attempt("t/a", 1)),
            (2, attempt("t/b", 1)),
            (41, finished("t/a", CellStatus::Ok, 40)),
            (
                45,
                CampaignEvent::AttemptFailed {
                    cell: "t/b".into(),
                    attempt: 1,
                    reason: "panicked".into(),
                    killed: false,
                },
            ),
            (50, attempt("t/b", 2)),
            (60, beat()),
        ]));
        assert_eq!(status.run, "r1");
        assert_eq!(status.total, 3);
        assert_eq!(status.done(), 1);
        assert_eq!(status.active(), 1);
        assert_eq!(status.failed(), 0);
        assert_eq!(status.last_t_ms, 60);
        // 1 of 3 done in 60ms: 120ms to go.
        assert_eq!(status.eta_ms, Some(120));
        assert!(!status.finished);
        let b = status.cells.iter().find(|c| c.cell == "t/b").unwrap();
        assert_eq!(b.state, CellState::Retrying);
        assert_eq!(b.attempts, 2);
        assert_eq!(b.reason.as_deref(), Some("panicked"));
        // Only started cells appear; the third is still pending.
        assert_eq!(status.cells.len(), 2);
    }

    #[test]
    fn fold_reaches_the_finished_state() {
        let status = CampaignStatus::from_log(&log(vec![
            (0, started(2)),
            (1, attempt("t/a", 1)),
            (11, finished("t/a", CellStatus::Ok, 10)),
            (12, finished("t/b", CellStatus::Resumed, 0)),
            (13, end()),
        ]));
        assert!(status.finished);
        assert_eq!(status.done(), 2);
        assert_eq!(status.active(), 0);
        assert_eq!(status.eta_ms, Some(0));
        let resumed = status.cells.iter().find(|c| c.cell == "t/b").unwrap();
        assert_eq!(resumed.state, CellState::Resumed);
        assert_eq!(resumed.started_ms, None);
        let json = status.to_json();
        assert_eq!(json.get("done").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("finished").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("cells").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            json.get("resume_command").unwrap().as_str(),
            Some("REPRO_RESUME=r1 table4")
        );
    }

    #[test]
    fn a_resumed_run_restarts_the_fold_from_its_own_start() {
        // Run 1 fails t/b; run 2 (same log, clock continued) restores t/a
        // and re-runs t/b. The status is run 2's, timed from its start.
        let status = CampaignStatus::from_log(&log(vec![
            (0, started(2)),
            (1, attempt("t/a", 1)),
            (2, attempt("t/b", 1)),
            (5, finished("t/a", CellStatus::Ok, 4)),
            (9, finished("t/b", CellStatus::Err, 7)),
            (10, end()),
            (1000, started(2)),
            (1001, finished("t/a", CellStatus::Resumed, 0)),
            (1002, attempt("t/b", 1)),
            (1030, finished("t/b", CellStatus::Ok, 28)),
            (1031, end()),
        ]));
        assert!(status.finished);
        assert_eq!((status.done(), status.total, status.failed()), (2, 2, 0));
        assert_eq!(status.last_t_ms, 31);
        let b = status.cells.iter().find(|c| c.cell == "t/b").unwrap();
        assert_eq!(
            (b.state, b.started_ms, b.reason.clone()),
            (CellState::Ok, Some(2), None)
        );
    }

    #[test]
    fn failed_cells_are_counted_with_their_reason() {
        let status = CampaignStatus::from_log(&log(vec![
            (0, started(1)),
            (1, attempt("t/x", 1)),
            (31, finished("t/x", CellStatus::Err, 30)),
        ]));
        assert_eq!(status.failed(), 1);
        assert_eq!(status.done(), 1);
        let x = &status.cells[0];
        assert_eq!(x.state, CellState::Err);
        assert_eq!(x.reason.as_deref(), Some("boom"), "first line only");
        let table = status.render_table();
        assert!(table.contains("boom"), "{table}");
        let timeline = status.render_timeline(5);
        assert!(timeline.contains("attempts histogram"), "{timeline}");
    }

    #[test]
    fn stall_detection_uses_measured_heartbeat_interval() {
        // Two beats 250ms apart: the measured interval wins over the
        // 1000ms default, so 3 missed beats is 750ms, not 3s.
        let live =
            CampaignStatus::from_log(&log(vec![(0, started(2)), (100, beat()), (350, beat())]));
        assert_eq!(live.heartbeat_interval_ms, Some(250));
        assert_eq!(live.expected_beat_ms(), 250);
        assert!(!live.stalled(700));
        assert!(live.stalled(751));

        // No measurable interval yet: fall back to the default tick.
        let fresh = CampaignStatus::from_log(&log(vec![(0, started(2)), (100, beat())]));
        assert_eq!(fresh.heartbeat_interval_ms, None);
        assert_eq!(
            fresh.expected_beat_ms(),
            sim_telemetry::DEFAULT_PROGRESS_TICK_MS
        );
        assert!(!fresh.stalled(3_000));
        assert!(fresh.stalled(3_001));

        // A finished campaign never stalls: no producer is expected.
        let done = CampaignStatus::from_log(&log(vec![
            (0, started(1)),
            (1, attempt("t/a", 1)),
            (11, finished("t/a", CellStatus::Ok, 10)),
            (12, end()),
        ]));
        assert!(!done.stalled(u64::MAX / (STALL_MISSED_BEATS * 2)));
    }

    #[test]
    fn shard_cells_are_labeled_with_cluster_and_weight() {
        let status = CampaignStatus::from_log(&log(vec![
            (0, started(2)),
            (1, attempt("table1/perl#p2c37@0.3061", 1)),
            (2, attempt("table1/gcc", 1)),
            (11, finished("table1/perl#p2c37@0.3061", CellStatus::Ok, 10)),
        ]));
        let shard = status
            .cells
            .iter()
            .find(|c| c.cell.starts_with("table1/perl"))
            .unwrap();
        assert_eq!(shard.shard, Some((2, 37, 0.3061)));
        let exact = status
            .cells
            .iter()
            .find(|c| c.cell == "table1/gcc")
            .unwrap();
        assert_eq!(exact.shard, None);
        let table = status.render_table();
        assert!(table.contains("phase p2 chunk 37 weight 0.3061"), "{table}");
        let json = status.to_json();
        let cells = json.get("cells").unwrap().as_arr().unwrap();
        let shard_json = cells
            .iter()
            .find(|c| {
                c.get("cell")
                    .and_then(Json::as_str)
                    .is_some_and(|s| s.contains("#p"))
            })
            .unwrap();
        assert_eq!(shard_json.get("cluster").unwrap().as_u64(), Some(2));
        assert_eq!(shard_json.get("chunk").unwrap().as_u64(), Some(37));
        assert_eq!(shard_json.get("weight").unwrap().as_f64(), Some(0.3061));
    }

    #[test]
    fn newest_log_picks_the_latest() {
        let dir = std::env::temp_dir().join(format!("repro-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("old.jsonl"), "").unwrap();
        std::fs::write(dir.join("ignored.txt"), "").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(dir.join("new.jsonl"), "").unwrap();
        let newest = newest_log(&dir).unwrap();
        assert!(newest.ends_with("new.jsonl"), "{newest:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durations_and_rates_format_compactly() {
        assert_eq!(fmt_ms(450), "450ms");
        assert_eq!(fmt_ms(12_340), "12.3s");
        assert_eq!(fmt_ms(248_000), "4m08s");
        assert_eq!(fmt_rate(12_400_000.0), "12.4M/s");
        assert_eq!(fmt_rate(9_500.0), "9.5k/s");
        assert_eq!(fmt_rate(42.0), "42/s");
    }
}
