//! The campaign log: one typed, append-only event vocabulary.
//!
//! Every campaign writes exactly one JSONL file, `<journal-dir>/<run-id>.jsonl`,
//! through the experiments crate's `jobs::Journal`, whose only caller is
//! the pool scheduler. Each line is one [`LogEntry`]: a
//! [`CampaignEvent`] stamped with `t_us`, microseconds on the
//! campaign's monotonic clock (a resumed campaign continues the clock
//! from the log's last stamp, so `t_us` never decreases within a file).
//!
//! | event | fields |
//! |-------|--------|
//! | `campaign-started` | `format`, `run`, `tool`, `scale`, `cells`, `workers`, `trace_id`, `resume_command?`, `unix_ms` |
//! | `attempt-started` | `cell`, `attempt` |
//! | `attempt-failed` | `cell`, `attempt`, `reason`, `killed` (deadline kill) |
//! | `cell-finished` | `cell`, `status` (`ok`/`err`/`resumed`), `attempts`, `deadline_kills`, `wall_ms`, `instructions`, `reason?`, `data?` |
//! | `heartbeat` | `done`, `active` |
//! | `campaign-finished` | `ok`, `failed`, `cancelled?` |
//!
//! Every other campaign artifact is a fold of this log: the resume map
//! ([`CampaignLog::last_outcomes`]), the live status (`repro-top`,
//! `repro-serve`'s `/status`), the Chrome trace export
//! ([`ChromeTrace::from_log`](crate::traceviz::ChromeTrace::from_log)),
//! and the manifest `cells` array ([`CampaignLog::segment_outcomes`]).
//! They agree by construction.
//!
//! One parser ([`parse_events`]) serves all of them and is strict: the
//! first line must be a `campaign-started` event of the current
//! [`LOG_FORMAT`], and any newline-terminated line that does not parse
//! is an error naming the line. Only an unterminated final line — a
//! crash or a concurrent reader catching an append mid-write — is a
//! torn tail; it is skipped, and the cell it described re-runs.

use crate::json::{obj, parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// The log format version carried by every `campaign-started` event.
/// Format 1 was the rewrite-on-every-outcome journal that preceded the
/// append-only log (header `{"journal":1,...}`); it cannot be resumed.
pub const LOG_FORMAT: u64 = 2;

/// How a cell's final outcome came about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Produced data this run.
    Ok,
    /// Failed after retries, or was cancelled before it resolved.
    Err,
    /// Restored from an earlier log without running.
    Resumed,
}

impl CellStatus {
    /// The status as written in the log.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Err => "err",
            CellStatus::Resumed => "resumed",
        }
    }

    fn parse(text: &str) -> Result<CellStatus, String> {
        match text {
            "ok" => Ok(CellStatus::Ok),
            "err" => Ok(CellStatus::Err),
            "resumed" => Ok(CellStatus::Resumed),
            other => Err(format!("unrecognized cell status {other:?}")),
        }
    }
}

/// One cell's final outcome, as logged.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Cell id (`table4/perl`).
    pub cell: String,
    /// How the outcome came about.
    pub status: CellStatus,
    /// Attempts executed this run (0 when resumed).
    pub attempts: u32,
    /// Attempts killed by the deadline.
    pub deadline_kills: u32,
    /// Wall-clock milliseconds across this run's attempts.
    pub wall_ms: u64,
    /// Simulated instructions processed (for a resumed cell: the count
    /// its restored outcome carried).
    pub instructions: u64,
    /// The failure reason (`err` only).
    pub reason: Option<String>,
    /// The cell's named results (`ok` and `resumed` only).
    pub data: Option<BTreeMap<String, f64>>,
}

impl CellOutcome {
    /// Whether the cell has data (`ok` or `resumed`).
    pub fn ok(&self) -> bool {
        self.status != CellStatus::Err
    }
}

/// One campaign lifecycle event.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignEvent {
    /// A campaign (or a resume of one) began.
    CampaignStarted {
        /// Run id (the log's file stem).
        run: String,
        /// Tool name: the `repro` argument (`all`, `table4`, …).
        tool: String,
        /// Scale name (`quick`, `standard`, `full`).
        scale: String,
        /// Cells scheduled, restored ones included.
        cells: u64,
        /// Worker threads.
        workers: u64,
        /// The campaign's correlation id (`tr-…`), kept across resumes.
        trace_id: String,
        /// The copy-pasteable command that resumes this log.
        resume_command: Option<String>,
        /// Wall-clock milliseconds since the unix epoch.
        unix_ms: u64,
    },
    /// An attempt was spawned (attempt 2 and up are retries).
    AttemptStarted {
        /// Cell id.
        cell: String,
        /// Attempt number, from 1.
        attempt: u32,
    },
    /// An attempt failed, or the deadline detached it.
    AttemptFailed {
        /// Cell id.
        cell: String,
        /// The attempt that failed.
        attempt: u32,
        /// The failure, first line only.
        reason: String,
        /// Whether the deadline killed it.
        killed: bool,
    },
    /// A cell reached its final outcome.
    CellFinished(CellOutcome),
    /// The scheduler's periodic liveness beat.
    Heartbeat {
        /// Cells with a final outcome.
        done: u64,
        /// Cells with an attempt in flight.
        active: u64,
    },
    /// The campaign resolved or cancelled every cell.
    CampaignFinished {
        /// Cells with data.
        ok: u64,
        /// Cells without.
        failed: u64,
        /// Why the campaign was cancelled, if it was.
        cancelled: Option<String>,
    },
}

impl CampaignEvent {
    /// The event's tag, as written in the `event` field.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignEvent::CampaignStarted { .. } => "campaign-started",
            CampaignEvent::AttemptStarted { .. } => "attempt-started",
            CampaignEvent::AttemptFailed { .. } => "attempt-failed",
            CampaignEvent::CellFinished(_) => "cell-finished",
            CampaignEvent::Heartbeat { .. } => "heartbeat",
            CampaignEvent::CampaignFinished { .. } => "campaign-finished",
        }
    }
}

/// One log line: an event and its stamp.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Microseconds on the campaign's monotonic clock.
    pub t_us: u64,
    /// What happened.
    pub event: CampaignEvent,
}

impl LogEntry {
    /// The entry as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("event", Json::from(self.event.name())),
            ("t_us", Json::from(self.t_us)),
        ];
        match &self.event {
            CampaignEvent::CampaignStarted {
                run,
                tool,
                scale,
                cells,
                workers,
                trace_id,
                resume_command,
                unix_ms,
            } => {
                fields.extend([
                    ("format", Json::from(LOG_FORMAT)),
                    ("run", Json::from(run.as_str())),
                    ("tool", Json::from(tool.as_str())),
                    ("scale", Json::from(scale.as_str())),
                    ("cells", Json::from(*cells)),
                    ("workers", Json::from(*workers)),
                    ("trace_id", Json::from(trace_id.as_str())),
                    ("unix_ms", Json::from(*unix_ms)),
                ]);
                if let Some(cmd) = resume_command {
                    fields.push(("resume_command", Json::from(cmd.as_str())));
                }
            }
            CampaignEvent::AttemptStarted { cell, attempt } => fields.extend([
                ("cell", Json::from(cell.as_str())),
                ("attempt", Json::from(u64::from(*attempt))),
            ]),
            CampaignEvent::AttemptFailed {
                cell,
                attempt,
                reason,
                killed,
            } => fields.extend([
                ("cell", Json::from(cell.as_str())),
                ("attempt", Json::from(u64::from(*attempt))),
                ("reason", Json::from(reason.as_str())),
                ("killed", Json::from(*killed)),
            ]),
            CampaignEvent::CellFinished(o) => {
                fields.extend([
                    ("cell", Json::from(o.cell.as_str())),
                    ("status", Json::from(o.status.name())),
                    ("attempts", Json::from(u64::from(o.attempts))),
                    ("deadline_kills", Json::from(u64::from(o.deadline_kills))),
                    ("wall_ms", Json::from(o.wall_ms)),
                    ("instructions", Json::from(o.instructions)),
                ]);
                if let Some(reason) = &o.reason {
                    fields.push(("reason", Json::from(reason.as_str())));
                }
                if let Some(data) = &o.data {
                    let data = data.iter().map(|(k, &v)| (k.clone(), Json::from(v)));
                    fields.push(("data", Json::Obj(data.collect())));
                }
            }
            CampaignEvent::Heartbeat { done, active } => {
                fields.extend([("done", Json::from(*done)), ("active", Json::from(*active))])
            }
            CampaignEvent::CampaignFinished {
                ok,
                failed,
                cancelled,
            } => {
                fields.extend([("ok", Json::from(*ok)), ("failed", Json::from(*failed))]);
                if let Some(reason) = cancelled {
                    fields.push(("cancelled", Json::from(reason.as_str())));
                }
            }
        }
        obj(fields)
    }

    /// Parses one entry back out of its JSON object form.
    pub fn from_json(v: &Json) -> Result<LogEntry, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("missing string {k:?}"))
        };
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer {k:?}"))
        };
        let u32_of = |k: &str| u(k).map(|n| n.min(u64::from(u32::MAX)) as u32);
        let opt = |k: &str| v.get(k).and_then(Json::as_str).map(String::from);
        let event = match v.get("event").and_then(Json::as_str) {
            Some("campaign-started") => CampaignEvent::CampaignStarted {
                run: s("run")?,
                tool: s("tool")?,
                scale: s("scale")?,
                cells: u("cells")?,
                workers: u("workers")?,
                trace_id: s("trace_id")?,
                resume_command: opt("resume_command"),
                unix_ms: u("unix_ms")?,
            },
            Some("attempt-started") => CampaignEvent::AttemptStarted {
                cell: s("cell")?,
                attempt: u32_of("attempt")?,
            },
            Some("attempt-failed") => CampaignEvent::AttemptFailed {
                cell: s("cell")?,
                attempt: u32_of("attempt")?,
                reason: s("reason")?,
                killed: v
                    .get("killed")
                    .and_then(Json::as_bool)
                    .ok_or("missing boolean \"killed\"")?,
            },
            Some("cell-finished") => {
                let cell = s("cell")?;
                let status = CellStatus::parse(&s("status")?)?;
                let data = match v.get("data") {
                    Some(Json::Obj(fields)) => Some(
                        fields
                            .iter()
                            .map(|(k, n)| {
                                n.as_f64()
                                    .map(|n| (k.clone(), n))
                                    .ok_or_else(|| format!("data key {k:?} is not a number"))
                            })
                            .collect::<Result<BTreeMap<_, _>, String>>()?,
                    ),
                    Some(_) => return Err("\"data\" must be an object".to_string()),
                    None => None,
                };
                if (status != CellStatus::Err) != data.is_some() {
                    return Err(format!(
                        "{} outcome for {cell:?} must carry data iff it is not an error",
                        status.name()
                    ));
                }
                CampaignEvent::CellFinished(CellOutcome {
                    cell,
                    status,
                    attempts: u32_of("attempts")?,
                    deadline_kills: u32_of("deadline_kills")?,
                    wall_ms: u("wall_ms")?,
                    instructions: u("instructions")?,
                    reason: opt("reason"),
                    data,
                })
            }
            Some("heartbeat") => CampaignEvent::Heartbeat {
                done: u("done")?,
                active: u("active")?,
            },
            Some("campaign-finished") => CampaignEvent::CampaignFinished {
                ok: u("ok")?,
                failed: u("failed")?,
                cancelled: opt("cancelled"),
            },
            Some(other) => return Err(format!("unrecognized event {other:?}")),
            None => return Err("line has no \"event\" field".to_string()),
        };
        Ok(LogEntry {
            t_us: u("t_us")?,
            event,
        })
    }
}

/// A parsed campaign log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignLog {
    /// Entries in file order.
    pub entries: Vec<LogEntry>,
    /// Whether an unterminated final line was skipped.
    pub torn_tail: bool,
}

impl CampaignLog {
    /// The first `campaign-started` event: the campaign's identity.
    pub fn header(&self) -> Option<&CampaignEvent> {
        self.entries.first().map(|e| &e.event)
    }

    /// The entries since the last `campaign-started` — what the most
    /// recent invocation (a fresh run or the latest resume) wrote.
    pub fn last_segment(&self) -> &[LogEntry] {
        let start = self
            .entries
            .iter()
            .rposition(|e| matches!(e.event, CampaignEvent::CampaignStarted { .. }))
            .unwrap_or(0);
        &self.entries[start..]
    }

    /// The resume map: the last logged outcome of every cell, across
    /// every run of the campaign.
    pub fn last_outcomes(&self) -> BTreeMap<String, CellOutcome> {
        outcomes(&self.entries)
    }

    /// The last outcome of every cell the most recent invocation
    /// resolved — the manifest `cells` view.
    pub fn segment_outcomes(&self) -> BTreeMap<String, CellOutcome> {
        outcomes(self.last_segment())
    }
}

fn outcomes(entries: &[LogEntry]) -> BTreeMap<String, CellOutcome> {
    let mut map = BTreeMap::new();
    for entry in entries {
        if let CampaignEvent::CellFinished(outcome) = &entry.event {
            map.insert(outcome.cell.clone(), outcome.clone());
        }
    }
    map
}

/// Parses a campaign log's text; `source` names it in errors.
///
/// Only an unterminated final line is a torn tail: it is skipped with
/// `torn_tail: true`. Every newline-terminated line must parse — a
/// terminated but unparseable last line is an error like any other —
/// and the first complete line must be a `campaign-started` event of
/// format [`LOG_FORMAT`]. Errors name `source` and the line, and end
/// with the "start a fresh run" guidance. An empty text parses to an
/// empty log (a campaign caught before its first line).
pub fn parse_events(text: &str, source: &str) -> Result<CampaignLog, String> {
    let mut log = CampaignLog::default();
    let mut rest = text;
    let mut line_no = 0usize;
    while !rest.is_empty() {
        line_no += 1;
        let Some(end) = rest.find('\n') else {
            log.torn_tail = true;
            break;
        };
        let line = &rest[..end];
        rest = &rest[end + 1..];
        let fail = |what: String| format!("{source}:{line_no}: {what}; start a fresh run");
        let value = parse(line).map_err(|e| fail(format!("corrupt campaign log line: {e}")))?;
        if line_no == 1 {
            if let Some(v) = value.get("journal").and_then(Json::as_u64) {
                return Err(fail(format!(
                    "a format-{v} journal, written before the append-only campaign log, \
                     cannot be read"
                )));
            }
            match value.get("format").and_then(Json::as_u64) {
                Some(LOG_FORMAT) => {}
                Some(v) => {
                    return Err(fail(format!(
                        "campaign log format {v} is not supported (expected {LOG_FORMAT})"
                    )))
                }
                None => {
                    return Err(fail(
                        "not a campaign log: the first line is not a campaign-started event"
                            .to_string(),
                    ))
                }
            }
        }
        let entry = LogEntry::from_json(&value).map_err(fail)?;
        log.entries.push(entry);
    }
    Ok(log)
}

/// Reads and parses a campaign log file. See [`parse_events`]; a torn
/// tail may end mid-character, so only the newline-terminated prefix
/// must be UTF-8.
pub fn read_events(path: &Path) -> Result<CampaignLog, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let complete = complete_len(&bytes);
    let text = std::str::from_utf8(&bytes[..complete])
        .map_err(|e| format!("{}: not UTF-8 ({e}); start a fresh run", path.display()))?;
    let mut log = parse_events(text, &path.display().to_string())?;
    log.torn_tail = complete < bytes.len();
    Ok(log)
}

/// The length of `bytes` up to and including its last newline: the
/// complete lines of a log, without any torn tail.
pub fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// Estimated milliseconds to completion, from completed work so far.
///
/// `None` until the first cell finishes (no rate to extrapolate), and
/// `Some(0)` once everything is done. The estimate is the classic
/// linear one — elapsed time scaled by remaining/done — which is exact
/// for uniform cells and conservative early in a heterogeneous
/// campaign.
pub fn eta_ms(done: u64, total: u64, elapsed_ms: u64) -> Option<u64> {
    if done == 0 {
        return None;
    }
    if done >= total {
        return Some(0);
    }
    let remaining = total - done;
    // u128 keeps the multiply exact for any realistic campaign length.
    Some((elapsed_ms as u128 * remaining as u128 / done as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t_us: u64, event: CampaignEvent) -> LogEntry {
        LogEntry { t_us, event }
    }

    fn outcome(cell: &str, status: CellStatus, attempts: u32) -> CellOutcome {
        CellOutcome {
            cell: cell.into(),
            status,
            attempts,
            deadline_kills: 0,
            wall_ms: 80,
            instructions: 100_000,
            reason: (status == CellStatus::Err).then(|| "panicked: injected".to_string()),
            // Values must round-trip exactly: a restored cell renders
            // the same table slot as the run that computed it.
            data: (status != CellStatus::Err).then(|| {
                BTreeMap::from([
                    ("rate".to_string(), 0.7619047619047619),
                    ("instructions".to_string(), 1_234_567.0),
                    ("zero".to_string(), 0.0),
                ])
            }),
        }
    }

    fn started() -> CampaignEvent {
        CampaignEvent::CampaignStarted {
            run: "r1".into(),
            tool: "table4".into(),
            scale: "quick".into(),
            cells: 2,
            workers: 4,
            trace_id: "tr-9f2ab04c71d3e586".into(),
            resume_command: Some("REPRO_SCALE=quick REPRO_RESUME=r1 table4".into()),
            unix_ms: 1_700_000_000_000,
        }
    }

    fn sample_entries() -> Vec<LogEntry> {
        vec![
            entry(0, started()),
            entry(
                5,
                CampaignEvent::AttemptStarted {
                    cell: "table4/gcc".into(),
                    attempt: 1,
                },
            ),
            entry(
                40,
                CampaignEvent::AttemptFailed {
                    cell: "table4/gcc".into(),
                    attempt: 1,
                    reason: "panicked: injected".into(),
                    killed: false,
                },
            ),
            entry(50, CampaignEvent::Heartbeat { done: 0, active: 1 }),
            entry(
                81,
                CampaignEvent::CellFinished(outcome("table4/gcc", CellStatus::Ok, 2)),
            ),
            entry(
                82,
                CampaignEvent::CellFinished(outcome("table4/perl", CellStatus::Err, 3)),
            ),
            entry(
                95,
                CampaignEvent::CampaignFinished {
                    ok: 1,
                    failed: 1,
                    cancelled: Some("operator DELETE".into()),
                },
            ),
        ]
    }

    fn text_of(entries: &[LogEntry]) -> String {
        entries
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect()
    }

    #[test]
    fn entries_round_trip_through_json_lines() {
        let parsed = parse_events(&text_of(&sample_entries()), "t.jsonl").unwrap();
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.entries, sample_entries());
        assert!(matches!(
            parsed.header(),
            Some(CampaignEvent::CampaignStarted { .. })
        ));
    }

    #[test]
    fn only_an_unterminated_final_line_is_a_torn_tail() {
        let mut text = text_of(&sample_entries());
        text.push_str("{\"event\":\"heartbeat\",\"done\":1,");
        let parsed = parse_events(&text, "t.jsonl").unwrap();
        assert!(parsed.torn_tail);
        assert_eq!(parsed.entries, sample_entries());

        // The same fragment, newline-terminated, is corruption.
        text.push('\n');
        let err = parse_events(&text, "t.jsonl").unwrap_err();
        assert!(err.starts_with("t.jsonl:8:"), "{err}");
        assert!(err.contains("start a fresh run"), "{err}");
    }

    #[test]
    fn a_tail_torn_mid_character_is_still_just_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("sim-log-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let mut bytes = text_of(&sample_entries()).into_bytes();
        let fragment = "{\"reason\":\"dash \u{2014}".as_bytes();
        bytes.extend_from_slice(&fragment[..fragment.len() - 1]);
        std::fs::write(&path, &bytes).unwrap();
        let log = read_events(&path).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.entries, sample_entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_and_unknown_events_are_loud() {
        let good = text_of(&sample_entries()[..1]);
        let err = parse_events(&format!("{good}{{broken\n{good}"), "x.jsonl").unwrap_err();
        assert!(err.starts_with("x.jsonl:2:"), "{err}");
        let err = parse_events(
            &format!("{good}{{\"event\":\"time-travel\",\"t_us\":1}}\n"),
            "x",
        )
        .unwrap_err();
        assert!(err.contains("time-travel"), "{err}");
    }

    #[test]
    fn format_one_journals_and_foreign_files_are_refused() {
        let v1 =
            "{\"journal\":1,\"run\":\"old\",\"tool\":\"table4\",\"scale\":\"quick\",\"cells\":2}\n";
        let err = parse_events(v1, "old.jsonl").unwrap_err();
        assert!(err.starts_with("old.jsonl:1:"), "{err}");
        assert!(err.contains("format-1 journal"), "{err}");

        let err = parse_events("{\"event\":\"heartbeat\",\"t_us\":1}\n", "f").unwrap_err();
        assert!(err.contains("not a campaign log"), "{err}");

        // An empty file is a campaign caught before its first line.
        assert_eq!(parse_events("", "e").unwrap(), CampaignLog::default());
    }

    #[test]
    fn outcome_data_is_required_exactly_when_the_cell_succeeded() {
        let mut bad = outcome("a/b", CellStatus::Ok, 1);
        bad.data = None;
        let text = text_of(&[
            entry(0, started()),
            entry(1, CampaignEvent::CellFinished(bad)),
        ]);
        let err = parse_events(&text, "d").unwrap_err();
        assert!(err.starts_with("d:2:"), "{err}");
    }

    #[test]
    fn folds_pick_the_last_outcome_overall_and_per_segment() {
        let mut entries = sample_entries();
        entries.push(entry(100, started()));
        entries.push(entry(
            101,
            CampaignEvent::CellFinished(outcome("table4/gcc", CellStatus::Resumed, 0)),
        ));
        entries.push(entry(
            140,
            CampaignEvent::CellFinished(outcome("table4/perl", CellStatus::Ok, 1)),
        ));
        let log = parse_events(&text_of(&entries), "r").unwrap();
        let last = log.last_outcomes();
        assert_eq!(last["table4/gcc"].status, CellStatus::Resumed);
        assert_eq!(last["table4/perl"].status, CellStatus::Ok);
        assert_eq!(log.last_segment().len(), 3);
        assert_eq!(log.segment_outcomes().len(), 2);
        assert!(last.values().all(CellOutcome::ok));
    }

    #[test]
    fn eta_math_covers_the_edges() {
        // No completed work: no estimate.
        assert_eq!(eta_ms(0, 77, 10_000), None);
        // Half done in 10s: 10s to go.
        assert_eq!(eta_ms(5, 10, 10_000), Some(10_000));
        // 1 of 4 done in 3s: 9s to go.
        assert_eq!(eta_ms(1, 4, 3_000), Some(9_000));
        // Done (or over-done): zero.
        assert_eq!(eta_ms(10, 10, 5_000), Some(0));
        assert_eq!(eta_ms(12, 10, 5_000), Some(0));
        // Huge campaigns don't overflow the intermediate multiply.
        assert_eq!(eta_ms(2, u64::MAX / 2 + 1, 2), Some(u64::MAX / 2 - 1));
    }
}
