//! Chrome trace-event export (`chrome://tracing` / Perfetto).
//!
//! `REPRO_TRACE_EXPORT=chrome` turns a campaign's log and its
//! hierarchical [`SpanRegistry`] phases into one trace-event JSON
//! document at `results/traceviz/<run-id>.trace.json`, built once when
//! the campaign ends. Load it in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing` to see per-worker lanes of cell attempts, retry
//! markers, and the phase tree on its own lane — the systems-layer
//! equivalent of the per-branch timelines the predictor analysis
//! already has.
//!
//! The document uses the object form of the trace-event format:
//! `{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}`
//! with complete (`ph:"X"`) events for cell attempts and span phases,
//! instant (`ph:"i"`) events for retries and deadline kills, and
//! metadata (`ph:"M"`) events naming the lanes. [`ChromeTrace::from_log`]
//! is a fold of the campaign log ([`crate::progress`]): each
//! `attempt-started` opens a slice on the smallest free worker lane and
//! the attempt's failure, deadline kill, or `ok` outcome closes it. The
//! log's `t_us` stamps come from one monotonic clock, so `ts` is
//! non-decreasing per lane by construction — the invariant [`validate`]
//! (and the `trace-viz verify` subcommand built on it) checks.
//!
//! Span phases carry aggregate totals, not timestamped intervals, so
//! the exporter synthesizes their timeline: each parent's window is its
//! total time and children are laid out sequentially inside it. The
//! result is exact in durations and containment, schematic in offsets —
//! the right trade for a profile lane.

use crate::fsio::atomic_write_str;
use crate::json::{obj, Json};
use crate::progress::{CampaignEvent, CampaignLog, CellStatus};
use crate::span::SpanRegistry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The `pid` all campaign events share (one process per trace; merges
/// remap it per source file).
const TRACE_PID: u64 = 1;
/// The scheduler/control lane: campaign markers, retries, kills.
const CONTROL_TID: u64 = 0;
/// The synthesized span-phase lane.
const SPANS_TID: u64 = 1000;

/// One trace event in memory (a subset of the trace-event format).
#[derive(Clone, Debug)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    ph: &'static str,
    ts_us: u64,
    dur_us: Option<u64>,
    tid: u64,
    args: Vec<(&'static str, Json)>,
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = BTreeMap::from([
            ("name".to_string(), Json::from(self.name.as_str())),
            ("cat".to_string(), Json::from(self.cat)),
            ("ph".to_string(), Json::from(self.ph)),
            ("ts".to_string(), Json::from(self.ts_us)),
            ("pid".to_string(), Json::from(TRACE_PID)),
            ("tid".to_string(), Json::from(self.tid)),
        ]);
        if let Some(dur) = self.dur_us {
            fields.insert("dur".to_string(), Json::from(dur));
        }
        if self.ph == "i" {
            // Thread-scoped instants render as small arrows on the lane.
            fields.insert("s".to_string(), Json::from("t"));
        }
        if !self.args.is_empty() {
            fields.insert("args".to_string(), obj(self.args.iter().cloned()));
        }
        Json::Obj(fields)
    }
}

/// An attempt slice opened by `attempt-started`, awaiting its close.
struct OpenSlice {
    lane: u64,
    started_us: u64,
    attempt: u32,
}

/// A Chrome trace document under construction: the folded campaign
/// log, optionally plus the span phases.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
    run_id: String,
    trace_id: String,
}

impl ChromeTrace {
    /// Folds a campaign log into attempt slices on worker lanes and
    /// retry/kill/cancel instants on the scheduler lane. Every run of a
    /// resumed campaign is included; an attempt a crashed run left open
    /// is closed as `killed` where the next run starts (or where the
    /// log ends).
    pub fn from_log(log: &CampaignLog) -> ChromeTrace {
        let mut trace = ChromeTrace::default();
        if let Some(CampaignEvent::CampaignStarted { run, trace_id, .. }) = log.header() {
            trace.run_id = run.clone();
            trace.trace_id = trace_id.clone();
        }
        // Worker-lane occupancy; index i is lane tid `i + 1`.
        let mut lanes: Vec<bool> = Vec::new();
        let mut open: BTreeMap<String, OpenSlice> = BTreeMap::new();
        let mut last_us = 0;
        for entry in &log.entries {
            let ts = entry.t_us;
            last_us = ts;
            match &entry.event {
                CampaignEvent::CampaignStarted { .. } => {
                    trace.close_all(&mut open, &mut lanes, ts);
                }
                CampaignEvent::AttemptStarted { cell, attempt } => {
                    if *attempt > 1 {
                        trace.instant("cell-retry", ("cell", cell), ts);
                    }
                    let lane = match lanes.iter().position(|busy| !busy) {
                        Some(i) => i,
                        None => {
                            lanes.push(false);
                            lanes.len() - 1
                        }
                    };
                    lanes[lane] = true;
                    let slice = OpenSlice {
                        lane: lane as u64 + 1,
                        started_us: ts,
                        attempt: *attempt,
                    };
                    open.insert(cell.clone(), slice);
                }
                CampaignEvent::AttemptFailed { cell, killed, .. } => {
                    let outcome = if *killed { "killed" } else { "err" };
                    trace.close(&mut open, &mut lanes, cell, outcome, ts);
                    if *killed {
                        trace.instant("deadline-kill", ("cell", cell), ts);
                    }
                }
                CampaignEvent::CellFinished(o) if o.status == CellStatus::Ok => {
                    trace.close(&mut open, &mut lanes, &o.cell, "ok", ts);
                }
                CampaignEvent::CampaignFinished {
                    cancelled: Some(reason),
                    ..
                } => trace.instant("campaign-cancelled", ("reason", reason), ts),
                _ => {}
            }
        }
        trace.close_all(&mut open, &mut lanes, last_us);
        trace
    }

    fn instant(&mut self, name: &str, arg: (&'static str, &str), ts_us: u64) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: "scheduler",
            ph: "i",
            ts_us,
            dur_us: None,
            tid: CONTROL_TID,
            args: vec![(arg.0, Json::from(arg.1))],
        });
    }

    /// Closes `cell`'s open attempt as one complete slice on its lane,
    /// labeled with the outcome (`ok`, `err`, `killed`).
    fn close(
        &mut self,
        open: &mut BTreeMap<String, OpenSlice>,
        lanes: &mut [bool],
        cell: &str,
        outcome: &str,
        ts_us: u64,
    ) {
        let Some(slice) = open.remove(cell) else {
            return;
        };
        lanes[slice.lane as usize - 1] = false;
        self.events.push(TraceEvent {
            name: cell.to_string(),
            cat: "cell",
            ph: "X",
            ts_us: slice.started_us,
            dur_us: Some(ts_us.saturating_sub(slice.started_us)),
            tid: slice.lane,
            args: vec![
                ("attempt", Json::from(u64::from(slice.attempt))),
                ("outcome", Json::from(outcome)),
            ],
        });
    }

    fn close_all(
        &mut self,
        open: &mut BTreeMap<String, OpenSlice>,
        lanes: &mut Vec<bool>,
        ts_us: u64,
    ) {
        let cells: Vec<String> = open.keys().cloned().collect();
        for cell in cells {
            self.close(open, lanes, &cell, "killed", ts_us);
        }
        lanes.clear();
    }

    /// Folds the span registry's aggregated phase tree into the export
    /// as nested `X` slices on a dedicated lane: each parent's window is
    /// its total time, children laid out sequentially inside it (exact
    /// durations, schematic offsets).
    pub fn add_spans(&mut self, spans: &SpanRegistry) {
        // Paths sort parents before children ("a" < "a;b"), so one pass
        // with a placement map suffices. Roots start where the previous
        // root ended.
        let mut placed: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new(); // path -> (start, end, cursor)
        let mut root_cursor = 0u64;
        for stat in spans.snapshot() {
            let dur_us = stat.total_ns / 1000;
            let (start, end) = match crate::span::parent_path(&stat.path) {
                Some(parent) => match placed.get_mut(parent) {
                    Some((_, pend, cursor)) => {
                        let start = *cursor;
                        // Overlap noise can make children sum past the
                        // parent; clamp so containment always holds.
                        let end = (start + dur_us).min(*pend);
                        *cursor = end;
                        (start, end)
                    }
                    None => (0, dur_us), // orphan path; place at origin
                },
                None => {
                    let start = root_cursor;
                    root_cursor = start + dur_us;
                    (start, root_cursor)
                }
            };
            placed.insert(stat.path.clone(), (start, end, start));
            self.events.push(TraceEvent {
                name: crate::span::leaf_name(&stat.path).to_string(),
                cat: "phase",
                ph: "X",
                ts_us: start,
                dur_us: Some(end.saturating_sub(start)),
                tid: SPANS_TID,
                args: vec![
                    ("path", Json::from(stat.path.as_str())),
                    ("count", Json::from(stat.count)),
                    ("total_ns", Json::from(stat.total_ns)),
                    ("self_ns", Json::from(stat.self_ns)),
                ],
            });
        }
    }

    /// The complete Chrome trace document.
    pub fn to_json(&self) -> Json {
        let mut events = self.events.clone();
        // Sort by (lane, ts) stably so per-lane ts monotonicity is
        // explicit in the serialized order, then prepend lane names.
        events.sort_by_key(|e| (e.tid, e.ts_us));
        let mut docs: Vec<Json> = Vec::new();
        let mut lanes: Vec<u64> = events.iter().map(|e| e.tid).collect();
        lanes.dedup();
        for tid in lanes {
            let label = match tid {
                CONTROL_TID => "scheduler".to_string(),
                SPANS_TID => "phases".to_string(),
                lane => format!("worker-{lane}"),
            };
            docs.push(obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(TRACE_PID)),
                ("tid", Json::from(tid)),
                ("args", obj([("name", Json::from(label.as_str()))])),
            ]));
        }
        docs.extend(events.iter().map(TraceEvent::to_json));
        obj([
            ("traceEvents", Json::Arr(docs)),
            ("displayTimeUnit", Json::from("ms")),
            (
                "otherData",
                obj([
                    ("run", Json::from(self.run_id.as_str())),
                    ("trace_id", Json::from(self.trace_id.as_str())),
                ]),
            ),
        ])
    }

    /// Writes the document atomically to
    /// `<dir>/<run-id>.trace.json` and returns the path.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = trace_path(dir, &self.run_id);
        let mut text = self.to_json().to_pretty_string();
        text.push('\n');
        atomic_write_str(&path, &text)?;
        Ok(path)
    }
}

/// The trace export path for a run id.
pub fn trace_path(dir: &Path, run_id: &str) -> PathBuf {
    dir.join(format!("{run_id}.trace.json"))
}

/// What [`validate`] learned about a trace document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events, metadata included.
    pub events: usize,
    /// Complete (`X`) slices.
    pub complete: usize,
    /// Instant (`i`) markers.
    pub instants: usize,
    /// Matched `B`/`E` pairs.
    pub durations: usize,
    /// Distinct `(pid, tid)` lanes with at least one event.
    pub lanes: usize,
    /// Largest `ts + dur` seen, in microseconds.
    pub span_us: u64,
    /// `otherData.trace_id`, when present.
    pub trace_id: Option<String>,
    /// `otherData.run`, when present.
    pub run: Option<String>,
}

/// Strictly validates a parsed Chrome trace document: the shape
/// (`traceEvents` array, required fields per phase type), matched
/// `B`/`E` nesting per lane, and non-decreasing `ts` per lane in
/// serialized order. Returns a summary on success, the first violation
/// otherwise.
pub fn validate(doc: &Json) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("document has no \"traceEvents\" array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    if let Some(other) = doc.get("otherData") {
        summary.trace_id = other
            .get("trace_id")
            .and_then(Json::as_str)
            .map(String::from);
        summary.run = other.get("run").and_then(Json::as_str).map(String::from);
    }
    // Per-lane state: last ts seen and the B/E stack of open names.
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let at = |what: &str| format!("traceEvents[{i}]: {what}");
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing \"name\""))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing \"ph\""))?;
        let pid = event
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| at("missing \"pid\""))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| at("missing \"tid\""))?;
        if ph == "M" {
            continue; // metadata carries no timeline
        }
        let ts = event
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| at("missing numeric \"ts\""))?;
        let lane = (pid, tid);
        if let Some(&prev) = last_ts.get(&lane) {
            if ts < prev {
                return Err(at(&format!(
                    "ts {ts} goes backwards on lane pid={pid} tid={tid} (previous {prev})"
                )));
            }
        }
        last_ts.insert(lane, ts);
        match ph {
            "X" => {
                let dur = event
                    .get("dur")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| at("complete event missing \"dur\""))?;
                summary.complete += 1;
                summary.span_us = summary.span_us.max(ts + dur);
            }
            "B" => stacks.entry(lane).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry(lane)
                    .or_default()
                    .pop()
                    .ok_or_else(|| at("E event with no matching B on its lane"))?;
                // The E event's name may be empty (the format allows it);
                // when present it must close the innermost open B.
                if !name.is_empty() && name != open {
                    return Err(at(&format!(
                        "E event for {name:?} closes mismatched B {open:?}"
                    )));
                }
                summary.durations += 1;
                summary.span_us = summary.span_us.max(ts);
            }
            "i" | "I" => {
                summary.instants += 1;
                summary.span_us = summary.span_us.max(ts);
            }
            other => return Err(at(&format!("unsupported phase type {other:?}"))),
        }
    }
    for ((pid, tid), stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "B event {open:?} on lane pid={pid} tid={tid} never closed"
            ));
        }
    }
    summary.lanes = last_ts.len();
    Ok(summary)
}

/// Merges several trace documents into one, remapping each source's
/// `pid` to its 1-based input index so lanes never collide; `otherData`
/// lists the merged runs.
pub fn merge(docs: &[Json]) -> Result<Json, String> {
    let mut events: Vec<Json> = Vec::new();
    let mut runs: Vec<Json> = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        let pid = i as u64 + 1;
        let source = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("input {i}: no \"traceEvents\" array"))?;
        for event in source {
            let Json::Obj(fields) = event else {
                return Err(format!("input {i}: non-object trace event"));
            };
            let mut fields = fields.clone();
            fields.insert("pid".to_string(), Json::from(pid));
            events.push(Json::Obj(fields));
        }
        if let Some(other) = doc.get("otherData") {
            let mut entry = BTreeMap::from([("pid".to_string(), Json::from(pid))]);
            for key in ["run", "trace_id"] {
                if let Some(v) = other.get(key).and_then(Json::as_str) {
                    entry.insert(key.to_string(), Json::from(v));
                }
            }
            runs.push(Json::Obj(entry));
        }
    }
    Ok(obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
        ("otherData", obj([("merged", Json::Arr(runs))])),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    use crate::progress::{CampaignEvent as Ev, CellOutcome, LogEntry};

    fn log(run: &str, events: Vec<(u64, Ev)>) -> CampaignLog {
        let mut entries = vec![LogEntry {
            t_us: 0,
            event: Ev::CampaignStarted {
                run: run.into(),
                tool: "table4".into(),
                scale: "quick".into(),
                cells: 2,
                workers: 2,
                trace_id: format!("tr-000000000000000{}", run.len()),
                resume_command: None,
                unix_ms: 0,
            },
        }];
        entries.extend(
            events
                .into_iter()
                .map(|(t_us, event)| LogEntry { t_us, event }),
        );
        CampaignLog {
            entries,
            torn_tail: false,
        }
    }

    fn start(cell: &str, attempt: u32) -> Ev {
        Ev::AttemptStarted {
            cell: cell.into(),
            attempt,
        }
    }

    fn fail(cell: &str, attempt: u32, killed: bool) -> Ev {
        Ev::AttemptFailed {
            cell: cell.into(),
            attempt,
            reason: "boom".into(),
            killed,
        }
    }

    fn ok(cell: &str, attempts: u32) -> Ev {
        Ev::CellFinished(CellOutcome {
            cell: cell.into(),
            status: CellStatus::Ok,
            attempts,
            deadline_kills: 0,
            wall_ms: 1,
            instructions: 1,
            reason: None,
            data: Some(BTreeMap::new()),
        })
    }

    #[test]
    fn attempts_fold_into_complete_events_on_worker_lanes() {
        let trace = ChromeTrace::from_log(&log(
            "r1",
            vec![
                (1, start("table4/perl", 1)),
                (2, start("table4/gcc", 1)),
                (3, fail("table4/perl", 1, false)),
                (4, start("table4/perl", 2)),
                (5, fail("table4/perl", 2, true)),
                (6, start("table4/perl", 3)),
                (7, ok("table4/gcc", 1)),
                (8, ok("table4/perl", 3)),
                (
                    9,
                    Ev::CampaignFinished {
                        ok: 2,
                        failed: 0,
                        cancelled: Some("drain".into()),
                    },
                ),
            ],
        ));
        let doc = trace.to_json();
        let summary = validate(&doc).expect("export validates");
        // One slice per attempt; one instant per retry (2), per deadline
        // kill (1), and for the cancellation.
        assert_eq!(summary.complete, 4);
        assert_eq!(summary.instants, 4);
        assert_eq!(summary.trace_id.as_deref(), Some("tr-0000000000000002"));
        assert_eq!(summary.run.as_deref(), Some("r1"));
        // Control lane + two worker lanes (perl's retries reuse a freed
        // lane while gcc holds the other).
        assert_eq!(summary.lanes, 3);
        // Round-trip through text: what we write is what validates.
        let reparsed = parse(&doc.to_string()).unwrap();
        assert_eq!(validate(&reparsed), Ok(summary));
    }

    #[test]
    fn attempts_left_open_by_a_crashed_run_are_closed() {
        let mut crashed = log("r2", vec![(1, start("a/b", 1)), (2, start("c/d", 1))]);
        let resumed = log("r2", vec![(10, start("a/b", 1)), (11, ok("a/b", 1))]);
        crashed
            .entries
            .extend(resumed.entries.into_iter().map(|mut e| {
                e.t_us += 5;
                e
            }));
        let summary = validate(&ChromeTrace::from_log(&crashed).to_json()).unwrap();
        assert_eq!(summary.complete, 3, "two killed slices plus the rerun");
    }

    #[test]
    fn span_tree_exports_nested_slices_on_the_phases_lane() {
        let spans = SpanRegistry::new();
        {
            let _outer = spans.span("campaign");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = spans.span("cell:table4");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let mut trace = ChromeTrace::default();
        trace.add_spans(&spans);
        let doc = trace.to_json();
        validate(&doc).expect("span export validates");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        // The child's window is contained in the parent's.
        let (parent, child) = (&slices[0], &slices[1]);
        assert_eq!(parent.get("name").unwrap().as_str(), Some("campaign"));
        assert_eq!(child.get("name").unwrap().as_str(), Some("cell:table4"));
        let p_ts = parent.get("ts").unwrap().as_u64().unwrap();
        let p_end = p_ts + parent.get("dur").unwrap().as_u64().unwrap();
        let c_ts = child.get("ts").unwrap().as_u64().unwrap();
        let c_end = c_ts + child.get("dur").unwrap().as_u64().unwrap();
        assert!(
            p_ts <= c_ts && c_end <= p_end,
            "{c_ts}..{c_end} outside {p_ts}..{p_end}"
        );
    }

    #[test]
    fn validate_rejects_broken_documents() {
        // No traceEvents.
        assert!(validate(&parse(r#"{"displayTimeUnit":"ms"}"#).unwrap()).is_err());
        // Backwards ts on one lane.
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"X","ts":10,"dur":1,"pid":1,"tid":1},
                {"name":"b","ph":"X","ts":5,"dur":1,"pid":1,"tid":1}]}"#,
        )
        .unwrap();
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        // Backwards ts on different lanes is fine.
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"X","ts":10,"dur":1,"pid":1,"tid":1},
                {"name":"b","ph":"X","ts":5,"dur":1,"pid":1,"tid":2}]}"#,
        )
        .unwrap();
        assert!(validate(&doc).is_ok());
        // Unmatched B.
        let doc =
            parse(r#"{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}"#).unwrap();
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
        // E with no B.
        let doc =
            parse(r#"{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}"#).unwrap();
        assert!(validate(&doc).unwrap_err().contains("no matching B"));
        // Mismatched E name.
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
                {"name":"z","ph":"E","ts":2,"pid":1,"tid":1}]}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("mismatched"));
        // X without dur.
        let doc =
            parse(r#"{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":1}]}"#).unwrap();
        assert!(validate(&doc).unwrap_err().contains("dur"));
    }

    #[test]
    fn validate_accepts_matched_duration_pairs() {
        let doc = parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
                {"name":"b","ph":"B","ts":2,"pid":1,"tid":1},
                {"name":"b","ph":"E","ts":3,"pid":1,"tid":1},
                {"name":"","ph":"E","ts":4,"pid":1,"tid":1}]}"#,
        )
        .unwrap();
        let summary = validate(&doc).unwrap();
        assert_eq!(summary.durations, 2);
        assert_eq!(summary.lanes, 1);
        assert_eq!(summary.span_us, 4);
    }

    #[test]
    fn merge_remaps_pids_per_source() {
        let one_cell = |run| log(run, vec![(1, start("x/y", 1)), (2, ok("x/y", 1))]);
        let a = ChromeTrace::from_log(&one_cell("r-a"));
        let b = ChromeTrace::from_log(&one_cell("r-b"));
        let merged = merge(&[a.to_json(), b.to_json()]).unwrap();
        validate(&merged).expect("merged trace validates");
        let pids: std::collections::BTreeSet<u64> = merged
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("pid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(pids, std::collections::BTreeSet::from([1, 2]));
        let sources = merged
            .get("otherData")
            .unwrap()
            .get("merged")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(sources.len(), 2);
        assert_eq!(sources[1].get("run").unwrap().as_str(), Some("r-b"));
    }

    #[test]
    fn write_produces_a_parseable_file() {
        let dir = std::env::temp_dir().join(format!("repro-traceviz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace =
            ChromeTrace::from_log(&log("r9", vec![(1, start("a/b", 1)), (2, ok("a/b", 1))]));
        let path = trace.write(&dir).unwrap();
        assert_eq!(path, trace_path(&dir, "r9"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        validate(&parse(text.trim()).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
