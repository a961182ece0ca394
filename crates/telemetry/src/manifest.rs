//! Run manifests: one JSON document per experiment invocation recording
//! what ran, under which configuration, and what the counters said.
//!
//! The manifest is the reconciliation point of the telemetry layer: its
//! per-run counters are copied straight from the simulator's own
//! statistics structures, so a consumer can cross-check the event stream
//! (and the printed tables) against it without re-running anything.

use crate::json::{obj, Json};
use crate::metrics::MetricsSnapshot;
use crate::progress::{CellOutcome, CellStatus};
use crate::span::SpanRegistry;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Instructions (or events) per second given a count and elapsed
/// nanoseconds; 0 when no time elapsed.
pub fn per_sec(count: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        count as f64 * 1e9 / wall_ns as f64
    }
}

/// Counters and identity for one benchmark run inside an experiment.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Benchmark label (`perl`, `gcc`, …).
    pub label: String,
    /// Human-readable description of the predictor configuration.
    pub config: String,
    /// Dynamic instructions replayed.
    pub instructions: u64,
    /// Named counters copied from the simulator's statistics
    /// (`tc.lookups`, `class.ijmp.executed`, …). A `BTreeMap` so the
    /// manifest is byte-stable across runs.
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock nanoseconds for this run.
    pub wall_ns: u64,
}

impl RunRecord {
    /// Creates a record for `label` under `config`.
    pub fn new(label: impl Into<String>, config: impl Into<String>) -> Self {
        RunRecord {
            label: label.into(),
            config: config.into(),
            ..RunRecord::default()
        }
    }

    /// Adds `n` to the named counter.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// The value of a named counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        obj([
            ("label", Json::from(self.label.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("instructions", Json::from(self.instructions)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::from(v)))
                        .collect(),
                ),
            ),
            ("wall_ns", Json::from(self.wall_ns)),
        ])
    }
}

/// The outcome of one experiment-runner cell (an `experiment × benchmark`
/// unit of work), as recorded in the manifest's `cells` array.
///
/// Written by the fault-tolerant job runner so a manifest documents not
/// just *what* numbers were produced but *how reliably*: attempts taken,
/// deadline kills survived, and whether the result was resumed from a
/// previous run's journal instead of recomputed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellRecord {
    /// Cell identity, `experiment/benchmark` (e.g. `table4/perl`).
    pub cell: String,
    /// Whether the cell ultimately produced data.
    pub ok: bool,
    /// Attempts executed (1 = first try succeeded; 0 = resumed).
    pub attempts: u32,
    /// Attempts killed by the per-cell deadline watchdog.
    pub deadline_kills: u32,
    /// Whether the result was restored from a journal instead of run.
    pub resumed: bool,
    /// Failure reason when `ok` is false.
    pub reason: Option<String>,
    /// Wall-clock milliseconds spent across all attempts.
    pub wall_ms: u64,
    /// Simulated instructions the cell processed (0 when unknown, e.g.
    /// records journaled before this field existed).
    pub instructions: u64,
}

impl CellRecord {
    fn to_json(&self) -> Json {
        let mut fields = std::collections::BTreeMap::from([
            ("cell".to_string(), Json::from(self.cell.as_str())),
            ("ok".to_string(), Json::Bool(self.ok)),
            ("attempts".to_string(), Json::from(self.attempts as u64)),
            (
                "deadline_kills".to_string(),
                Json::from(self.deadline_kills as u64),
            ),
            ("resumed".to_string(), Json::Bool(self.resumed)),
            ("wall_ms".to_string(), Json::from(self.wall_ms)),
            ("instructions".to_string(), Json::from(self.instructions)),
            (
                "instr_per_sec".to_string(),
                Json::from(per_sec(self.instructions, self.wall_ms * 1_000_000)),
            ),
        ]);
        if let Some(reason) = &self.reason {
            fields.insert("reason".to_string(), Json::from(reason.as_str()));
        }
        Json::Obj(fields)
    }
}

impl From<&CellOutcome> for CellRecord {
    /// The manifest `cells` view of one logged outcome.
    fn from(o: &CellOutcome) -> CellRecord {
        CellRecord {
            cell: o.cell.clone(),
            ok: o.ok(),
            attempts: o.attempts,
            deadline_kills: o.deadline_kills,
            resumed: o.status == CellStatus::Resumed,
            reason: o.reason.clone(),
            wall_ms: o.wall_ms,
            instructions: o.instructions,
        }
    }
}

/// The manifest for one experiment invocation (one table binary run).
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// Which experiment produced this (`table1`, `all`, …).
    pub tool: String,
    /// The campaign's correlation id (`tr-…`; empty when the invocation
    /// predates correlation ids or never minted one).
    pub trace_id: String,
    /// The `REPRO_SCALE` the run used (`quick`, `standard`, `full`).
    pub scale: String,
    /// The `REPRO_TELEMETRY` mode (`summary` or `events`).
    pub mode: String,
    /// The `REPRO_PROF` mode (`off` or `spans`).
    pub prof_mode: String,
    /// Per-benchmark instruction budget at this scale.
    pub instruction_budget: u64,
    /// One record per benchmark × configuration executed.
    pub runs: Vec<RunRecord>,
    /// One record per job-runner cell, when the invocation went through
    /// the fault-tolerant runner (empty otherwise).
    pub cells: Vec<CellRecord>,
    /// Events captured to the JSONL stream (0 in `summary` mode).
    pub events_recorded: u64,
    /// Events lost to ring overflow.
    pub events_dropped: u64,
    /// Wall-clock nanoseconds for the whole invocation.
    pub wall_ns: u64,
}

impl RunManifest {
    /// Creates a manifest shell for `tool`.
    pub fn new(tool: impl Into<String>) -> Self {
        RunManifest {
            tool: tool.into(),
            ..RunManifest::default()
        }
    }

    /// Appends a completed run record.
    pub fn push_run(&mut self, run: RunRecord) {
        self.runs.push(run);
    }

    /// Sums a named counter across all runs.
    pub fn total(&self, counter: &str) -> u64 {
        self.runs.iter().map(|r| r.counter(counter)).sum()
    }

    /// Total simulated instructions across all runs.
    pub fn total_instructions(&self) -> u64 {
        self.runs.iter().map(|r| r.instructions).sum()
    }

    /// The throughput-accounting section: per-run and aggregate
    /// instructions/sec and predictions/sec derived from the run records
    /// themselves, so consumers never recompute rates differently.
    fn perf_json(&self) -> Json {
        let total_instr = self.total_instructions();
        let run_wall: u64 = self.runs.iter().map(|r| r.wall_ns).sum();
        let branches = self.total("branches");
        obj([
            ("instructions", Json::from(total_instr)),
            ("run_wall_ns", Json::from(run_wall)),
            ("instr_per_sec", Json::from(per_sec(total_instr, run_wall))),
            ("predictions", Json::from(branches)),
            (
                "predictions_per_sec",
                Json::from(per_sec(branches, run_wall)),
            ),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            obj([
                                ("label", Json::from(r.label.as_str())),
                                ("config", Json::from(r.config.as_str())),
                                (
                                    "instr_per_sec",
                                    Json::from(per_sec(r.instructions, r.wall_ns)),
                                ),
                                (
                                    "predictions_per_sec",
                                    Json::from(per_sec(r.counter("branches"), r.wall_ns)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The trace-store section: cache effectiveness of the on-disk trace
    /// store, derived from the `trace_store.*` counters the experiment
    /// runner records. `None` when the invocation never touched the
    /// store (so older manifests and store-free tools stay byte-stable).
    fn trace_store_json(metrics: &MetricsSnapshot) -> Option<Json> {
        let hits = metrics.counter("trace_store.hits");
        let misses = metrics.counter("trace_store.misses");
        if hits + misses == 0 {
            return None;
        }
        let decoded = metrics.counter("trace_store.decoded_instructions");
        let decode_ns = metrics.counter("trace_store.decode_ns");
        Some(obj([
            ("hits", Json::from(hits)),
            ("misses", Json::from(misses)),
            (
                "records",
                Json::from(metrics.counter("trace_store.records")),
            ),
            (
                "bytes_written",
                Json::from(metrics.counter("trace_store.bytes_written")),
            ),
            (
                "bytes_read",
                Json::from(metrics.counter("trace_store.bytes_read")),
            ),
            ("decoded_instructions", Json::from(decoded)),
            ("decode_ns", Json::from(decode_ns)),
            (
                "decode_instr_per_sec",
                Json::from(per_sec(decoded, decode_ns)),
            ),
        ]))
    }

    /// The phase-sampling section: how much of the campaign was
    /// simulated under SimPoint sampling, derived from the `sampling.*`
    /// counters. `None` when sampling never ran (so exact-campaign
    /// manifests keep their historical shape). `simulated_fraction` is
    /// the cost ratio — sampled instructions (warm-up included) over
    /// the instructions exact simulation would have replayed.
    fn sampling_json(metrics: &MetricsSnapshot) -> Option<Json> {
        let sampled = metrics.counter("sampling.sampled_instructions");
        let chunks = metrics.counter("sampling.chunks");
        if sampled + chunks == 0 {
            return None;
        }
        let total = metrics.counter("sampling.total_instructions");
        Some(obj([
            ("chunks", Json::from(chunks)),
            ("phases", Json::from(metrics.counter("sampling.phases"))),
            ("shards", Json::from(metrics.counter("sampling.shards"))),
            ("sampled_instructions", Json::from(sampled)),
            ("total_instructions", Json::from(total)),
            (
                "simulated_fraction",
                Json::from(if total == 0 {
                    0.0
                } else {
                    sampled as f64 / total as f64
                }),
            ),
        ]))
    }

    /// The manifest as a JSON document, embedding span timings and a
    /// metrics snapshot.
    pub fn to_json(&self, spans: &SpanRegistry, metrics: &MetricsSnapshot) -> Json {
        let json = obj([
            ("tool", Json::from(self.tool.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("telemetry_mode", Json::from(self.mode.as_str())),
            ("prof_mode", Json::from(self.prof_mode.as_str())),
            ("instruction_budget", Json::from(self.instruction_budget)),
            (
                "runs",
                Json::Arr(self.runs.iter().map(RunRecord::to_json).collect()),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellRecord::to_json).collect()),
            ),
            ("events_recorded", Json::from(self.events_recorded)),
            ("events_dropped", Json::from(self.events_dropped)),
            ("spans", spans.to_json()),
            ("perf", self.perf_json()),
            ("metrics", metrics.to_json()),
            ("wall_ns", Json::from(self.wall_ns)),
        ]);
        let Json::Obj(mut fields) = json else {
            unreachable!("obj() builds an object");
        };
        // Only stamped manifests carry the id, so tools that never mint
        // one keep their historical shape.
        if !self.trace_id.is_empty() {
            fields.insert("trace_id".to_string(), Json::from(self.trace_id.as_str()));
        }
        if let Some(store) = Self::trace_store_json(metrics) {
            fields.insert("trace_store".to_string(), store);
        }
        if let Some(sampling) = Self::sampling_json(metrics) {
            fields.insert("sampling".to_string(), sampling);
        }
        Json::Obj(fields)
    }

    /// Writes the manifest as pretty-stable single-line JSON plus a
    /// trailing newline.
    pub fn write_to<W: Write>(
        &self,
        out: &mut W,
        spans: &SpanRegistry,
        metrics: &MetricsSnapshot,
    ) -> io::Result<()> {
        writeln!(out, "{}", self.to_json(spans, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn manifest_round_trips_through_json() {
        let mut manifest = RunManifest::new("table1");
        manifest.scale = "quick".to_string();
        manifest.mode = "events".to_string();
        manifest.instruction_budget = 100_000;

        let mut run = RunRecord::new("perl", "target-cache 512-entry tagless");
        run.instructions = 100_000;
        run.count("tc.lookups", 750);
        run.count("tc.hits", 500);
        run.count("tc.misses", 250);
        manifest.push_run(run);
        manifest.events_recorded = 250;

        let registry = MetricsRegistry::new();
        registry.counter("harness.branches").add(9);
        let spans = SpanRegistry::new();
        {
            let _g = spans.span("harness-replay");
        }

        let mut buf = Vec::new();
        manifest
            .write_to(&mut buf, &spans, &registry.snapshot())
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = parse(text.trim()).expect("manifest parses");

        assert_eq!(v.get("tool").unwrap().as_str(), Some("table1"));
        assert_eq!(v.get("scale").unwrap().as_str(), Some("quick"));
        let runs = v.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("label").unwrap().as_str(), Some("perl"));
        let counters = runs[0].get("counters").unwrap();
        assert_eq!(counters.get("tc.lookups").unwrap().as_u64(), Some(750));
        // The reconciliation invariant consumers rely on.
        assert_eq!(
            counters.get("tc.hits").unwrap().as_u64().unwrap()
                + counters.get("tc.misses").unwrap().as_u64().unwrap(),
            counters.get("tc.lookups").unwrap().as_u64().unwrap()
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("harness.branches")
                .unwrap()
                .as_u64(),
            Some(9)
        );
        assert!(v
            .get("spans")
            .unwrap()
            .get("harness-replay")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .is_some());
    }

    #[test]
    fn cell_records_serialize_with_optional_reason() {
        let mut m = RunManifest::new("repro_all");
        m.cells.push(CellRecord {
            cell: "table4/gcc".into(),
            ok: true,
            attempts: 1,
            deadline_kills: 0,
            resumed: false,
            reason: None,
            wall_ms: 12,
            instructions: 100_000,
        });
        m.cells.push(CellRecord {
            cell: "table4/perl".into(),
            ok: false,
            attempts: 3,
            deadline_kills: 1,
            resumed: false,
            reason: Some("panicked: injected".into()),
            wall_ms: 99,
            instructions: 0,
        });
        let registry = MetricsRegistry::new();
        let spans = SpanRegistry::new();
        let mut buf = Vec::new();
        m.write_to(&mut buf, &spans, &registry.snapshot()).unwrap();
        let v = parse(String::from_utf8(buf).unwrap().trim()).unwrap();
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("cell").unwrap().as_str(), Some("table4/gcc"));
        assert!(cells[0].get("reason").is_none());
        assert_eq!(cells[1].get("attempts").unwrap().as_u64(), Some(3));
        assert_eq!(
            cells[1].get("reason").unwrap().as_str(),
            Some("panicked: injected")
        );
    }

    #[test]
    fn perf_section_reports_throughput() {
        let mut m = RunManifest::new("table1");
        m.prof_mode = "spans".to_string();
        let mut run = RunRecord::new("perl", "btb");
        run.instructions = 1_000_000;
        run.wall_ns = 500_000_000; // 0.5 s → 2 M instr/sec
        run.count("branches", 100_000);
        m.push_run(run);

        let registry = MetricsRegistry::new();
        let spans = SpanRegistry::new();
        let v = m.to_json(&spans, &registry.snapshot());
        assert_eq!(v.get("prof_mode").unwrap().as_str(), Some("spans"));
        let perf = v.get("perf").unwrap();
        assert_eq!(perf.get("instructions").unwrap().as_u64(), Some(1_000_000));
        let ips = perf.get("instr_per_sec").unwrap().as_f64().unwrap();
        assert!((ips - 2_000_000.0).abs() < 1.0, "{ips}");
        let pps = perf.get("predictions_per_sec").unwrap().as_f64().unwrap();
        assert!((pps - 200_000.0).abs() < 1.0, "{pps}");
        let per_run = perf.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(per_run[0].get("label").unwrap().as_str(), Some("perl"));
        // And the whole document still parses strictly.
        assert!(parse(&v.to_string()).is_ok());
    }

    #[test]
    fn trace_store_section_appears_only_when_the_store_was_touched() {
        let m = RunManifest::new("table4");
        let spans = SpanRegistry::new();

        // No trace_store.* counters → no section at all.
        let registry = MetricsRegistry::new();
        let v = m.to_json(&spans, &registry.snapshot());
        assert!(v.get("trace_store").is_none());

        // Hits and misses recorded → section with derived decode rate.
        let registry = MetricsRegistry::new();
        registry.counter("trace_store.hits").add(7);
        registry.counter("trace_store.misses").add(1);
        registry.counter("trace_store.records").add(1);
        registry.counter("trace_store.bytes_written").add(1024);
        registry.counter("trace_store.bytes_read").add(7 * 1024);
        registry
            .counter("trace_store.decoded_instructions")
            .add(700_000);
        registry.counter("trace_store.decode_ns").add(350_000_000);
        let v = m.to_json(&spans, &registry.snapshot());
        let store = v.get("trace_store").expect("section present");
        assert_eq!(store.get("hits").unwrap().as_u64(), Some(7));
        assert_eq!(store.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(store.get("records").unwrap().as_u64(), Some(1));
        assert_eq!(store.get("bytes_read").unwrap().as_u64(), Some(7168));
        let rate = store.get("decode_instr_per_sec").unwrap().as_f64().unwrap();
        assert!((rate - 2_000_000.0).abs() < 1.0, "{rate}");
        // And the embedded document still parses strictly.
        assert!(parse(&v.to_string()).is_ok());
    }

    #[test]
    fn sampling_section_appears_only_when_sampling_ran() {
        let m = RunManifest::new("table1");
        let spans = SpanRegistry::new();

        // No sampling.* counters → no section at all.
        let registry = MetricsRegistry::new();
        let v = m.to_json(&spans, &registry.snapshot());
        assert!(v.get("sampling").is_none());

        // A sampled campaign's counters → section with the cost ratio.
        let registry = MetricsRegistry::new();
        registry.counter("sampling.chunks").add(98);
        registry.counter("sampling.phases").add(5);
        registry.counter("sampling.shards").add(5);
        registry
            .counter("sampling.sampled_instructions")
            .add(61_440);
        registry.counter("sampling.total_instructions").add(401_408);
        let v = m.to_json(&spans, &registry.snapshot());
        let sampling = v.get("sampling").expect("section present");
        assert_eq!(sampling.get("chunks").unwrap().as_u64(), Some(98));
        assert_eq!(sampling.get("phases").unwrap().as_u64(), Some(5));
        assert_eq!(sampling.get("shards").unwrap().as_u64(), Some(5));
        let fraction = sampling
            .get("simulated_fraction")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(
            (fraction - 61_440.0 / 401_408.0).abs() < 1e-12,
            "{fraction}"
        );
        assert!(parse(&v.to_string()).is_ok());
    }

    #[test]
    fn trace_id_appears_only_when_stamped() {
        let spans = SpanRegistry::new();
        let registry = MetricsRegistry::new();
        let mut m = RunManifest::new("table4");
        assert!(m
            .to_json(&spans, &registry.snapshot())
            .get("trace_id")
            .is_none());
        m.trace_id = "tr-9f2ab04c71d3e586".to_string();
        let v = m.to_json(&spans, &registry.snapshot());
        assert_eq!(
            v.get("trace_id").unwrap().as_str(),
            Some("tr-9f2ab04c71d3e586")
        );
    }

    #[test]
    fn per_sec_handles_zero_time() {
        assert_eq!(per_sec(100, 0), 0.0);
        assert_eq!(per_sec(0, 100), 0.0);
        assert!((per_sec(1, 1_000_000_000) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn totals_sum_across_runs() {
        let mut m = RunManifest::new("table2");
        for (label, hits) in [("perl", 10u64), ("gcc", 32)] {
            let mut r = RunRecord::new(label, "btb");
            r.count("tc.hits", hits);
            m.push_run(r);
        }
        assert_eq!(m.total("tc.hits"), 42);
        assert_eq!(m.total("absent"), 0);
    }
}
