//! End-to-end telemetry check: a short instrumented run must emit a
//! parseable manifest and JSONL event stream whose counters reconcile
//! exactly with the simulator's own statistics.

use experiments::runner::{functional, trace, Scale};
use experiments::telemetry::{session_with_config, TelemetryConfig, TelemetryCtx, TelemetryMode};
use sim_telemetry::json::{parse, Json};
use sim_workloads::Benchmark;
use std::collections::BTreeMap;
use target_cache::harness::{FrontEndConfig, PredictionHarness, Source};
use target_cache::TargetCacheConfig;

#[test]
fn events_run_writes_reconcilable_manifest_and_jsonl() {
    let dir = std::env::temp_dir().join(format!("repro-telemetry-itest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Cold scratch trace store so the instrumented run deterministically
    // generates (records a miss) and the reference run replays (a hit).
    // The process reads its knobs once, at the first trace lookup; this
    // binary holds a single test, which sets them before that.
    std::env::set_var("REPRO_TRACE_STORE", "rw");
    std::env::set_var("REPRO_TRACE_STORE_DIR", dir.join("traces"));

    let bench = Benchmark::Perl;
    let frontend = FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare());

    let (manifest_path, events_path);
    {
        let session = session_with_config(
            "itest",
            Scale::Quick,
            TelemetryConfig {
                mode: TelemetryMode::Events,
                dir: dir.clone(),
                ..TelemetryConfig::default()
            },
        );
        manifest_path = session.manifest_path();
        events_path = session.events_path();
        let ctx = session.ctx();
        let t = trace(&ctx, bench, Scale::Quick);
        functional(&ctx, &t, frontend);
    } // drop writes the files

    // Independent reference run: same trace, same config, no telemetry.
    let t = trace(&TelemetryCtx::off(), bench, Scale::Quick);
    let mut reference = PredictionHarness::new(frontend);
    reference.run(&t);
    let ref_stats = reference.stats();
    let ref_tc = reference.target_cache_stats().expect("tc configured");

    // --- Manifest parses and reconciles ------------------------------
    let manifest_text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = parse(manifest_text.trim()).expect("manifest is valid JSON");
    assert_eq!(manifest.get("tool").unwrap().as_str(), Some("itest"));
    assert_eq!(manifest.get("scale").unwrap().as_str(), Some("quick"));
    assert_eq!(
        manifest.get("telemetry_mode").unwrap().as_str(),
        Some("events")
    );

    let runs = manifest.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 1, "one functional run was recorded");
    let run = &runs[0];
    assert_eq!(run.get("label").unwrap().as_str(), Some(bench.name()));
    let counters = run.get("counters").unwrap();
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };

    // The acceptance invariant: manifest counters are copies of the
    // simulator's own statistics, and lookups = hits + misses.
    assert_eq!(counter("branches"), ref_stats.total_executed());
    assert_eq!(counter("mispredicts"), ref_stats.total_mispredicted());
    assert_eq!(counter("tc.lookups"), ref_tc.lookups());
    assert_eq!(counter("tc.hits"), ref_tc.hits());
    assert_eq!(counter("tc.misses"), ref_tc.misses());
    assert_eq!(counter("tc.updates"), ref_tc.updates());
    assert_eq!(
        counter("tc.hits") + counter("tc.misses"),
        counter("tc.lookups")
    );

    // The metrics snapshot agrees with the per-run counters.
    let metrics = manifest.get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(
        metrics.get("harness.branches").unwrap().as_u64(),
        Some(ref_stats.total_executed())
    );
    assert_eq!(
        metrics.get("harness.mispredicts").unwrap().as_u64(),
        Some(ref_stats.total_mispredicted())
    );

    // Spans were recorded for every phase the run exercised: the trace
    // came through the (cold) trace store, which wraps generation.
    let spans = manifest.get("spans").unwrap();
    for phase in ["trace-store", "trace-store;workload-gen", "harness-replay"] {
        assert_eq!(
            spans.get(phase).unwrap().get("count").unwrap().as_u64(),
            Some(1),
            "span {phase}"
        );
    }

    // The trace-store section records the cold miss and its recording.
    let store = manifest.get("trace_store").expect("trace_store section");
    assert_eq!(store.get("hits").unwrap().as_u64(), Some(0));
    assert_eq!(store.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(store.get("records").unwrap().as_u64(), Some(1));
    assert!(store.get("bytes_written").unwrap().as_u64().unwrap() > 0);

    // --- Event stream parses line-by-line and reconciles -------------
    let events_text = std::fs::read_to_string(&events_path).expect("events written");
    let mut mispredicts = 0u64;
    let mut by_source: BTreeMap<String, u64> = BTreeMap::new();
    for line in events_text.lines() {
        let v = parse(line).expect("every JSONL line is valid JSON");
        assert_eq!(v.get("run").unwrap().as_str(), Some(bench.name()));
        if v.get("event").unwrap().as_str() == Some("mispredict") {
            mispredicts += 1;
            let source = v.get("source").and_then(Json::as_str).expect("source");
            *by_source.entry(source.to_string()).or_insert(0) += 1;
            assert_ne!(
                v.get("predicted").unwrap().as_u64(),
                v.get("actual").unwrap().as_u64(),
                "a mispredict event must disagree with the actual target"
            );
        }
    }
    assert_eq!(
        mispredicts,
        ref_stats.total_mispredicted(),
        "one event per mispredicted branch"
    );
    assert_eq!(
        manifest.get("events_recorded").unwrap().as_u64(),
        Some(mispredicts)
    );
    assert_eq!(manifest.get("events_dropped").unwrap().as_u64(), Some(0));

    // The per-source counters sum to the mispredicts, and each one counts
    // the mispredict events carrying its source.
    let metric = |name: &str| metrics.get(name).and_then(Json::as_u64);
    let per_source: u64 = Source::ALL
        .iter()
        .map(|s| {
            let label = s.label();
            let count = metric(&format!("harness.mispredicts.{label}")).expect(label);
            assert_eq!(count, by_source.remove(label).unwrap_or(0), "{label}");
            count
        })
        .sum();
    assert_eq!(Some(per_source), metric("harness.mispredicts"));
    assert!(
        by_source.is_empty(),
        "events of unknown sources: {by_source:?}"
    );
    assert!(per_source > 0, "perl mispredicts some branches");

    let _ = std::fs::remove_dir_all(&dir);
}
