//! Acceptance tests for the `repro-bench` binary: the BENCH snapshot it
//! writes reparses with the strict JSON parser and covers the whole
//! scenario matrix, an unchanged tree passes its own baseline, and a
//! baseline ten times faster than the run trips the regression gate.

use experiments::perf::BenchReport;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro-bench-test-{}-{name}", std::process::id()))
}

fn repro_bench(out: &PathBuf, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro-bench"))
        .args(["--iters", "1", "--warmup", "0", "--scale", "quick", "--out"])
        .arg(out)
        .args(extra)
        // Keep the session's bonus artifacts out of the repo checkout.
        .env("REPRO_TELEMETRY_DIR", out)
        .current_dir(out)
        .output()
        .expect("repro-bench binary runs")
}

#[test]
fn bench_snapshot_round_trips_and_gates_regressions() {
    let out = scratch("gate");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();

    // First run writes BENCH_0.json.
    let first = repro_bench(&out, &[]);
    assert!(
        first.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&first.stderr)
    );
    let bench0 = out.join("BENCH_0.json");
    let text = std::fs::read_to_string(&bench0).expect("BENCH_0.json written");

    // The snapshot reparses with the strict parser and covers every
    // benchmark at every layer, with phase breakdowns and throughput.
    let report = BenchReport::parse(&text).expect("strict parse");
    assert_eq!(report.scale, "quick");
    assert_eq!(report.iters, 1);
    assert_eq!(report.scenarios.len(), 8 * 5 + 2 + 2 + 2 + 2 + 1);
    for bench in [
        "compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp",
    ] {
        for layer in ["trace-gen", "functional-btb", "functional-tc"] {
            let s = report
                .scenario(&format!("{layer}/{bench}"))
                .unwrap_or_else(|| panic!("missing {layer}/{bench}"));
            assert!(s.median_ns > 0, "{layer}/{bench} has no timing");
            assert!(s.instructions > 0, "{layer}/{bench} has no instructions");
            assert!(s.instr_per_sec() > 0.0, "{layer}/{bench} has no rate");
            assert!(
                !s.phases.is_empty(),
                "{layer}/{bench} has no per-phase breakdown"
            );
        }
        // The codec layers additionally report the encoded size.
        for layer in ["trace-encode", "trace-decode"] {
            let s = report
                .scenario(&format!("{layer}/{bench}"))
                .unwrap_or_else(|| panic!("missing {layer}/{bench}"));
            assert!(s.median_ns > 0, "{layer}/{bench} has no timing");
            assert!(s.instructions > 0, "{layer}/{bench} has no instructions");
            assert!(s.bytes > 0, "{layer}/{bench} has no encoded size");
            assert!(
                s.bytes_per_instr() > 1.0,
                "{layer}/{bench} bytes/instr implausible"
            );
        }
    }

    // An unchanged tree passes its own baseline even with a tight gate.
    let pass = repro_bench(
        &out,
        &["--baseline", bench0.to_str().unwrap(), "--tolerance", "300"],
    );
    assert!(
        pass.status.success(),
        "unchanged tree must pass its own baseline: {}",
        String::from_utf8_lossy(&pass.stderr)
    );

    // Against a baseline ten times faster than the first run, a run of
    // the same tree trips the gate with exit status 1.
    let mut fast = report.clone();
    for s in &mut fast.scenarios {
        s.median_ns /= 10;
    }
    let fast_path = out.join("fast-baseline.json");
    std::fs::write(&fast_path, fast.to_json().to_string()).unwrap();
    let slow = repro_bench(
        &out,
        &[
            "--baseline",
            fast_path.to_str().unwrap(),
            "--tolerance",
            "300",
        ],
    );
    assert_eq!(
        slow.status.code(),
        Some(1),
        "a 10x slower run must trip the gate: {}",
        String::from_utf8_lossy(&slow.stderr)
    );
    assert!(
        String::from_utf8_lossy(&slow.stderr).contains("regressed"),
        "{}",
        String::from_utf8_lossy(&slow.stderr)
    );

    // An unreadable baseline is an operator error: exit 2.
    let bad_baseline = repro_bench(&out, &["--baseline", "/nonexistent/BENCH.json"]);
    assert_eq!(bad_baseline.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&out);
}
