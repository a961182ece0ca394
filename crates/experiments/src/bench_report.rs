//! Cross-run perf trajectory: how throughput moved across `repro-bench`
//! snapshots.
//!
//! Each `repro-bench` run writes a `BENCH_<n>.json` snapshot, and CI
//! keeps a pinned `BENCH_baseline.json`. This module aligns the
//! scenarios across any set of snapshots (ordered baseline first, then
//! by snapshot number) and renders the trajectory: per-scenario median
//! time and instructions/sec at every snapshot, the delta from first to
//! last, and a regression flag when the latest snapshot is slower than
//! the first by more than the tolerance. The `bench-report` binary is
//! the CLI over this.

use crate::perf::BenchReport;
use crate::report::TextTable;
use crate::watch::fmt_rate;
use sim_telemetry::json::{obj, Json};
use std::path::{Path, PathBuf};

/// One labelled snapshot in the trajectory.
#[derive(Debug)]
pub struct Snapshot {
    /// Display label (`baseline`, `#0`, `#1`, … or a file stem).
    pub label: String,
    /// The parsed snapshot.
    pub report: BenchReport,
}

/// Loads one snapshot file, labelling it by its role.
pub fn load(path: &Path, label: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let report = BenchReport::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Snapshot {
        label: label.to_string(),
        report,
    })
}

/// Discovers the snapshots under `dir`: `BENCH_baseline.json` (if
/// present) followed by every `BENCH_<n>.json` in numeric order.
pub fn collect(dir: &Path) -> Result<Vec<Snapshot>, String> {
    let mut snapshots = Vec::new();
    let baseline = dir.join("BENCH_baseline.json");
    if baseline.is_file() {
        snapshots.push(load(&baseline, "baseline")?);
    }
    let mut numbered: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let n: u64 = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((n, e.path()))
        })
        .collect();
    numbered.sort();
    for (n, path) in numbered {
        snapshots.push(load(&path, &format!("#{n}"))?);
    }
    if snapshots.is_empty() {
        return Err(format!(
            "no BENCH_baseline.json or BENCH_<n>.json snapshots in {}",
            dir.display()
        ));
    }
    Ok(snapshots)
}

/// Scenario names in first-seen order across every snapshot, so a
/// scenario added mid-history still lands in the table.
fn aligned_scenarios(snapshots: &[Snapshot]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for snap in snapshots {
        for s in &snap.report.scenarios {
            if !names.iter().any(|n| n == &s.name) {
                names.push(s.name.clone());
            }
        }
    }
    names
}

/// First-to-last median slowdown in percent for one scenario, when both
/// endpoints measured it.
fn delta_pct(snapshots: &[Snapshot], name: &str) -> Option<f64> {
    let series: Vec<u64> = snapshots
        .iter()
        .filter_map(|s| s.report.scenario(name).map(|r| r.median_ns))
        .collect();
    match (series.first(), series.last()) {
        (Some(&first), Some(&last)) if series.len() >= 2 && first > 0 => {
            Some((last as f64 / first as f64 - 1.0) * 100.0)
        }
        _ => None,
    }
}

/// Renders the trajectory table. `tolerance_pct` controls the `REG`
/// flag: a scenario whose latest median is more than that much slower
/// than its first measurement gets flagged.
pub fn render(snapshots: &[Snapshot], tolerance_pct: f64) -> String {
    let mut out = format!("perf trajectory: {} snapshot(s)\n\n", snapshots.len());

    let mut header = TextTable::new(vec![
        "snapshot".into(),
        "git_rev".into(),
        "scale".into(),
        "iters".into(),
        "scenarios".into(),
    ]);
    for s in snapshots {
        header.row(vec![
            s.label.clone(),
            s.report.git_rev.clone(),
            s.report.scale.clone(),
            s.report.iters.to_string(),
            s.report.scenarios.len().to_string(),
        ]);
    }
    out.push_str(&header.render());
    out.push('\n');

    let mut columns: Vec<String> = vec!["scenario".into()];
    columns.extend(snapshots.iter().map(column_label));
    columns.push("delta".into());
    columns.push("flag".into());
    let mut table = TextTable::new(columns);
    for name in aligned_scenarios(snapshots) {
        let mut row = vec![name.clone()];
        for snap in snapshots {
            row.push(match snap.report.scenario(&name) {
                Some(r) => format!(
                    "{:.2}ms {}",
                    r.median_ns as f64 / 1e6,
                    fmt_rate(r.instr_per_sec())
                ),
                None => "—".to_string(),
            });
        }
        let delta = delta_pct(snapshots, &name);
        row.push(delta.map_or("—".to_string(), |d| format!("{d:+.1}%")));
        row.push(match delta {
            Some(d) if d > tolerance_pct => "REG".to_string(),
            _ => String::new(),
        });
        table.row(row);
    }
    out.push_str(&table.render());
    out
}

/// The scenario-table column label for a snapshot: `#3@abc123def456`.
/// The source snapshot's git rev rides in the header line so a `REG`
/// flag is attributable to a commit without opening the snapshot file.
fn column_label(s: &Snapshot) -> String {
    let rev = s.report.git_rev.as_str();
    if rev.is_empty() || rev == "unknown" {
        s.label.clone()
    } else {
        format!("{}@{rev}", s.label)
    }
}

/// The trajectory as a machine-readable document (the CI artifact).
pub fn to_json(snapshots: &[Snapshot], tolerance_pct: f64) -> Json {
    let scenario_rows: Vec<Json> = aligned_scenarios(snapshots)
        .into_iter()
        .map(|name| {
            let points: Vec<Json> = snapshots
                .iter()
                .filter_map(|snap| {
                    snap.report.scenario(&name).map(|r| {
                        obj([
                            ("snapshot", Json::from(snap.label.as_str())),
                            ("median_ns", Json::from(r.median_ns)),
                            ("instr_per_sec", Json::from(r.instr_per_sec())),
                        ])
                    })
                })
                .collect();
            let delta = delta_pct(snapshots, &name);
            let mut fields = match obj([
                ("scenario", Json::from(name.as_str())),
                ("points", Json::Arr(points)),
                (
                    "regressed",
                    Json::from(matches!(delta, Some(d) if d > tolerance_pct)),
                ),
            ]) {
                Json::Obj(fields) => fields,
                _ => unreachable!("obj() builds an object"),
            };
            if let Some(d) = delta {
                fields.insert("delta_pct".to_string(), Json::from(d));
            }
            Json::Obj(fields)
        })
        .collect();
    obj([
        ("tool", Json::from("bench-report")),
        ("tolerance_pct", Json::from(tolerance_pct)),
        (
            "snapshots",
            Json::Arr(
                snapshots
                    .iter()
                    .map(|s| {
                        obj([
                            ("label", Json::from(s.label.as_str())),
                            ("git_rev", Json::from(s.report.git_rev.as_str())),
                            ("scale", Json::from(s.report.scale.as_str())),
                            ("unix_secs", Json::from(s.report.unix_secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("scenarios", Json::Arr(scenario_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::ScenarioResult;
    use std::collections::BTreeMap;

    fn scenario(name: &str, median_ns: u64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            median_ns,
            min_ns: median_ns,
            max_ns: median_ns,
            instructions: 1_000_000,
            bytes: 0,
            phases: BTreeMap::new(),
        }
    }

    fn snapshot(label: &str, scenarios: Vec<ScenarioResult>) -> Snapshot {
        Snapshot {
            label: label.to_string(),
            report: BenchReport {
                git_rev: format!("rev-{label}"),
                scale: "quick".to_string(),
                warmup: 1,
                iters: 3,
                unix_secs: 1_700_000_000,
                scenarios,
            },
        }
    }

    #[test]
    fn trajectory_aligns_scenarios_and_flags_regressions() {
        let snaps = vec![
            snapshot(
                "baseline",
                vec![scenario("a", 10_000_000), scenario("b", 5_000_000)],
            ),
            snapshot(
                "#0",
                vec![
                    scenario("a", 20_000_000), // 2x slower: regression
                    scenario("b", 4_000_000),  // faster
                    scenario("c", 1_000_000),  // new scenario
                ],
            ),
        ];
        let text = render(&snaps, 25.0);
        assert!(text.contains("2 snapshot(s)"), "{text}");
        for needle in ["baseline", "#0", "rev-baseline", "REG", "+100.0%", "-20.0%"] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
        // The scenario table's column headers carry the source git revs,
        // so a REG column is attributable without opening the snapshot.
        let scenario_header = text
            .lines()
            .find(|l| l.trim_start().starts_with("scenario"))
            .unwrap();
        for needle in ["baseline@rev-baseline", "#0@rev-#0"] {
            assert!(
                scenario_header.contains(needle),
                "missing {needle:?} in {scenario_header:?}"
            );
        }
        // The new scenario has no first/last pair to diff.
        let c_line = text
            .lines()
            .find(|l| l.trim_start().starts_with('c'))
            .unwrap();
        assert!(c_line.contains('—'), "{c_line}");

        let json = to_json(&snaps, 25.0);
        let rows = json.get("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        let a = &rows[0];
        assert_eq!(a.get("scenario").unwrap().as_str(), Some("a"));
        assert_eq!(a.get("regressed").unwrap().as_bool(), Some(true));
        assert_eq!(a.get("points").unwrap().as_arr().unwrap().len(), 2);
        let b = &rows[1];
        assert_eq!(b.get("regressed").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn collect_orders_baseline_first_then_numeric() {
        let dir = std::env::temp_dir().join(format!("repro-benchrep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, label) in [
            ("BENCH_10.json", "ten"),
            ("BENCH_2.json", "two"),
            ("BENCH_baseline.json", "base"),
        ] {
            let snap = snapshot(label, vec![scenario("a", 1_000_000)]);
            std::fs::write(dir.join(name), snap.report.to_json().to_string()).unwrap();
        }
        std::fs::write(dir.join("not-a-snapshot.json"), "{}").unwrap();
        let snaps = collect(&dir).unwrap();
        let labels: Vec<&str> = snaps.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["baseline", "#2", "#10"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_of_an_empty_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("repro-benchrep-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(collect(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
