//! The `predictability` experiment: static accuracy envelopes against
//! measured target-prediction accuracy, per benchmark.
//!
//! The static half (`sim_analysis::predictability`) computes, per
//! indirect site, the reachable target set, the polymorphism class, and
//! the compulsory-miss accuracy ceiling. This module supplies the
//! dynamic half: it scores per-site prediction books for three front-end
//! configurations — the perfect-target **oracle**, the paper's 512-entry
//! **tagless** gshare-indexed target cache, and a 4-way **tagged** cache
//! — and reconciles them against the static profile through
//! [`sim_analysis::check_predictability`], which reports `SL012`–`SL016`
//! findings when dynamic behavior escapes static structure.
//!
//! A clean simulator produces zero findings here at every scale; the
//! reconciliation exists to make simulator bugs loud. In particular an
//! injected `wrong-target` fault (see [`crate::jobs::faults`]) perturbs
//! the scored predictions at the measurement boundary and deterministically
//! trips the `SL013` oracle clause.

use crate::jobs::{faults, CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{functional_sweep_observed, trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_analysis::predictability::DEFAULT_PATH_DEPTH;
use sim_analysis::rules::FINDINGS_PER_RULE_CAP;
use sim_analysis::{
    analyze_program, check_predictability, Analysis, BenchReport, Findings, MeasuredConfig,
    SiteOutcome, StaticPredictability,
};
use sim_isa::{Addr, VecTrace};
use sim_workloads::Benchmark;
use std::collections::BTreeMap;
use target_cache::harness::{FrontEndConfig, IndirectPredictor};
use target_cache::TargetCacheConfig;

/// The three configurations whose books are reconciled, in report order.
fn configs() -> Vec<(&'static str, FrontEndConfig)> {
    vec![
        ("oracle", FrontEndConfig::isca97_oracle()),
        (
            "tagless",
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
        ),
        (
            "tagged",
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagged(4)),
        ),
    ]
}

/// Replays `t` through every configuration as one
/// [`functional_sweep_observed`] and keeps, per configuration, per-site
/// prediction books for every branch the target cache covers.
///
/// `fault_period` injects the `wrong-target` fault: every `period`-th
/// scored indirect prediction of each configuration is perturbed, at this
/// measurement boundary, to an address that is neither the actual target
/// nor the site's fall-through — exactly the signature a broken oracle
/// (or a mis-attributed prediction) would leave, so the `SL013`
/// reconciliation clause must catch it.
fn measure(
    ctx: &TelemetryCtx,
    t: &VecTrace,
    configs: &[(&str, FrontEndConfig)],
    fault_period: Option<u64>,
) -> Vec<MeasuredConfig> {
    // Per configuration: indirect predictions scored so far, and the books.
    let mut books: Vec<(u64, BTreeMap<Addr, SiteOutcome>)> =
        configs.iter().map(|_| (0, BTreeMap::new())).collect();
    let frontends: Vec<FrontEndConfig> = configs.iter().map(|&(_, fe)| fe).collect();
    functional_sweep_observed(ctx, t, &frontends, |lane, pc, out| {
        if !out.class.uses_target_cache() {
            return;
        }
        let (scored, sites) = &mut books[lane];
        *scored += 1;
        let fallthrough = pc.next();
        let mut predicted = out.predicted;
        if let Some(period) = fault_period {
            if scored.is_multiple_of(period) {
                let wrong = out.actual.offset(1);
                predicted = if wrong == fallthrough {
                    out.actual.offset(2)
                } else {
                    wrong
                };
            }
        }
        let o = sites.entry(pc).or_default();
        o.executed += 1;
        if predicted == out.actual {
            o.correct += 1;
        } else {
            o.mispredicted += 1;
            if predicted != fallthrough {
                o.non_fallthrough_mispredicts += 1;
            }
        }
    });
    configs
        .iter()
        .zip(books)
        .map(|(&(name, frontend), (_, sites))| MeasuredConfig {
            name: name.to_string(),
            oracle: matches!(frontend.indirect, IndirectPredictor::Oracle),
            sites,
        })
        .collect()
}

/// The full predictability pass over one benchmark's static products:
/// trace, measure, reconcile. Findings land in `report.findings` and the
/// reconciled envelope in `report.predictability`.
fn run_pass(
    ctx: &TelemetryCtx,
    bench: Benchmark,
    scale: Scale,
    analysis: &Analysis,
    report: &mut BenchReport,
) {
    let workload = bench.workload();
    let stat = StaticPredictability::compute(
        workload.program(),
        &analysis.cfg,
        &analysis.image,
        DEFAULT_PATH_DEPTH,
    );
    let t = trace(ctx, bench, scale);
    let stats = t.stats();
    let measured = measure(
        ctx,
        &t,
        &configs(),
        faults::active_wrong_target(bench.name()),
    );
    report.predictability = Some(check_predictability(
        &stat,
        stats.indirect_jump_census(),
        &measured,
        &mut report.findings,
    ));
}

/// Runs the standalone predictability analysis of one benchmark: the
/// static pass (`SL001`–`SL007`) to build the graphs, then the
/// measurement and reconciliation pass (`SL012`–`SL016`), with findings
/// retained up to `cap` per rule (0 = unlimited).
pub fn analyze_with(ctx: &TelemetryCtx, bench: Benchmark, scale: Scale, cap: usize) -> BenchReport {
    let workload = bench.workload();
    let mut findings = Findings::with_cap(cap);
    let analysis = analyze_program(workload.program(), &mut findings);
    let mut report = BenchReport {
        bench: bench.name().to_string(),
        findings,
        metrics: None,
        predictability: None,
    };
    if let Some(a) = analysis {
        run_pass(ctx, bench, scale, &a, &mut report);
        report.metrics = Some(a.metrics);
    }
    report
}

/// [`analyze_with`] at the default per-rule finding cap.
pub fn analyze(ctx: &TelemetryCtx, bench: Benchmark, scale: Scale) -> BenchReport {
    analyze_with(ctx, bench, scale, FINDINGS_PER_RULE_CAP)
}

/// Extends an existing lint report with the predictability pass — the
/// `simlint --predictability` composition, which must not re-report the
/// structural findings the lint pass already collected. The static
/// products are recomputed into scratch findings; a program too broken to
/// analyze leaves the report untouched (the structural errors are
/// already in it).
pub fn extend(ctx: &TelemetryCtx, bench: Benchmark, scale: Scale, report: &mut BenchReport) {
    let workload = bench.workload();
    let mut scratch = Findings::new();
    if let Some(a) = analyze_program(workload.program(), &mut scratch) {
        run_pass(ctx, bench, scale, &a, report);
    }
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell: census, envelope, measured accuracies,
/// and the reconciliation finding counts.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let bench = crate::jobs::benchmark(label);
    let report = analyze(ctx, bench, scale);
    let p = report
        .predictability
        .as_ref()
        .expect("static analysis aborted; predictability pass did not run");
    let mut d = CellData::new();
    d.set("sites", p.sites as f64);
    d.set("executed_sites", p.executed_sites as f64);
    d.set("mono", p.census[0] as f64);
    d.set("duo", p.census[1] as f64);
    d.set("poly", p.census[2] as f64);
    d.set("mega", p.census[3] as f64);
    d.set("floor", p.floor);
    d.set("ceiling", p.ceiling);
    for c in &p.configs {
        d.set(c.name.clone(), c.accuracy);
    }
    d.set("errors", report.findings.errors() as f64);
    d.set("warnings", report.findings.warnings() as f64);
    d
}

/// Renders a (possibly partial) cell set as the census × envelope table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "sites".into(),
        "mono".into(),
        "duo".into(),
        "poly".into(),
        "mega".into(),
        "floor".into(),
        "ceiling".into(),
        "oracle".into(),
        "tagless".into(),
        "tagged".into(),
        "errors".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        let int = |v: f64| (v as u64).to_string();
        table.row(vec![
            n.into(),
            cells.fmt(n, "sites", int),
            cells.fmt(n, "mono", int),
            cells.fmt(n, "duo", int),
            cells.fmt(n, "poly", int),
            cells.fmt(n, "mega", int),
            cells.fmt(n, "floor", pct),
            cells.fmt(n, "ceiling", pct),
            cells.fmt(n, "oracle", pct),
            cells.fmt(n, "tagless", pct),
            cells.fmt(n, "tagged", pct),
            cells.fmt(n, "errors", int),
        ]);
    }
    format!(
        "Static predictability: polymorphism census and accuracy envelopes\n\
         (floor = zero-history ideal, ceiling = compulsory-miss bound;\n\
          measured accuracy outside [floor-aware, ceiling] is a simulator bug — SL012-SL016)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_analysis::Rule;

    #[test]
    fn every_benchmark_reconciles_clean_at_quick_scale() {
        let cells = crate::jobs::registry::quick("predictability");
        for b in Benchmark::ALL {
            let d = cells.data(b.name()).unwrap();
            assert_eq!(d.req("errors"), 0.0, "{b}");
            assert_eq!(d.req("warnings"), 0.0, "{b}");
            assert!(d.req("sites") > 0.0, "{b}");
            // The oracle sits inside the static envelope; the caches sit
            // at or below the oracle.
            let ceiling = d.req("ceiling");
            let oracle = d.req("oracle");
            assert!(oracle <= ceiling + 1e-12, "{b}: {oracle} > {ceiling}");
            assert!(d.req("tagless") <= oracle + 1e-12, "{b}");
            assert!(d.req("tagged") <= oracle + 1e-12, "{b}");
            // The floor is the best a history-free predictor could do: the
            // real caches and the oracle are measured, not ideal, so only
            // the oracle is guaranteed to clear it (minus the cold miss).
            assert!(d.req("floor") <= ceiling + 1e-12, "{b}");
        }
        let text = render_cells(&cells);
        assert!(!text.contains("ERR("), "{text}");
    }

    #[test]
    fn polymorphic_benchmarks_have_wider_census() {
        let cells = crate::jobs::registry::quick("predictability");
        let wide = |n: &str| {
            let d = cells.data(n).unwrap();
            d.req("poly") + d.req("mega")
        };
        // gcc and perl are the paper's polymorphic workloads.
        assert!(wide("gcc") >= wide("compress"));
        assert!(wide("perl") >= 1.0);
    }

    #[test]
    fn wrong_target_fault_trips_the_oracle_clause() {
        let bench = Benchmark::Perl;
        let ctx = TelemetryCtx::off();
        let workload = bench.workload();
        let mut scratch = Findings::new();
        let a = analyze_program(workload.program(), &mut scratch).unwrap();
        let stat =
            StaticPredictability::compute(workload.program(), &a.cfg, &a.image, DEFAULT_PATH_DEPTH);
        let t = trace(&ctx, bench, Scale::Quick);
        let stats = t.stats();

        // Clean oracle books reconcile without findings…
        let oracle = [("oracle", FrontEndConfig::isca97_oracle())];
        let clean = measure(&ctx, &t, &oracle, None);
        let mut f = Findings::new();
        check_predictability(&stat, stats.indirect_jump_census(), &clean, &mut f);
        assert!(f.is_clean(), "{:?}", f.iter().collect::<Vec<_>>());

        // …and the same books with an injected wrong-target fault trip
        // SL013's oracle clause, loudly.
        let faulty = measure(&ctx, &t, &oracle, Some(97));
        let mut f = Findings::new();
        check_predictability(&stat, stats.indirect_jump_census(), &faulty, &mut f);
        assert!(f.count(Rule::EnvelopeViolation) > 0);
        assert!(f.errors() > 0);
    }

    #[test]
    fn extend_composes_with_a_lint_report() {
        let bench = Benchmark::Compress;
        let ctx = TelemetryCtx::off();
        let mut outcome = crate::lint::analyze(&ctx, bench, Scale::Quick, false);
        let before = outcome.report.findings.errors() + outcome.report.findings.warnings();
        extend(&ctx, bench, Scale::Quick, &mut outcome.report);
        let p = outcome.report.predictability.as_ref().unwrap();
        assert!(p.sites > 0);
        assert_eq!(
            outcome.report.findings.errors() + outcome.report.findings.warnings(),
            before,
            "clean benchmark must stay clean after the predictability pass"
        );
    }
}
