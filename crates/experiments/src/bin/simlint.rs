//! simlint: static-analysis and trace-conformance linter for the
//! synthetic benchmark models.
//!
//! ```text
//! simlint [OPTIONS] [BENCH...]
//! ```
//!
//! With no `BENCH` arguments every benchmark is linted. Each benchmark
//! gets the full static pass (`SL001`–`SL007`); `--conformance` adds a
//! trace replay against the static image (`SL008`–`SL011`) at the
//! `REPRO_SCALE` scale (`quick`/`ci`, `standard`, `full`);
//! `--predictability` adds the measured-vs-static reconciliation pass
//! (`SL012`–`SL016`) with its census and envelope table.
//!
//! Exit status: `0` when no finding reaches the `--deny` gate, `1` when
//! one does, `2` on a usage or environment error.

use experiments::jobs::faults;
use experiments::{lint, predictability};
use sim_analysis::{to_json, to_sarif, BenchReport, PolyClass, Rule, Severity};
use sim_telemetry::atomic_write_str;
use sim_workloads::Benchmark;
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "\
usage: simlint [OPTIONS] [BENCH...]

Lints the synthetic benchmark models: static CFG/layout invariants
(SL001-SL007) and, with --conformance, dynamic trace replay against the
static image (SL008-SL011).

options:
  --conformance        also replay a REPRO_SCALE-sized trace per benchmark
  --predictability     also measure oracle/tagless/tagged accuracy per site
                       and reconcile it against the static predictability
                       envelope (SL012-SL016)
  --trace <file.strc>  replay a recorded trace file instead of generating;
                       the benchmark is read from the file header and the
                       conformance pass is implied
  --metrics            print the per-site static metrics for each benchmark
  --deny <sev>         findings that fail the run: error (default), warn, none
  --max-per-rule <n>   findings retained per rule (default 25, 0 = unlimited);
                       counts and the deny gate are exact regardless
  --out <dir>          report directory (default results/lint)
  --no-output          do not write simlint.json / simlint.sarif
  --list-rules         print the rule catalogue and exit
  -h, --help           this message

environment:
  REPRO_SCALE          quick (alias: ci) / standard / full
  REPRO_FAULTS         deterministic fault injection (see repro-jobs docs)
  REPRO_TELEMETRY      off / summary / events

exit status: 0 clean, 1 findings at or above the deny gate, 2 usage error
";

/// Which severities fail the run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Deny {
    Error,
    Warn,
    None,
}

struct Options {
    benches: Vec<Benchmark>,
    conformance: bool,
    predictability: bool,
    trace: Option<PathBuf>,
    metrics: bool,
    deny: Deny,
    max_per_rule: usize,
    out: PathBuf,
    write_output: bool,
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("run simlint --help for usage");
    exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        benches: Vec::new(),
        conformance: false,
        predictability: false,
        trace: None,
        metrics: false,
        deny: Deny::Error,
        max_per_rule: sim_analysis::rules::FINDINGS_PER_RULE_CAP,
        out: PathBuf::from("results/lint"),
        write_output: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0);
            }
            "--list-rules" => {
                for rule in Rule::ALL {
                    println!("{}  {:7}  {}", rule.id(), rule.severity(), rule.title());
                }
                exit(0);
            }
            "--conformance" => opts.conformance = true,
            "--predictability" => opts.predictability = true,
            "--max-per-rule" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage_error("--max-per-rule wants a count (0 = unlimited)"));
                opts.max_per_rule = value.parse().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "invalid --max-per-rule value {value:?}; wants a count (0 = unlimited)"
                    ))
                });
            }
            "--trace" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage_error("--trace wants a .strc file path"));
                opts.trace = Some(PathBuf::from(value));
                opts.conformance = true;
            }
            "--metrics" => opts.metrics = true,
            "--no-output" => opts.write_output = false,
            "--deny" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage_error("--deny wants a value: error, warn, none"));
                opts.deny = match value.as_str() {
                    "error" => Deny::Error,
                    "warn" => Deny::Warn,
                    "none" => Deny::None,
                    other => usage_error(&format!(
                        "unrecognized --deny value {other:?}; accepted: error, warn, none"
                    )),
                };
            }
            "--out" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out wants a directory"));
                opts.out = PathBuf::from(value);
            }
            flag if flag.starts_with('-') => usage_error(&format!("unrecognized option {flag:?}")),
            bench => match Benchmark::from_name(bench) {
                Some(b) => opts.benches.push(b),
                None => usage_error(&format!(
                    "unknown benchmark {bench:?}; accepted: {}",
                    Benchmark::ALL
                        .iter()
                        .map(|b| b.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
            },
        }
    }
    if opts.trace.is_some() && !opts.benches.is_empty() {
        usage_error("--trace reads its benchmark from the file header; drop the BENCH arguments");
    }
    if opts.trace.is_some() && opts.predictability {
        usage_error(
            "--predictability measures the canonical REPRO_SCALE trace and cannot \
             reconcile an external --trace file",
        );
    }
    if opts.benches.is_empty() {
        opts.benches = Benchmark::ALL.to_vec();
    }
    opts
}

/// Decodes `path` and lints the benchmark it declares against the
/// recorded instruction stream.
fn analyze_trace_file(
    ctx: &experiments::telemetry::TelemetryCtx,
    path: &Path,
    max_per_rule: usize,
) -> lint::LintOutcome {
    let (header, trace) = sim_trace::read_trace_file(path).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", path.display());
        exit(2)
    });
    let bench = Benchmark::from_name(&header.meta.benchmark).unwrap_or_else(|| {
        eprintln!(
            "error: {}: unknown benchmark {:?} in trace header",
            path.display(),
            header.meta.benchmark
        );
        exit(2)
    });
    if let Some(hub) = ctx.hub() {
        hub.set_benchmark(bench.name());
    }
    println!(
        "replaying {}: {} at {} scale, {} recorded instructions\n",
        path.display(),
        bench.name(),
        header.meta.scale,
        header.instructions
    );
    lint::analyze_replay_with(
        bench,
        &trace,
        Some(header.instructions as usize),
        max_per_rule,
    )
}

fn print_bench(outcome: &lint::LintOutcome, metrics: bool) {
    let report = &outcome.report;
    let status = if report.findings.is_clean() {
        "clean".to_string()
    } else {
        format!(
            "{} error(s), {} warning(s)",
            report.findings.errors(),
            report.findings.warnings()
        )
    };
    match &report.metrics {
        Some(m) => println!(
            "{:9} {status}  ({} static instrs, {} switch + {} icall sites, max arity {})",
            report.bench,
            m.static_instructions,
            m.switch_sites.len(),
            m.icall_sites.len(),
            m.max_switch_arity
        ),
        None => println!("{:9} {status}  (analysis aborted)", report.bench),
    }
    for finding in report.findings.iter() {
        println!("  {finding}");
    }
    for rule in Rule::ALL {
        let suppressed = report.findings.suppressed(rule);
        if suppressed > 0 {
            println!("  … and {suppressed} more {} findings", rule.id());
        }
    }
    if let Some(c) = &outcome.conformance {
        println!(
            "  conformance: {} instructions replayed, max call depth {}",
            c.instructions, c.max_call_depth
        );
    }
    if let Some(p) = &report.predictability {
        let census = PolyClass::ALL
            .iter()
            .map(|c| format!("{} {}", p.census[c.index()], c.name()))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "  predictability: {} site(s), {} executed; census: {census} (depth {})",
            p.sites, p.executed_sites, p.depth
        );
        let configs = p
            .configs
            .iter()
            .map(|c| format!("{} {:.2}%", c.name, c.accuracy * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "  envelope: floor {:.2}%, ceiling {:.2}%; measured: {configs}",
            p.floor * 100.0,
            p.ceiling * 100.0
        );
    }
    if metrics {
        if let Some(m) = &report.metrics {
            for site in m.switch_sites.iter().chain(m.icall_sites.iter()) {
                println!(
                    "  site {}  routine {} block {}  arity {} fanout {}",
                    site.addr, site.routine, site.block, site.arity, site.fanout
                );
            }
        }
    }
}

fn write_reports(out: &PathBuf, reports: &[BenchReport]) {
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("error: cannot create {}: {e}", out.display());
        exit(2);
    }
    let json_path = out.join("simlint.json");
    let sarif_path = out.join("simlint.sarif");
    let json = to_json(reports).to_pretty_string();
    let sarif = to_sarif(reports).to_pretty_string();
    for (path, text) in [(&json_path, &json), (&sarif_path, &sarif)] {
        if let Err(e) = atomic_write_str(path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            exit(2);
        }
    }
    println!(
        "reports: {} and {}",
        json_path.display(),
        sarif_path.display()
    );
}

fn main() {
    let knobs = experiments::knobs::get();
    let opts = parse_args();
    let scale = knobs.scale;
    let _faults = faults::install(knobs.runner.faults.clone());
    let _telemetry = experiments::telemetry::session("simlint", knobs);
    let ctx = _telemetry.ctx();

    let mode = if opts.trace.is_some() {
        "trace-file replay + conformance".to_string()
    } else {
        let mut passes = vec!["static"];
        if opts.conformance {
            passes.push("conformance");
        }
        if opts.predictability {
            passes.push("predictability");
        }
        if passes.len() == 1 {
            "static only".to_string()
        } else {
            format!("{} at {} scale", passes.join(" + "), scale.name())
        }
    };
    let count = if opts.trace.is_some() {
        1
    } else {
        opts.benches.len()
    };
    println!("simlint: {count} benchmark(s), {mode}\n");

    let outcomes: Vec<lint::LintOutcome> = match &opts.trace {
        Some(path) => vec![analyze_trace_file(&ctx, path, opts.max_per_rule)],
        None => opts
            .benches
            .iter()
            .map(|&bench| {
                let mut outcome =
                    lint::analyze_with(&ctx, bench, scale, opts.conformance, opts.max_per_rule);
                if opts.predictability {
                    predictability::extend(&ctx, bench, scale, &mut outcome.report);
                }
                outcome
            })
            .collect(),
    };
    let mut reports = Vec::new();
    let mut gated = 0u64;
    for outcome in outcomes {
        print_bench(&outcome, opts.metrics);
        gated += match opts.deny {
            Deny::Error => outcome.report.findings.errors(),
            Deny::Warn => outcome.report.findings.errors() + outcome.report.findings.warnings(),
            Deny::None => 0,
        };
        reports.push(outcome.report);
    }

    let errors: u64 = reports.iter().map(|r| r.findings.errors()).sum();
    let warnings: u64 = reports.iter().map(|r| r.findings.warnings()).sum();
    println!(
        "\nsimlint: {} benchmark(s), {errors} error(s), {warnings} warning(s)",
        reports.len()
    );
    if opts.write_output {
        write_reports(&opts.out, &reports);
    }
    if gated > 0 {
        let gate = match opts.deny {
            Deny::Error => Severity::Error.to_string(),
            Deny::Warn => Severity::Warning.to_string(),
            Deny::None => unreachable!("deny none gates nothing"),
        };
        eprintln!("error: {gated} finding(s) at or above the {gate} gate");
        exit(1);
    }
}
