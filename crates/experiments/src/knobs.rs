//! The `REPRO_*` knob table: every environment variable the workspace
//! reads, declared once and parsed once per process.
//!
//! [`KNOBS`] declares each variable with its default, its strict parser,
//! and whether the resume command a failed campaign prints carries it
//! ([`crate::jobs::cli`] renders that command from the table). The
//! README's knob reference lists the same table with the values each
//! knob accepts.
//!
//! [`Knobs::parse`] runs the whole table over a lookup function, so
//! tests parse strings instead of mutating the environment. [`get`] is
//! the only place the process environment is read: it parses once and
//! keeps the result process-wide. Every `experiments` binary calls it at
//! the top of `main`, so a malformed value exits 2 with one `error:`
//! line naming the variable before any thread, campaign log or store
//! file exists. An empty value counts as unset (the `REPRO_SCALE= cmd`
//! shell idiom).
//!
//! Library entry points still take explicit values (a
//! [`TelemetryConfig`], a [`RunnerConfig`], a [`Scale`]), which tests
//! and embedders build themselves; only the batch drivers and the trace
//! store lookups ([`crate::runner::trace`] and the phase-map cache beside
//! it) read [`get`].

use crate::jobs::cli::DEFAULT_JOURNAL_DIR;
use crate::jobs::{FaultPlan, RunnerConfig};
use crate::runner::{SampleMode, Scale};
use crate::sample::{DEFAULT_SAMPLING_DIR, DEFAULT_TOLERANCE_PP};
use crate::serve::ServeConfig;
use sim_telemetry::{ProfMode, TelemetryConfig, TelemetryMode, TraceExportMode};
use sim_trace::{StoreMode, TraceStore};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Every knob's value, parsed from the table.
#[derive(Clone, Debug)]
pub struct Knobs {
    /// `REPRO_SCALE`.
    pub scale: Scale,
    /// `REPRO_SAMPLE`.
    pub sample: SampleMode,
    /// `REPRO_SAMPLE_EXACT`: whether a sampled campaign computes the
    /// exact baseline inline, and with it the error report and its gate.
    pub sample_exact: bool,
    /// `REPRO_SAMPLE_TOLERANCE_PP`: the error report's gate.
    pub sample_tolerance_pp: f64,
    /// `REPRO_SAMPLE_DIR`: where error reports land.
    pub sample_dir: PathBuf,
    /// `REPRO_JOURNAL_DIR`: the campaign log directory.
    pub journal_dir: PathBuf,
    /// `REPRO_RUN_ID`: a fresh campaign's log name.
    pub run_id: Option<String>,
    /// `REPRO_RESUME`: the run id of a campaign log to continue.
    pub resume: Option<String>,
    /// The worker pool and its fault plan.
    pub runner: RunnerConfig,
    /// `REPRO_TRACE_STORE`.
    pub trace_store: StoreMode,
    /// `REPRO_TRACE_STORE_DIR`.
    pub trace_store_dir: PathBuf,
    /// The telemetry session.
    pub telemetry: TelemetryConfig,
    /// The `repro-serve` daemon.
    pub serve: ServeConfig,
    /// The knobs given a non-empty value (`repro-bench` defaults
    /// telemetry to `summary` only when `REPRO_TELEMETRY` is not).
    pub given: Vec<&'static str>,
}

impl Default for Knobs {
    fn default() -> Knobs {
        Knobs {
            scale: Scale::default(),
            sample: SampleMode::default(),
            sample_exact: true,
            sample_tolerance_pp: DEFAULT_TOLERANCE_PP,
            sample_dir: PathBuf::from(DEFAULT_SAMPLING_DIR),
            journal_dir: PathBuf::from(DEFAULT_JOURNAL_DIR),
            run_id: None,
            resume: None,
            runner: RunnerConfig::default(),
            trace_store: StoreMode::default(),
            trace_store_dir: PathBuf::from(sim_trace::store::DEFAULT_DIR),
            telemetry: TelemetryConfig::default(),
            serve: ServeConfig::default(),
            given: Vec::new(),
        }
    }
}

impl Knobs {
    /// Parses every declared knob from `lookup`, which returns a
    /// variable's value or `None` when it is unset. The first malformed
    /// value is an error naming the variable.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        let mut knobs = Knobs::default();
        for knob in &KNOBS {
            let Some(value) = lookup(knob.name).filter(|v| !v.is_empty()) else {
                continue;
            };
            (knob.parse)(&mut knobs, &value).map_err(|e| match e.contains(knob.name) {
                true => e,
                false => format!("{}: {e}", knob.name),
            })?;
            knobs.given.push(knob.name);
        }
        Ok(knobs)
    }

    /// The trace store `REPRO_TRACE_STORE` and `REPRO_TRACE_STORE_DIR`
    /// describe.
    pub fn trace_store(&self) -> TraceStore {
        TraceStore::new(&self.trace_store_dir, self.trace_store)
    }
}

/// The process's knobs, read from the environment on first use and kept
/// for the life of the process. A malformed value prints one `error:`
/// line and exits 2.
pub fn get() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        Knobs::parse(|name| std::env::var(name).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    })
}

/// How a campaign's resume command carries a knob.
#[derive(Clone, Copy, Debug)]
pub enum Resume {
    /// Not at all: a resumed run reads it from its own environment.
    No,
    /// Always, as this renders it.
    Always(fn(&Knobs) -> String),
    /// As this renders it, when that differs from the default's rendering.
    UnlessDefault(fn(&Knobs) -> String),
}

/// One declared environment variable.
#[derive(Debug)]
pub struct Knob {
    /// The variable.
    pub name: &'static str,
    /// Its value when unset, as the README lists it; empty when unset
    /// means no value.
    pub default: &'static str,
    /// Whether a campaign's resume command carries it.
    pub resume: Resume,
    /// Stores a non-empty value, or says why it is malformed.
    parse: fn(&mut Knobs, &str) -> Result<(), String>,
}

fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

fn int(v: &str, min: u64) -> Result<u64, String> {
    v.parse()
        .ok()
        .filter(|&n| n >= min)
        .ok_or_else(|| format!("expected an integer >= {min}, got {v:?}"))
}

/// Every `REPRO_*` variable, in the order the resume command and the
/// README list them.
pub static KNOBS: [Knob; 27] = [
    Knob {
        name: "REPRO_SCALE",
        default: "standard",
        resume: Resume::Always(|k| k.scale.name().into()),
        parse: |k, v| Scale::parse(v).map(|s| k.scale = s),
    },
    Knob {
        name: "REPRO_SAMPLE",
        default: "off",
        resume: Resume::UnlessDefault(|k| k.sample.name().into()),
        parse: |k, v| SampleMode::parse(v).map(|s| k.sample = s),
    },
    Knob {
        name: "REPRO_SAMPLE_EXACT",
        default: "inline",
        resume: Resume::UnlessDefault(|k| if k.sample_exact { "inline" } else { "off" }.into()),
        parse: |k, v| {
            match v.to_ascii_lowercase().as_str() {
                "inline" => Ok(true),
                "off" => Ok(false),
                _ => Err(format!(
                    "unrecognized REPRO_SAMPLE_EXACT value {v:?}; accepted values: inline, off"
                )),
            }
            .map(|exact| k.sample_exact = exact)
        },
    },
    Knob {
        name: "REPRO_SAMPLE_TOLERANCE_PP",
        default: "1",
        resume: Resume::UnlessDefault(|k| k.sample_tolerance_pp.to_string()),
        parse: |k, v| {
            let tolerance = v.parse::<f64>().ok().filter(|t| *t >= 0.0);
            (tolerance.map(|t| k.sample_tolerance_pp = t))
                .ok_or_else(|| format!("expected a number >= 0, got {v:?}"))
        },
    },
    Knob {
        name: "REPRO_SAMPLE_DIR",
        default: DEFAULT_SAMPLING_DIR,
        resume: Resume::UnlessDefault(|k| k.sample_dir.display().to_string()),
        parse: |k, v| text(v).map(|s| k.sample_dir = s.into()),
    },
    Knob {
        name: "REPRO_JOURNAL_DIR",
        default: DEFAULT_JOURNAL_DIR,
        resume: Resume::UnlessDefault(|k| k.journal_dir.display().to_string()),
        parse: |k, v| text(v).map(|s| k.journal_dir = s.into()),
    },
    Knob {
        name: "REPRO_RUN_ID",
        default: "",
        resume: Resume::No,
        parse: |k, v| text(v).map(|s| k.run_id = Some(s)),
    },
    Knob {
        name: "REPRO_RESUME",
        default: "",
        resume: Resume::Always(|k| k.resume.clone().unwrap_or_default()),
        parse: |k, v| text(v).map(|s| k.resume = Some(s)),
    },
    Knob {
        name: "REPRO_JOBS",
        default: "1",
        resume: Resume::No,
        parse: |k, v| int(v, 1).map(|n| k.runner.workers = n as usize),
    },
    Knob {
        name: "REPRO_RETRIES",
        default: "3",
        resume: Resume::No,
        parse: |k, v| int(v, 1).map(|n| k.runner.attempts = n.min(u32::MAX.into()) as u32),
    },
    Knob {
        name: "REPRO_DEADLINE_MS",
        default: "600000",
        resume: Resume::No,
        parse: |k, v| int(v, 1).map(|n| k.runner.deadline = Duration::from_millis(n)),
    },
    Knob {
        name: "REPRO_BACKOFF_MS",
        default: "100",
        resume: Resume::No,
        parse: |k, v| int(v, 0).map(|n| k.runner.backoff = Duration::from_millis(n)),
    },
    Knob {
        name: "REPRO_FAULTS",
        default: "",
        resume: Resume::No,
        parse: |k, v| FaultPlan::parse(v).map(|p| k.runner.faults = p),
    },
    Knob {
        name: "REPRO_TRACE_STORE",
        default: "rw",
        resume: Resume::No,
        parse: |k, v| StoreMode::parse(v).map(|m| k.trace_store = m),
    },
    Knob {
        name: "REPRO_TRACE_STORE_DIR",
        default: sim_trace::store::DEFAULT_DIR,
        resume: Resume::No,
        parse: |k, v| text(v).map(|s| k.trace_store_dir = s.into()),
    },
    Knob {
        name: "REPRO_TELEMETRY",
        default: "off",
        resume: Resume::No,
        parse: |k, v| TelemetryMode::parse(v).map(|m| k.telemetry.mode = m),
    },
    Knob {
        name: "REPRO_PROF",
        default: "spans",
        resume: Resume::No,
        parse: |k, v| ProfMode::parse(v).map(|m| k.telemetry.prof = m),
    },
    Knob {
        name: "REPRO_TELEMETRY_DIR",
        default: sim_telemetry::DEFAULT_TELEMETRY_DIR,
        resume: Resume::No,
        parse: |k, v| text(v).map(|s| k.telemetry.dir = s.into()),
    },
    Knob {
        name: "REPRO_PROGRESS_TICK_MS",
        default: "1000",
        resume: Resume::No,
        parse: |k, v| int(v, 1).map(|n| k.telemetry.progress_tick = Duration::from_millis(n)),
    },
    Knob {
        name: "REPRO_TRACE_EXPORT",
        default: "off",
        resume: Resume::No,
        parse: |k, v| TraceExportMode::parse(v).map(|m| k.telemetry.trace_export = m),
    },
    Knob {
        name: "REPRO_TRACEVIZ_DIR",
        default: sim_telemetry::DEFAULT_TRACEVIZ_DIR,
        resume: Resume::No,
        parse: |k, v| text(v).map(|s| k.telemetry.traceviz_dir = s.into()),
    },
    Knob {
        name: "REPRO_SERVE_ADDR",
        default: "127.0.0.1:7877",
        resume: Resume::No,
        parse: |k, v| text(v).map(|s| k.serve.addr = s),
    },
    Knob {
        name: "REPRO_SERVE_QUEUE",
        default: "16",
        resume: Resume::No,
        parse: |k, v| int(v, 1).map(|n| k.serve.queue = n as usize),
    },
    Knob {
        name: "REPRO_SERVE_CLIENTS",
        default: "32",
        resume: Resume::No,
        parse: |k, v| int(v, 1).map(|n| k.serve.max_conns = n as usize),
    },
    Knob {
        name: "REPRO_SERVE_ROOT",
        default: "results/serve",
        resume: Resume::No,
        parse: |k, v| text(v).map(|s| k.serve.root = s.into()),
    },
    Knob {
        name: "REPRO_SERVE_READ_TIMEOUT_MS",
        default: "2000",
        resume: Resume::No,
        parse: |k, v| int(v, 1).map(|n| k.serve.read_timeout = Duration::from_millis(n)),
    },
    Knob {
        name: "REPRO_SERVE_ADDR_FILE",
        default: "",
        resume: Resume::No,
        parse: |k, v| text(v).map(|s| k.serve.addr_file = Some(s.into())),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The knobs with `name` alone set to `value`.
    fn only(name: &str, value: &str) -> Result<Knobs, String> {
        Knobs::parse(|n| (n == name).then(|| value.to_string()))
    }

    fn without_given(k: Knobs) -> String {
        format!(
            "{:?}",
            Knobs {
                given: Vec::new(),
                ..k
            }
        )
    }

    #[test]
    fn declared_defaults_parse_to_the_default_knobs() {
        let defaults = format!("{:?}", Knobs::default());
        for knob in KNOBS.iter().filter(|k| !k.default.is_empty()) {
            let parsed = only(knob.name, knob.default).expect(knob.name);
            assert_eq!(without_given(parsed), defaults, "{}", knob.name);
        }
        assert_eq!(KNOBS.len(), 27);
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KNOBS.len(), "a knob is declared twice");
    }

    #[test]
    fn values_land_in_their_fields() {
        let env = [
            ("REPRO_SCALE", "ci"),
            ("REPRO_SAMPLE", "SimPoint"),
            ("REPRO_SAMPLE_EXACT", "off"),
            ("REPRO_SAMPLE_TOLERANCE_PP", "2.5"),
            ("REPRO_JOBS", "4"),
            ("REPRO_BACKOFF_MS", "0"),
            ("REPRO_FAULTS", "panic:table4/perl"),
            ("REPRO_TRACE_STORE", "ro"),
            ("REPRO_TELEMETRY", "events"),
            ("REPRO_PROGRESS_TICK_MS", "250"),
            ("REPRO_SERVE_QUEUE", "3"),
            ("REPRO_RESUME", "r1"),
            ("REPRO_RUN_ID", ""),
        ];
        let k = Knobs::parse(|name| {
            env.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        })
        .unwrap();
        assert_eq!(k.scale, Scale::Quick);
        assert_eq!(k.sample, SampleMode::Simpoint);
        assert!(!k.sample_exact);
        assert_eq!(k.sample_tolerance_pp, 2.5);
        assert_eq!(k.runner.workers, 4);
        assert_eq!(k.runner.backoff, Duration::ZERO);
        assert!(!k.runner.faults.is_empty());
        assert_eq!(k.trace_store().mode(), StoreMode::ReadOnly);
        assert_eq!(k.telemetry.mode, TelemetryMode::Events);
        assert_eq!(k.telemetry.progress_tick, Duration::from_millis(250));
        assert_eq!(k.serve.queue, 3);
        assert_eq!(k.resume.as_deref(), Some("r1"));
        // An empty value is unset.
        assert_eq!(k.run_id, None);
        assert!(k.given.contains(&"REPRO_TELEMETRY") && !k.given.contains(&"REPRO_RUN_ID"));
    }

    #[test]
    fn malformed_values_are_errors_naming_the_variable() {
        for (name, bad) in [
            ("REPRO_SCALE", "ful"),
            ("REPRO_SAMPLE", "simpont"),
            ("REPRO_SAMPLE_EXACT", "later"),
            ("REPRO_SAMPLE_TOLERANCE_PP", "-1"),
            ("REPRO_SAMPLE_TOLERANCE_PP", "NaN"),
            ("REPRO_JOBS", "0"),
            ("REPRO_RETRIES", "many"),
            ("REPRO_DEADLINE_MS", "0"),
            ("REPRO_BACKOFF_MS", "-5"),
            ("REPRO_FAULTS", "delay:*:soon"),
            ("REPRO_TRACE_STORE", "sometimes"),
            ("REPRO_TELEMETRY", "event"),
            ("REPRO_PROF", "deep"),
            ("REPRO_PROGRESS_TICK_MS", "0"),
            ("REPRO_PROGRESS_TICK_MS", "fast"),
            ("REPRO_TRACE_EXPORT", "perfetto"),
            ("REPRO_SERVE_QUEUE", "0"),
            ("REPRO_SERVE_CLIENTS", "x"),
            ("REPRO_SERVE_READ_TIMEOUT_MS", "1.5"),
        ] {
            let err = only(name, bad).unwrap_err();
            assert!(err.contains(name), "{name}={bad}: {err}");
            assert!(err.contains(bad), "{name}={bad}: {err}");
        }
    }
}
