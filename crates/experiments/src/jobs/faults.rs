//! Deterministic fault injection for the experiment runner.
//!
//! The `REPRO_FAULTS` environment variable carries a comma-separated list
//! of fault specs. Every fault is deterministic — a given spec produces
//! the same failures at the same points on every run — so chaos tests are
//! reproducible:
//!
//! | spec | effect |
//! |------|--------|
//! | `panic:<cell>` | every attempt of `<cell>` panics |
//! | `delay:<cell>:<ms>` | every attempt of `<cell>` sleeps first (trips deadlines) |
//! | `flaky:<cell>:<n>` | the first `<n>` attempts of `<cell>` panic, later ones succeed (exercises retry) |
//! | `truncate:<bench>:<frac>` | `<bench>`'s trace generates only `<frac>` of its budget |
//! | `truncate-store:<bench>:<frac>` | the first store recording of `<bench>`'s trace writes only `<frac>` of the file (torn write; read-back detection makes the attempt fail retryably) |
//! | `wrong-target:<bench>[:<period>]` | every `<period>`-th scored indirect prediction of `<bench>` is perturbed to a wrong, non-fall-through target (default period 97) — a seeded predictor bug the `SL013` envelope rule must catch |
//! | `random:<seed>:<rate>` | each (cell, attempt) panics with probability `<rate>`, seeded |
//!
//! `<cell>` is a cell id (`table4/perl`), the wildcard form `table4/*`
//! (every cell of one experiment), or `*` (every cell). A campaign
//! installs its plan process-globally for the duration of the run so the
//! workload-generation layer can see truncation faults; everything else
//! is applied by the pool at attempt start via [`FaultPlan::apply`].

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

/// A fault targeted at matching cells.
#[derive(Clone, Debug, PartialEq)]
enum CellFault {
    /// Panic on every attempt.
    Panic,
    /// Sleep before running, on every attempt.
    Delay(Duration),
    /// Panic on attempts `1..=n`, succeed after.
    Flaky(u32),
}

/// A parsed, deterministic fault plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// `(pattern, fault)` pairs, applied in spec order.
    cell_faults: Vec<(String, CellFault)>,
    /// `(benchmark, fraction)` trace truncations.
    truncate: Vec<(String, f64)>,
    /// `(benchmark, fraction)` store-recording truncations (torn
    /// writes), each fired once per installed plan.
    truncate_store: Vec<(String, f64)>,
    /// `(benchmark, period)` wrong-target predictor bugs: every
    /// `period`-th scored indirect prediction is perturbed.
    wrong_target: Vec<(String, u64)>,
    /// Seeded random panic mode: `(seed, rate)`.
    random: Option<(u64, f64)>,
}

/// Default perturbation period for `wrong-target` faults without an
/// explicit one: prime, so the corrupted executions spread across sites.
pub const WRONG_TARGET_DEFAULT_PERIOD: u64 = 97;

impl FaultPlan {
    /// The no-faults plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.cell_faults.is_empty()
            && self.truncate.is_empty()
            && self.truncate_store.is_empty()
            && self.wrong_target.is_empty()
            && self.random.is_none()
    }

    /// Parses a `REPRO_FAULTS` spec string. An empty string is the empty
    /// plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let fields: Vec<&str> = part.split(':').collect();
            match fields.as_slice() {
                ["panic", cell] => plan.cell_faults.push((cell.to_string(), CellFault::Panic)),
                ["delay", cell, ms] => {
                    let ms: u64 = ms.parse().map_err(|_| {
                        format!("fault {part:?}: delay wants milliseconds, got {ms:?}")
                    })?;
                    plan.cell_faults.push((
                        cell.to_string(),
                        CellFault::Delay(Duration::from_millis(ms)),
                    ));
                }
                ["flaky", cell, n] => {
                    let n: u32 = n.parse().map_err(|_| {
                        format!("fault {part:?}: flaky wants an attempt count, got {n:?}")
                    })?;
                    plan.cell_faults
                        .push((cell.to_string(), CellFault::Flaky(n)));
                }
                ["truncate", bench, frac] => {
                    let frac: f64 = frac.parse().map_err(|_| {
                        format!("fault {part:?}: truncate wants a fraction, got {frac:?}")
                    })?;
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(format!(
                            "fault {part:?}: truncate fraction must be in [0, 1], got {frac}"
                        ));
                    }
                    plan.truncate.push((bench.to_string(), frac));
                }
                ["truncate-store", bench, frac] => {
                    let frac: f64 = frac.parse().map_err(|_| {
                        format!("fault {part:?}: truncate-store wants a fraction, got {frac:?}")
                    })?;
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(format!(
                            "fault {part:?}: truncate-store fraction must be in [0, 1], got {frac}"
                        ));
                    }
                    plan.truncate_store.push((bench.to_string(), frac));
                }
                ["wrong-target", bench] => {
                    plan.wrong_target
                        .push((bench.to_string(), WRONG_TARGET_DEFAULT_PERIOD));
                }
                ["wrong-target", bench, period] => {
                    let period: u64 = period.parse().map_err(|_| {
                        format!("fault {part:?}: wrong-target wants a period, got {period:?}")
                    })?;
                    if period == 0 {
                        return Err(format!(
                            "fault {part:?}: wrong-target period must be at least 1"
                        ));
                    }
                    plan.wrong_target.push((bench.to_string(), period));
                }
                ["random", seed, rate] => {
                    let seed: u64 = seed.parse().map_err(|_| {
                        format!("fault {part:?}: random wants an integer seed, got {seed:?}")
                    })?;
                    let rate: f64 = rate.parse().map_err(|_| {
                        format!("fault {part:?}: random wants a rate, got {rate:?}")
                    })?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!(
                            "fault {part:?}: random rate must be in [0, 1], got {rate}"
                        ));
                    }
                    plan.random = Some((seed, rate));
                }
                _ => {
                    return Err(format!(
                        "unrecognized REPRO_FAULTS entry {part:?}; accepted forms: \
                         panic:<cell>, delay:<cell>:<ms>, flaky:<cell>:<n>, \
                         truncate:<bench>:<frac>, truncate-store:<bench>:<frac>, \
                         wrong-target:<bench>[:<period>], random:<seed>:<rate>"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Whether `pattern` targets `cell` (`table4/perl`, `table4/*`, `*`).
    fn matches(pattern: &str, cell: &str) -> bool {
        pattern == cell
            || pattern == "*"
            || pattern
                .strip_suffix("/*")
                .is_some_and(|exp| cell.split('/').next() == Some(exp))
    }

    /// Applies pre-execution faults for `(cell, attempt)` (attempts are
    /// 1-based): sleeps for delay faults, panics for panic/flaky/random
    /// faults. Called inside the pool's `catch_unwind` boundary.
    pub fn apply(&self, cell: &str, attempt: u32) {
        for (pattern, fault) in &self.cell_faults {
            if !FaultPlan::matches(pattern, cell) {
                continue;
            }
            match fault {
                CellFault::Delay(d) => std::thread::sleep(*d),
                CellFault::Panic => {
                    panic!("injected fault (REPRO_FAULTS panic:{pattern}) in {cell}")
                }
                CellFault::Flaky(n) if attempt <= *n => panic!(
                    "injected fault (REPRO_FAULTS flaky:{pattern}:{n}) in {cell} attempt {attempt}"
                ),
                CellFault::Flaky(_) => {}
            }
        }
        if let Some((seed, rate)) = self.random {
            if split_mix_unit(seed, cell, attempt) < rate {
                panic!(
                    "injected fault (REPRO_FAULTS random, seed {seed}) in {cell} attempt {attempt}"
                );
            }
        }
    }

    /// The truncation fraction for `bench`'s trace, if any.
    pub fn truncation(&self, bench: &str) -> Option<f64> {
        self.truncate
            .iter()
            .find(|(b, _)| b == bench)
            .map(|&(_, f)| f)
    }

    /// The store-recording truncation fraction for `bench`, if any.
    pub fn store_truncation(&self, bench: &str) -> Option<f64> {
        self.truncate_store
            .iter()
            .find(|(b, _)| b == bench)
            .map(|&(_, f)| f)
    }

    /// The wrong-target perturbation period for `bench`, if any.
    pub fn wrong_target(&self, bench: &str) -> Option<u64> {
        self.wrong_target
            .iter()
            .find(|(b, _)| b == bench)
            .map(|&(_, p)| p)
    }
}

/// A deterministic hash of `(seed, cell, attempt)` mapped to `[0, 1)` —
/// SplitMix64 finalization over an FNV-mixed key. Shared with the
/// pool's backoff jitter so every "random" decision in a chaos run is a
/// pure function of its inputs.
pub(crate) fn split_mix_unit(seed: u64, cell: &str, attempt: u32) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in cell.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= attempt as u64;
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The process-global plan a running campaign installs so the workload
/// layer can consult truncation faults without plumbing the plan through
/// every experiment signature.
static ACTIVE: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Benchmarks whose `truncate-store` fault has already fired under the
/// currently installed plan. The fault models one torn write, not a
/// persistently broken disk — consuming it lets the retry that the
/// failure provokes succeed.
static STORE_FAULTS_FIRED: Mutex<Option<HashSet<String>>> = Mutex::new(None);

/// Installs `plan` as the active plan, returning a guard that uninstalls
/// it on drop.
pub fn install(plan: FaultPlan) -> ActiveGuard {
    *ACTIVE.lock().expect("fault plan lock poisoned") = Some(plan);
    *STORE_FAULTS_FIRED
        .lock()
        .expect("store fault lock poisoned") = Some(HashSet::new());
    ActiveGuard
}

/// The active truncation fraction for `bench`, if a campaign with
/// truncation faults is running.
pub fn active_truncation(bench: &str) -> Option<f64> {
    ACTIVE
        .lock()
        .expect("fault plan lock poisoned")
        .as_ref()
        .and_then(|p| p.truncation(bench))
}

/// The active wrong-target perturbation period for `bench`, if a plan
/// with a `wrong-target` fault is installed.
pub fn active_wrong_target(bench: &str) -> Option<u64> {
    ACTIVE
        .lock()
        .expect("fault plan lock poisoned")
        .as_ref()
        .and_then(|p| p.wrong_target(bench))
}

/// Takes (consumes) the store-recording truncation for `bench`: returns
/// the fraction the first time it is called per benchmark under the
/// active plan, `None` afterwards and when no plan targets `bench`.
pub fn take_store_truncation(bench: &str) -> Option<f64> {
    let fraction = ACTIVE
        .lock()
        .expect("fault plan lock poisoned")
        .as_ref()
        .and_then(|p| p.store_truncation(bench))?;
    let mut fired = STORE_FAULTS_FIRED
        .lock()
        .expect("store fault lock poisoned");
    let fired = fired.as_mut()?;
    if fired.insert(bench.to_string()) {
        Some(fraction)
    } else {
        None
    }
}

/// Uninstalls the active fault plan when dropped.
pub struct ActiveGuard;

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        *ACTIVE.lock().expect("fault plan lock poisoned") = None;
        *STORE_FAULTS_FIRED
            .lock()
            .expect("store fault lock poisoned") = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_spec_form() {
        let plan = FaultPlan::parse(
            "panic:table4/perl, delay:table1/gcc:250,flaky:headline/perl:2,\
             truncate:compress:0.5,wrong-target:perl,wrong-target:gcc:13,random:42:0.25",
        )
        .unwrap();
        assert_eq!(plan.cell_faults.len(), 3);
        assert_eq!(plan.truncate, vec![("compress".to_string(), 0.5)]);
        assert_eq!(plan.wrong_target("perl"), Some(WRONG_TARGET_DEFAULT_PERIOD));
        assert_eq!(plan.wrong_target("gcc"), Some(13));
        assert_eq!(plan.wrong_target("compress"), None);
        assert_eq!(plan.random, Some((42, 0.25)));
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "panic",
            "delay:x",
            "delay:x:abc",
            "flaky:x:b",
            "truncate:perl:1.5",
            "truncate-store:perl:1.5",
            "truncate-store:perl:x",
            "wrong-target:perl:0",
            "wrong-target:perl:abc",
            "random:a:0.5",
            "random:1:2.0",
            "explode:x",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains(bad.split(',').next().unwrap()), "{bad}: {err}");
        }
    }

    #[test]
    fn pattern_matching_supports_wildcards() {
        assert!(FaultPlan::matches("table4/perl", "table4/perl"));
        assert!(!FaultPlan::matches("table4/perl", "table4/gcc"));
        assert!(FaultPlan::matches("table4/*", "table4/gcc"));
        assert!(!FaultPlan::matches("table4/*", "table5/gcc"));
        assert!(FaultPlan::matches("*", "anything/at-all"));
    }

    #[test]
    fn panic_fault_panics_and_misses_other_cells() {
        let plan = FaultPlan::parse("panic:table4/perl").unwrap();
        plan.apply("table4/gcc", 1); // no-op
        let caught = std::panic::catch_unwind(|| plan.apply("table4/perl", 1));
        assert!(caught.is_err());
    }

    #[test]
    fn flaky_fault_recovers_after_n_attempts() {
        let plan = FaultPlan::parse("flaky:x/y:2").unwrap();
        assert!(std::panic::catch_unwind(|| plan.apply("x/y", 1)).is_err());
        assert!(std::panic::catch_unwind(|| plan.apply("x/y", 2)).is_err());
        plan.apply("x/y", 3); // succeeds
    }

    #[test]
    fn random_mode_is_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::parse("random:7:0.5").unwrap();
        let outcome =
            |cell: &str, attempt| std::panic::catch_unwind(|| plan.apply(cell, attempt)).is_err();
        // Deterministic: identical inputs, identical outcome.
        for cell in ["a/b", "c/d", "e/f"] {
            assert_eq!(outcome(cell, 1), outcome(cell, 1), "{cell}");
        }
        // Attempt-sensitive: across enough (cell, attempt) pairs at rate
        // 0.5, both outcomes must occur.
        let results: Vec<bool> = (1..=20).map(|a| outcome("x/y", a)).collect();
        assert!(results.iter().any(|&r| r));
        assert!(results.iter().any(|&r| !r));
    }

    #[test]
    fn truncation_lookup_and_global_install() {
        // Synthetic benchmark names: `install` is process-global, so
        // using real benchmark names here would race with other unit
        // tests that build traces in parallel.
        let plan = FaultPlan::parse(
            "truncate:synth-a:0.25,truncate-store:synth-b:0.5,wrong-target:synth-c:7",
        )
        .unwrap();
        assert_eq!(plan.truncation("synth-a"), Some(0.25));
        assert_eq!(plan.truncation("synth-b"), None);
        assert_eq!(plan.store_truncation("synth-b"), Some(0.5));
        assert_eq!(plan.store_truncation("synth-a"), None);

        assert_eq!(active_truncation("synth-a"), None);
        assert_eq!(take_store_truncation("synth-b"), None);
        assert_eq!(active_wrong_target("synth-c"), None);
        {
            let _guard = install(plan.clone());
            assert_eq!(active_truncation("synth-a"), Some(0.25));
            assert_eq!(active_wrong_target("synth-c"), Some(7));
            assert_eq!(active_wrong_target("synth-a"), None);
            // A store fault is a single torn write: it fires once per
            // benchmark per installed plan, so the retry it provokes
            // records cleanly.
            assert_eq!(take_store_truncation("synth-b"), Some(0.5));
            assert_eq!(take_store_truncation("synth-b"), None);
            assert_eq!(take_store_truncation("synth-a"), None);
        }
        assert_eq!(active_truncation("synth-a"), None);
        {
            // Reinstalling re-arms the one-shot.
            let _guard = install(plan);
            assert_eq!(take_store_truncation("synth-b"), Some(0.5));
        }
        assert_eq!(take_store_truncation("synth-b"), None);
    }
}
