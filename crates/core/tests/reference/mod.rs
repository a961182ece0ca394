//! The reference front end: the prediction harness of one configuration,
//! one branch at a time — its own `BaseFrontEnd` beside its own
//! `IndirectStage`, every structure probed and trained on every branch.
//! Each lane of a batched `PredictionHarness` must reproduce it bit for
//! bit.

use branch_predictors::BranchClassStats;
use sim_isa::DynInstr;
use target_cache::harness::{
    BaseFrontEnd, BaseSource, FrontEndConfig, IndirectStage, PredictionOutcome,
};
use target_cache::{HarnessTelemetry, TargetCacheStats};

/// The paper's front end in trace-driven form: a [`BaseFrontEnd`] and an
/// [`IndirectStage`] driven together, one branch at a time.
#[derive(Debug)]
pub struct PredictionHarness {
    base: BaseFrontEnd,
    indirect: IndirectStage,
    stats: BranchClassStats,
    /// Optional observability hooks; `None` costs nothing on the hot path.
    telemetry: Option<HarnessTelemetry>,
}

impl PredictionHarness {
    /// Creates a cold harness.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration is invalid.
    pub fn new(config: FrontEndConfig) -> Self {
        PredictionHarness {
            base: BaseFrontEnd::new(&config),
            indirect: IndirectStage::new(config.indirect),
            stats: BranchClassStats::default(),
            telemetry: None,
        }
    }

    /// Attaches observability hooks: from now on every processed branch
    /// feeds the telemetry counters, and (if the hooks carry an event
    /// sink) every misprediction records a structured event.
    pub fn attach_telemetry(&mut self, telemetry: HarnessTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Per-branch-class prediction statistics so far.
    pub fn stats(&self) -> &BranchClassStats {
        &self.stats
    }

    /// Target-cache structural statistics, if one is configured (for a
    /// cascade: the second stage's statistics).
    pub fn target_cache_stats(&self) -> Option<&TargetCacheStats> {
        self.indirect.target_cache_stats()
    }

    /// The cascade's raw `(filtered, total)` jump counts, if a cascade is
    /// configured (what telemetry manifests record).
    pub fn cascade_counts(&self) -> Option<(u64, u64)> {
        self.indirect.cascade_counts()
    }

    /// Of the indirect jumps where the target cache supplied the used
    /// prediction, the fraction it got right.
    pub fn target_cache_served_accuracy(&self) -> Option<f64> {
        self.indirect.target_cache_served_accuracy()
    }

    /// Processes one dynamic instruction; returns the prediction outcome if
    /// it was a branch.
    pub fn process(&mut self, instr: &DynInstr) -> Option<PredictionOutcome> {
        let b = instr.branch_exec()?;
        let pc = instr.pc();
        let actual = b.next_pc(pc);

        // Whether `REPRO_PROF=full` phase timing is live. When it is not
        // (the default), every timing site below is one branch on this
        // bool — no `Instant::now()` calls, no atomics.
        let timed = self.telemetry.as_ref().is_some_and(|t| t.prof().is_some());
        let clock = |on: bool| on.then(std::time::Instant::now);
        let lap = |t0: Option<std::time::Instant>| t0.map(|t| t.elapsed().as_nanos() as u64);

        // --- Fetch-time prediction -----------------------------------
        let t0 = clock(timed);
        let history_value = self.indirect.history_value(pc);
        let ns_tc_index = lap(t0);
        let t0 = clock(timed);
        let btb_hit = self.base.lookup(pc);
        let ns_btb_lookup = lap(t0);

        // The target cache (or cascade) is probed in parallel with the BTB;
        // the probe is kept for the retire-time update ("index A").
        let t0 = clock(timed);
        let probe = self
            .indirect
            .probe(pc, b.class, history_value, btb_hit.map(|h| h.target));
        let ns_tc_lookup = lap(t0);

        // Alongside the prediction, name the structure that supplied it
        // (the telemetry layer's `source` attribution; see
        // `telemetry::PREDICTOR_SOURCES`).
        let decision = self.base.decide(pc, btb_hit);
        let (predicted, source) = match decision.source {
            BaseSource::Indirect => self.indirect.predict(&probe, decision.predicted, actual),
            s => (decision.predicted, s.label()),
        };

        // --- Resolution-time training --------------------------------
        let t0 = clock(timed);
        self.base.resolve_ras(pc, b.class);
        let ns_ras = lap(t0);
        let t0 = clock(timed);
        self.base.resolve_direction(pc, b);
        let ns_dir_update = lap(t0);
        let t0 = clock(timed);
        self.base.resolve_btb(pc, b);
        let ns_btb_update = lap(t0);
        let t0 = clock(timed);
        self.indirect.train(pc, probe, b.target);
        let ns_tc_update = lap(t0);
        let t0 = clock(timed);
        self.indirect.train_history(pc, b, actual);
        let ns_history_update = lap(t0);

        if let Some(p) = self.telemetry.as_ref().and_then(|t| t.prof()) {
            // All eight are `Some` exactly when `timed` was true.
            for (timer, ns) in [
                (&p.tc_index, ns_tc_index),
                (&p.btb_lookup, ns_btb_lookup),
                (&p.tc_lookup, ns_tc_lookup),
                (&p.ras, ns_ras),
                (&p.dir_update, ns_dir_update),
                (&p.btb_update, ns_btb_update),
                (&p.tc_update, ns_tc_update),
                (&p.history_update, ns_history_update),
            ] {
                if let Some(ns) = ns {
                    timer.record_ns(ns);
                }
            }
        }

        let outcome = PredictionOutcome {
            class: b.class,
            predicted,
            actual,
        };
        self.stats.record(b.class, outcome.correct());
        if let Some(t) = &self.telemetry {
            t.observe(
                pc,
                b.class,
                predicted,
                actual,
                history_value.unwrap_or(0),
                source,
            );
        }
        Some(outcome)
    }

    /// Replays an entire trace.
    pub fn run<'a, I: IntoIterator<Item = &'a DynInstr>>(&mut self, trace: I) {
        for instr in trace {
            self.process(instr);
        }
    }
}
