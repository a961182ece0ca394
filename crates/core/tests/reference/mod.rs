//! The reference front end: the prediction harness of one configuration,
//! one branch at a time — its own `BaseFrontEnd` beside its own
//! `IndirectStage`, every structure probed and trained on every branch,
//! and its own books: a mispredict tally keyed by source label and an
//! optional event sink. Each lane of a batched `PredictionHarness` must
//! reproduce it bit for bit.

use branch_predictors::BranchClassStats;
use sim_isa::DynInstr;
use sim_telemetry::{Event, EventSink};
use std::collections::BTreeMap;
use target_cache::harness::{
    BaseFrontEnd, FrontEndConfig, IndirectStage, PredictionOutcome, Source,
};
use target_cache::TargetCacheStats;

/// The paper's front end in trace-driven form: a [`BaseFrontEnd`] and an
/// [`IndirectStage`] driven together, one branch at a time.
#[derive(Debug)]
pub struct PredictionHarness {
    base: BaseFrontEnd,
    indirect: IndirectStage,
    stats: BranchClassStats,
    /// Mispredicts by the label of the source that supplied the prediction.
    mispredicts: BTreeMap<&'static str, u64>,
    events: Option<EventSink>,
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
            mispredicts: BTreeMap::new(),
            events: None,
        }
    }

    /// Attaches an event sink: from now on every misprediction records a
    /// structured event.
    pub fn attach_events(&mut self, sink: EventSink) {
        self.events = Some(sink);
    }

    /// Per-branch-class prediction statistics so far.
    pub fn stats(&self) -> &BranchClassStats {
        &self.stats
    }

    /// Mispredicts so far, keyed by source label.
    pub fn mispredicts_by_label(&self) -> &BTreeMap<&'static str, u64> {
        &self.mispredicts
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

        // --- Fetch-time prediction -----------------------------------
        let history_value = self.indirect.history_value(pc);
        let btb_hit = self.base.lookup(pc);
        // The target cache (or cascade) is probed in parallel with the BTB;
        // the probe is kept for the retire-time update ("index A").
        let probe = self
            .indirect
            .probe(pc, b.class, history_value, btb_hit.map(|h| h.target));
        let decision = self.base.decide(pc, btb_hit);
        let (predicted, source) = match decision.source {
            Source::BtbFallback => self.indirect.predict(&probe, decision.predicted, actual),
            s => (decision.predicted, s),
        };

        // --- Resolution-time training --------------------------------
        self.base.resolve_ras(pc, b.class);
        self.base.resolve_direction(pc, b);
        self.base.resolve_btb(pc, b);
        self.indirect.train(pc, probe, b.target);
        self.indirect.train_history(pc, b, actual);

        let outcome = PredictionOutcome {
            class: b.class,
            predicted,
            actual,
        };
        self.stats.record(b.class, outcome.correct());
        if !outcome.correct() {
            *self.mispredicts.entry(source.label()).or_insert(0) += 1;
            if let Some(sink) = &self.events {
                sink.record(Event::Mispredict {
                    pc: pc.raw(),
                    class: b.class.mnemonic(),
                    predicted: predicted.raw(),
                    actual: actual.raw(),
                    history: history_value.unwrap_or(0),
                    source: source.label(),
                });
            }
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
