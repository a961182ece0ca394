//! Trace-driven prediction harness: the paper's front end in functional
//! (accuracy-only) form.
//!
//! The harness combines the baseline structures — BTB, two-level direction
//! predictor, return address stack — with an optional target cache, and
//! replays a trace through them in program order, scoring every branch
//! prediction. This measures exactly what the paper's *misprediction-rate*
//! tables (1, 2 and 4) measure; the execution-time tables additionally need
//! the timing model in the `hps-uarch` crate, which makes its fetch
//! decisions with the same two halves described below.
//!
//! ## Prediction protocol (Section 3.2 of the paper)
//!
//! "During instruction fetch, the BTB and the target cache are examined
//! concurrently. If the BTB detects an indirect branch, then the selected
//! target cache entry is used for target prediction."
//!
//! 1. The BTB is probed with the fetch address. A miss means the front end
//!    does not know the instruction is a branch: it predicts fall-through.
//! 2. On a hit, the stored branch type dispatches:
//!    * conditional direct → two-level predictor chooses taken/not-taken,
//!      the BTB supplies the taken target;
//!    * unconditional direct / call → BTB target;
//!    * return → return address stack;
//!    * indirect jump / indirect call → the target cache's prediction, or
//!      the BTB's last-computed target when the target cache has none (or
//!      none is configured — the baseline).
//! 3. At resolution, every structure is trained: the BTB per its update
//!    policy, the direction predictor, the history registers, and the
//!    target cache at the fetch-time index A.
//!
//! The code is split along the line no indirect-predictor choice can
//! cross: a [`BaseFrontEnd`] (BTB, direction predictor, return stack),
//! whose state depends only on the resolved branch stream, and an
//! [`IndirectStage`] (history register plus target cache, cascade or
//! oracle), which only decides branches whose BTB entry is an indirect
//! jump or call and trains on target-cache-eligible ones.
//!
//! ## The batch
//!
//! [`PredictionHarness`] exploits that split: it drives one
//! [`BaseFrontEnd`] and one [`Lane`] per configuration — that
//! configuration's indirect stage, statistics and telemetry — over a trace
//! in one pass, one instruction at a time. Every configuration of a batch
//! must [share the baseline](FrontEndConfig::shares_base); only the
//! indirect predictors differ.
//!
//! * The baseline is probed, decides and trains once per branch for the
//!   whole batch.
//! * A branch that is neither target-cache-eligible nor an indirect-kind
//!   BTB hit is *shared*: the baseline's decision is every lane's
//!   prediction. The rest go through each lane's own indirect stage.
//! * Every lane books every branch in its own statistics and telemetry and
//!   trains its own history register, so a lane ends exactly where its
//!   configuration ends replayed alone.
//!
//! [`PredictionHarness::new`] is a batch of one, so there is exactly one
//! per-branch protocol, whichever way a harness is used. `hps-uarch`'s
//! timing model predicts through it too: it drives a batch of its
//! machines' front ends beside their schedules, one instruction at a time.

use crate::cache::{Access, TargetCache};
use crate::cascade::{CascadeConfig, CascadedPredictor, Stage};
use crate::config::TargetCacheConfig;
use crate::history::HistoryTracker;
use crate::stats::TargetCacheStats;
use crate::telemetry::{HarnessProf, HarnessTelemetry};
use branch_predictors::{
    BranchClassStats, Btb, BtbConfig, BtbHit, DirectionConfig, DirectionPredictor,
    ReturnAddressStack,
};
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr};
use sim_telemetry::PhaseTimer;

/// How indirect-jump targets are predicted.
#[derive(Clone, Copy, Debug, Default)]
pub enum IndirectPredictor {
    /// The BTB's last-computed target (the paper's baseline).
    #[default]
    BtbOnly,
    /// The paper's target cache (falling back to the BTB on a miss).
    TargetCache(TargetCacheConfig),
    /// Perfect target prediction for every BTB-detected indirect branch —
    /// the upper bound on what any target predictor could deliver, used by
    /// the limit study (`experiments::extension_limits`).
    Oracle,
    /// A cascaded predictor: BTB-confidence filter in front of a target
    /// cache (`experiments::extension_cascade`).
    Cascade(CascadeConfig),
}

/// Configuration of the full front end.
#[derive(Clone, Copy, Debug)]
pub struct FrontEndConfig {
    /// BTB geometry and update policy.
    pub btb: BtbConfig,
    /// Conditional-direction predictor.
    pub cond: DirectionConfig,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// Indirect-target predictor.
    pub indirect: IndirectPredictor,
}

impl FrontEndConfig {
    /// The paper's baseline machine: 1K-entry 4-way BTB, gshare(12)
    /// direction predictor, 32-deep return stack, no target cache.
    pub fn isca97_baseline() -> Self {
        FrontEndConfig {
            btb: BtbConfig::isca97_baseline(),
            cond: DirectionConfig::gshare(12),
            ras_depth: 32,
            indirect: IndirectPredictor::BtbOnly,
        }
    }

    /// The baseline plus a target cache.
    pub fn isca97_with(tc: TargetCacheConfig) -> Self {
        FrontEndConfig {
            indirect: IndirectPredictor::TargetCache(tc),
            ..FrontEndConfig::isca97_baseline()
        }
    }

    /// The baseline with perfect indirect-target prediction.
    pub fn isca97_oracle() -> Self {
        FrontEndConfig {
            indirect: IndirectPredictor::Oracle,
            ..FrontEndConfig::isca97_baseline()
        }
    }

    /// The baseline with a cascaded predictor in front of the given target
    /// cache.
    pub fn isca97_cascade(cache: TargetCacheConfig) -> Self {
        FrontEndConfig {
            indirect: IndirectPredictor::Cascade(CascadeConfig::new(cache)),
            ..FrontEndConfig::isca97_baseline()
        }
    }

    /// The configured target cache, if any (a cascade's second stage
    /// counts).
    pub fn target_cache(&self) -> Option<TargetCacheConfig> {
        match self.indirect {
            IndirectPredictor::TargetCache(tc) => Some(tc),
            IndirectPredictor::Cascade(c) => Some(c.cache),
            _ => None,
        }
    }

    /// Whether `other` has the same baseline front end — BTB, direction
    /// predictor and return-stack depth — so the two can share one
    /// [`BaseFrontEnd`] as lanes of one [`PredictionHarness`] batch, in the
    /// functional or the timing model. Only their indirect predictors may
    /// differ.
    pub fn shares_base(&self, other: &FrontEndConfig) -> bool {
        self.btb == other.btb && self.cond == other.cond && self.ras_depth == other.ras_depth
    }

    /// Replaces the BTB configuration (builder style).
    #[must_use]
    pub fn with_btb(mut self, btb: BtbConfig) -> Self {
        self.btb = btb;
        self
    }

    /// Replaces the direction predictor (builder style).
    #[must_use]
    pub fn with_direction(mut self, cond: DirectionConfig) -> Self {
        self.cond = cond;
        self
    }
}

/// The outcome of predicting one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictionOutcome {
    /// The branch's (actual) class.
    pub class: BranchClass,
    /// The next fetch address the front end predicted.
    pub predicted: Addr,
    /// The next fetch address the branch actually produced.
    pub actual: Addr,
}

impl PredictionOutcome {
    /// Whether the complete prediction (direction and target) was correct.
    pub fn correct(&self) -> bool {
        self.predicted == self.actual
    }
}

/// Which baseline structure a branch's prediction comes from: the fetch
/// engine's dispatch on the BTB hit's stored branch kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseSource {
    /// BTB miss: the front end does not know this is a branch.
    Fallthrough,
    /// Conditional entry: the two-level direction predictor steers.
    Direction,
    /// Direct jump or call entry: the BTB target.
    Btb,
    /// Return entry: the return address stack.
    ReturnStack,
    /// Indirect jump or call entry: the [`IndirectStage`] decides,
    /// falling back to the BTB's last-computed target.
    Indirect,
}

impl BaseSource {
    /// The telemetry `source` label (see
    /// [`PREDICTOR_SOURCES`](crate::telemetry::PREDICTOR_SOURCES)); an
    /// indirect entry the indirect stage leaves to the BTB reads
    /// `btb-fallback`.
    pub fn label(self) -> &'static str {
        match self {
            BaseSource::Fallthrough => "fallthrough",
            BaseSource::Direction => "cond-direction",
            BaseSource::Btb => "btb",
            BaseSource::ReturnStack => "ras",
            BaseSource::Indirect => "btb-fallback",
        }
    }
}

/// The baseline front end's fetch-time decision for one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaseDecision {
    /// The structure that supplies the prediction.
    pub source: BaseSource,
    /// The predicted next fetch address. For [`BaseSource::Indirect`] this
    /// is the BTB's stored target — the prediction when the indirect stage
    /// has none.
    pub predicted: Addr,
}

/// The half of the front end no indirect-predictor choice can change: the
/// BTB, the two-level direction predictor and the return address stack.
///
/// Their state depends only on the resolved branch stream (the BTB trains
/// on computed targets, the direction predictor on outcomes, the return
/// stack on call/return classes), never on which target the indirect
/// stage predicted, so [`PredictionHarness`] drives one for a whole batch
/// of [`IndirectStage`]s.
#[derive(Clone, Debug)]
pub struct BaseFrontEnd {
    btb: Btb,
    cond: DirectionPredictor,
    ras: ReturnAddressStack,
}

impl BaseFrontEnd {
    /// Cold baseline structures for `config` (its indirect predictor is
    /// ignored).
    pub fn new(config: &FrontEndConfig) -> Self {
        BaseFrontEnd {
            btb: Btb::new(config.btb),
            cond: DirectionPredictor::new(config.cond),
            ras: ReturnAddressStack::new(config.ras_depth),
        }
    }

    /// The fetch-time BTB probe.
    #[inline]
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbHit> {
        self.btb.lookup(pc)
    }

    /// Dispatches on the BTB hit's stored kind (Section 3.2's protocol).
    #[inline]
    pub fn decide(&self, pc: Addr, hit: Option<BtbHit>) -> BaseDecision {
        let (source, predicted) = match hit {
            None => (BaseSource::Fallthrough, pc.next()),
            Some(hit) => match hit.class {
                BranchClass::CondDirect => {
                    let p = if self.cond.predict(pc) {
                        hit.target
                    } else {
                        pc.next()
                    };
                    (BaseSource::Direction, p)
                }
                BranchClass::UncondDirect | BranchClass::Call => (BaseSource::Btb, hit.target),
                BranchClass::Return => (
                    BaseSource::ReturnStack,
                    self.ras.peek().unwrap_or(hit.target),
                ),
                BranchClass::IndirectJump | BranchClass::IndirectCall => {
                    (BaseSource::Indirect, hit.target)
                }
            },
        };
        BaseDecision { source, predicted }
    }

    /// Decode-driven return stack maintenance: the machine learns the true
    /// class at decode, so the stack stays consistent regardless of BTB
    /// hits.
    #[inline]
    pub fn resolve_ras(&mut self, pc: Addr, class: BranchClass) {
        if class.is_call() {
            self.ras.push(pc.next());
        } else if class.is_return() {
            let _ = self.ras.pop();
        }
    }

    /// Resolution-time direction-predictor training.
    #[inline]
    pub fn resolve_direction(&mut self, pc: Addr, b: BranchExec) {
        if b.class.is_conditional() {
            self.cond.update(pc, b.taken);
        }
    }

    /// Resolution-time BTB training.
    #[inline]
    pub fn resolve_btb(&mut self, pc: Addr, b: BranchExec) {
        self.btb.update(pc, b.class, b.target, pc.next());
    }
}

/// What the indirect stage looked up at fetch, carried to resolution so
/// training writes the entry the prediction was read from ("index A").
#[derive(Clone, Copy, Debug, Default)]
pub struct IndirectProbe {
    tc: Option<(Access, Option<Addr>)>,
    cascade: Option<(Stage, Option<Addr>, Option<Access>)>,
    btb_target: Option<Addr>,
}

/// The configuration-specific half of the front end: the indirect-target
/// predictor (target cache, cascade or oracle; nothing for the BTB-only
/// baseline) and the history register it indexes with.
#[derive(Debug)]
pub struct IndirectStage {
    oracle: bool,
    target_cache: Option<TargetCache>,
    cascade: Option<CascadedPredictor>,
    history: Option<HistoryTracker>,
    /// Indirect jumps where the target cache *served* the used prediction
    /// (vs. falling back to the BTB), and how many of those were right.
    tc_served: u64,
    tc_served_correct: u64,
}

impl IndirectStage {
    /// A cold stage for `indirect`.
    ///
    /// # Panics
    ///
    /// Panics if the target-cache or cascade configuration is invalid.
    pub fn new(indirect: IndirectPredictor) -> Self {
        let (target_cache, cascade, history) = match indirect {
            IndirectPredictor::TargetCache(tc) => (
                Some(TargetCache::new(tc)),
                None,
                Some(HistoryTracker::new(tc.history)),
            ),
            IndirectPredictor::Cascade(c) => (
                None,
                Some(CascadedPredictor::new(c)),
                Some(HistoryTracker::new(c.cache.history)),
            ),
            _ => (None, None, None),
        };
        IndirectStage {
            oracle: matches!(indirect, IndirectPredictor::Oracle),
            target_cache,
            cascade,
            history,
            tc_served: 0,
            tc_served_correct: 0,
        }
    }

    /// The history value the target cache would be indexed with for a jump
    /// at `pc` right now; `None` without a target cache.
    #[inline]
    pub fn history_value(&self, pc: Addr) -> Option<u64> {
        self.history.as_ref().map(|h| h.value_for(pc))
    }

    /// The fetch-time lookup for a branch of `class` at `pc`. Only
    /// target-cache-eligible classes consult the cache or cascade;
    /// `btb_target` is the BTB hit's stored target, whatever its kind.
    #[inline]
    pub fn probe(
        &mut self,
        pc: Addr,
        class: BranchClass,
        history: Option<u64>,
        btb_target: Option<Addr>,
    ) -> IndirectProbe {
        if !class.uses_target_cache() {
            return IndirectProbe::default();
        }
        IndirectProbe {
            tc: self.target_cache.as_mut().map(|tc| {
                tc.lookup(
                    pc,
                    history.expect("history tracker exists with target cache"),
                )
            }),
            cascade: self.cascade.as_mut().map(|c| {
                c.predict(
                    pc,
                    history.expect("history tracker exists with cascade"),
                    btb_target,
                )
            }),
            btb_target,
        }
    }

    /// The prediction for a branch whose BTB entry is an indirect jump or
    /// call: the oracle's, the cascade's, the target cache's, or else
    /// `fallback` (the BTB's last-computed target). Returns the prediction
    /// and its telemetry source label.
    #[inline]
    pub fn predict(
        &mut self,
        probe: &IndirectProbe,
        fallback: Addr,
        actual: Addr,
    ) -> (Addr, &'static str) {
        if self.oracle {
            // Perfect target prediction (limit study).
            return (actual, "oracle");
        }
        if let Some((stage, pred, _)) = &probe.cascade {
            let s = match stage {
                Stage::Btb => "cascade-btb",
                Stage::Cache => "cascade-cache",
            };
            return (pred.unwrap_or(fallback), s);
        }
        match probe.tc.and_then(|(_, pred)| pred) {
            Some(tc_target) => {
                self.tc_served += 1;
                self.tc_served_correct += (tc_target == actual) as u64;
                (tc_target, "target-cache")
            }
            // Target-cache miss (or no target cache): fall back to the
            // BTB's last-computed target.
            None => (fallback, "btb-fallback"),
        }
    }

    /// Resolution-time training of the target cache or cascade at the
    /// probe's fetch-time index, with the branch's computed target.
    #[inline]
    pub fn train(&mut self, pc: Addr, probe: IndirectProbe, target: Addr) {
        if let Some((access, _)) = probe.tc {
            self.target_cache
                .as_mut()
                .expect("a target-cache probe implies a target cache")
                .update(access, target);
        }
        if let Some((_, _, access)) = probe.cascade {
            self.cascade
                .as_mut()
                .expect("a cascade probe implies a cascade")
                .update(pc, access, target, probe.btb_target);
        }
    }

    /// Feeds one resolved branch to the history register.
    #[inline]
    pub fn train_history(&mut self, pc: Addr, b: BranchExec, actual: Addr) {
        if let Some(h) = &mut self.history {
            h.on_branch_resolved(pc, b.class, b.taken, actual);
        }
    }

    /// Target-cache structural statistics, if one is configured (for a
    /// cascade: the second stage's statistics).
    pub fn target_cache_stats(&self) -> Option<&TargetCacheStats> {
        self.target_cache
            .as_ref()
            .map(|tc| tc.stats())
            .or_else(|| self.cascade.as_ref().map(|c| c.cache().stats()))
    }

    /// The cascade's raw `(filtered, total)` jump counts, if a cascade is
    /// configured.
    pub fn cascade_counts(&self) -> Option<(u64, u64)> {
        self.cascade.as_ref().map(|c| (c.filtered(), c.total()))
    }

    /// The cascade's stage-one filter rate, if a cascade is configured.
    pub fn cascade_filter_rate(&self) -> Option<f64> {
        self.cascade.as_ref().map(|c| c.filter_rate())
    }

    /// Of the indirect jumps where the target cache supplied the used
    /// prediction, the fraction it got right.
    pub fn target_cache_served_accuracy(&self) -> Option<f64> {
        self.target_cache.as_ref()?;
        Some(if self.tc_served == 0 {
            0.0
        } else {
            self.tc_served_correct as f64 / self.tc_served as f64
        })
    }
}

/// One configuration's share of a [`PredictionHarness`] batch: its
/// [`IndirectStage`], its branch statistics and its optional telemetry
/// hooks.
#[derive(Debug)]
pub struct Lane {
    indirect: IndirectStage,
    stats: BranchClassStats,
    /// Optional observability hooks; `None` costs nothing on the hot path.
    telemetry: Option<HarnessTelemetry>,
}

impl Lane {
    fn new(config: FrontEndConfig) -> Self {
        Lane {
            indirect: IndirectStage::new(config.indirect),
            stats: BranchClassStats::default(),
            telemetry: None,
        }
    }

    /// The lane's indirect stage: its target-cache statistics, cascade
    /// counts and served accuracy.
    pub fn indirect(&self) -> &IndirectStage {
        &self.indirect
    }

    /// Per-branch-class prediction statistics so far.
    pub fn stats(&self) -> &BranchClassStats {
        &self.stats
    }

    /// The indirect stage's part of a branch that is
    /// target-cache-eligible (looked up and trained) or hits an
    /// indirect-kind BTB entry (predicted). Returns the prediction, its
    /// source label and the fetch-time history value the stage read.
    #[inline]
    fn predict_indirect<const TIMED: bool>(
        &mut self,
        pc: Addr,
        b: BranchExec,
        actual: Addr,
        hit: Option<BtbHit>,
        decision: BaseDecision,
    ) -> (Addr, &'static str, Option<u64>) {
        let prof = self.telemetry.as_ref().and_then(HarnessTelemetry::prof);
        let indirect = &mut self.indirect;
        let history = timed::<TIMED, _>(prof.map(|p| &p.tc_index), || {
            b.class
                .uses_target_cache()
                .then(|| indirect.history_value(pc))
                .flatten()
        });
        // The target cache (or cascade) is probed in parallel with the
        // BTB; the probe is kept for the retire-time update ("index A").
        let probe = timed::<TIMED, _>(prof.map(|p| &p.tc_lookup), || {
            indirect.probe(pc, b.class, history, hit.map(|h| h.target))
        });
        let (predicted, source) = match decision.source {
            BaseSource::Indirect => indirect.predict(&probe, decision.predicted, actual),
            s => (decision.predicted, s.label()),
        };
        timed::<TIMED, _>(prof.map(|p| &p.tc_update), || {
            indirect.train(pc, probe, b.target)
        });
        (predicted, source, history)
    }

    /// Books one branch's prediction — statistics, telemetry and the
    /// history register's training — whichever structure made it.
    #[inline]
    fn resolve<const TIMED: bool>(
        &mut self,
        pc: Addr,
        b: BranchExec,
        actual: Addr,
        predicted: Addr,
        source: &'static str,
        history: Option<u64>,
    ) {
        let correct = predicted == actual;
        if let Some(t) = &self.telemetry {
            // Events carry the fetch-time history value, read before this
            // branch trains the register.
            let history = match history {
                Some(h) => h,
                None if correct => 0,
                None => self.indirect.history_value(pc).unwrap_or(0),
            };
            t.observe(pc, b.class, predicted, actual, history, source);
        }
        let prof = self.telemetry.as_ref().and_then(HarnessTelemetry::prof);
        let indirect = &mut self.indirect;
        timed::<TIMED, _>(prof.map(|p| &p.history_update), || {
            indirect.train_history(pc, b, actual)
        });
        self.stats.record(b.class, correct);
    }
}

/// Runs `f`, timing it into `timer` when `TIMED` and a timer is given;
/// an untimed replay compiles to `f` alone.
#[inline(always)]
fn timed<const TIMED: bool, R>(timer: Option<&PhaseTimer>, f: impl FnOnce() -> R) -> R {
    match timer {
        Some(t) if TIMED => t.time(f),
        _ => f(),
    }
}

/// The paper's front end in trace-driven form, for a batch of
/// configurations that share a baseline: one [`BaseFrontEnd`] and one
/// [`Lane`] per configuration, advanced together one instruction at a
/// time.
///
/// Each branch probes and trains the BTB, direction predictor and return
/// stack once for the whole batch. A branch that is neither
/// target-cache-eligible nor an indirect-kind BTB hit is decided once
/// for every lane; the others go through each lane's own indirect stage.
/// Every lane then books the prediction in its own statistics and
/// telemetry and trains its own history register, so each lane ends
/// exactly where its configuration would have ended alone.
/// [`new`](Self::new) builds a batch of one, and the accessors without a
/// lane index ([`stats`](Self::stats), [`process`](Self::process)'s
/// outcome, …) read the first lane.
///
/// # Example
///
/// ```
/// use target_cache::harness::{FrontEndConfig, PredictionHarness};
/// use target_cache::TargetCacheConfig;
/// use sim_isa::{Addr, BranchClass, BranchExec, DynInstr};
///
/// let mut h = PredictionHarness::new(FrontEndConfig::isca97_with(
///     TargetCacheConfig::isca97_tagless_gshare(),
/// ));
/// let jump = DynInstr::branch(
///     Addr::new(0x100),
///     BranchExec::taken(BranchClass::IndirectJump, Addr::new(0x900)),
/// );
/// h.process(&jump);
/// assert_eq!(h.stats().indirect_jump_counters().executed, 1);
///
/// // Two configurations over one baseline, in one pass.
/// let mut batch = PredictionHarness::batch(&[
///     FrontEndConfig::isca97_baseline(),
///     FrontEndConfig::isca97_oracle(),
/// ]);
/// batch.run(&[jump, jump]);
/// let [btb, oracle] = batch.lanes() else { unreachable!() };
/// assert_eq!(btb.stats().indirect_jump_counters().correct, 1);
/// assert_eq!(oracle.stats().indirect_jump_counters().correct, 1);
/// ```
#[derive(Debug)]
pub struct PredictionHarness {
    base: BaseFrontEnd,
    lanes: Vec<Lane>,
    /// The phase timers the baseline's phases are sampled into, once per
    /// branch for the whole batch: the first lane's that carries them.
    base_prof: Option<HarnessProf>,
}

impl PredictionHarness {
    /// Creates a cold harness: a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration is invalid.
    pub fn new(config: FrontEndConfig) -> Self {
        PredictionHarness::batch(&[config])
    }

    /// Creates a cold harness with one lane per configuration, in order.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, if the configurations do not all
    /// [share a baseline](FrontEndConfig::shares_base), or if any
    /// sub-configuration is invalid.
    pub fn batch(configs: &[FrontEndConfig]) -> Self {
        let first = configs
            .first()
            .expect("a batch holds at least one configuration");
        assert!(
            configs.iter().all(|c| first.shares_base(c)),
            "every configuration of a batch must share its baseline front end"
        );
        PredictionHarness {
            base: BaseFrontEnd::new(first),
            lanes: configs.iter().map(|&c| Lane::new(c)).collect(),
            base_prof: None,
        }
    }

    /// The lanes, in batch order.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// The lanes, in batch order, with everything they measured.
    pub fn into_lanes(self) -> Vec<Lane> {
        self.lanes
    }

    /// Attaches observability hooks to the first lane (see
    /// [`attach_lane_telemetry`](Self::attach_lane_telemetry)).
    pub fn attach_telemetry(&mut self, telemetry: HarnessTelemetry) {
        self.attach_lane_telemetry(0, telemetry);
    }

    /// Attaches observability hooks to lane `lane`: from now on every
    /// branch feeds that lane's prediction into the hooks' counters, and
    /// (if the hooks carry an event sink) every misprediction records a
    /// structured event. Give each lane its own sink to keep its events
    /// apart. A hot-path profiler times the lane's indirect-stage phases
    /// (`tc-index`, `tc-lookup` and `tc-update` on the branches its
    /// indirect stage handles, `history-update` on every branch); the
    /// baseline's phases (`btb-lookup`, `ras`, `dir-update`, `btb-update`)
    /// are sampled once per branch for the whole batch, into the first
    /// profiled lane's timers.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn attach_lane_telemetry(&mut self, lane: usize, telemetry: HarnessTelemetry) {
        self.lanes[lane].telemetry = Some(telemetry);
        self.base_prof = self
            .lanes
            .iter()
            .find_map(|l| l.telemetry.as_ref()?.prof().cloned());
    }

    /// The first lane's per-branch-class prediction statistics so far.
    pub fn stats(&self) -> &BranchClassStats {
        &self.lanes[0].stats
    }

    /// The first lane's target-cache structural statistics, if one is
    /// configured (for a cascade: the second stage's statistics).
    pub fn target_cache_stats(&self) -> Option<&TargetCacheStats> {
        self.lanes[0].indirect.target_cache_stats()
    }

    /// The first lane's cascade stage-one filter rate, if a cascade is
    /// configured.
    pub fn cascade_filter_rate(&self) -> Option<f64> {
        self.lanes[0].indirect.cascade_filter_rate()
    }

    /// The first lane's raw cascade `(filtered, total)` jump counts, if a
    /// cascade is configured (what telemetry manifests record).
    pub fn cascade_counts(&self) -> Option<(u64, u64)> {
        self.lanes[0].indirect.cascade_counts()
    }

    /// Of the first lane's indirect jumps where the target cache supplied
    /// the used prediction, the fraction it got right.
    pub fn target_cache_served_accuracy(&self) -> Option<f64> {
        self.lanes[0].indirect.target_cache_served_accuracy()
    }

    /// Advances every lane by one dynamic instruction; returns the first
    /// lane's prediction outcome if it was a branch.
    #[inline]
    pub fn process(&mut self, instr: &DynInstr) -> Option<PredictionOutcome> {
        let mut first = None;
        self.run_observed(std::iter::once(instr), |lane, _, outcome| {
            if lane == 0 {
                first = Some(*outcome);
            }
        });
        first
    }

    /// Replays a trace through every lane.
    pub fn run<'a, I: IntoIterator<Item = &'a DynInstr>>(&mut self, trace: I) {
        self.run_observed(trace, |_, _, _| {});
    }

    /// Replays a trace through every lane, handing each branch's outcome
    /// in each lane to `observe` as `(lane, pc, outcome)`, lanes in batch
    /// order.
    pub fn run_observed<'a, I, F>(&mut self, trace: I, mut observe: F)
    where
        I: IntoIterator<Item = &'a DynInstr>,
        F: FnMut(usize, Addr, &PredictionOutcome),
    {
        // Phase timing is decided once per replay, so an untimed replay
        // carries no clock checks in its loop.
        if self.base_prof.is_some() {
            for instr in trace {
                self.step::<true>(instr, &mut observe);
            }
        } else {
            for instr in trace {
                self.step::<false>(instr, &mut observe);
            }
        }
    }

    /// The per-branch protocol: advances every lane by one instruction.
    /// Inlined into the replay loop, so a non-branch costs one class test.
    #[inline]
    fn step<const TIMED: bool>(
        &mut self,
        instr: &DynInstr,
        observe: &mut impl FnMut(usize, Addr, &PredictionOutcome),
    ) {
        let Some(b) = instr.branch_exec() else {
            return;
        };
        let pc = instr.pc();
        let actual = b.next_pc(pc);
        let prof = if TIMED { self.base_prof.as_ref() } else { None };

        // --- Fetch-time prediction -----------------------------------
        let base = &mut self.base;
        let hit = timed::<TIMED, _>(prof.map(|p| &p.btb_lookup), || base.lookup(pc));
        let decision = base.decide(pc, hit);
        // A branch the indirect stage takes no part in is predicted alike
        // in every lane; only target-cache-eligible branches and
        // indirect-kind BTB hits involve each lane's own predictor.
        let shared = !b.class.uses_target_cache() && decision.source != BaseSource::Indirect;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let (predicted, source, history) = if shared {
                (decision.predicted, decision.source.label(), None)
            } else {
                lane.predict_indirect::<TIMED>(pc, b, actual, hit, decision)
            };
            lane.resolve::<TIMED>(pc, b, actual, predicted, source, history);
            observe(
                i,
                pc,
                &PredictionOutcome {
                    class: b.class,
                    predicted,
                    actual,
                },
            );
        }

        // --- Resolution-time training of the baseline ----------------
        timed::<TIMED, _>(prof.map(|p| &p.ras), || base.resolve_ras(pc, b.class));
        timed::<TIMED, _>(prof.map(|p| &p.dir_update), || {
            base.resolve_direction(pc, b)
        });
        timed::<TIMED, _>(prof.map(|p| &p.btb_update), || base.resolve_btb(pc, b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::BranchExec;

    fn ijmp(pc: u64, target: u64) -> DynInstr {
        DynInstr::branch(
            Addr::new(pc),
            BranchExec::taken(BranchClass::IndirectJump, Addr::new(target)),
        )
    }

    fn cond(pc: u64, taken: bool, target: u64) -> DynInstr {
        DynInstr::branch(
            Addr::new(pc),
            BranchExec::new(BranchClass::CondDirect, taken, Addr::new(target)),
        )
    }

    fn call(pc: u64, target: u64) -> DynInstr {
        DynInstr::branch(
            Addr::new(pc),
            BranchExec::taken(BranchClass::Call, Addr::new(target)),
        )
    }

    fn ret(pc: u64, target: u64) -> DynInstr {
        DynInstr::branch(
            Addr::new(pc),
            BranchExec::taken(BranchClass::Return, Addr::new(target)),
        )
    }

    #[test]
    fn first_encounter_is_mispredicted_then_learned() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_baseline());
        let o1 = h.process(&ijmp(0x100, 0x900)).unwrap();
        assert!(!o1.correct(), "cold BTB miss predicts fall-through");
        let o2 = h.process(&ijmp(0x100, 0x900)).unwrap();
        assert!(o2.correct(), "monomorphic jump learned after one execution");
    }

    #[test]
    fn btb_baseline_fails_alternating_targets_target_cache_learns_them() {
        // One jump alternating between two targets, with a conditional
        // branch before it whose direction encodes the upcoming target —
        // the correlation the target cache exploits.
        fn drive(h: &mut PredictionHarness, reps: usize) -> (u64, u64) {
            let mut executed = 0;
            let mut correct = 0;
            for i in 0..reps {
                let to_a = i % 2 == 0;
                h.process(&cond(0x100, to_a, 0x200));
                let target = if to_a { 0x900 } else { 0xA00 };
                let o = h.process(&ijmp(0x300, target)).unwrap();
                executed += 1;
                correct += o.correct() as u64;
            }
            (executed, correct)
        }

        let mut baseline = PredictionHarness::new(FrontEndConfig::isca97_baseline());
        let (n, base_correct) = drive(&mut baseline, 200);
        // BTB predicts last target: always wrong once alternation starts.
        assert!(base_correct < n / 10, "baseline got {base_correct}/{n}");

        let mut with_tc = PredictionHarness::new(FrontEndConfig::isca97_with(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        let (_, tc_correct) = drive(&mut with_tc, 200);
        assert!(
            tc_correct > n * 9 / 10,
            "target cache should learn the correlation, got {tc_correct}/{n}"
        );
    }

    #[test]
    fn returns_are_predicted_by_the_return_stack() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_baseline());
        // Warm the BTB entries for the call and return.
        h.process(&call(0x100, 0x800));
        h.process(&ret(0x800, 0x104));
        // Now call from two *different* sites: the BTB's last-target
        // prediction for the return would be wrong, the RAS is right.
        h.process(&call(0x200, 0x800));
        let o = h.process(&ret(0x800, 0x204)).unwrap();
        assert!(
            o.correct(),
            "RAS must predict the return to the new call site"
        );
    }

    #[test]
    fn conditional_direction_uses_two_level_predictor() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_baseline());
        // Alternating branch: a two-level predictor learns it perfectly.
        for i in 0..100 {
            h.process(&cond(0x100, i % 2 == 0, 0x400));
        }
        let c = h.stats().class(BranchClass::CondDirect);
        assert!(
            c.misprediction_rate() < 0.2,
            "alternating conditional should be learned, rate {}",
            c.misprediction_rate()
        );
    }

    #[test]
    fn non_branches_produce_no_outcome() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_baseline());
        let i = DynInstr::op(Addr::new(0x100), sim_isa::InstrClass::Integer);
        assert!(h.process(&i).is_none());
        assert_eq!(h.stats().total_executed(), 0);
    }

    #[test]
    fn target_cache_not_consulted_for_returns() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_with(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        h.process(&call(0x100, 0x800));
        h.process(&ret(0x800, 0x104));
        assert_eq!(h.target_cache_stats().unwrap().lookups(), 0);
    }

    #[test]
    fn target_cache_consulted_and_trained_for_indirect_jumps() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_with(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        h.process(&ijmp(0x100, 0x900));
        h.process(&ijmp(0x100, 0x900));
        let s = h.target_cache_stats().unwrap();
        assert_eq!(s.lookups(), 2);
        assert_eq!(s.updates(), 2);
        assert!(s.hits() >= 1);
    }

    #[test]
    fn monomorphic_jump_steady_state_correct_with_and_without_tc() {
        for config in [
            FrontEndConfig::isca97_baseline(),
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagged(4)),
        ] {
            let mut h = PredictionHarness::new(config);
            for _ in 0..50 {
                h.process(&ijmp(0x100, 0x900));
            }
            let c = h.stats().indirect_jump_counters();
            assert!(
                c.mispredicted() <= 2,
                "monomorphic jump should be near-perfect, got {} misses",
                c.mispredicted()
            );
        }
    }

    #[test]
    fn oracle_predicts_perfectly_once_the_btb_detects_the_branch() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_oracle());
        // First encounter: BTB miss, even the oracle is bypassed (the
        // front end does not know it is a branch).
        let first = h.process(&ijmp(0x100, 0x900)).unwrap();
        assert!(!first.correct());
        // Afterwards: perfect regardless of target churn.
        for i in 1..50u64 {
            let o = h.process(&ijmp(0x100, 0x900 + (i % 7) * 0x100)).unwrap();
            assert!(o.correct(), "oracle mispredicted at iteration {i}");
        }
    }

    #[test]
    fn oracle_does_not_affect_other_branch_classes() {
        let mut base = PredictionHarness::new(FrontEndConfig::isca97_baseline());
        let mut oracle = PredictionHarness::new(FrontEndConfig::isca97_oracle());
        for i in 0..100 {
            let c = cond(0x100, i % 3 == 0, 0x400);
            base.process(&c);
            oracle.process(&c);
        }
        assert_eq!(
            base.stats().class(BranchClass::CondDirect),
            oracle.stats().class(BranchClass::CondDirect)
        );
    }

    #[test]
    fn cascade_front_end_runs_and_reports_filter_rate() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_cascade(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        // Monomorphic jump: everything is filtered into stage 1 and the
        // steady state is perfect.
        for _ in 0..50 {
            h.process(&ijmp(0x100, 0x900));
        }
        let c = h.stats().indirect_jump_counters();
        assert!(c.mispredicted() <= 2);
        assert!(h.cascade_filter_rate().unwrap() > 0.9);
        // The second stage's statistics are visible through the same
        // accessor as a plain target cache's.
        assert_eq!(h.target_cache_stats().unwrap().lookups(), 0);
    }

    #[test]
    fn cascade_catches_polymorphic_jumps_via_stage_two() {
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_cascade(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        // History-correlated alternation (as in the BTB-vs-TC test above).
        let mut correct = 0u64;
        for i in 0..300usize {
            let to_a = i % 2 == 0;
            h.process(&cond(0x100, to_a, 0x200));
            let target = if to_a { 0x900 } else { 0xA00 };
            let o = h.process(&ijmp(0x300, target)).unwrap();
            correct += o.correct() as u64;
        }
        assert!(
            correct > 250,
            "cascade should learn the alternation, got {correct}/300"
        );
        assert!(
            h.cascade_filter_rate().unwrap() < 0.5,
            "polymorphic site must be promoted"
        );
    }

    #[test]
    fn telemetry_counters_reconcile_with_stats() {
        use sim_telemetry::{Event, EventSink, MetricsRegistry};

        let registry = MetricsRegistry::new();
        let sink = EventSink::new();
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_with(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        h.attach_telemetry(HarnessTelemetry::new(&registry, Some(sink.clone())));

        for i in 0..40usize {
            let to_a = i % 2 == 0;
            h.process(&cond(0x100, to_a, 0x200));
            let target = if to_a { 0x900 } else { 0xA00 };
            h.process(&ijmp(0x300, target));
        }

        let snap = registry.snapshot();
        assert_eq!(snap.counter("harness.branches"), h.stats().total_executed());
        assert_eq!(
            snap.counter("harness.mispredicts"),
            h.stats().total_mispredicted()
        );
        // Every mispredict is attributed to exactly one source.
        let by_source: u64 = crate::telemetry::PREDICTOR_SOURCES
            .iter()
            .map(|s| snap.counter(&format!("harness.mispredicts.{s}")))
            .sum();
        assert_eq!(by_source, snap.counter("harness.mispredicts"));
        // And every mispredict produced one event, labelled consistently.
        let events = sink.drain();
        assert_eq!(events.len() as u64, h.stats().total_mispredicted());
        for e in &events {
            let Event::Mispredict {
                predicted, actual, ..
            } = e
            else {
                panic!("only mispredict events expected, got {e:?}");
            };
            assert_ne!(predicted, actual);
        }
    }

    #[test]
    fn hot_path_profiling_records_phases_without_changing_predictions() {
        use sim_telemetry::{HotProfiler, MetricsRegistry};

        let config = FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare());
        let drive = |h: &mut PredictionHarness| {
            for i in 0..60usize {
                h.process(&cond(0x100, i % 2 == 0, 0x200));
                let target = if i % 2 == 0 { 0x900 } else { 0xA00 };
                h.process(&ijmp(0x300, target));
                h.process(&call(0x400, 0x800));
                h.process(&ret(0x800, 0x404));
            }
        };

        let mut plain = PredictionHarness::new(config);
        drive(&mut plain);

        let registry = MetricsRegistry::new();
        let hot = HotProfiler::new();
        let mut profiled = PredictionHarness::new(config);
        profiled.attach_telemetry(
            HarnessTelemetry::new(&registry, None).with_hot_profiler(hot.clone()),
        );
        drive(&mut profiled);

        // Identical functional behaviour under timing.
        assert_eq!(
            plain.stats().total_mispredicted(),
            profiled.stats().total_mispredicted()
        );
        // The baseline phases and the history update are sampled once per
        // branch, the target-cache phases only on the branches the
        // indirect stage handles: here, the indirect jumps.
        let snap = hot.snapshot();
        let branches = profiled.stats().total_executed();
        let jumps = profiled.stats().indirect_jump_counters().executed;
        for s in &snap {
            let want = if s.name.starts_with("tc-") {
                jumps
            } else {
                branches
            };
            assert_eq!(s.count, want, "phase {} sample count", s.name);
        }
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "btb-lookup",
            "btb-update",
            "dir-update",
            "history-update",
            "ras",
            "tc-index",
            "tc-lookup",
            "tc-update",
        ] {
            assert!(names.contains(&expected), "missing phase {expected}");
        }
    }

    #[test]
    fn run_processes_whole_trace() {
        let trace: Vec<DynInstr> = (0..10).map(|i| ijmp(0x100, 0x900 + i * 0x10)).collect();
        let mut h = PredictionHarness::new(FrontEndConfig::isca97_baseline());
        h.run(&trace);
        assert_eq!(h.stats().indirect_jump_counters().executed, 10);
    }

    #[test]
    fn a_batch_matches_its_configurations_run_alone() {
        let configs = [
            FrontEndConfig::isca97_baseline(),
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
            FrontEndConfig::isca97_oracle(),
            FrontEndConfig::isca97_cascade(TargetCacheConfig::isca97_tagged(4)),
        ];
        let trace: Vec<DynInstr> = (0..200u64)
            .flat_map(|i| {
                [
                    cond(0x100, i % 3 == 0, 0x200),
                    ijmp(0x300, 0x900 + (i % 3) * 0x100),
                    call(0x400, 0x800),
                    ret(0x800, 0x404),
                ]
            })
            .collect();
        let mut batch = PredictionHarness::batch(&configs);
        let mut outcomes = vec![Vec::new(); configs.len()];
        batch.run_observed(&trace, |lane, _, o| outcomes[lane].push(*o));
        for ((config, lane), outcomes) in configs.iter().zip(batch.lanes()).zip(&outcomes) {
            let mut alone = PredictionHarness::new(*config);
            let want: Vec<PredictionOutcome> =
                trace.iter().filter_map(|i| alone.process(i)).collect();
            assert_eq!(outcomes, &want, "{:?}", config.indirect);
            assert_eq!(lane.stats(), alone.stats());
            assert_eq!(
                lane.indirect().target_cache_stats(),
                alone.target_cache_stats()
            );
            assert_eq!(lane.indirect().cascade_counts(), alone.cascade_counts());
        }
    }

    #[test]
    #[should_panic(expected = "share its baseline")]
    fn a_batch_refuses_mixed_baselines() {
        let mut shallow = FrontEndConfig::isca97_oracle();
        shallow.ras_depth = 4;
        PredictionHarness::batch(&[FrontEndConfig::isca97_baseline(), shallow]);
    }
}
