//! Property-based tests for the batched prediction harness: every lane of
//! an arbitrary batch, over an arbitrary trace, must end exactly where the
//! per-configuration reference model in `reference/` ends replaying its
//! configuration alone.

mod reference;

use branch_predictors::{
    BtbConfig, DirectionConfig, PathFilter, PathHistoryConfig, TournamentConfig, TwoLevelConfig,
    UpdatePolicy,
};
use proptest::prelude::*;
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, VecTrace};
use sim_telemetry::EventSink;
use target_cache::harness::{FrontEndConfig, IndirectPredictor, PredictionHarness, Source};
use target_cache::{
    CascadeConfig, HistorySource, IndexScheme, Organization, TaggedIndexScheme, TargetCacheConfig,
};

/// An instruction at one of the first `pcs` instruction words: a plain
/// op, or a branch of any class to one of `targets` words. The same PC
/// can be a branch of a different class each time it occurs, so the BTB
/// can hit with a kind other than the branch's own — and, with few
/// targets, hold the very target the branch then computes.
fn arb_instr(pcs: u64, targets: u64) -> impl Strategy<Value = DynInstr> {
    (0u64..pcs, 0u8..8, 0u64..targets, any::<bool>()).prop_map(move |(pc, kind, target, taken)| {
        let pc = Addr::from_word_index(pc);
        match kind {
            0 | 1 => DynInstr::op(pc, InstrClass::Integer),
            _ => {
                let class = BranchClass::ALL[(kind - 2) as usize];
                let taken = taken || !class.is_conditional();
                let target = Addr::from_word_index(target + 5000);
                DynInstr::branch(pc, BranchExec::new(class, taken, target))
            }
        }
    })
}

/// Arbitrary traces over small PC and target alphabets (heavy class
/// aliasing, BTB conflicts, repeated targets) up to sparse ones.
fn arb_trace() -> impl Strategy<Value = VecTrace> {
    let range_log = || prop_oneof![0u32..3, 0u32..10];
    (range_log(), range_log()).prop_flat_map(|(pcs_log, targets_log)| {
        proptest::collection::vec(arb_instr(1 << pcs_log, 1 << targets_log), 1..400)
            .prop_map(|instrs| instrs.into_iter().collect::<VecTrace>())
    })
}

/// An arbitrary baseline: a small BTB of either update policy, a gshare,
/// GAg or tournament direction predictor, and a shallow return stack.
fn arb_base() -> impl Strategy<Value = FrontEndConfig> {
    (
        0u32..5,
        1usize..5,
        any::<bool>(),
        0u8..3,
        1u32..12,
        1usize..9,
    )
        .prop_map(
            |(sets_log, ways, two_bit, dir, dir_bits, ras_depth)| FrontEndConfig {
                btb: BtbConfig::new(
                    1 << sets_log,
                    ways,
                    if two_bit {
                        UpdatePolicy::TwoBit
                    } else {
                        UpdatePolicy::Always
                    },
                ),
                cond: match dir {
                    0 => DirectionConfig::gshare(dir_bits),
                    1 => DirectionConfig::TwoLevel(TwoLevelConfig::gag(dir_bits)),
                    _ => DirectionConfig::Tournament(TournamentConfig::mcfarling()),
                },
                ras_depth,
                indirect: IndirectPredictor::BtbOnly,
            },
        )
}

/// Every indirect-predictor variant: BTB-only; tagless (gshare, GAg, GAs)
/// and tagged (address, history-concatenate, history-xor) target caches
/// under pattern, global-path (every filter) and per-address history and
/// both update policies; the oracle; and cascades in front of either
/// organisation.
fn arb_indirect() -> impl Strategy<Value = IndirectPredictor> {
    (
        0u8..4,
        0u8..6,
        0u8..6,
        1u32..10,
        1u32..4,
        0u32..3,
        0u8..3,
        any::<bool>(),
    )
        .prop_map(
            |(kind, org, hist, bits, per_target, bit_lo, ways_log, two_bit)| {
                let history = match hist {
                    0 | 1 => HistorySource::Pattern { bits },
                    2 => HistorySource::PerAddressPath(PathHistoryConfig {
                        total_bits: bits,
                        bits_per_target: per_target.min(bits),
                        target_bit_lo: bit_lo,
                        filter: PathFilter::IndirectJump,
                    }),
                    f => HistorySource::GlobalPath(PathHistoryConfig {
                        total_bits: bits,
                        bits_per_target: per_target.min(bits),
                        target_bit_lo: bit_lo,
                        filter: PathFilter::ALL[(f - 3 + org) as usize % PathFilter::ALL.len()],
                    }),
                };
                let entries = 16usize << (org % 3);
                let organization = match org {
                    0 => Organization::Tagless {
                        entries,
                        scheme: IndexScheme::Gshare,
                    },
                    1 => Organization::Tagless {
                        entries,
                        scheme: IndexScheme::GAg,
                    },
                    2 => Organization::Tagless {
                        entries,
                        scheme: IndexScheme::GAs { addr_bits: 2 },
                    },
                    t => Organization::Tagged {
                        entries,
                        assoc: 1 << ways_log,
                        scheme: TaggedIndexScheme::ALL[(t - 3) as usize],
                    },
                };
                let mut cache = TargetCacheConfig::new(organization, history);
                if two_bit {
                    cache = cache.with_update_policy(UpdatePolicy::TwoBit);
                }
                match kind {
                    0 => IndirectPredictor::BtbOnly,
                    1 => IndirectPredictor::TargetCache(cache),
                    2 => IndirectPredictor::Oracle,
                    _ => IndirectPredictor::Cascade(CascadeConfig::new(cache)),
                }
            },
        )
}

fn lanes_over(base: FrontEndConfig, indirects: Vec<IndirectPredictor>) -> Vec<FrontEndConfig> {
    indirects
        .into_iter()
        .map(|indirect| FrontEndConfig { indirect, ..base })
        .collect()
}

/// What one configuration measured: its outcome per branch, its
/// statistics, target-cache statistics, cascade counts and served
/// accuracy.
type Measured = (
    Vec<target_cache::harness::PredictionOutcome>,
    branch_predictors::BranchClassStats,
    Option<target_cache::TargetCacheStats>,
    Option<(u64, u64)>,
    Option<f64>,
);

/// Replays `configs` as one batch.
fn batched(trace: &VecTrace, configs: &[FrontEndConfig]) -> Vec<Measured> {
    let mut h = PredictionHarness::batch(configs);
    let mut outcomes = vec![Vec::new(); configs.len()];
    h.run_observed(trace, |lane, _, o| outcomes[lane].push(*o));
    outcomes
        .into_iter()
        .zip(h.lanes())
        .map(|(outcomes, lane)| {
            let s = lane.indirect();
            (
                outcomes,
                lane.stats().clone(),
                s.target_cache_stats().copied(),
                s.cascade_counts(),
                s.target_cache_served_accuracy(),
            )
        })
        .collect()
}

/// Replays `config` alone through the reference model.
fn alone(trace: &VecTrace, config: FrontEndConfig) -> Measured {
    let mut h = reference::PredictionHarness::new(config);
    let outcomes = trace.iter().filter_map(|i| h.process(i)).collect();
    (
        outcomes,
        h.stats().clone(),
        h.target_cache_stats().copied(),
        h.cascade_counts(),
        h.target_cache_served_accuracy(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_lane_of_a_batch_matches_the_reference_alone(
        trace in arb_trace(),
        base in arb_base(),
        indirects in proptest::collection::vec(arb_indirect(), 1..7),
        keys in proptest::collection::vec(any::<u64>(), 6),
    ) {
        let configs = lanes_over(base, indirects);
        let lanes = batched(&trace, &configs);
        prop_assert_eq!(lanes.len(), configs.len());
        for (config, lane) in configs.iter().zip(&lanes) {
            prop_assert_eq!(lane, &alone(&trace, *config), "{:?}", config.indirect);
        }
        // No lane's results depend on its place in the batch.
        let mut order: Vec<usize> = (0..configs.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let permuted: Vec<FrontEndConfig> = order.iter().map(|&i| configs[i]).collect();
        for (&i, lane) in order.iter().zip(batched(&trace, &permuted)) {
            prop_assert_eq!(&lane, &lanes[i]);
        }
    }

    #[test]
    fn an_instrumented_batch_reports_per_lane_what_the_reference_reports(
        trace in arb_trace(),
        base in arb_base(),
        indirects in proptest::collection::vec(arb_indirect(), 1..7),
    ) {
        let configs = lanes_over(base, indirects);
        // Each lane records into its own event sink.
        let sinks: Vec<EventSink> = configs.iter().map(|_| EventSink::new()).collect();
        let mut h = PredictionHarness::batch(&configs);
        for (i, sink) in sinks.iter().enumerate() {
            h.attach_events(i, sink.clone());
        }
        h.run(&trace);
        for ((config, lane), sink) in configs.iter().zip(h.lanes()).zip(&sinks) {
            let ref_sink = EventSink::new();
            let mut reference = reference::PredictionHarness::new(*config);
            reference.attach_events(ref_sink.clone());
            reference.run(&trace);
            prop_assert_eq!(lane.stats(), reference.stats());
            // The same mispredicts under the same sources, and no source
            // outside the vocabulary.
            let by_source = lane.mispredicts_by_source();
            let want = reference.mispredicts_by_label();
            for source in Source::ALL {
                let label = source.label();
                let want = want.get(label).copied().unwrap_or(0);
                prop_assert_eq!(by_source[source as usize], want, "{}", label);
            }
            prop_assert_eq!(want.values().sum::<u64>(), reference.stats().total_mispredicted());
            prop_assert_eq!(by_source.iter().sum::<u64>(), lane.stats().total_mispredicted());
            // The same mispredict events, in order: pc, class, predicted,
            // actual, history and source.
            prop_assert_eq!(sink.drain(), ref_sink.drain());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_batch_refuses_configurations_with_different_baselines(
        a in arb_base(),
        b in arb_base(),
        indirect in arb_indirect(),
    ) {
        let b = FrontEndConfig { indirect, ..b };
        let built = std::panic::catch_unwind(|| PredictionHarness::batch(&[a, b]).lanes().len());
        if a.shares_base(&b) {
            prop_assert_eq!(built.ok(), Some(2));
        } else {
            prop_assert!(built.is_err(), "mixed baselines {:?} and {:?} batched", a, b);
        }
    }
}
