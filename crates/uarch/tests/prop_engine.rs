//! Property-based tests for the timing engine: scheduling invariants that
//! must hold for *any* trace, not just the workloads', and bit-identity
//! with the per-instruction reference model in `reference/`.

mod reference;

use branch_predictors::{BtbConfig, DirectionConfig, PathFilter, PathHistoryConfig, UpdatePolicy};
use hps_uarch::{simulate, simulate_batch, DCacheConfig, MachineConfig};
use proptest::prelude::*;
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, Reg, VecTrace};
use sim_telemetry::{EventSink, MetricsRegistry};
use target_cache::harness::{FrontEndConfig, IndirectPredictor};
use target_cache::{
    CascadeConfig, HarnessTelemetry, HistorySource, IndexScheme, Organization, TaggedIndexScheme,
    TargetCacheConfig, PREDICTOR_SOURCES,
};

fn machine() -> MachineConfig {
    MachineConfig::isca97(FrontEndConfig::isca97_baseline())
}

/// An arbitrary instruction with a consistent next-pc chain left to the
/// caller (prediction correctness is irrelevant to these invariants, and
/// the engine never requires path consistency).
fn arb_instr() -> impl Strategy<Value = DynInstr> {
    arb_instr_at(4096, 4096)
}

/// [`arb_instr`] with PCs drawn from the first `pcs` instruction words and
/// branch targets from `targets` words. The same PC can be a branch of a
/// different class each time it occurs, so the BTB can hit with a kind
/// other than the branch's own — and, with few targets, hold the very
/// target the branch then computes.
fn arb_instr_at(pcs: u64, targets: u64) -> impl Strategy<Value = DynInstr> {
    let reg = proptest::option::of(0u16..32).prop_map(|r| r.map(Reg::new));
    (
        0u64..pcs,
        0u8..12,
        any::<u64>(),
        reg.clone(),
        reg.clone(),
        reg,
        any::<bool>(),
    )
        .prop_map(move |(pc, kind, payload, a, b, d, taken)| {
            let pc = Addr::from_word_index(pc);
            match kind {
                0..=3 => {
                    let class = [
                        InstrClass::Integer,
                        InstrClass::Mul,
                        InstrClass::Div,
                        InstrClass::BitField,
                    ][kind as usize];
                    let mut i = DynInstr::op(pc, class).with_srcs(a, b);
                    if let Some(d) = d {
                        i = i.with_dst(d);
                    }
                    i
                }
                4 | 5 => {
                    let mut i = if kind == 4 {
                        DynInstr::load(pc, payload)
                    } else {
                        DynInstr::store(pc, payload)
                    };
                    if let (4, Some(d)) = (kind, d) {
                        i = i.with_dst(d);
                    }
                    i
                }
                _ => {
                    // Every branch class, indirect jumps and calls included.
                    let class = BranchClass::ALL[(kind - 6) as usize];
                    let taken = taken || !class.is_conditional();
                    let target = Addr::from_word_index(payload % targets + 5000);
                    DynInstr::branch(pc, BranchExec::new(class, taken, target))
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ipc_respects_machine_bounds(instrs in proptest::collection::vec(arb_instr(), 1..600)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let r = simulate(&trace, &machine());
        prop_assert_eq!(r.instructions, trace.len() as u64);
        prop_assert!(r.cycles >= 1);
        prop_assert!(r.ipc() <= 8.0 + 1e-9, "IPC {} exceeds machine width", r.ipc());
        // Every instruction takes at least front_depth + latency + 1 to
        // retire, so cycles >= that of the last instruction alone.
        prop_assert!(r.cycles >= 4, "cycles {} impossibly small", r.cycles);
    }

    #[test]
    fn stall_cycles_never_exceed_total(instrs in proptest::collection::vec(arb_instr(), 1..600)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let r = simulate(&trace, &machine());
        prop_assert!(r.mispredict_stall_cycles <= r.cycles);
        prop_assert!((0.0..=1.0).contains(&r.mispredict_stall_fraction()));
    }

    #[test]
    fn bigger_windows_never_slow_the_machine(instrs in proptest::collection::vec(arb_instr(), 1..400)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let mut small = machine();
        small.window_size = 8;
        let mut big = machine();
        big.window_size = 128;
        let r_small = simulate(&trace, &small);
        let r_big = simulate(&trace, &big);
        prop_assert!(
            r_big.cycles <= r_small.cycles,
            "window 128 took {} cycles vs window 8's {}",
            r_big.cycles,
            r_small.cycles
        );
    }

    #[test]
    fn more_fus_never_slow_the_machine(instrs in proptest::collection::vec(arb_instr(), 1..400)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let mut few = machine();
        few.fu_count = 2;
        let r_few = simulate(&trace, &few);
        let r_many = simulate(&trace, &machine());
        prop_assert!(r_many.cycles <= r_few.cycles);
    }

    #[test]
    fn simulation_is_deterministic_for_any_trace(instrs in proptest::collection::vec(arb_instr(), 1..300)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let a = simulate(&trace, &machine());
        let b = simulate(&trace, &machine());
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.mispredict_stall_cycles, b.mispredict_stall_cycles);
        prop_assert_eq!(a.branch_stats, b.branch_stats);
        prop_assert_eq!(a.dcache_stats, b.dcache_stats);
    }

    #[test]
    fn oracle_never_loses_to_the_baseline(instrs in proptest::collection::vec(arb_instr(), 1..300)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let base = simulate(&trace, &machine());
        let oracle = simulate(&trace, &MachineConfig::isca97(FrontEndConfig::isca97_oracle()));
        prop_assert!(
            oracle.cycles <= base.cycles,
            "oracle {} cycles vs baseline {}",
            oracle.cycles,
            base.cycles
        );
    }
}

/// Arbitrary traces over PC and target ranges from dense (heavy class
/// aliasing, BTB conflicts, repeated targets) to sparse; half of them use
/// at most four PCs and four targets.
fn arb_trace() -> impl Strategy<Value = VecTrace> {
    let range_log = || prop_oneof![0u32..3, 0u32..13];
    (range_log(), range_log()).prop_flat_map(|(pcs_log, targets_log)| {
        proptest::collection::vec(arb_instr_at(1 << pcs_log, 1 << targets_log), 1..500)
            .prop_map(|instrs| instrs.into_iter().collect::<VecTrace>())
    })
}

/// Every indirect-predictor variant: BTB-only; tagless (gshare, GAg, GAs)
/// and tagged (address, history-concatenate, history-xor) target caches
/// under pattern, global-path (every filter) and per-address history;
/// the oracle; and cascades in front of either organisation.
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

/// Random machine shapes: small BTBs of either update policy, short
/// direction histories, shallow return stacks, tiny data caches, and
/// every schedule parameter.
fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    let frontend = (0u32..5, 1usize..5, any::<bool>(), 1u32..12, 1usize..9).prop_map(
        |(sets_log, ways, two_bit, dir_bits, ras_depth)| FrontEndConfig {
            btb: BtbConfig::new(
                1 << sets_log,
                ways,
                if two_bit {
                    UpdatePolicy::TwoBit
                } else {
                    UpdatePolicy::Always
                },
            ),
            cond: DirectionConfig::gshare(dir_bits),
            ras_depth,
            indirect: IndirectPredictor::BtbOnly,
        },
    );
    let dcache = (0u32..5, 2u32..7, 0u32..3, 0u32..20).prop_map(
        |(sets_log, line_log, ways_log, miss_penalty)| DCacheConfig {
            size_bytes: (1 << sets_log) << line_log << ways_log,
            line_bytes: 1 << line_log,
            assoc: 1 << ways_log,
            miss_penalty,
        },
    );
    let schedule = (
        1usize..17,
        1usize..17,
        1usize..65,
        1usize..13,
        0u32..7,
        any::<u64>(),
    );
    (frontend, dcache, schedule).prop_map(
        |(frontend, dcache, (fetch, retire, window, fus, depth, lat_seed))| {
            let mut m = MachineConfig::isca97(frontend);
            m.dcache = dcache;
            m.fetch_width = fetch;
            m.retire_width = retire;
            m.window_size = window;
            m.fu_count = fus;
            m.front_depth = depth;
            for (k, l) in m.latencies.iter_mut().enumerate() {
                *l = 1 + (lat_seed >> (8 * k) & 0xFF) as u32 % 10;
            }
            m
        },
    )
}

fn with_indirect(machine: &MachineConfig, indirect: IndirectPredictor) -> MachineConfig {
    let mut m = machine.clone();
    m.frontend.indirect = indirect;
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sweep_matches_the_reference_engine(
        trace in arb_trace(),
        machine in arb_machine(),
        indirect in arb_indirect(),
    ) {
        let m = with_indirect(&machine, indirect);
        prop_assert_eq!(simulate(&trace, &m), reference::simulate(trace.as_slice(), &m, None));
    }

    #[test]
    fn a_batch_replays_every_lane_as_the_reference_engine_does(
        trace in arb_trace(),
        machine in arb_machine(),
        lanes in proptest::collection::vec((arb_indirect(), 1usize..17, 1usize..65, 1usize..13, 0u32..7), 1..9),
        keys in proptest::collection::vec(any::<u64>(), 8),
    ) {
        // Lanes share the machine's baseline front end and data cache;
        // each has its own indirect predictor and schedule.
        let machines: Vec<MachineConfig> = lanes
            .into_iter()
            .map(|(indirect, width, window, fus, depth)| {
                let mut m = with_indirect(&machine, indirect);
                (m.fetch_width, m.window_size, m.fu_count, m.front_depth) = (width, window, fus, depth);
                m
            })
            .collect();
        let reports = simulate_batch(&trace, &machines, None);
        prop_assert_eq!(reports.len(), machines.len());
        for (m, report) in machines.iter().zip(&reports) {
            prop_assert_eq!(report, &reference::simulate(trace.as_slice(), m, None));
            prop_assert_eq!(report, &simulate(&trace, m));
        }
        // No lane's report depends on its place in the batch.
        let mut order: Vec<usize> = (0..machines.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let permuted: Vec<MachineConfig> = order.iter().map(|&i| machines[i].clone()).collect();
        for (&i, report) in order.iter().zip(simulate_batch(&trace, &permuted, None)) {
            prop_assert_eq!(&report, &reports[i]);
        }
    }

    #[test]
    fn an_instrumented_batch_reports_per_lane_what_the_reference_harness_reports(
        trace in arb_trace(),
        machine in arb_machine(),
        lanes in proptest::collection::vec(arb_indirect(), 1..9),
    ) {
        let machines: Vec<MachineConfig> =
            lanes.into_iter().map(|indirect| with_indirect(&machine, indirect)).collect();
        let hooks = || {
            let registry = MetricsRegistry::new();
            let sink = EventSink::new();
            let telemetry = HarnessTelemetry::new(&registry, Some(sink.clone()));
            (registry, sink, telemetry)
        };
        // Each lane feeds its own registry and event sink.
        let lane_hooks: Vec<_> = machines.iter().map(|_| hooks()).collect();
        let telemetry: Vec<HarnessTelemetry> = lane_hooks.iter().map(|(_, _, t)| t.clone()).collect();
        let reports = simulate_batch(&trace, &machines, Some(&telemetry));
        for ((m, report), (registry, sink, _)) in machines.iter().zip(&reports).zip(&lane_hooks) {
            let (ref_registry, ref_sink, ref_hooks) = hooks();
            prop_assert_eq!(report, &reference::simulate(trace.as_slice(), m, Some(ref_hooks)));
            let (want, got) = (ref_registry.snapshot(), registry.snapshot());
            for name in ["harness.branches".to_string(), "harness.mispredicts".to_string()]
                .into_iter()
                .chain(PREDICTOR_SOURCES.iter().map(|s| format!("harness.mispredicts.{s}")))
            {
                prop_assert_eq!(got.counter(&name), want.counter(&name), "{}", name);
            }
            // The same mispredict events, in order: pc, class, predicted,
            // actual, history and source.
            prop_assert_eq!(sink.drain(), ref_sink.drain());
        }
    }
}

#[test]
fn sweep_matches_the_reference_on_the_paper_workloads() {
    use sim_workloads::Benchmark;

    let machines = [
        FrontEndConfig::isca97_baseline(),
        FrontEndConfig::isca97_oracle(),
        FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
        FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_path(
            PathFilter::IndirectJump,
        )),
        FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_per_address_path()),
        FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagged(8)),
        FrontEndConfig::isca97_cascade(TargetCacheConfig::isca97_tagged(4)),
    ]
    .map(MachineConfig::isca97);
    for bench in [Benchmark::Perl, Benchmark::Gcc] {
        let trace = bench.workload().generate(30_000);
        for (m, report) in machines.iter().zip(simulate_batch(&trace, &machines, None)) {
            assert_eq!(
                report,
                reference::simulate(trace.as_slice(), m, None),
                "{bench} {:?}",
                m.frontend.indirect
            );
        }
    }
}

#[test]
#[should_panic(expected = "share its baseline front end and data cache")]
fn a_batch_refuses_mixed_baselines() {
    let mut shallow = MachineConfig::isca97(FrontEndConfig::isca97_oracle());
    shallow.frontend.ras_depth = 4;
    simulate_batch(&VecTrace::new(), &[machine(), shallow], None);
}

#[test]
#[should_panic(expected = "share its baseline front end and data cache")]
fn a_batch_refuses_mixed_data_caches() {
    let mut slow = machine();
    slow.dcache.miss_penalty = 20;
    simulate_batch(&VecTrace::new(), &[machine(), slow], None);
}
