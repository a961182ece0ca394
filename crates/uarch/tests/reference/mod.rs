//! The reference timing model: the whole machine simulated per
//! configuration, one instruction at a time — its own front end (a
//! `BaseFrontEnd` beside an `IndirectStage`, both probed and trained on
//! every branch, with its own books), a live data cache, a `BinaryHeap` of
//! function-unit free times and a `VecDeque` window. Every lane of
//! `simulate_batch` must reproduce its `SimReport` bit for bit.

use branch_predictors::BranchClassStats;
use hps_uarch::{DataCache, MachineConfig, SimReport};
use sim_isa::{DynInstr, InstrClass};
use sim_telemetry::{Event, EventSink};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use target_cache::harness::{BaseFrontEnd, IndirectStage, Source};

/// Simulates `trace` on `config`; with `events`, every mispredicted branch
/// records a mispredict event in it. Returns the report and the
/// mispredicts keyed by source label.
pub fn simulate(
    trace: &[DynInstr],
    config: &MachineConfig,
    events: Option<EventSink>,
) -> (SimReport, BTreeMap<&'static str, u64>) {
    config.check().expect("machine configuration must be valid");
    let mut base = BaseFrontEnd::new(&config.frontend);
    let mut indirect = IndirectStage::new(config.frontend.indirect);
    let mut branch_stats = BranchClassStats::default();
    let mut mispredicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut dcache = DataCache::new(config.dcache);

    let mut stream_cycle: u64 = 0;
    let mut fetched_this_cycle: usize = 0;
    let mut reg_ready = [0u64; sim_isa::reg::REG_COUNT as usize];
    let mut fu_free: BinaryHeap<Reverse<u64>> = (0..config.fu_count).map(|_| Reverse(0)).collect();
    let mut last_retire_cycle: u64 = 0;
    let mut retired_in_cycle: usize = 0;
    let mut window: VecDeque<u64> = VecDeque::with_capacity(config.window_size);
    let mut final_cycle: u64 = 0;
    let mut mispredict_stall_cycles: u64 = 0;

    for instr in trace {
        // Fetch.
        let window_barrier = if window.len() == config.window_size {
            window.pop_front().expect("window full") + 1
        } else {
            0
        };
        if window_barrier > stream_cycle {
            stream_cycle = window_barrier;
            fetched_this_cycle = 0;
        }
        if fetched_this_cycle == config.fetch_width {
            stream_cycle += 1;
            fetched_this_cycle = 0;
        }
        let fetch_cycle = stream_cycle;
        fetched_this_cycle += 1;

        // Execute.
        let decode_done = fetch_cycle + config.front_depth as u64;
        let operands_ready = instr
            .srcs()
            .iter()
            .flatten()
            .map(|r| reg_ready[r.index() as usize])
            .max()
            .unwrap_or(0);
        let Reverse(fu_available) = fu_free.pop().expect("at least one FU");
        let start = decode_done.max(operands_ready).max(fu_available);
        fu_free.push(Reverse(start + 1));
        let mut latency = config.latency(instr.class()) as u64;
        if let Some(mem) = instr.mem() {
            let hit = dcache.access(mem.addr);
            if instr.class() == InstrClass::Load && !hit {
                latency += config.dcache.miss_penalty as u64;
            }
        }
        let complete = start + latency;
        if let Some(dst) = instr.dst() {
            reg_ready[dst.index() as usize] = complete;
        }

        // Branch prediction and fetch redirection.
        if let Some(b) = instr.branch_exec() {
            let pc = instr.pc();
            let actual = b.next_pc(pc);
            let history = indirect.history_value(pc);
            let hit = base.lookup(pc);
            let probe = indirect.probe(pc, b.class, history, hit.map(|h| h.target));
            let decision = base.decide(pc, hit);
            let (predicted, source) = match decision.source {
                Source::BtbFallback => indirect.predict(&probe, decision.predicted, actual),
                s => (decision.predicted, s),
            };
            base.resolve_ras(pc, b.class);
            base.resolve_direction(pc, b);
            base.resolve_btb(pc, b);
            indirect.train(pc, probe, b.target);
            indirect.train_history(pc, b, actual);
            branch_stats.record(b.class, predicted == actual);
            if predicted != actual {
                *mispredicts.entry(source.label()).or_insert(0) += 1;
                if let Some(sink) = &events {
                    sink.record(Event::Mispredict {
                        pc: pc.raw(),
                        class: b.class.mnemonic(),
                        predicted: predicted.raw(),
                        actual: actual.raw(),
                        history: history.unwrap_or(0),
                        source: source.label(),
                    });
                }
                let resume = complete + 1;
                if resume > stream_cycle {
                    mispredict_stall_cycles += resume - stream_cycle - 1;
                    stream_cycle = resume;
                    fetched_this_cycle = 0;
                }
            } else if b.taken {
                stream_cycle = fetch_cycle + 1;
                fetched_this_cycle = 0;
            }
        }

        // Retire.
        let earliest = complete + 1;
        let mut retire_cycle = earliest.max(last_retire_cycle);
        if retire_cycle == last_retire_cycle && retired_in_cycle == config.retire_width {
            retire_cycle += 1;
        }
        if retire_cycle > last_retire_cycle {
            last_retire_cycle = retire_cycle;
            retired_in_cycle = 0;
        }
        retired_in_cycle += 1;
        window.push_back(retire_cycle);
        final_cycle = retire_cycle;
    }

    let report = SimReport {
        cycles: final_cycle,
        instructions: trace.len() as u64,
        mispredict_stall_cycles,
        branch_stats,
        mispredicts_by_source: Source::ALL
            .map(|s| mispredicts.get(s.label()).copied().unwrap_or(0)),
        dcache_stats: dcache.stats(),
        target_cache_stats: indirect.target_cache_stats().copied(),
        cascade_counts: indirect.cascade_counts(),
    };
    (report, mispredicts)
}
