//! The reference timing model: the whole machine simulated per
//! configuration, one instruction at a time — an embedded
//! `PredictionHarness` front end, a live data cache, a `BinaryHeap` of
//! function-unit free times and a `VecDeque` window. Every lane of
//! `simulate_batch` must reproduce its `SimReport` bit for bit.

use hps_uarch::{DataCache, MachineConfig, SimReport};
use sim_isa::{DynInstr, InstrClass};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use target_cache::harness::PredictionHarness;
use target_cache::HarnessTelemetry;

/// Simulates `trace` on `config`, feeding `telemetry` from the embedded
/// harness exactly as a functional replay would.
pub fn simulate(
    trace: &[DynInstr],
    config: &MachineConfig,
    telemetry: Option<HarnessTelemetry>,
) -> SimReport {
    config.check().expect("machine configuration must be valid");
    let mut harness = PredictionHarness::new(config.frontend);
    if let Some(t) = telemetry {
        harness.attach_telemetry(t);
    }
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
        if let Some(outcome) = harness.process(instr) {
            if !outcome.correct() {
                let resume = complete + 1;
                if resume > stream_cycle {
                    mispredict_stall_cycles += resume - stream_cycle - 1;
                    stream_cycle = resume;
                    fetched_this_cycle = 0;
                }
            } else if instr.branch_exec().is_some_and(|b| b.taken) {
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

    SimReport {
        cycles: final_cycle,
        instructions: trace.len() as u64,
        mispredict_stall_cycles,
        branch_stats: harness.stats().clone(),
        dcache_stats: dcache.stats(),
        target_cache_stats: harness.target_cache_stats().copied(),
        cascade_counts: harness.cascade_counts(),
    }
}
