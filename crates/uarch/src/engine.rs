//! The timing engine: a deterministic trace-driven schedule of fetch,
//! execute and retire, for a batch of machines in one pass.
//!
//! [`simulate_batch`] drives one [`PredictionHarness`] batch of the
//! machines' front ends, one data cache and one schedule *lane* per
//! machine over a trace, one instruction at a time. Each instruction's
//! operands, latency class and data-cache outcome are read once; then
//! every lane's schedule advances by it, a branch following the prediction
//! of the harness lane with the same index. The lanes share no state, so
//! they give the host core independent dependency chains to overlap.
//! [`simulate`] is a batch of one.
//!
//! The pass reads no clock and counts nothing of its own about
//! predictions: each machine's [`SimReport`] carries the books of its
//! harness lane, its branch statistics and its mispredicts by source.

use crate::config::MachineConfig;
use crate::dcache::DataCache;
use crate::report::SimReport;
use sim_isa::reg::REG_COUNT;
use sim_isa::{DynInstr, InstrClass, Reg};
use sim_telemetry::EventSink;
use target_cache::harness::{FrontEndConfig, PredictionHarness};

/// Simulates a trace on the configured machine and reports cycles and
/// statistics — a [`simulate_batch`] of one machine.
///
/// The schedule honours, per instruction:
///
/// * fetch bandwidth (`fetch_width`/cycle, no fetch past a taken branch),
/// * the in-flight window (`window_size`),
/// * register data-flow (renamed: per-architectural-register ready times),
/// * function-unit issue bandwidth (`fu_count` issues/cycle),
/// * class latencies plus data-cache misses for loads,
/// * in-order retirement (`retire_width`/cycle),
/// * and branch misprediction: fetch of younger instructions resumes the
///   cycle after a mispredicted branch executes (checkpoint repair).
///
/// # Panics
///
/// Panics if the machine configuration is invalid
/// ([`MachineConfig::check`]).
pub fn simulate<T>(trace: &T, config: &MachineConfig) -> SimReport
where
    T: AsRef<[DynInstr]> + ?Sized,
{
    simulate_batch(trace, std::slice::from_ref(config), None)
        .pop()
        .expect("a batch of one reports once")
}

/// Simulates every machine in `machines` over `trace` in one lockstep pass
/// and returns their reports in batch order. Each report is the one the
/// machine gets simulated alone, whatever else is in the batch.
///
/// The machines must [share a baseline](MachineConfig::shares_base): one
/// BTB, direction predictor, return stack and data cache serve the whole
/// batch. Along the correct path none of them ever sees a predicted target
/// or a cycle count — the data cache is accessed in program order by
/// address, the baseline predictors train on resolved outcomes — so
/// sharing them is exact. Widths, window, function units, latencies,
/// front-end depth and the indirect predictor may differ from machine to
/// machine.
///
/// Each report carries its machine's front-end books — branch statistics
/// and mispredicts by source — exactly as a [`PredictionHarness`] lane
/// books them. With `events` (one sink per machine, in batch order), every
/// branch a machine mispredicts also records a mispredict event in its
/// sink, as a lane with that sink attached does.
///
/// # Panics
///
/// Panics if `machines` is empty, if a machine is invalid
/// ([`MachineConfig::check`]) or does not share the first one's baseline,
/// or if `events` does not hold one sink per machine.
///
/// # Example
///
/// ```
/// use hps_uarch::{simulate, simulate_batch, MachineConfig};
/// use target_cache::harness::FrontEndConfig;
/// use target_cache::TargetCacheConfig;
/// use sim_workloads::Benchmark;
///
/// let trace = Benchmark::Perl.workload().generate(20_000);
/// let base = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
/// let tc = MachineConfig::isca97(FrontEndConfig::isca97_with(
///     TargetCacheConfig::isca97_tagless_gshare(),
/// ));
/// // Both machines advance together in one pass over the trace.
/// let reports = simulate_batch(&trace, &[base.clone(), tc], None);
/// assert!(reports[1].cycles <= reports[0].cycles);
/// // Each lane is exactly its machine simulated alone.
/// assert_eq!(reports[0], simulate(&trace, &base));
/// ```
pub fn simulate_batch<T>(
    trace: &T,
    machines: &[MachineConfig],
    events: Option<&[EventSink]>,
) -> Vec<SimReport>
where
    T: AsRef<[DynInstr]> + ?Sized,
{
    let first = machines
        .first()
        .expect("a batch holds at least one machine");
    for machine in machines {
        if let Err(e) = machine.check() {
            panic!("machine configuration must be valid: {e}");
        }
        assert!(
            first.shares_base(machine),
            "every machine of a batch must share its baseline front end and data cache"
        );
    }
    if let Some(sinks) = events {
        assert_eq!(sinks.len(), machines.len(), "one event sink per machine");
    }
    let frontends: Vec<FrontEndConfig> = machines.iter().map(|m| m.frontend).collect();
    let mut front = PredictionHarness::batch(&frontends);
    for (i, sink) in events.into_iter().flatten().enumerate() {
        front.attach_events(i, sink.clone());
    }
    let mut lanes: Vec<Lane> = machines.iter().map(Lane::new).collect();
    let mut dcache = DataCache::new(first.dcache);
    let miss_penalty = first.dcache.miss_penalty as u64;
    let trace = trace.as_ref();
    run(trace, miss_penalty, &mut front, &mut dcache, &mut lanes);

    let dcache_stats = dcache.stats();
    front
        .into_lanes()
        .into_iter()
        .zip(lanes)
        .map(|(front, lane)| SimReport {
            cycles: lane.last_retire_cycle,
            instructions: trace.len() as u64,
            mispredict_stall_cycles: lane.mispredict_stall_cycles,
            branch_stats: front.stats().clone(),
            mispredicts_by_source: *front.mispredicts_by_source(),
            dcache_stats,
            target_cache_stats: front.indirect().target_cache_stats().copied(),
            cascade_counts: front.indirect().cascade_counts(),
        })
        .collect()
}

/// Advances the batch through the whole trace, one instruction at a time.
fn run(
    trace: &[DynInstr],
    miss_penalty: u64,
    front: &mut PredictionHarness,
    dcache: &mut DataCache,
    lanes: &mut [Lane],
) {
    for instr in trace {
        // What every lane reads of this instruction, decoded once.
        let class = instr.class();
        let missed = instr.mem().is_some_and(|mem| !dcache.access(mem.addr));
        let op = Op {
            class: class.index(),
            srcs: instr.srcs().map(|r| r.map_or(NO_SRC, reg_slot)),
            dst: instr.dst().map_or(NO_DST, reg_slot),
            miss_penalty: if class == InstrClass::Load && missed {
                miss_penalty
            } else {
                0
            },
        };
        let Some(b) = instr.branch_exec() else {
            for lane in lanes.iter_mut() {
                let (_, complete) = lane.issue(&op);
                lane.retire(complete);
            }
            continue;
        };
        // The harness predicts the branch in every lane, in lane order;
        // each schedule lane follows the harness lane with its index.
        front.run_observed(std::iter::once(instr), |i, _, outcome| {
            let lane = &mut lanes[i];
            let (fetch_cycle, complete) = lane.issue(&op);
            lane.redirect(outcome.correct(), b.taken, fetch_cycle, complete);
            lane.retire(complete);
        });
    }
}

/// A lane's rename-table slot for register `r`: slots `1..=REG_COUNT` are
/// the architectural registers.
#[inline]
fn reg_slot(r: Reg) -> usize {
    r.index() as usize + 1
}

/// The rename-table slot an absent source operand reads: never written,
/// so always ready at cycle 0. A sentinel rather than an `Option` keeps
/// the operand read branch-free in every lane.
const NO_SRC: usize = 0;

/// The rename-table slot an instruction without a destination writes;
/// never read.
const NO_DST: usize = REG_COUNT as usize + 1;

/// What every lane's schedule reads of one instruction.
struct Op {
    /// [`InstrClass::index`], selecting the lane's latency.
    class: usize,
    /// Rename-table slots of the two source operands.
    srcs: [usize; 2],
    /// Rename-table slot of the destination.
    dst: usize,
    /// Extra cycles for a load that missed the data cache, else 0.
    miss_penalty: u64,
}

/// One machine's schedule in a lockstep pass: its parameters and its state.
struct Lane {
    fetch_width: usize,
    retire_width: usize,
    front_depth: u64,
    latencies: [u64; 8],

    // Fetch stream state.
    stream_cycle: u64,
    fetched_this_cycle: usize,

    /// Rename state: the cycle each register's latest value is available,
    /// indexed by rename-table slot ([`NO_SRC`], the registers, [`NO_DST`]).
    reg_ready: [u64; REG_COUNT as usize + 2],

    /// Function units: their next-free cycles as a sorted ring starting
    /// at `fu_head`; an instruction issues on the earliest-free one.
    fu_free: Vec<u64>,
    fu_head: usize,

    // Retirement state. The last retire cycle is also the cycle count so
    // far.
    last_retire_cycle: u64,
    retired_in_cycle: usize,
    /// The youngest `window_size` instructions' retire cycles plus one
    /// (when each frees its window slot), as a ring: `window[slot]`
    /// belongs to the instruction `window_size` older than the next.
    window: Vec<u64>,
    slot: usize,

    mispredict_stall_cycles: u64,
}

impl Lane {
    fn new(machine: &MachineConfig) -> Self {
        Lane {
            fetch_width: machine.fetch_width,
            retire_width: machine.retire_width,
            front_depth: machine.front_depth as u64,
            latencies: machine.latencies.map(u64::from),
            stream_cycle: 0,
            fetched_this_cycle: 0,
            reg_ready: [0; REG_COUNT as usize + 2],
            fu_free: vec![0; machine.fu_count],
            fu_head: 0,
            last_retire_cycle: 0,
            retired_in_cycle: 0,
            window: vec![0; machine.window_size],
            slot: 0,
            mispredict_stall_cycles: 0,
        }
    }

    /// Fetches and executes `op`; returns its fetch cycle and the cycle
    /// its result is ready. The fetch and retire bookkeeping is written as
    /// selects rather than branches: lanes interleave, so branches on
    /// their diverging schedules would mispredict on the host.
    #[inline(always)]
    fn issue(&mut self, op: &Op) -> (u64, u64) {
        // Window constraint: the instruction `window_size` older must have
        // retired before this one can occupy a slot. Then a full fetch
        // group moves fetch to the next cycle.
        let freed = self.window[self.slot];
        let waited = freed > self.stream_cycle;
        let mut fetch_cycle = self.stream_cycle.max(freed);
        let mut fetched = if waited { 0 } else { self.fetched_this_cycle };
        let full = fetched == self.fetch_width;
        fetch_cycle += full as u64;
        fetched = if full { 0 } else { fetched };
        self.stream_cycle = fetch_cycle;
        self.fetched_this_cycle = fetched + 1;

        let decode_done = fetch_cycle + self.front_depth;
        let operands_ready = self.reg_ready[op.srcs[0]].max(self.reg_ready[op.srcs[1]]);
        let fu_free = &mut self.fu_free;
        let start = decode_done.max(operands_ready).max(fu_free[self.fu_head]);
        // FUs are fully pipelined: the unit issuing occupies its slot for
        // one cycle. Its entry becomes the ring's tail; it bubbles back
        // past any unit that frees up later (usually none).
        let free = start + 1;
        let mut at = self.fu_head;
        for _ in 1..fu_free.len() {
            let prev = at.checked_sub(1).unwrap_or(fu_free.len() - 1);
            if fu_free[prev] <= free {
                break;
            }
            fu_free[at] = fu_free[prev];
            at = prev;
        }
        fu_free[at] = free;
        self.fu_head = ring_next(self.fu_head, fu_free.len());

        let complete = start + self.latencies[op.class] + op.miss_penalty;
        self.reg_ready[op.dst] = complete;
        (fetch_cycle, complete)
    }

    /// Redirects the fetch stream after a branch fetched at `fetch_cycle`
    /// whose result is ready at `complete`.
    #[inline]
    fn redirect(&mut self, correct: bool, taken: bool, fetch_cycle: u64, complete: u64) {
        if !correct {
            // Checkpoint repair: correct-path fetch resumes the cycle after
            // the branch executes.
            let resume = complete + 1;
            if resume > self.stream_cycle {
                // The gap (minus the one cycle fetch would have taken
                // anyway) is pure misprediction stall.
                self.mispredict_stall_cycles += resume - self.stream_cycle - 1;
                self.stream_cycle = resume;
                self.fetched_this_cycle = 0;
            }
        } else if taken {
            // Correctly-predicted taken branch: the fetch group ends; the
            // target is fetched next cycle.
            self.stream_cycle = fetch_cycle + 1;
            self.fetched_this_cycle = 0;
        }
    }

    /// Retires the instruction whose result is ready at `complete`, in
    /// order and at most `retire_width` per cycle.
    #[inline(always)]
    fn retire(&mut self, complete: u64) {
        let last = self.last_retire_cycle;
        let mut retire_cycle = (complete + 1).max(last);
        retire_cycle += (retire_cycle == last && self.retired_in_cycle == self.retire_width) as u64;
        self.retired_in_cycle = if retire_cycle > last {
            1
        } else {
            self.retired_in_cycle + 1
        };
        self.last_retire_cycle = retire_cycle;
        self.window[self.slot] = retire_cycle + 1;
        self.slot = ring_next(self.slot, self.window.len());
    }
}

/// The index after `i` in a ring of `len` slots.
#[inline]
fn ring_next(i: usize, len: usize) -> usize {
    if i + 1 == len {
        0
    } else {
        i + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Addr, BranchClass, BranchExec, Reg, VecTrace};

    fn machine() -> MachineConfig {
        MachineConfig::isca97(FrontEndConfig::isca97_baseline())
    }

    fn op(i: u64) -> DynInstr {
        DynInstr::op(Addr::from_word_index(i), InstrClass::Integer)
    }

    #[test]
    fn straightline_independent_code_approaches_fetch_width_ipc() {
        let trace: VecTrace = (0..8000).map(op).collect();
        let r = simulate(&trace, &machine());
        assert!(
            r.ipc() > 6.0,
            "independent integer ops should run near 8 IPC, got {}",
            r.ipc()
        );
    }

    #[test]
    fn dependent_chain_runs_at_one_ipc() {
        let trace: VecTrace = (0..4000)
            .map(|i| {
                DynInstr::op(Addr::from_word_index(i), InstrClass::Integer)
                    .with_srcs(Some(Reg::new(1)), None)
                    .with_dst(Reg::new(1))
            })
            .collect();
        let r = simulate(&trace, &machine());
        assert!(
            (0.8..=1.1).contains(&r.ipc()),
            "a serial dependence chain must run at ~1 IPC, got {}",
            r.ipc()
        );
    }

    #[test]
    fn dependent_divides_run_at_divide_latency() {
        let trace: VecTrace = (0..1000)
            .map(|i| {
                DynInstr::op(Addr::from_word_index(i), InstrClass::Div)
                    .with_srcs(Some(Reg::new(1)), None)
                    .with_dst(Reg::new(1))
            })
            .collect();
        let r = simulate(&trace, &machine());
        let cpi = r.cycles as f64 / r.instructions as f64;
        assert!((7.5..=8.5).contains(&cpi), "divide chain CPI {cpi}");
    }

    #[test]
    fn fu_bandwidth_bounds_ipc() {
        let mut config = machine();
        config.fu_count = 2;
        let trace: VecTrace = (0..8000).map(op).collect();
        let r = simulate(&trace, &config);
        assert!(r.ipc() <= 2.05, "2 FUs cap IPC at 2, got {}", r.ipc());
        assert!(r.ipc() > 1.8);
    }

    #[test]
    fn cache_misses_slow_dependent_loads() {
        // Dependent loads with a huge stride (every access misses) vs the
        // same loads hitting one line.
        let missy: VecTrace = (0..2000)
            .map(|i| {
                DynInstr::load(Addr::from_word_index(i), i * 1_000_003)
                    .with_srcs(Some(Reg::new(1)), None)
                    .with_dst(Reg::new(1))
            })
            .collect();
        let hitty: VecTrace = (0..2000)
            .map(|i| {
                DynInstr::load(Addr::from_word_index(i), 0x40)
                    .with_srcs(Some(Reg::new(1)), None)
                    .with_dst(Reg::new(1))
            })
            .collect();
        let r_miss = simulate(&missy, &machine());
        let r_hit = simulate(&hitty, &machine());
        assert!(
            r_miss.cycles > r_hit.cycles * 3,
            "miss chain {} vs hit chain {}",
            r_miss.cycles,
            r_hit.cycles
        );
        assert!(r_miss.dcache_stats.hit_rate() < 0.1);
        assert!(r_hit.dcache_stats.hit_rate() > 0.99);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // An indirect jump cycling through 16 targets (unpredictable for
        // the BTB-only front end) vs the same number of monomorphic jumps.
        fn jump_trace(ntargets: u64) -> VecTrace {
            let mut t = VecTrace::new();
            for i in 0..3000u64 {
                // Straight-line padding then a jump back.
                for k in 0..4 {
                    t.push(op(1_000_000 + k));
                }
                t.push(DynInstr::branch(
                    Addr::from_word_index(1_000_004),
                    BranchExec::taken(
                        BranchClass::IndirectJump,
                        Addr::from_word_index(2_000_000 + (i % ntargets) * 1024),
                    ),
                ));
                for k in 0..4 {
                    t.push(op(2_000_000 + (i % ntargets) * 1024 + k));
                }
                t.push(DynInstr::branch(
                    Addr::from_word_index(2_000_000 + (i % ntargets) * 1024 + 4),
                    BranchExec::taken(BranchClass::UncondDirect, Addr::from_word_index(1_000_000)),
                ));
            }
            t
        }
        let poly = simulate(&jump_trace(16), &machine());
        let mono = simulate(&jump_trace(1), &machine());
        assert!(
            poly.mispredict_stall_cycles > mono.mispredict_stall_cycles * 5,
            "stall accounting must attribute the gap: poly {} vs mono {}",
            poly.mispredict_stall_cycles,
            mono.mispredict_stall_cycles
        );
        assert!(poly.mispredict_stall_fraction() > 0.3);
        assert!(
            poly.cycles as f64 > mono.cycles as f64 * 1.3,
            "polymorphic {} vs monomorphic {}",
            poly.cycles,
            mono.cycles
        );
        assert!(poly.indirect_mispred_rate() > 0.9);
        assert!(mono.indirect_mispred_rate() < 0.05);
    }

    #[test]
    fn window_size_limits_overlap_of_long_latency_tails() {
        // Independent divides: a big window overlaps them, a tiny window
        // serializes fetch behind retirement.
        let trace: VecTrace = (0..2000)
            .map(|i| DynInstr::op(Addr::from_word_index(i), InstrClass::Div))
            .collect();
        let mut small = machine();
        small.window_size = 4;
        let mut big = machine();
        big.window_size = 64;
        let r_small = simulate(&trace, &small);
        let r_big = simulate(&trace, &big);
        assert!(
            r_small.cycles > r_big.cycles,
            "window 4: {} cycles, window 64: {} cycles",
            r_small.cycles,
            r_big.cycles
        );
    }

    #[test]
    fn fetch_cannot_pass_a_taken_branch() {
        // Back-to-back taken jumps: at most one branch fetches per cycle,
        // so IPC is pinned near 1 regardless of the 8-wide front end.
        let mut t = VecTrace::new();
        for i in 0..3000u64 {
            let pc = Addr::from_word_index(1000 + (i % 2) * 500);
            let target = Addr::from_word_index(1000 + ((i + 1) % 2) * 500);
            t.push(DynInstr::branch(
                pc,
                BranchExec::taken(BranchClass::UncondDirect, target),
            ));
        }
        let r = simulate(&t, &machine());
        assert!(
            r.ipc() <= 1.05,
            "taken-branch-dense code must not exceed 1 IPC, got {}",
            r.ipc()
        );
    }

    #[test]
    fn retire_width_bounds_ipc() {
        let mut config = machine();
        config.retire_width = 2;
        let trace: VecTrace = (0..8000).map(op).collect();
        let r = simulate(&trace, &config);
        assert!(r.ipc() <= 2.05, "retire width 2 caps IPC, got {}", r.ipc());
    }

    #[test]
    fn deeper_front_end_increases_misprediction_cost() {
        // Same trace, deeper decode pipe: each misprediction costs more.
        let mut t = VecTrace::new();
        for i in 0..2000u64 {
            t.push(DynInstr::branch(
                Addr::from_word_index(1000),
                BranchExec::taken(
                    BranchClass::IndirectJump,
                    Addr::from_word_index(2000 + (i % 13) * 512),
                ),
            ));
            for k in 0..3 {
                t.push(op(2000 + (i % 13) * 512 + k + 1));
            }
            t.push(DynInstr::branch(
                Addr::from_word_index(2000 + (i % 13) * 512 + 4),
                BranchExec::taken(BranchClass::UncondDirect, Addr::from_word_index(1000)),
            ));
        }
        let shallow = simulate(&t, &machine());
        let mut deep_cfg = machine();
        deep_cfg.front_depth = 10;
        let deep = simulate(&t, &deep_cfg);
        assert!(
            deep.cycles > shallow.cycles,
            "deep pipe {} should be slower than shallow {}",
            deep.cycles,
            shallow.cycles
        );
    }

    #[test]
    fn wider_fetch_helps_straightline_code() {
        let trace: VecTrace = (0..8000).map(op).collect();
        let mut narrow = machine();
        narrow.fetch_width = 2;
        let r_narrow = simulate(&trace, &narrow);
        let r_wide = simulate(&trace, &machine());
        assert!(r_wide.cycles < r_narrow.cycles);
    }

    #[test]
    fn empty_trace_reports_zero() {
        let r = simulate(&VecTrace::new(), &machine());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn an_instrumented_simulation_books_every_mispredict_once() {
        use sim_telemetry::{Event, EventSink};
        use target_cache::harness::Source;

        let trace = sim_workloads::Benchmark::Gcc.workload().generate(30_000);
        let sink = EventSink::new();
        let r = simulate_batch(&trace, &[machine()], Some(std::slice::from_ref(&sink))).remove(0);

        // The per-source books sum to the mispredicts, and each source's
        // count is the number of its events.
        let mispredicts = r.branch_stats.total_mispredicted();
        assert_eq!(r.mispredicts_by_source.iter().sum::<u64>(), mispredicts);
        let events = sink.drain();
        assert_eq!(events.len() as u64, mispredicts);
        for source in Source::ALL {
            let labelled = events
                .iter()
                .filter(
                    |e| matches!(e, Event::Mispredict { source: s, .. } if *s == source.label()),
                )
                .count() as u64;
            assert_eq!(labelled, r.mispredicts_by_source[source as usize]);
        }

        // Identical timing and books with and without a sink.
        assert_eq!(simulate(&trace, &machine()), r);
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = sim_workloads::Benchmark::Gcc.workload().generate(30_000);
        let a = simulate(&trace, &machine());
        let b = simulate(&trace, &machine());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.branch_stats, b.branch_stats);
    }
}
