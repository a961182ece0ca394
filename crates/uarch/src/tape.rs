//! The configuration-independent half of the timing model, recorded once
//! per trace.
//!
//! Along the correct path, neither the data cache nor the baseline front
//! end (BTB, direction predictor, return stack) ever sees a value that
//! depends on the indirect predictor or on timing: the data cache is
//! accessed in program order by address, and the baseline structures train
//! on resolved outcomes. A [`Tape`] records what they decided for one
//! trace, compactly enough to replay for every indirect-stage
//! configuration:
//!
//! * one byte per branch — the [`BaseSource`] that supplied the baseline
//!   prediction and whether it was right;
//! * the BTB hit's stored target for every branch the indirect stage needs
//!   it for (target-cache-eligible branches and indirect-kind hits);
//! * the predicted address of every baseline mispredict (for telemetry
//!   events);
//! * one bit per load: whether it missed the data cache.

use crate::config::MachineConfig;
use crate::dcache::{DCacheStats, DataCache};
use sim_isa::{Addr, BranchClass, DynInstr, InstrClass};
use sim_telemetry::PhaseTimer;
use target_cache::harness::{BaseFrontEnd, BaseSource};
use target_cache::telemetry::HarnessProf;

/// Tape byte bit 0: the baseline prediction was right. Bits 1..=3 hold
/// the [`BaseSource`] discriminant.
const CORRECT: u8 = 1;

/// Whether a branch's tape entry carries the BTB hit's target: the
/// indirect stage needs it for target-cache-eligible branches (the
/// cascade trains on it) and decides every indirect-kind hit (falling
/// back to it). A BTB miss has no target to carry.
#[inline]
fn carries_target(source: BaseSource, class: BranchClass) -> bool {
    source != BaseSource::Fallthrough
        && (class.uses_target_cache() || source == BaseSource::Indirect)
}

/// Runs `f`, timing it into `timer` when profiling is on.
#[inline]
pub(crate) fn timed<R>(timer: Option<&PhaseTimer>, f: impl FnOnce() -> R) -> R {
    match timer {
        Some(t) => t.time(f),
        None => f(),
    }
}

/// The baseline front end's and data cache's record of one trace.
pub(crate) struct Tape {
    branches: Vec<u8>,
    hit_targets: Vec<Addr>,
    mispredicted: Vec<Addr>,
    load_misses: Vec<u64>,
    dcache: DCacheStats,
}

/// One branch's baseline record, as [`Cursor::branch`] replays it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TapeBranch {
    /// The structure that supplied the baseline prediction.
    pub source: BaseSource,
    /// The BTB hit's stored target, when [`carries_target`] says the
    /// indirect stage needs it.
    pub hit_target: Option<Addr>,
    /// The wrong address the baseline predicted, for a mispredicted branch
    /// the baseline settled (`source` other than `Indirect`).
    pub mispredicted: Option<Addr>,
}

impl Tape {
    /// Drives the machine's baseline front end and data cache over the
    /// trace once. With `prof`, the baseline prediction phases
    /// (`btb-lookup`, `ras`, `dir-update`, `btb-update`) are timed into it.
    pub(crate) fn record(
        trace: &[DynInstr],
        machine: &MachineConfig,
        prof: Option<&HarnessProf>,
    ) -> Tape {
        let mut base = BaseFrontEnd::new(&machine.frontend);
        let mut dcache = DataCache::new(machine.dcache);
        // Size the per-branch and per-load records exactly up front (and
        // the hit targets for the common case of eligible branches), so
        // recording never holds a doubled buffer beside the trace.
        let (mut branches, mut eligible, mut loads) = (0, 0, 0);
        for instr in trace {
            if let Some(b) = instr.branch_exec() {
                branches += 1;
                eligible += b.class.uses_target_cache() as usize;
            }
            loads += (instr.class() == InstrClass::Load) as usize;
        }
        let mut tape = Tape {
            branches: Vec::with_capacity(branches),
            hit_targets: Vec::with_capacity(eligible),
            mispredicted: Vec::new(),
            load_misses: vec![0; loads.div_ceil(64)],
            dcache: DCacheStats::default(),
        };
        let mut load = 0;
        for instr in trace {
            if let Some(mem) = instr.mem() {
                let hit = dcache.access(mem.addr);
                if instr.class() == InstrClass::Load {
                    tape.load_misses[load / 64] |= (!hit as u64) << (load % 64);
                    load += 1;
                }
            }
            let Some(b) = instr.branch_exec() else {
                continue;
            };
            let pc = instr.pc();
            let hit = timed(prof.map(|p| &p.btb_lookup), || base.lookup(pc));
            let decision = base.decide(pc, hit);
            let correct = decision.predicted == b.next_pc(pc);
            tape.branches
                .push(((decision.source as u8) << 1) | correct as u8);
            if carries_target(decision.source, b.class) {
                tape.hit_targets
                    .push(hit.expect("only BTB hits carry a target").target);
            }
            if !correct && decision.source != BaseSource::Indirect {
                tape.mispredicted.push(decision.predicted);
            }
            timed(prof.map(|p| &p.ras), || base.resolve_ras(pc, b.class));
            timed(prof.map(|p| &p.dir_update), || {
                base.resolve_direction(pc, b)
            });
            timed(prof.map(|p| &p.btb_update), || base.resolve_btb(pc, b));
        }
        tape.hit_targets.shrink_to_fit();
        tape.mispredicted.shrink_to_fit();
        tape.dcache = dcache.stats();
        tape
    }

    /// Data-cache statistics of the recorded trace.
    pub(crate) fn dcache_stats(&self) -> DCacheStats {
        self.dcache
    }

    /// Heap bytes the tape holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.branches.capacity()
            + std::mem::size_of::<Addr>()
                * (self.hit_targets.capacity() + self.mispredicted.capacity())
            + std::mem::size_of::<u64>() * self.load_misses.capacity()
    }

    /// A fresh replay from the start of the trace.
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor {
            tape: self,
            branch: 0,
            hit_target: 0,
            mispredicted: 0,
            load: 0,
        }
    }
}

/// A replay position in a [`Tape`]; each accessor consumes the next record
/// of its kind, so the caller must visit loads and branches in trace order.
pub(crate) struct Cursor<'t> {
    tape: &'t Tape,
    branch: usize,
    hit_target: usize,
    mispredicted: usize,
    load: usize,
}

impl Cursor<'_> {
    /// Whether the next load missed the data cache.
    #[inline]
    pub(crate) fn load_missed(&mut self) -> bool {
        let i = self.load;
        self.load += 1;
        self.tape.load_misses[i / 64] >> (i % 64) & 1 != 0
    }

    /// The next branch's baseline record; `class` is the branch's own
    /// (resolved) class.
    #[inline]
    pub(crate) fn branch(&mut self, class: BranchClass) -> TapeBranch {
        let byte = self.tape.branches[self.branch];
        self.branch += 1;
        let source = BaseSource::ALL[(byte >> 1) as usize];
        let hit_target = carries_target(source, class).then(|| {
            self.hit_target += 1;
            self.tape.hit_targets[self.hit_target - 1]
        });
        let mispredicted = (byte & CORRECT == 0 && source != BaseSource::Indirect).then(|| {
            self.mispredicted += 1;
            self.tape.mispredicted[self.mispredicted - 1]
        });
        TapeBranch {
            source,
            hit_target,
            mispredicted,
        }
    }
}
