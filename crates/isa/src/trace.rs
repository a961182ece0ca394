//! Traces and whole-trace statistics.
//!
//! A *trace* is a sequence of [`DynInstr`]: [`VecTrace`] holds one for
//! repeated replay, and [`TraceStats`] computes the per-benchmark
//! characterization the paper reports in Table 1 and Figures 1–8.

use crate::{Addr, BranchClass, DynInstr, InstrClass};
use std::collections::HashMap;

/// A materialized trace, replayable any number of times.
///
/// # Example
///
/// ```
/// use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, VecTrace};
///
/// let trace = VecTrace::from_iter([
///     DynInstr::op(Addr::new(0x0), sim_isa::InstrClass::Integer),
///     DynInstr::branch(Addr::new(0x4), BranchExec::taken(BranchClass::IndirectJump, Addr::new(0x0))),
/// ]);
/// assert_eq!(trace.len(), 2);
/// let stats = trace.stats();
/// assert_eq!(stats.indirect_jumps(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecTrace {
    instrs: Vec<DynInstr>,
}

impl VecTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        VecTrace::default()
    }

    /// Reserves room for at least `n` more instructions. Trace
    /// generators know their budget up front; reserving once avoids the
    /// doubling reallocations of growing a multi-hundred-thousand-entry
    /// trace from empty.
    pub fn reserve(&mut self, n: usize) {
        self.instrs.reserve(n);
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends an instruction.
    #[inline]
    pub fn push(&mut self, i: DynInstr) {
        self.instrs.push(i);
    }

    /// Borrowing iterator over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInstr> {
        self.instrs.iter()
    }

    /// The instructions as a slice.
    pub fn as_slice(&self) -> &[DynInstr] {
        &self.instrs
    }

    /// Computes whole-trace statistics (one pass).
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_trace(self.iter().copied())
    }
}

impl AsRef<[DynInstr]> for VecTrace {
    fn as_ref(&self) -> &[DynInstr] {
        &self.instrs
    }
}

impl FromIterator<DynInstr> for VecTrace {
    fn from_iter<T: IntoIterator<Item = DynInstr>>(iter: T) -> Self {
        VecTrace {
            instrs: iter.into_iter().collect(),
        }
    }
}

impl Extend<DynInstr> for VecTrace {
    fn extend<T: IntoIterator<Item = DynInstr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

impl<'a> IntoIterator for &'a VecTrace {
    type Item = &'a DynInstr;
    type IntoIter = std::slice::Iter<'a, DynInstr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

impl IntoIterator for VecTrace {
    type Item = DynInstr;
    type IntoIter = std::vec::IntoIter<DynInstr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.into_iter()
    }
}

/// Per-static-branch dynamic target census for one indirect jump.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetCensus {
    /// Dynamic execution count of this static branch.
    pub executions: u64,
    /// Distinct dynamic targets seen, with per-target counts.
    pub targets: HashMap<Addr, u64>,
}

impl TargetCensus {
    /// Number of distinct targets observed.
    pub fn distinct_targets(&self) -> usize {
        self.targets.len()
    }
}

/// Whole-trace statistics: the characterization data of Table 1 and the
/// targets-per-indirect-jump histograms of Figures 1–8.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    instructions: u64,
    class_counts: [u64; 8],
    branch_counts: [u64; 6],
    taken_conditional: u64,
    indirect_jump_census: HashMap<Addr, TargetCensus>,
}

impl TraceStats {
    /// Computes statistics over a trace in one pass.
    pub fn from_trace<I: IntoIterator<Item = DynInstr>>(trace: I) -> Self {
        let mut s = TraceStats::default();
        for i in trace {
            s.record(&i);
        }
        s
    }

    /// Folds one instruction into the statistics.
    pub fn record(&mut self, i: &DynInstr) {
        self.instructions += 1;
        self.class_counts[i.class().index()] += 1;
        if let Some(b) = i.branch_exec() {
            self.branch_counts[b.class.index()] += 1;
            if b.class.is_conditional() && b.taken {
                self.taken_conditional += 1;
            }
            if b.class.uses_target_cache() {
                let census = self.indirect_jump_census.entry(i.pc()).or_default();
                census.executions += 1;
                *census.targets.entry(b.target).or_insert(0) += 1;
            }
        }
    }

    /// Total dynamic instruction count.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Dynamic count of a given instruction class.
    pub fn class_count(&self, class: InstrClass) -> u64 {
        self.class_counts[class.index()]
    }

    /// All per-class dynamic counts, indexed by [`InstrClass::index`].
    pub fn class_counts(&self) -> [u64; 8] {
        self.class_counts
    }

    /// All per-branch-class dynamic counts, indexed by
    /// [`BranchClass::index`].
    pub fn branch_class_counts(&self) -> [u64; 6] {
        self.branch_counts
    }

    /// Dynamic count of all control instructions.
    pub fn branches(&self) -> u64 {
        self.class_counts[InstrClass::Branch.index()]
    }

    /// Dynamic count of a given branch class.
    pub fn branch_count(&self, class: BranchClass) -> u64 {
        self.branch_counts[class.index()]
    }

    /// Dynamic count of target-cache-eligible branches (indirect jumps and
    /// indirect calls, excluding returns) — the paper's "# Indirect Jumps"
    /// column of Table 1.
    pub fn indirect_jumps(&self) -> u64 {
        self.branch_counts[BranchClass::IndirectJump.index()]
            + self.branch_counts[BranchClass::IndirectCall.index()]
    }

    /// Dynamic count of taken conditional branches.
    pub fn taken_conditional(&self) -> u64 {
        self.taken_conditional
    }

    /// Fraction of dynamic instructions that are target-cache-eligible
    /// indirect branches (the paper quotes 0.5% for gcc, 0.6% for perl).
    pub fn indirect_jump_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.indirect_jumps() as f64 / self.instructions as f64
        }
    }

    /// Number of *static* indirect jump sites observed.
    pub fn static_indirect_jumps(&self) -> usize {
        self.indirect_jump_census.len()
    }

    /// Per-site dynamic target census.
    pub fn indirect_jump_census(&self) -> &HashMap<Addr, TargetCensus> {
        &self.indirect_jump_census
    }

    /// Histogram for Figures 1–8: for each static indirect jump, the number
    /// of distinct dynamic targets it exhibited, bucketed `1..cap` with a
    /// final `>= cap` bucket (the paper uses `cap = 30`).
    ///
    /// Returns a vector of length `cap` where slot `k-1` (for `k < cap`)
    /// counts static jumps with exactly `k` targets and slot `cap-1` counts
    /// those with `cap` or more.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn targets_per_jump_histogram(&self, cap: usize) -> Vec<u64> {
        assert!(cap >= 1, "histogram cap must be at least 1");
        let mut hist = vec![0u64; cap];
        for census in self.indirect_jump_census.values() {
            let n = census.distinct_targets().max(1);
            let bucket = n.min(cap) - 1;
            hist[bucket] += 1;
        }
        hist
    }

    /// Same histogram weighted by *dynamic* executions instead of static
    /// sites: how many dynamic indirect jumps were executions of a site with
    /// `k` distinct targets. This is what determines prediction difficulty.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn dynamic_targets_per_jump_histogram(&self, cap: usize) -> Vec<u64> {
        assert!(cap >= 1, "histogram cap must be at least 1");
        let mut hist = vec![0u64; cap];
        for census in self.indirect_jump_census.values() {
            let n = census.distinct_targets().max(1);
            let bucket = n.min(cap) - 1;
            hist[bucket] += census.executions;
        }
        hist
    }

    /// Merges another statistics object into this one (useful for sharded
    /// trace generation).
    pub fn merge(&mut self, other: &TraceStats) {
        self.instructions += other.instructions;
        for (a, b) in self.class_counts.iter_mut().zip(other.class_counts) {
            *a += b;
        }
        for (a, b) in self.branch_counts.iter_mut().zip(other.branch_counts) {
            *a += b;
        }
        self.taken_conditional += other.taken_conditional;
        for (pc, census) in &other.indirect_jump_census {
            let mine = self.indirect_jump_census.entry(*pc).or_default();
            mine.executions += census.executions;
            for (t, n) in &census.targets {
                *mine.targets.entry(*t).or_insert(0) += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchExec;

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

    #[test]
    fn vec_trace_roundtrip() {
        let mut t = VecTrace::new();
        assert!(t.is_empty());
        t.push(DynInstr::op(Addr::new(0), InstrClass::Integer));
        t.extend([DynInstr::op(Addr::new(4), InstrClass::FpAdd)]);
        assert_eq!(t.len(), 2);
        let collected: Vec<_> = t.iter().map(|i| i.class()).collect();
        assert_eq!(collected, vec![InstrClass::Integer, InstrClass::FpAdd]);
    }

    #[test]
    fn stats_count_classes_and_branches() {
        let t = VecTrace::from_iter([
            DynInstr::op(Addr::new(0), InstrClass::Integer),
            DynInstr::load(Addr::new(4), 0x100),
            cond(8, true, 0x20),
            cond(12, false, 0x20),
            ijmp(16, 0x40),
        ]);
        let s = t.stats();
        assert_eq!(s.instructions(), 5);
        assert_eq!(s.class_count(InstrClass::Integer), 1);
        assert_eq!(s.class_count(InstrClass::Load), 1);
        assert_eq!(s.branches(), 3);
        assert_eq!(s.branch_count(BranchClass::CondDirect), 2);
        assert_eq!(s.taken_conditional(), 1);
        assert_eq!(s.indirect_jumps(), 1);
        assert!((s.indirect_jump_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn returns_do_not_count_as_target_cache_jumps() {
        let t = VecTrace::from_iter([DynInstr::branch(
            Addr::new(0),
            BranchExec::taken(BranchClass::Return, Addr::new(0x40)),
        )]);
        let s = t.stats();
        assert_eq!(s.indirect_jumps(), 0);
        assert_eq!(s.static_indirect_jumps(), 0);
    }

    #[test]
    fn census_tracks_distinct_targets_per_site() {
        let t = VecTrace::from_iter([
            ijmp(0x100, 0x200),
            ijmp(0x100, 0x300),
            ijmp(0x100, 0x200),
            ijmp(0x900, 0x400),
        ]);
        let s = t.stats();
        assert_eq!(s.static_indirect_jumps(), 2);
        let c = &s.indirect_jump_census()[&Addr::new(0x100)];
        assert_eq!(c.executions, 3);
        assert_eq!(c.distinct_targets(), 2);
        assert_eq!(c.targets[&Addr::new(0x200)], 2);
    }

    #[test]
    fn histogram_buckets_and_cap() {
        // site A: 1 target, site B: 2 targets, site C: 5 targets (cap 3 -> >=3 bucket)
        let t = VecTrace::from_iter([
            ijmp(0x0, 0x10),
            ijmp(0x4, 0x10),
            ijmp(0x4, 0x20),
            ijmp(0x8, 0x10),
            ijmp(0x8, 0x20),
            ijmp(0x8, 0x30),
            ijmp(0x8, 0x40),
            ijmp(0x8, 0x50),
        ]);
        let s = t.stats();
        assert_eq!(s.targets_per_jump_histogram(3), vec![1, 1, 1]);
        let dyn_hist = s.dynamic_targets_per_jump_histogram(3);
        assert_eq!(dyn_hist, vec![1, 2, 5]);
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn histogram_rejects_zero_cap() {
        TraceStats::default().targets_per_jump_histogram(0);
    }

    #[test]
    fn merge_combines_counts() {
        let a = VecTrace::from_iter([ijmp(0x0, 0x10), cond(4, true, 0x20)]).stats();
        let b = VecTrace::from_iter([ijmp(0x0, 0x20)]).stats();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.instructions(), 3);
        assert_eq!(m.indirect_jumps(), 2);
        assert_eq!(
            m.indirect_jump_census()[&Addr::new(0x0)].distinct_targets(),
            2
        );
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TraceStats::default();
        assert_eq!(s.instructions(), 0);
        assert_eq!(s.indirect_jump_fraction(), 0.0);
        assert_eq!(s.targets_per_jump_histogram(30), vec![0; 30]);
    }
}
