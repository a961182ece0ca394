//! Simulation reports.

use crate::dcache::DCacheStats;
use branch_predictors::BranchClassStats;
use std::fmt;
use target_cache::harness::SourceCounts;
use target_cache::TargetCacheStats;

/// The result of one timing simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Total cycles to retire the whole trace.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Fetch cycles lost waiting for mispredicted branches to resolve
    /// (the gap checkpoint repair leaves between a mispredicted branch's
    /// fetch and the correct-path refetch).
    pub mispredict_stall_cycles: u64,
    /// Per-branch-class prediction statistics from the front end.
    pub branch_stats: BranchClassStats,
    /// The front end's mispredicts by the source that supplied the
    /// prediction, indexed by `Source as usize` (see
    /// [`target_cache::harness::Source`]).
    pub mispredicts_by_source: SourceCounts,
    /// Data-cache statistics.
    pub dcache_stats: DCacheStats,
    /// Target-cache structural statistics, if one is configured (for a
    /// cascade: the second stage's statistics).
    pub target_cache_stats: Option<TargetCacheStats>,
    /// The cascade's raw `(filtered, total)` jump counts, if a cascade is
    /// configured.
    pub cascade_counts: Option<(u64, u64)>,
}

impl SimReport {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// The paper's headline metric: fractional reduction in execution time
    /// relative to a baseline run of the *same trace*
    /// (`(base - self) / base`).
    ///
    /// # Panics
    ///
    /// Panics if the two reports simulated different instruction counts —
    /// execution-time reductions are only meaningful for identical work.
    pub fn exec_time_reduction_vs(&self, baseline: &SimReport) -> f64 {
        assert_eq!(
            self.instructions, baseline.instructions,
            "execution-time reduction requires identical traces"
        );
        if baseline.cycles == 0 {
            0.0
        } else {
            (baseline.cycles as f64 - self.cycles as f64) / baseline.cycles as f64
        }
    }

    /// Indirect-jump misprediction rate (the paper's Table 1 metric).
    pub fn indirect_mispred_rate(&self) -> f64 {
        self.branch_stats.indirect_jump_misprediction_rate()
    }

    /// Fraction of all cycles spent stalled on mispredicted branches — the
    /// headroom a better predictor attacks.
    pub fn mispredict_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mispredict_stall_cycles as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions in {} cycles (IPC {:.3})",
            self.instructions,
            self.cycles,
            self.ipc()
        )?;
        writeln!(
            f,
            "indirect-jump misprediction: {:.2}%; D-cache hit rate {:.2}%; \
             {:.1}% of cycles stalled on mispredictions",
            self.indirect_mispred_rate() * 100.0,
            self.dcache_stats.hit_rate() * 100.0,
            self.mispredict_stall_fraction() * 100.0
        )?;
        write!(f, "{}", self.branch_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, instructions: u64) -> SimReport {
        SimReport {
            cycles,
            instructions,
            mispredict_stall_cycles: 0,
            branch_stats: BranchClassStats::default(),
            mispredicts_by_source: SourceCounts::default(),
            dcache_stats: DCacheStats::default(),
            target_cache_stats: None,
            cascade_counts: None,
        }
    }

    #[test]
    fn stall_fraction() {
        let mut r = report(1000, 500);
        r.mispredict_stall_cycles = 250;
        assert!((r.mispredict_stall_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(report(0, 0).mispredict_stall_fraction(), 0.0);
    }

    #[test]
    fn ipc_and_reduction() {
        let base = report(1000, 2000);
        let faster = report(850, 2000);
        assert!((base.ipc() - 2.0).abs() < 1e-12);
        assert!((faster.exec_time_reduction_vs(&base) - 0.15).abs() < 1e-12);
        assert!(base.exec_time_reduction_vs(&base).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical traces")]
    fn reduction_requires_same_instruction_count() {
        report(100, 10).exec_time_reduction_vs(&report(100, 20));
    }

    #[test]
    fn display_mentions_ipc() {
        let r = report(100, 250);
        assert!(r.to_string().contains("IPC 2.500"));
    }
}
