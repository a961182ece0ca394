//! McFarling's combining ("tournament") predictor — reference \[6\] of the
//! paper (*Combining Branch Predictors*, DEC WRL TN-36).
//!
//! Two component predictors — a per-address bimodal table and a gshare
//! two-level predictor — run in parallel; a chooser table of 2-bit
//! counters, indexed by branch address, learns per branch which component
//! to trust. The combination captures both branches with stable bias
//! (bimodal wins, no history warmup) and history-correlated branches
//! (gshare wins).

use crate::counter::SaturatingCounter;
use crate::twolevel::{TwoLevelConfig, TwoLevelPredictor};
use sim_isa::Addr;
use std::fmt;

/// Configuration of a [`TournamentPredictor`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TournamentConfig {
    /// Entries in the bimodal component (power of two).
    pub bimodal_entries: usize,
    /// The history-based component.
    pub gshare: TwoLevelConfig,
    /// Entries in the chooser table (power of two).
    pub chooser_entries: usize,
}

impl TournamentConfig {
    /// McFarling's canonical shape: 4K bimodal, gshare(12), 4K chooser.
    pub fn mcfarling() -> Self {
        TournamentConfig {
            bimodal_entries: 4096,
            gshare: TwoLevelConfig::gshare(12),
            chooser_entries: 4096,
        }
    }

    fn validate(&self) {
        assert!(
            self.bimodal_entries.is_power_of_two() && self.bimodal_entries >= 2,
            "bimodal entries must be a power of two >= 2"
        );
        assert!(
            self.chooser_entries.is_power_of_two() && self.chooser_entries >= 2,
            "chooser entries must be a power of two >= 2"
        );
    }
}

/// A combining predictor: bimodal + gshare + per-address chooser.
///
/// # Example
///
/// ```
/// use branch_predictors::{TournamentConfig, TournamentPredictor};
/// use sim_isa::Addr;
///
/// let mut p = TournamentPredictor::new(TournamentConfig::mcfarling());
/// let pc = Addr::new(0x40);
/// for _ in 0..8 {
///     p.update(pc, true);
/// }
/// assert!(p.predict(pc), "a stable branch is learned immediately by bimodal");
/// ```
#[derive(Clone)]
pub struct TournamentPredictor {
    config: TournamentConfig,
    bimodal: Vec<SaturatingCounter>,
    gshare: TwoLevelPredictor,
    /// High = trust gshare; low = trust bimodal.
    chooser: Vec<SaturatingCounter>,
}

impl TournamentPredictor {
    /// Creates a predictor with both components cold and the chooser
    /// neutral.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TournamentConfig) -> Self {
        config.validate();
        TournamentPredictor {
            config,
            bimodal: vec![SaturatingCounter::new(2); config.bimodal_entries],
            gshare: TwoLevelPredictor::new(config.gshare),
            chooser: vec![SaturatingCounter::new(2); config.chooser_entries],
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> TournamentConfig {
        self.config
    }

    /// The gshare component's global history (for target-cache sharing).
    pub fn global_history(&self) -> u64 {
        self.gshare.global_history()
    }

    fn bimodal_index(&self, pc: Addr) -> usize {
        (pc.word_index() as usize) & (self.bimodal.len() - 1)
    }

    fn chooser_index(&self, pc: Addr) -> usize {
        (pc.word_index() as usize) & (self.chooser.len() - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: Addr) -> bool {
        if self.chooser[self.chooser_index(pc)].is_high() {
            self.gshare.predict(pc)
        } else {
            self.bimodal[self.bimodal_index(pc)].is_high()
        }
    }

    /// Trains both components; the chooser moves toward whichever
    /// component was right when they disagree.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let bimodal_idx = self.bimodal_index(pc);
        let chooser_idx = self.chooser_index(pc);
        let bimodal_pred = self.bimodal[bimodal_idx].is_high();
        let gshare_pred = self.gshare.predict(pc);
        if bimodal_pred != gshare_pred {
            self.chooser[chooser_idx].train(gshare_pred == taken);
        }
        self.bimodal[bimodal_idx].train(taken);
        self.gshare.update(pc, taken);
    }
}

impl fmt::Debug for TournamentPredictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TournamentPredictor({} bimodal, gshare({}), {} chooser)",
            self.bimodal.len(),
            self.config.gshare.history_bits,
            self.chooser.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_branch_is_learned_immediately() {
        let mut p = TournamentPredictor::new(TournamentConfig::mcfarling());
        let pc = Addr::new(0x100);
        for _ in 0..4 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn alternating_branch_is_learned_via_gshare() {
        let mut p = TournamentPredictor::new(TournamentConfig::mcfarling());
        let pc = Addr::new(0x100);
        for i in 0..256 {
            p.update(pc, i % 2 == 0);
        }
        let mut correct = 0;
        for i in 256..288 {
            correct += (p.predict(pc) == (i % 2 == 0)) as u32;
            p.update(pc, i % 2 == 0);
        }
        assert!(
            correct >= 30,
            "tournament should track the alternation, got {correct}/32"
        );
    }

    #[test]
    fn chooser_prefers_bimodal_for_noisy_but_biased_branches() {
        // A branch taken 7 of 8 times in a pattern too long for the
        // history: bimodal predicts "taken" at ~87%, gshare flails during
        // warmup. After training, the tournament should be at least as
        // good as the best component.
        let mut p = TournamentPredictor::new(TournamentConfig {
            bimodal_entries: 64,
            gshare: TwoLevelConfig::gshare(4),
            chooser_entries: 64,
        });
        let pc = Addr::new(0x100);
        // Noise from many other branches pollutes gshare's tiny table.
        let noise: Vec<Addr> = (0..16).map(|i| Addr::from_word_index(100 + i)).collect();
        let mut correct = 0;
        let mut total = 0;
        for round in 0..200 {
            for (k, &n) in noise.iter().enumerate() {
                p.update(n, (round + k) % 3 == 0);
            }
            let taken = round % 8 != 0;
            if round > 100 {
                correct += (p.predict(pc) == taken) as u32;
                total += 1;
            }
            p.update(pc, taken);
        }
        let rate = correct as f64 / total as f64;
        assert!(rate > 0.8, "tournament accuracy {rate} on a biased branch");
    }

    #[test]
    fn global_history_tracks_updates() {
        let mut p = TournamentPredictor::new(TournamentConfig::mcfarling());
        p.update(Addr::new(0), true);
        p.update(Addr::new(0), false);
        assert_eq!(p.global_history(), 0b10);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_bimodal_size() {
        TournamentPredictor::new(TournamentConfig {
            bimodal_entries: 100,
            gshare: TwoLevelConfig::gshare(8),
            chooser_entries: 64,
        });
    }
}
