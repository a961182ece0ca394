//! A unified front over the conditional-direction predictor families, so
//! machine configurations can select any of them.

use crate::tournament::{TournamentConfig, TournamentPredictor};
use crate::twolevel::{TwoLevelConfig, TwoLevelPredictor};
use sim_isa::Addr;

/// Which direction predictor the front end uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DirectionConfig {
    /// A two-level adaptive predictor (GAg / GAs / gshare / PAg / PAs).
    TwoLevel(TwoLevelConfig),
    /// McFarling's combining predictor.
    Tournament(TournamentConfig),
}

impl DirectionConfig {
    /// The reproduction's default: gshare with the given history length.
    pub fn gshare(history_bits: u32) -> Self {
        DirectionConfig::TwoLevel(TwoLevelConfig::gshare(history_bits))
    }
}

#[derive(Clone, Debug)]
enum Engine {
    TwoLevel(TwoLevelPredictor),
    Tournament(TournamentPredictor),
}

/// A constructed direction predictor.
#[derive(Clone, Debug)]
pub struct DirectionPredictor {
    engine: Engine,
}

impl DirectionPredictor {
    /// Builds the configured predictor, cold.
    ///
    /// # Panics
    ///
    /// Panics if the underlying configuration is invalid.
    pub fn new(config: DirectionConfig) -> Self {
        let engine = match config {
            DirectionConfig::TwoLevel(c) => Engine::TwoLevel(TwoLevelPredictor::new(c)),
            DirectionConfig::Tournament(c) => Engine::Tournament(TournamentPredictor::new(c)),
        };
        DirectionPredictor { engine }
    }

    /// Predicts the direction of the conditional branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        match &self.engine {
            Engine::TwoLevel(p) => p.predict(pc),
            Engine::Tournament(p) => p.predict(pc),
        }
    }

    /// Trains the predictor and shifts its history register(s).
    #[inline]
    pub fn update(&mut self, pc: Addr, taken: bool) {
        match &mut self.engine {
            Engine::TwoLevel(p) => p.update(pc, taken),
            Engine::Tournament(p) => p.update(pc, taken),
        }
    }

    /// The global pattern history value (what the target cache borrows).
    #[inline]
    pub fn global_history(&self) -> u64 {
        match &self.engine {
            Engine::TwoLevel(p) => p.global_history(),
            Engine::Tournament(p) => p.global_history(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_learn_a_stable_branch() {
        for config in [
            DirectionConfig::gshare(8),
            DirectionConfig::Tournament(TournamentConfig::mcfarling()),
        ] {
            let mut p = DirectionPredictor::new(config);
            let pc = Addr::new(0x40);
            for _ in 0..16 {
                p.update(pc, true);
            }
            assert!(p.predict(pc), "{config:?}");
        }
    }

    #[test]
    fn history_is_exposed_by_both_variants() {
        for config in [
            DirectionConfig::gshare(8),
            DirectionConfig::Tournament(TournamentConfig::mcfarling()),
        ] {
            let mut p = DirectionPredictor::new(config);
            p.update(Addr::new(0), true);
            assert_eq!(p.global_history() & 1, 1, "{config:?}");
        }
    }
}
