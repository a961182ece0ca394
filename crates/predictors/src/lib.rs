#![warn(missing_docs)]

//! Baseline branch-prediction hardware for the indirect-jump-prediction
//! workspace.
//!
//! This crate implements every prediction structure the paper's machine
//! model uses *besides* the target cache itself (which lives in the
//! `target-cache` crate):
//!
//! * [`SaturatingCounter`] — n-bit saturating counters,
//! * [`PatternHistory`] — the global branch (pattern) history register of
//!   two-level predictors,
//! * [`PathHistory`] / [`PerAddressPathHistory`] — the path-history
//!   registers of Section 3.1 of the paper, with the Control / Branch /
//!   Call-ret / Ind-jmp recording filters,
//! * [`SetAssoc`] — the one set-associative, true-LRU table under the
//!   BTB, both target-cache organizations and the timing model's data
//!   cache,
//! * [`Btb`] — a set-associative branch target buffer with the *default*
//!   and *2-bit* (Calder & Grunwald) target-update strategies
//!   ([`UpdatePolicy::train`]),
//! * [`TwoLevelPredictor`] — GAg / GAs / gshare / PAg conditional-direction
//!   predictors,
//! * [`ReturnAddressStack`] — the return stack that excuses returns from
//!   the target cache.
//!
//! # Example: a BTB mispredicting a polymorphic indirect jump
//!
//! ```
//! use branch_predictors::{Btb, BtbConfig, UpdatePolicy};
//! use sim_isa::{Addr, BranchClass};
//!
//! let mut btb = Btb::new(BtbConfig::new(256, 4, UpdatePolicy::Always));
//! let jump = Addr::new(0x1000);
//!
//! btb.update(jump, BranchClass::IndirectJump, Addr::new(0x2000), Addr::new(0x1004));
//! // The BTB predicts the *last* target — wrong as soon as the target moves.
//! assert_eq!(btb.lookup(jump).unwrap().target, Addr::new(0x2000));
//! btb.update(jump, BranchClass::IndirectJump, Addr::new(0x3000), Addr::new(0x1004));
//! assert_eq!(btb.lookup(jump).unwrap().target, Addr::new(0x3000));
//! ```

pub mod assoc;
pub mod btb;
pub mod counter;
pub mod direction;
pub mod history;
pub mod ras;
pub mod stats;
pub mod tournament;
pub mod twolevel;

pub use assoc::SetAssoc;
pub use btb::{Btb, BtbConfig, BtbHit, UpdatePolicy};
pub use counter::SaturatingCounter;
pub use direction::{DirectionConfig, DirectionPredictor};
pub use history::{
    PathFilter, PathHistory, PathHistoryConfig, PatternHistory, PerAddressPathHistory,
};
pub use ras::ReturnAddressStack;
pub use stats::{BranchClassStats, ClassCounters};
pub use tournament::{TournamentConfig, TournamentPredictor};
pub use twolevel::{TwoLevelConfig, TwoLevelPredictor, TwoLevelScheme};
