#![warn(missing_docs)]

//! The **target cache** of Chang, Hao & Patt, *"Target Prediction for
//! Indirect Jumps"* (ISCA 1997) — the paper's primary contribution.
//!
//! A BTB predicts an indirect jump's target as the *last* computed target of
//! that jump, which fails badly when the target changes between dynamic
//! instances (66.0% / 76.2% misprediction for gcc / perl in the paper). The
//! target cache instead applies the central idea of two-level branch
//! prediction: it uses *branch history* to distinguish different dynamic
//! occurrences of each indirect jump, choosing among (usually) **all** the
//! targets seen so far rather than just the most recent one.
//!
//! When an indirect jump is fetched, the fetch address and the branch
//! history form an index **A** into the target cache, which supplies the
//! predicted target. When the jump retires, the cache is written at the same
//! index A with the computed target. ([`TargetCache::lookup`] returns the
//! [`Access`] handle that [`TargetCache::update`] later consumes, so the
//! "same index A" property holds by construction even in an out-of-order
//! machine.)
//!
//! The crate models every design axis the paper studies:
//!
//! * **History source** ([`HistorySource`]): global *pattern* history
//!   (conditional-branch directions, borrowed from the two-level
//!   predictor), or *path* history (target-address fragments), either
//!   global — with the Control / Branch / Call-ret / Ind-jmp filters — or
//!   per-address.
//! * **Tagless organization** ([`Organization::Tagless`]) with the GAg /
//!   GAs / gshare index hashes of Table 4.
//! * **Tagged organization** ([`Organization::Tagged`]) with the Address /
//!   History-Concatenate / History-Xor indexing schemes of Table 7 and any
//!   set associativity.
//!
//! A trace-driven [`harness::PredictionHarness`] combines the target cache
//! with the baseline front-end structures (BTB, two-level direction
//! predictor, return address stack) to measure misprediction rates exactly
//! as the paper's accuracy tables do. It is a batch: one pass over a trace
//! drives the baseline structures once and one indirect predictor per
//! configuration beside them, deciding once for every configuration each
//! branch no indirect predictor takes part in.
//! [`PredictionHarness::new`](harness::PredictionHarness::new) is a batch
//! of one.
//!
//! # Quick start
//!
//! ```
//! use target_cache::{TargetCache, TargetCacheConfig};
//! use sim_isa::Addr;
//!
//! // The paper's 512-entry tagless gshare cache with 9 bits of pattern history.
//! let mut tc = TargetCache::new(TargetCacheConfig::isca97_tagless_gshare());
//! let jump = Addr::new(0x1000);
//!
//! // First encounter under history 0b1_0110_1011: miss, then train.
//! let history = 0b1_0110_1011;
//! let (access, prediction) = tc.lookup(jump, history);
//! assert_eq!(prediction, None);
//! tc.update(access, Addr::new(0x2000));
//!
//! // Same jump, same history: the recorded target is predicted.
//! let (_, prediction) = tc.lookup(jump, history);
//! assert_eq!(prediction, Some(Addr::new(0x2000)));
//! ```

pub mod cache;
pub mod cascade;
pub mod config;
pub mod harness;
pub mod history;
pub mod index;
pub mod stats;

pub use cache::{Access, TargetCache};
pub use cascade::{CascadeConfig, CascadedPredictor};
pub use config::{HistorySource, IndexScheme, Organization, TaggedIndexScheme, TargetCacheConfig};
pub use history::HistoryTracker;
pub use stats::TargetCacheStats;
