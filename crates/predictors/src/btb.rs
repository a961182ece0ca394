//! Set-associative branch target buffer.
//!
//! The paper's baseline machine uses a 1K-entry, 4-way set-associative BTB
//! (256 sets). Each entry stores the branch's taken target, fall-through
//! address, and branch type; for indirect jumps "the taken address is the
//! last computed target for the indirect jump" — which is precisely why a
//! BTB mispredicts polymorphic indirect jumps so badly (Table 1).
//!
//! Two target-update strategies are modelled (Table 2):
//!
//! * [`UpdatePolicy::Always`] — the default: the stored target is replaced
//!   on every target mismatch.
//! * [`UpdatePolicy::TwoBit`] — Calder & Grunwald's 2-bit strategy: an
//!   entry's target is only replaced after **two consecutive** incorrect
//!   predictions with that target.

use crate::assoc::SetAssoc;
use sim_isa::{Addr, BranchClass};
use std::fmt;

/// BTB target-update strategy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum UpdatePolicy {
    /// Replace the stored target on every mismatch (the paper's default).
    #[default]
    Always,
    /// Calder & Grunwald: replace only after two consecutive mismatches.
    TwoBit,
}

impl UpdatePolicy {
    /// Trains a `stored` target toward the `actual` computed one. `streak`
    /// records that the previous update mismatched: the 2-bit policy
    /// replaces the target only on the second consecutive mismatch, and a
    /// match resets the streak. The BTB and the target cache both train
    /// their targets here.
    #[inline]
    pub fn train(self, stored: &mut Addr, streak: &mut bool, actual: Addr) {
        if *stored == actual {
            *streak = false;
        } else if self == UpdatePolicy::Always || *streak {
            *stored = actual;
            *streak = false;
        } else {
            *streak = true;
        }
    }
}

/// Configuration of a [`Btb`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BtbConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (entries per set).
    pub ways: usize,
    /// Target-update strategy.
    pub update_policy: UpdatePolicy,
}

impl BtbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, update_policy: UpdatePolicy) -> Self {
        assert!(
            sets.is_power_of_two(),
            "BTB set count must be a power of two"
        );
        assert!(ways >= 1, "BTB associativity must be at least 1");
        BtbConfig {
            sets,
            ways,
            update_policy,
        }
    }

    /// The paper's baseline: 1K entries, 4-way (256 sets), default update.
    pub fn isca97_baseline() -> Self {
        BtbConfig::new(256, 4, UpdatePolicy::Always)
    }

    /// Total entry count.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// A successful BTB lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BtbHit {
    /// The stored taken-path target (for indirect jumps: the last computed
    /// target).
    pub target: Addr,
    /// The stored fall-through address (needed for the return-address push
    /// of a jump-to-subroutine).
    pub fallthrough: Addr,
    /// The stored branch type, which the fetch engine uses to decide which
    /// predictor supplies the final target.
    pub class: BranchClass,
}

/// One way's payload: a [`BtbHit`]'s fields laid out flat, so the streak
/// bit shares the class byte's padding.
#[derive(Clone, Copy, Debug)]
struct BtbEntry {
    target: Addr,
    fallthrough: Addr,
    class: BranchClass,
    /// Whether the last update mismatched (2-bit policy state).
    miss_streak: bool,
}

impl BtbEntry {
    fn hit(&self) -> BtbHit {
        BtbHit {
            target: self.target,
            fallthrough: self.fallthrough,
            class: self.class,
        }
    }
}

impl Default for BtbEntry {
    /// The placeholder of an empty way; never read.
    fn default() -> Self {
        BtbEntry {
            target: Addr::NULL,
            fallthrough: Addr::NULL,
            class: BranchClass::CondDirect,
            miss_streak: false,
        }
    }
}

/// A set-associative branch target buffer with true-LRU replacement.
///
/// # Example
///
/// ```
/// use branch_predictors::{Btb, BtbConfig, UpdatePolicy};
/// use sim_isa::{Addr, BranchClass};
///
/// let mut btb = Btb::new(BtbConfig::isca97_baseline());
/// assert!(btb.lookup(Addr::new(0x40)).is_none());
/// btb.update(Addr::new(0x40), BranchClass::CondDirect, Addr::new(0x80), Addr::new(0x44));
/// let hit = btb.lookup(Addr::new(0x40)).unwrap();
/// assert_eq!(hit.target, Addr::new(0x80));
/// assert_eq!(hit.class, BranchClass::CondDirect);
/// ```
#[derive(Clone)]
pub struct Btb {
    config: BtbConfig,
    table: SetAssoc<BtbEntry>,
}

impl Btb {
    /// Creates an empty BTB.
    pub fn new(config: BtbConfig) -> Self {
        Btb {
            config,
            table: SetAssoc::new(config.sets, config.ways),
        }
    }

    /// The BTB's configuration.
    pub fn config(&self) -> BtbConfig {
        self.config
    }

    /// The set `pc` maps to (its low word-index bits) and its tag (the
    /// remaining bits).
    #[inline]
    fn set_and_tag(&self, pc: Addr) -> (usize, u64) {
        let word = pc.word_index();
        let sets = self.config.sets;
        ((word as usize) & (sets - 1), word / sets as u64)
    }

    /// Looks up `pc`, refreshing the entry's LRU state on a hit.
    ///
    /// A miss means the fetch engine does not know `pc` is a branch at all
    /// and will fall through.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbHit> {
        let (set, tag) = self.set_and_tag(pc);
        self.table.get_mut(set, tag).map(|e| e.hit())
    }

    /// Looks up `pc` without disturbing LRU state (for instrumentation).
    pub fn peek(&self, pc: Addr) -> Option<BtbHit> {
        let (set, tag) = self.set_and_tag(pc);
        self.table.get(set, tag).map(|e| e.hit())
    }

    /// Installs or trains the entry for a resolved branch.
    ///
    /// `actual_target` is the branch's computed taken-path target this
    /// execution; `fallthrough` is `pc.next()` (stored so a call can push
    /// its return address even on a BTB-supplied prediction).
    pub fn update(&mut self, pc: Addr, class: BranchClass, actual_target: Addr, fallthrough: Addr) {
        let (set, tag) = self.set_and_tag(pc);
        let policy = self.config.update_policy;
        match self.table.get_mut(set, tag) {
            Some(e) => {
                e.class = class;
                e.fallthrough = fallthrough;
                policy.train(&mut e.target, &mut e.miss_streak, actual_target);
            }
            None => {
                let entry = BtbEntry {
                    target: actual_target,
                    fallthrough,
                    class,
                    miss_streak: false,
                };
                self.table.insert(set, tag, entry);
            }
        }
    }

    /// Number of valid entries currently stored.
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.table.clear();
    }
}

impl fmt::Debug for Btb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Btb({} sets x {} ways, {:?}, {} valid)",
            self.config.sets,
            self.config.ways,
            self.config.update_policy,
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb(sets: usize, ways: usize, policy: UpdatePolicy) -> Btb {
        Btb::new(BtbConfig::new(sets, ways, policy))
    }

    #[test]
    fn miss_then_hit_after_update() {
        let mut b = btb(16, 2, UpdatePolicy::Always);
        let pc = Addr::new(0x100);
        assert!(b.lookup(pc).is_none());
        b.update(pc, BranchClass::UncondDirect, Addr::new(0x200), pc.next());
        let hit = b.lookup(pc).unwrap();
        assert_eq!(hit.target, Addr::new(0x200));
        assert_eq!(hit.fallthrough, Addr::new(0x104));
        assert_eq!(hit.class, BranchClass::UncondDirect);
    }

    #[test]
    fn default_policy_tracks_last_target() {
        let mut b = btb(16, 2, UpdatePolicy::Always);
        let pc = Addr::new(0x100);
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x200), pc.next());
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x300), pc.next());
        assert_eq!(b.lookup(pc).unwrap().target, Addr::new(0x300));
    }

    #[test]
    fn two_bit_policy_survives_one_mismatch() {
        let mut b = btb(16, 2, UpdatePolicy::TwoBit);
        let pc = Addr::new(0x100);
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x200), pc.next());
        // One deviation: target sticks.
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x300), pc.next());
        assert_eq!(b.lookup(pc).unwrap().target, Addr::new(0x200));
        // Second consecutive deviation: target replaced.
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x300), pc.next());
        assert_eq!(b.lookup(pc).unwrap().target, Addr::new(0x300));
    }

    #[test]
    fn two_bit_policy_streak_resets_on_correct_use() {
        let mut b = btb(16, 2, UpdatePolicy::TwoBit);
        let pc = Addr::new(0x100);
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x200), pc.next());
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x300), pc.next()); // miss 1
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x200), pc.next()); // correct: reset
        b.update(pc, BranchClass::IndirectJump, Addr::new(0x300), pc.next()); // miss 1 again
        assert_eq!(
            b.lookup(pc).unwrap().target,
            Addr::new(0x200),
            "streak must reset after a correct prediction"
        );
    }

    #[test]
    fn alternating_targets_never_update_under_two_bit() {
        // The pathological A,B,A,B... pattern: 2-bit never replaces, so the
        // stored target stays A (and happens to be right half the time —
        // exactly the effect Calder & Grunwald exploit).
        let mut b = btb(16, 2, UpdatePolicy::TwoBit);
        let pc = Addr::new(0x100);
        let a = Addr::new(0x200);
        let t = Addr::new(0x300);
        b.update(pc, BranchClass::IndirectJump, a, pc.next());
        for _ in 0..10 {
            b.update(pc, BranchClass::IndirectJump, t, pc.next());
            b.update(pc, BranchClass::IndirectJump, a, pc.next());
        }
        assert_eq!(b.lookup(pc).unwrap().target, a);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut b = btb(1, 2, UpdatePolicy::Always);
        // Three branches mapping to the single set.
        let p1 = Addr::new(0x100);
        let p2 = Addr::new(0x200);
        let p3 = Addr::new(0x300);
        b.update(p1, BranchClass::UncondDirect, Addr::new(0x10), p1.next());
        b.update(p2, BranchClass::UncondDirect, Addr::new(0x20), p2.next());
        // Touch p1 so p2 is LRU.
        assert!(b.lookup(p1).is_some());
        b.update(p3, BranchClass::UncondDirect, Addr::new(0x30), p3.next());
        assert!(b.lookup(p1).is_some(), "p1 was recently used");
        assert!(b.lookup(p2).is_none(), "p2 was the LRU victim");
        assert!(b.lookup(p3).is_some());
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut b = btb(16, 1, UpdatePolicy::Always);
        // Consecutive instructions map to consecutive sets.
        for i in 0..16u64 {
            let pc = Addr::from_word_index(i);
            b.update(pc, BranchClass::UncondDirect, Addr::new(0x1000), pc.next());
        }
        assert_eq!(b.occupancy(), 16);
        for i in 0..16u64 {
            assert!(b.lookup(Addr::from_word_index(i)).is_some());
        }
    }

    #[test]
    fn tag_disambiguates_same_set_aliases() {
        let mut b = btb(16, 2, UpdatePolicy::Always);
        let p1 = Addr::from_word_index(5);
        let p2 = Addr::from_word_index(5 + 16); // same set, different tag
        b.update(p1, BranchClass::UncondDirect, Addr::new(0x10), p1.next());
        assert!(b.lookup(p2).is_none());
        b.update(p2, BranchClass::Call, Addr::new(0x20), p2.next());
        assert_eq!(b.lookup(p1).unwrap().target, Addr::new(0x10));
        assert_eq!(b.lookup(p2).unwrap().target, Addr::new(0x20));
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut b = btb(1, 2, UpdatePolicy::Always);
        let p1 = Addr::new(0x100);
        let p2 = Addr::new(0x200);
        let p3 = Addr::new(0x300);
        b.update(p1, BranchClass::UncondDirect, Addr::new(0x10), p1.next());
        b.update(p2, BranchClass::UncondDirect, Addr::new(0x20), p2.next());
        // Peek at p1 (no LRU refresh) — p1 is still LRU and gets evicted.
        assert!(b.peek(p1).is_some());
        b.update(p3, BranchClass::UncondDirect, Addr::new(0x30), p3.next());
        assert!(b.peek(p1).is_none());
        assert!(b.peek(p2).is_some());
    }

    #[test]
    fn clear_empties_the_btb() {
        let mut b = btb(16, 2, UpdatePolicy::Always);
        b.update(
            Addr::new(0x100),
            BranchClass::UncondDirect,
            Addr::new(0x10),
            Addr::new(0x104),
        );
        b.clear();
        assert_eq!(b.occupancy(), 0);
        assert!(b.lookup(Addr::new(0x100)).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        BtbConfig::new(100, 4, UpdatePolicy::Always);
    }

    #[test]
    fn baseline_config_matches_paper() {
        let c = BtbConfig::isca97_baseline();
        assert_eq!(c.entries(), 1024);
        assert_eq!(c.ways, 4);
    }
}
