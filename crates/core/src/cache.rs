//! The target cache storage structure: tagless (Figure 10 of the paper) and
//! tagged (Figure 11) organizations behind one interface.

use crate::config::{Organization, TargetCacheConfig};
use crate::index::{tagged_set_and_tag, tagless_index};
use crate::stats::TargetCacheStats;
use branch_predictors::SetAssoc;
use sim_isa::Addr;
use std::fmt;

/// A handle identifying where a lookup landed — the paper's "index A".
///
/// "When fetching an indirect jump, the fetch address and the branch history
/// are used to form an index (A) into the target cache. ... Later, when the
/// indirect branch retires, the target cache is accessed again using index
/// A, and the computed target ... is written into the target cache."
///
/// [`TargetCache::lookup`] returns the `Access`; the caller carries it with
/// the in-flight branch and hands it back to [`TargetCache::update`] at
/// retirement, so the update always writes the entry the prediction was
/// read from, even if history has moved on since fetch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// Tagless: entry index. Tagged: set index.
    set: usize,
    /// The tag that was (or must be) matched; always 0 when tagless.
    tag: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    target: Addr,
    /// Whether the last update mismatched (2-bit policy state).
    miss_streak: bool,
}

/// The target cache: a history-indexed store of indirect-jump targets.
///
/// Both organizations share one [`SetAssoc`] table: a tagged cache is
/// `entries / assoc` sets of `assoc` ways, a tagless one is `entries`
/// sets of one way whose tag is always 0, so any stored target answers
/// whatever jump indexes its entry.
///
/// See the [crate-level documentation](crate) for the quick-start example
/// and design-space overview.
#[derive(Clone)]
pub struct TargetCache {
    config: TargetCacheConfig,
    table: SetAssoc<Entry>,
    stats: TargetCacheStats,
}

impl TargetCache {
    /// Creates an empty target cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (already checked by
    /// [`TargetCacheConfig::new`], so only hand-rolled configs can trip
    /// this).
    pub fn new(config: TargetCacheConfig) -> Self {
        let (sets, ways) = match config.organization {
            Organization::Tagless { entries, .. } => (entries, 1),
            Organization::Tagged { entries, assoc, .. } => (entries / assoc, assoc),
        };
        TargetCache {
            config,
            table: SetAssoc::new(sets, ways),
            stats: TargetCacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> TargetCacheConfig {
        self.config
    }

    /// Lookup statistics accumulated so far.
    pub fn stats(&self) -> &TargetCacheStats {
        &self.stats
    }

    fn access_for(&self, pc: Addr, history: u64) -> Access {
        match self.config.organization {
            Organization::Tagless { entries, scheme } => Access {
                set: tagless_index(scheme, pc, history, entries.trailing_zeros()),
                tag: 0,
            },
            Organization::Tagged {
                entries,
                assoc,
                scheme,
            } => {
                let set_bits = (entries / assoc).trailing_zeros();
                let st =
                    tagged_set_and_tag(scheme, pc, history, set_bits, self.config.history.bits());
                Access {
                    set: st.set,
                    tag: st.tag,
                }
            }
        }
    }

    /// Predicts the target of the indirect jump at `pc` under the given
    /// history value.
    ///
    /// Returns the [`Access`] handle (to be passed to
    /// [`update`](TargetCache::update) at retirement) and the predicted
    /// target: `None` means the cache has no prediction — a cold tagless
    /// entry, or a tag miss in a tagged cache — and the fetch engine falls
    /// back to the BTB's last-target prediction.
    pub fn lookup(&mut self, pc: Addr, history: u64) -> (Access, Option<Addr>) {
        let access = self.access_for(pc, history);
        let prediction = self.table.get_mut(access.set, access.tag).map(|e| e.target);
        self.stats.record_lookup(prediction.is_some());
        (access, prediction)
    }

    /// Reads the prediction without touching LRU state or statistics.
    pub fn peek(&self, pc: Addr, history: u64) -> Option<Addr> {
        let access = self.access_for(pc, history);
        self.table.get(access.set, access.tag).map(|e| e.target)
    }

    /// Writes the computed target of a retired indirect jump at the entry
    /// the prediction was read from ("index A").
    pub fn update(&mut self, access: Access, target: Addr) {
        self.stats.record_update();
        let policy = self.config.update_policy;
        match self.table.get_mut(access.set, access.tag) {
            Some(e) => policy.train(&mut e.target, &mut e.miss_streak, target),
            None => {
                let entry = Entry {
                    target,
                    miss_streak: false,
                };
                self.table.insert(access.set, access.tag, entry);
            }
        }
    }

    /// Convenience: lookup immediately followed by update, for in-order
    /// functional simulation where fetch and retire coincide. Returns the
    /// prediction that was made *before* the update.
    pub fn predict_and_train(&mut self, pc: Addr, history: u64, actual: Addr) -> Option<Addr> {
        let (access, prediction) = self.lookup(pc, history);
        self.update(access, actual);
        prediction
    }

    /// Number of valid entries currently stored.
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    /// Clears all entries and statistics.
    pub fn clear(&mut self) {
        self.table.clear();
        self.stats = TargetCacheStats::default();
    }
}

impl fmt::Debug for TargetCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TargetCache({:?}, {} valid entries)",
            self.config.organization,
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HistorySource, IndexScheme, Organization, TaggedIndexScheme};

    fn tagless(entries: usize, scheme: IndexScheme) -> TargetCache {
        TargetCache::new(TargetCacheConfig::new(
            Organization::Tagless { entries, scheme },
            HistorySource::Pattern { bits: 9 },
        ))
    }

    fn tagged(entries: usize, assoc: usize, scheme: TaggedIndexScheme) -> TargetCache {
        TargetCache::new(TargetCacheConfig::new(
            Organization::Tagged {
                entries,
                assoc,
                scheme,
            },
            HistorySource::Pattern { bits: 9 },
        ))
    }

    #[test]
    fn cold_lookup_has_no_prediction() {
        let mut tc = tagless(512, IndexScheme::Gshare);
        let (_, p) = tc.lookup(Addr::new(0x100), 0);
        assert_eq!(p, None);
        let mut tc = tagged(256, 4, TaggedIndexScheme::HistoryXor);
        let (_, p) = tc.lookup(Addr::new(0x100), 0);
        assert_eq!(p, None);
    }

    #[test]
    fn update_then_lookup_same_history_hits() {
        for mut tc in [
            tagless(512, IndexScheme::Gshare),
            tagless(512, IndexScheme::GAg),
            tagged(256, 4, TaggedIndexScheme::HistoryXor),
            tagged(256, 1, TaggedIndexScheme::Address),
            tagged(256, 256, TaggedIndexScheme::HistoryConcat),
        ] {
            let pc = Addr::new(0x1000);
            let h = 0b1_0101_1010;
            let (a, _) = tc.lookup(pc, h);
            tc.update(a, Addr::new(0x2000));
            let (_, p) = tc.lookup(pc, h);
            assert_eq!(p, Some(Addr::new(0x2000)), "{:?}", tc.config().organization);
        }
    }

    #[test]
    fn different_histories_learn_different_targets() {
        // The essence of the target cache: one static jump, two histories,
        // two remembered targets.
        let mut tc = tagless(512, IndexScheme::Gshare);
        let pc = Addr::new(0x1000);
        let (a1, _) = tc.lookup(pc, 0b0001);
        tc.update(a1, Addr::new(0x2000));
        let (a2, _) = tc.lookup(pc, 0b0010);
        tc.update(a2, Addr::new(0x3000));
        assert_eq!(tc.peek(pc, 0b0001), Some(Addr::new(0x2000)));
        assert_eq!(tc.peek(pc, 0b0010), Some(Addr::new(0x3000)));
    }

    #[test]
    fn tagless_interference_is_silent_misprediction() {
        // Two different jumps hashing to the same entry: the second
        // overwrites the first, and the first then *predicts the wrong
        // target* rather than missing — the interference problem that
        // motivates tags (Section 3.2).
        let mut tc = tagless(512, IndexScheme::GAg); // GAg: index = history only
        let h = 0b1111;
        let (a1, _) = tc.lookup(Addr::new(0x1000), h);
        tc.update(a1, Addr::new(0x2000));
        let (a2, _) = tc.lookup(Addr::new(0x9000), h); // different jump, same index
        tc.update(a2, Addr::new(0x5000));
        assert_eq!(
            tc.peek(Addr::new(0x1000), h),
            Some(Addr::new(0x5000)),
            "tagless cache serves the interfering jump's target"
        );
    }

    #[test]
    fn tagged_interference_is_a_miss_not_a_wrong_hit() {
        // Same scenario with tags (fully associative so no capacity issue):
        // the other jump's entry does not match, so we miss instead of
        // mispredicting.
        let mut tc = tagged(256, 256, TaggedIndexScheme::HistoryXor);
        let h = 0b1111;
        let (a1, _) = tc.lookup(Addr::new(0x1000), h);
        tc.update(a1, Addr::new(0x2000));
        let (a2, _) = tc.lookup(Addr::new(0x9000), h);
        tc.update(a2, Addr::new(0x5000));
        assert_eq!(tc.peek(Addr::new(0x1000), h), Some(Addr::new(0x2000)));
        assert_eq!(tc.peek(Addr::new(0x9000), h), Some(Addr::new(0x5000)));
    }

    #[test]
    fn address_scheme_direct_mapped_thrashes_across_histories() {
        // Table 7's conflict-miss effect: Address indexing maps every
        // occurrence of one jump to the same set; with 1 way, alternating
        // histories evict each other forever.
        let mut tc = tagged(256, 1, TaggedIndexScheme::Address);
        let pc = Addr::new(0x1000);
        let (a1, _) = tc.lookup(pc, 0b0001);
        tc.update(a1, Addr::new(0x2000));
        let (a2, _) = tc.lookup(pc, 0b0010);
        tc.update(a2, Addr::new(0x3000));
        // The first history's entry has been evicted.
        assert_eq!(tc.peek(pc, 0b0001), None);
        // History-Xor spreads them across sets instead.
        let mut tc = tagged(256, 1, TaggedIndexScheme::HistoryXor);
        let (a1, _) = tc.lookup(pc, 0b0001);
        tc.update(a1, Addr::new(0x2000));
        let (a2, _) = tc.lookup(pc, 0b0010);
        tc.update(a2, Addr::new(0x3000));
        assert_eq!(tc.peek(pc, 0b0001), Some(Addr::new(0x2000)));
        assert_eq!(tc.peek(pc, 0b0010), Some(Addr::new(0x3000)));
    }

    #[test]
    fn higher_associativity_fixes_address_scheme_thrashing() {
        let mut tc = tagged(256, 4, TaggedIndexScheme::Address);
        let pc = Addr::new(0x1000);
        for (h, t) in [(1u64, 0x2000u64), (2, 0x3000), (3, 0x4000), (4, 0x5000)] {
            let (a, _) = tc.lookup(pc, h);
            tc.update(a, Addr::new(t));
        }
        for (h, t) in [(1u64, 0x2000u64), (2, 0x3000), (3, 0x4000), (4, 0x5000)] {
            assert_eq!(tc.peek(pc, h), Some(Addr::new(t)));
        }
    }

    #[test]
    fn tagged_lru_evicts_least_recently_used_way() {
        let mut tc = tagged(4, 2, TaggedIndexScheme::HistoryXor); // 2 sets x 2 ways
        let pc = Addr::from_word_index(0);
        // Histories 0, 2, 4 all map (xor with pc=0, set_bits=1) to set 0.
        let (a0, _) = tc.lookup(pc, 0);
        tc.update(a0, Addr::new(0x10));
        let (a2, _) = tc.lookup(pc, 2);
        tc.update(a2, Addr::new(0x20));
        // Touch history 0 so history 2 is LRU.
        assert_eq!(tc.peek(pc, 0), Some(Addr::new(0x10)));
        let (_, _) = tc.lookup(pc, 0);
        let (a4, _) = tc.lookup(pc, 4);
        tc.update(a4, Addr::new(0x30));
        assert_eq!(
            tc.peek(pc, 0),
            Some(Addr::new(0x10)),
            "recently used survives"
        );
        assert_eq!(tc.peek(pc, 2), None, "LRU way evicted");
        assert_eq!(tc.peek(pc, 4), Some(Addr::new(0x30)));
    }

    #[test]
    fn update_uses_the_fetch_time_index_not_current_history() {
        // The "index A" property: even if the caller's history value has
        // changed between lookup and update, the update lands where the
        // lookup read.
        let mut tc = tagless(512, IndexScheme::GAg);
        let pc = Addr::new(0x1000);
        let (a, _) = tc.lookup(pc, 0b0101);
        // ... history moves on; the retire-time write still uses `a` ...
        tc.update(a, Addr::new(0x7000));
        assert_eq!(tc.peek(pc, 0b0101), Some(Addr::new(0x7000)));
        assert_eq!(tc.peek(pc, 0b1111), None);
    }

    #[test]
    fn predict_and_train_returns_pre_update_prediction() {
        let mut tc = tagless(512, IndexScheme::Gshare);
        let pc = Addr::new(0x100);
        assert_eq!(tc.predict_and_train(pc, 7, Addr::new(0x200)), None);
        assert_eq!(
            tc.predict_and_train(pc, 7, Addr::new(0x300)),
            Some(Addr::new(0x200))
        );
        assert_eq!(
            tc.predict_and_train(pc, 7, Addr::new(0x300)),
            Some(Addr::new(0x300))
        );
    }

    #[test]
    fn occupancy_and_clear() {
        let mut tc = tagged(256, 4, TaggedIndexScheme::HistoryXor);
        assert_eq!(tc.occupancy(), 0);
        let (a, _) = tc.lookup(Addr::new(0x100), 3);
        tc.update(a, Addr::new(0x200));
        assert_eq!(tc.occupancy(), 1);
        tc.clear();
        assert_eq!(tc.occupancy(), 0);
        assert_eq!(tc.stats().lookups(), 0);
    }

    #[test]
    fn two_bit_update_policy_survives_one_deviation() {
        use branch_predictors::UpdatePolicy;
        for organization in [
            Organization::Tagless {
                entries: 512,
                scheme: IndexScheme::Gshare,
            },
            Organization::Tagged {
                entries: 256,
                assoc: 4,
                scheme: TaggedIndexScheme::HistoryXor,
            },
        ] {
            let mut tc = TargetCache::new(
                TargetCacheConfig::new(organization, HistorySource::Pattern { bits: 9 })
                    .with_update_policy(UpdatePolicy::TwoBit),
            );
            let pc = Addr::new(0x100);
            let h = 0b0101;
            let a = Addr::new(0x900);
            let b = Addr::new(0xA00);
            let (acc, _) = tc.lookup(pc, h);
            tc.update(acc, a);
            // One deviation: stored target sticks.
            let (acc, _) = tc.lookup(pc, h);
            tc.update(acc, b);
            assert_eq!(tc.peek(pc, h), Some(a), "{organization:?}");
            // Second consecutive deviation: replaced.
            let (acc, _) = tc.lookup(pc, h);
            tc.update(acc, b);
            assert_eq!(tc.peek(pc, h), Some(b), "{organization:?}");
            // A confirming update resets the streak.
            let (acc, _) = tc.lookup(pc, h);
            tc.update(acc, b);
            let (acc, _) = tc.lookup(pc, h);
            tc.update(acc, a);
            assert_eq!(tc.peek(pc, h), Some(b), "streak reset: {organization:?}");
        }
    }

    #[test]
    fn default_policy_is_always_update() {
        let tc = TargetCache::new(TargetCacheConfig::isca97_tagless_gshare());
        assert_eq!(
            tc.config().update_policy,
            branch_predictors::UpdatePolicy::Always
        );
    }

    #[test]
    fn stats_count_lookups_hits_updates() {
        let mut tc = tagless(512, IndexScheme::Gshare);
        let pc = Addr::new(0x100);
        let (a, p) = tc.lookup(pc, 0);
        assert!(p.is_none());
        tc.update(a, Addr::new(0x200));
        let _ = tc.lookup(pc, 0);
        assert_eq!(tc.stats().lookups(), 2);
        assert_eq!(tc.stats().hits(), 1);
        assert_eq!(tc.stats().updates(), 1);
    }
}
