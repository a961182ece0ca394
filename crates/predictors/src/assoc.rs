//! One set-associative table with true-LRU replacement.
//!
//! The BTB, both target-cache organizations and the timing model's data
//! cache differ in how a set is indexed (PC bits, or the Section 3
//! address–history hashes) and in what an entry holds, not in how a set
//! keeps and replaces its entries. [`SetAssoc`] is that shared part: the
//! layout, the fill order and the LRU policy. Callers own the indexing,
//! the payload and its training rule.

use std::ops::Range;

/// One way: its tag, its LRU stamp and its payload.
#[derive(Clone, Debug)]
struct Slot<E> {
    tag: u64,
    /// The clock value of the way's last touch; 0 marks an empty way.
    stamp: u64,
    entry: E,
}

/// A `sets × ways` table of `E` with true-LRU replacement within a set.
///
/// The ways live in one flat, set-major array: way `w` of set `s` is slot
/// `s * ways + w`. Every touch (a [`get_mut`](SetAssoc::get_mut) hit or an
/// [`insert`](SetAssoc::insert)) stamps the way with the next value of a
/// table-wide clock, so the least-recently-used way of a set is the one
/// with the smallest stamp. A direct-mapped table indexed by its entry
/// number and always tagged 0 is the degenerate case `entries × 1`.
///
/// # Example
///
/// ```
/// use branch_predictors::SetAssoc;
///
/// let mut t: SetAssoc<u32> = SetAssoc::new(1, 2);
/// t.insert(0, 0xa, 1);
/// t.insert(0, 0xb, 2);
/// assert_eq!(t.get_mut(0, 0xa), Some(&mut 1)); // 0xb is now LRU
/// assert!(t.insert(0, 0xc, 3), "a full set evicts");
/// assert_eq!(t.get(0, 0xb), None);
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SetAssoc<E> {
    sets: usize,
    ways: usize,
    slots: Vec<Slot<E>>,
    /// The last stamp handed out.
    clock: u64,
}

impl<E: Clone + Default> SetAssoc<E> {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways >= 1, "associativity must be at least 1");
        let empty = Slot {
            tag: 0,
            stamp: 0,
            entry: E::default(),
        };
        SetAssoc {
            sets,
            ways,
            slots: vec![empty; sets * ways],
            clock: 0,
        }
    }
}

impl<E> SetAssoc<E> {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The slot range holding `set`'s ways.
    #[inline]
    fn ways_of(&self, set: usize) -> Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// The entry tagged `tag` in `set`, leaving the LRU order untouched.
    #[inline]
    pub fn get(&self, set: usize, tag: u64) -> Option<&E> {
        self.slots[self.ways_of(set)]
            .iter()
            .find(|s| s.tag == tag && s.stamp != 0)
            .map(|s| &s.entry)
    }

    /// The entry tagged `tag` in `set`; a hit becomes the set's most
    /// recently used way.
    #[inline]
    pub fn get_mut(&mut self, set: usize, tag: u64) -> Option<&mut E> {
        let ways = self.ways_of(set);
        let slot = self.slots[ways]
            .iter_mut()
            .find(|s| s.tag == tag && s.stamp != 0)?;
        self.clock += 1;
        slot.stamp = self.clock;
        Some(&mut slot.entry)
    }

    /// Places `entry` under `tag` in `set` as its most recently used way:
    /// in the first empty way, else in the least recently used one.
    /// Returns whether a live entry was evicted. The caller must have
    /// missed on `tag` in `set`.
    #[inline]
    pub fn insert(&mut self, set: usize, tag: u64, entry: E) -> bool {
        let ways = self.ways_of(set);
        // Empty ways carry the smallest stamp, and `min_by_key` keeps the
        // first of equal minima.
        let victim = self.slots[ways]
            .iter_mut()
            .min_by_key(|s| s.stamp)
            .expect("a set has at least one way");
        let evicted = victim.stamp != 0;
        self.clock += 1;
        *victim = Slot {
            tag,
            stamp: self.clock,
            entry,
        };
        evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.stamp != 0).count()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties every way.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| s.stamp = 0);
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_empty_ways_before_evicting_the_lru_one() {
        let mut t: SetAssoc<u8> = SetAssoc::new(2, 2);
        assert!(!t.insert(1, 7, 1));
        assert!(!t.insert(1, 8, 2));
        assert_eq!(t.len(), 2);
        // Touch 7: 8 becomes the victim.
        assert!(t.get_mut(1, 7).is_some());
        assert!(t.insert(1, 9, 3));
        assert_eq!(t.get(1, 7), Some(&1));
        assert_eq!(t.get(1, 8), None);
        assert_eq!(t.get(1, 9), Some(&3));
        // The other set is untouched.
        assert_eq!(t.get(0, 7), None);
    }

    #[test]
    fn get_leaves_the_lru_order_alone() {
        let mut t: SetAssoc<u8> = SetAssoc::new(1, 2);
        t.insert(0, 1, 1);
        t.insert(0, 2, 2);
        assert_eq!(t.get(0, 1), Some(&1));
        t.insert(0, 3, 3);
        assert_eq!(t.get(0, 1), None, "1 stayed LRU");
    }

    #[test]
    fn an_empty_way_never_matches_even_under_tag_zero() {
        let mut t: SetAssoc<u8> = SetAssoc::new(4, 1);
        assert_eq!(t.get_mut(3, 0), None);
        t.insert(3, 0, 5);
        assert_eq!(t.get_mut(3, 0), Some(&mut 5));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(3, 0), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_are_rejected() {
        SetAssoc::<u8>::new(3, 1);
    }
}
