//! The BTB, both target-cache organizations and the data cache checked
//! step by step against an obviously-correct reference model of their
//! shared storage.
//!
//! The model keeps each set as a `Vec` in recency order: a hit moves its
//! entry to the front, an insertion goes in at the front, and an overflow
//! drops the back. The default and 2-bit target-update rules are written
//! out longhand. Indexing reuses the public index functions, so what this
//! checks is the storage: fill order, LRU replacement, tag matching
//! (tag 0 included), occupancy, clearing and the statistics. After every
//! operation each returned value, the occupancy and the statistics must
//! equal the model's.

use branch_predictors::{Btb, BtbConfig, BtbHit, UpdatePolicy};
use hps_uarch::dcache::DCacheStats;
use hps_uarch::{DCacheConfig, DataCache};
use proptest::prelude::*;
use sim_isa::{Addr, BranchClass};
use target_cache::index::{tagged_set_and_tag, tagless_index};
use target_cache::{
    Access, HistorySource, IndexScheme, Organization, TaggedIndexScheme, TargetCache,
    TargetCacheConfig,
};

/// A set-associative table as a list of `(tag, entry)` per set, most
/// recently used first.
struct RefTable<E> {
    ways: usize,
    sets: Vec<Vec<(u64, E)>>,
}

impl<E> RefTable<E> {
    fn new(sets: usize, ways: usize) -> Self {
        RefTable {
            ways,
            sets: (0..sets).map(|_| Vec::new()).collect(),
        }
    }

    /// A hit moves the entry to the front of its set.
    fn touch(&mut self, set: usize, tag: u64) -> Option<&mut E> {
        let list = &mut self.sets[set];
        let at = list.iter().position(|(t, _)| *t == tag)?;
        let hit = list.remove(at);
        list.insert(0, hit);
        Some(&mut list[0].1)
    }

    fn peek(&self, set: usize, tag: u64) -> Option<&E> {
        self.sets[set]
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, e)| e)
    }

    /// A new entry goes in at the front; an overflow drops the back.
    fn insert(&mut self, set: usize, tag: u64, entry: E) {
        let list = &mut self.sets[set];
        list.insert(0, (tag, entry));
        list.truncate(self.ways);
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn clear(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// The target-update rules, longhand: the default replaces on every
/// mismatch; the 2-bit rule replaces on the second consecutive mismatch,
/// and any match resets the count.
fn train(policy: UpdatePolicy, stored: &mut Addr, streak: &mut bool, actual: Addr) {
    if *stored == actual {
        *streak = false;
        return;
    }
    match policy {
        UpdatePolicy::Always => *stored = actual,
        UpdatePolicy::TwoBit => {
            if *streak {
                *stored = actual;
                *streak = false;
            } else {
                *streak = true;
            }
        }
    }
}

/// One step of a random sequence: `kind` picks the operation, the other
/// fields are its operands over small alphabets, so that sets alias and
/// targets repeat.
#[derive(Clone, Copy, Debug)]
struct Step {
    kind: u8,
    pc: Addr,
    history: u64,
    target: Addr,
    class: BranchClass,
    pick: usize,
}

enum Op {
    Lookup,
    Peek,
    Update,
    Clear,
}

impl Step {
    fn op(&self) -> Op {
        match self.kind {
            0..=7 => Op::Lookup,
            8..=10 => Op::Peek,
            11..=18 => Op::Update,
            _ => Op::Clear,
        }
    }
}

/// PCs whose low word-index bits take 8 values and whose bits above the
/// 64th set take 4, so every geometry here sees same-set aliases.
fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u8..20,
        (0u64..8, 0u64..4),
        0u64..32,
        0u64..4,
        prop::sample::select(BranchClass::ALL.to_vec()),
        any::<usize>(),
    )
        .prop_map(|(kind, (low, high), history, target, class, pick)| Step {
            kind,
            pc: Addr::from_word_index(low + 64 * high),
            history,
            target: Addr::from_word_index(0x100 + target),
            class,
            pick,
        })
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(arb_step(), 0..300)
}

/// `(sets, ways)`: 1–64 sets of 1–8 ways, or one fully associative set
/// of up to 64 ways.
fn arb_geometry() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (0u32..=6, 1usize..=8).prop_map(|(bits, ways)| (1 << bits, ways)),
        (1usize..=64).prop_map(|ways| (1, ways)),
    ]
}

fn arb_policy() -> impl Strategy<Value = UpdatePolicy> {
    prop::sample::select(vec![UpdatePolicy::Always, UpdatePolicy::TwoBit])
}

/// Every tagless and tagged organization the configuration accepts over
/// 2–64 entries: tagless caches with each index scheme (GAs with every
/// legal address width), tagged caches with each scheme at power-of-two
/// associativity up to 8 or fully associative.
fn arb_organization() -> impl Strategy<Value = Organization> {
    let tagless = (1u32..=6, 0u8..3, 1u32..6).prop_map(|(bits, scheme, addr_bits)| {
        let scheme = match scheme {
            0 => IndexScheme::GAg,
            1 if bits >= 2 => IndexScheme::GAs {
                addr_bits: 1 + addr_bits % (bits - 1),
            },
            _ => IndexScheme::Gshare,
        };
        Organization::Tagless {
            entries: 1 << bits,
            scheme,
        }
    });
    let tagged = (
        1u32..=6,
        0u32..=4,
        prop::sample::select(TaggedIndexScheme::ALL.to_vec()),
    )
        .prop_map(|(bits, assoc_bits, scheme)| Organization::Tagged {
            entries: 1 << bits,
            // 4 stands for fully associative.
            assoc: if assoc_bits == 4 {
                1 << bits
            } else {
                1 << assoc_bits.min(bits)
            },
            scheme,
        });
    prop_oneof![tagless, tagged]
}

// --- BTB ------------------------------------------------------------

struct RefBtb {
    sets: usize,
    policy: UpdatePolicy,
    /// `(hit, miss streak)` per entry.
    table: RefTable<(BtbHit, bool)>,
}

impl RefBtb {
    fn new(config: BtbConfig) -> Self {
        RefBtb {
            sets: config.sets,
            policy: config.update_policy,
            table: RefTable::new(config.sets, config.ways),
        }
    }

    fn locate(&self, pc: Addr) -> (usize, u64) {
        let word = pc.word_index();
        (word as usize % self.sets, word / self.sets as u64)
    }

    fn lookup(&mut self, pc: Addr) -> Option<BtbHit> {
        let (set, tag) = self.locate(pc);
        self.table.touch(set, tag).map(|e| e.0)
    }

    fn peek(&self, pc: Addr) -> Option<BtbHit> {
        let (set, tag) = self.locate(pc);
        self.table.peek(set, tag).map(|e| e.0)
    }

    fn update(&mut self, pc: Addr, class: BranchClass, target: Addr, fallthrough: Addr) {
        let (set, tag) = self.locate(pc);
        let policy = self.policy;
        match self.table.touch(set, tag) {
            Some((hit, streak)) => {
                hit.class = class;
                hit.fallthrough = fallthrough;
                train(policy, &mut hit.target, streak, target);
            }
            None => {
                let hit = BtbHit {
                    target,
                    fallthrough,
                    class,
                };
                self.table.insert(set, tag, (hit, false));
            }
        }
    }
}

proptest! {
    #[test]
    fn btb_matches_the_reference_model(
        (sets, ways) in arb_geometry(),
        policy in arb_policy(),
        steps in arb_steps(),
    ) {
        let config = BtbConfig::new(sets, ways, policy);
        let mut btb = Btb::new(config);
        let mut model = RefBtb::new(config);
        for (i, s) in steps.iter().enumerate() {
            match s.op() {
                Op::Lookup => prop_assert_eq!(btb.lookup(s.pc), model.lookup(s.pc), "step {}: {:?}", i, s),
                Op::Peek => prop_assert_eq!(btb.peek(s.pc), model.peek(s.pc), "step {}: {:?}", i, s),
                Op::Update => {
                    btb.update(s.pc, s.class, s.target, s.pc.next());
                    model.update(s.pc, s.class, s.target, s.pc.next());
                }
                Op::Clear => {
                    btb.clear();
                    model.table.clear();
                }
            }
            prop_assert_eq!(btb.occupancy(), model.table.len(), "step {}: {:?}", i, s);
        }
    }
}

// --- Target cache ---------------------------------------------------

struct RefTargetCache {
    config: TargetCacheConfig,
    /// `(target, miss streak)` per entry.
    table: RefTable<(Addr, bool)>,
    lookups: u64,
    hits: u64,
    updates: u64,
}

impl RefTargetCache {
    fn new(config: TargetCacheConfig) -> Self {
        let (sets, ways) = match config.organization {
            Organization::Tagless { entries, .. } => (entries, 1),
            Organization::Tagged { entries, assoc, .. } => (entries / assoc, assoc),
        };
        RefTargetCache {
            config,
            table: RefTable::new(sets, ways),
            lookups: 0,
            hits: 0,
            updates: 0,
        }
    }

    /// The set and tag an access addresses: a tagless cache is one way
    /// per entry, always tagged 0.
    fn locate(&self, pc: Addr, history: u64) -> (usize, u64) {
        match self.config.organization {
            Organization::Tagless { entries, scheme } => (
                tagless_index(scheme, pc, history, entries.trailing_zeros()),
                0,
            ),
            Organization::Tagged {
                entries,
                assoc,
                scheme,
            } => {
                let set_bits = (entries / assoc).trailing_zeros();
                let st =
                    tagged_set_and_tag(scheme, pc, history, set_bits, self.config.history.bits());
                (st.set, st.tag)
            }
        }
    }

    fn lookup(&mut self, pc: Addr, history: u64) -> ((usize, u64), Option<Addr>) {
        let at = self.locate(pc, history);
        let prediction = self.table.touch(at.0, at.1).map(|e| e.0);
        self.lookups += 1;
        self.hits += prediction.is_some() as u64;
        (at, prediction)
    }

    fn update(&mut self, (set, tag): (usize, u64), target: Addr) {
        self.updates += 1;
        let policy = self.config.update_policy;
        match self.table.touch(set, tag) {
            Some((stored, streak)) => train(policy, stored, streak, target),
            None => self.table.insert(set, tag, (target, false)),
        }
    }

    fn clear(&mut self) {
        self.table.clear();
        (self.lookups, self.hits, self.updates) = (0, 0, 0);
    }
}

proptest! {
    #[test]
    fn target_cache_matches_the_reference_model(
        organization in arb_organization(),
        history_bits in 1u32..=10,
        policy in arb_policy(),
        steps in arb_steps(),
    ) {
        let config = TargetCacheConfig::new(organization, HistorySource::Pattern { bits: history_bits })
            .with_update_policy(policy);
        let mut tc = TargetCache::new(config);
        let mut model = RefTargetCache::new(config);
        // Lookups in flight: the cache's "index A" and the model's.
        let mut pending: Vec<(Access, (usize, u64))> = Vec::new();
        for (i, s) in steps.iter().enumerate() {
            match s.op() {
                Op::Lookup => {
                    let (access, got) = tc.lookup(s.pc, s.history);
                    let (at, want) = model.lookup(s.pc, s.history);
                    prop_assert_eq!(got, want, "step {}: {:?}", i, s);
                    pending.push((access, at));
                }
                Op::Peek => {
                    let want = model.locate(s.pc, s.history);
                    let want = model.table.peek(want.0, want.1).map(|e| e.0);
                    prop_assert_eq!(tc.peek(s.pc, s.history), want, "step {}: {:?}", i, s);
                }
                // Retire any in-flight lookup, not only the oldest.
                Op::Update if !pending.is_empty() => {
                    let (access, at) = pending.swap_remove(s.pick % pending.len());
                    tc.update(access, s.target);
                    model.update(at, s.target);
                }
                Op::Update => {}
                Op::Clear => {
                    tc.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(tc.occupancy(), model.table.len(), "step {}: {:?}", i, s);
            let stats = tc.stats();
            prop_assert_eq!(
                (stats.lookups(), stats.hits(), stats.updates()),
                (model.lookups, model.hits, model.updates),
                "step {}: {:?}", i, s
            );
        }
    }
}

// --- Data cache -----------------------------------------------------

proptest! {
    #[test]
    fn data_cache_matches_the_reference_model(
        (sets, ways) in arb_geometry(),
        line_bytes in prop::sample::select(vec![1usize, 4, 32]),
        accesses in prop::collection::vec((0u64..8, 0u64..4, 0u64..64), 0..300),
    ) {
        let config = DCacheConfig {
            size_bytes: sets * ways * line_bytes,
            line_bytes,
            assoc: ways,
            miss_penalty: 1,
        };
        let mut cache = DataCache::new(config);
        let mut model: RefTable<()> = RefTable::new(sets, ways);
        let mut want = DCacheStats::default();
        for (i, &(low, high, offset)) in accesses.iter().enumerate() {
            let addr = (low + 64 * high) * line_bytes as u64 + offset % line_bytes as u64;
            let line = addr / line_bytes as u64;
            let (set, tag) = (line as usize % sets, line / sets as u64);
            let hit = model.touch(set, tag).is_some();
            if !hit {
                model.insert(set, tag, ());
            }
            want.accesses += 1;
            want.hits += hit as u64;
            prop_assert_eq!(cache.access(addr), hit, "access {}: {:#x}", i, addr);
            prop_assert_eq!(cache.stats(), want, "access {}: {:#x}", i, addr);
        }
    }
}
