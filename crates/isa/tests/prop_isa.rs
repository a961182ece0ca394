//! Property-based tests for the ISA substrate.

use proptest::prelude::*;
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, Reg, VecTrace};

proptest! {
    #[test]
    fn addr_is_always_word_aligned(raw in any::<u64>()) {
        let a = Addr::new(raw);
        prop_assert_eq!(a.raw() % 4, 0);
        prop_assert!(a.raw() <= raw);
        prop_assert!(raw - a.raw() < 4);
    }

    #[test]
    fn addr_word_index_roundtrip(idx in 0u64..(u64::MAX / 4)) {
        let a = Addr::from_word_index(idx);
        prop_assert_eq!(a.word_index(), idx);
    }

    #[test]
    fn addr_bits_match_manual_shift(idx in any::<u64>(), lo in 0u32..32, count in 1u32..32) {
        let a = Addr::from_word_index(idx & (u64::MAX / 4));
        let expect = (a.word_index() >> lo) & ((1u64 << count) - 1);
        prop_assert_eq!(a.bits(lo, count), expect);
    }

    #[test]
    fn reg_wrapping_is_always_valid(x in any::<u64>()) {
        let r = Reg::wrapping(x);
        prop_assert!(r.index() < sim_isa::reg::REG_COUNT);
    }

    #[test]
    fn branch_next_pc_is_target_or_fallthrough(
        pc in 0u64..1_000_000,
        target in 0u64..1_000_000,
        taken in any::<bool>(),
    ) {
        let pc = Addr::new(pc * 4);
        let target = Addr::new(target * 4);
        let class = if taken { BranchClass::UncondDirect } else { BranchClass::CondDirect };
        let b = BranchExec::new(class, taken, target);
        let next = b.next_pc(pc);
        if taken {
            prop_assert_eq!(next, target);
        } else {
            prop_assert_eq!(next, pc.next());
        }
    }

    #[test]
    fn stats_instruction_count_matches_len(n in 0usize..200) {
        let trace: VecTrace = (0..n)
            .map(|i| DynInstr::op(Addr::from_word_index(i as u64), InstrClass::Integer))
            .collect();
        prop_assert_eq!(trace.stats().instructions(), n as u64);
    }

    #[test]
    fn histogram_total_equals_static_sites(
        sites in proptest::collection::vec(1usize..40, 0..20),
    ) {
        // Build a trace where site i jumps to `sites[i]` distinct targets.
        let mut trace = VecTrace::new();
        for (i, &ntargets) in sites.iter().enumerate() {
            let pc = Addr::from_word_index(1000 + i as u64);
            for t in 0..ntargets {
                trace.push(DynInstr::branch(
                    pc,
                    BranchExec::taken(
                        BranchClass::IndirectJump,
                        Addr::from_word_index(5000 + (i * 100 + t) as u64),
                    ),
                ));
            }
        }
        let stats = trace.stats();
        let hist = stats.targets_per_jump_histogram(30);
        let total: u64 = hist.iter().sum();
        prop_assert_eq!(total, sites.len() as u64);
        // Dynamic histogram mass must equal dynamic indirect-jump count.
        let dyn_hist = stats.dynamic_targets_per_jump_histogram(30);
        prop_assert_eq!(dyn_hist.iter().sum::<u64>(), stats.indirect_jumps());
    }

    #[test]
    fn merge_is_equivalent_to_concatenation(split in 0usize..50, n in 0usize..50) {
        let n = n.max(split);
        let instrs: Vec<DynInstr> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    DynInstr::branch(
                        Addr::from_word_index((i % 7) as u64),
                        BranchExec::taken(
                            BranchClass::IndirectJump,
                            Addr::from_word_index((i % 5) as u64 + 100),
                        ),
                    )
                } else {
                    DynInstr::op(Addr::from_word_index(i as u64), InstrClass::Integer)
                }
            })
            .collect();
        let whole: VecTrace = instrs.iter().copied().collect();
        let left: VecTrace = instrs[..split].iter().copied().collect();
        let right: VecTrace = instrs[split..].iter().copied().collect();
        let mut merged = left.stats();
        merged.merge(&right.stats());
        let whole = whole.stats();
        prop_assert_eq!(merged.instructions(), whole.instructions());
        prop_assert_eq!(merged.indirect_jumps(), whole.indirect_jumps());
        prop_assert_eq!(merged.targets_per_jump_histogram(30), whole.targets_per_jump_histogram(30));
    }
}
