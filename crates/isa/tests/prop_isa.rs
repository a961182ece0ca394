//! Property-based tests for the ISA substrate.

use proptest::prelude::*;
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, MemAccess, Reg, VecTrace};

/// What a `DynInstr` was built from: the constructor's arguments plus
/// the builder calls, possibly repeated (the second call must win).
#[derive(Clone, Copy, Debug)]
struct Spec {
    pc: Addr,
    class: InstrClass,
    mem: u64,
    branch: (BranchClass, bool, Addr),
    srcs: [Option<Reg>; 2],
    dst: Option<Reg>,
    srcs_again: Option<[Option<Reg>; 2]>,
    dst_again: Option<Reg>,
}

impl Spec {
    fn exec(&self) -> BranchExec {
        let (class, taken, target) = self.branch;
        BranchExec::new(class, taken || !class.is_conditional(), target)
    }

    fn build(&self) -> DynInstr {
        let i = match self.class {
            InstrClass::Load => DynInstr::load(self.pc, self.mem),
            InstrClass::Store => DynInstr::store(self.pc, self.mem),
            InstrClass::Branch => DynInstr::branch(self.pc, self.exec()),
            c => DynInstr::op(self.pc, c),
        };
        let mut i = i.with_srcs(self.srcs[0], self.srcs[1]);
        if let Some(d) = self.dst {
            i = i.with_dst(d);
        }
        if let Some([a, b]) = self.srcs_again {
            i = i.with_srcs(a, b);
        }
        if let Some(d) = self.dst_again {
            i = i.with_dst(d);
        }
        i
    }

    /// What every accessor must return.
    fn expected(&self) -> Fields {
        (
            self.pc,
            self.class,
            self.srcs_again.unwrap_or(self.srcs),
            self.dst_again.or(self.dst),
            self.class.is_memory().then_some(MemAccess::new(self.mem)),
            self.class.is_control().then(|| self.exec()),
        )
    }
}

/// Every accessor's value, in declaration order.
type Fields = (
    Addr,
    InstrClass,
    [Option<Reg>; 2],
    Option<Reg>,
    Option<MemAccess>,
    Option<BranchExec>,
);

fn fields(i: &DynInstr) -> Fields {
    (
        i.pc(),
        i.class(),
        i.srcs(),
        i.dst(),
        i.mem(),
        i.branch_exec(),
    )
}

/// r0, r31, none, or any register.
fn arb_reg() -> impl Strategy<Value = Option<Reg>> {
    (0u8..4, 0u16..sim_isa::reg::REG_COUNT).prop_map(|(edge, r)| match edge {
        0 => None,
        1 => Some(Reg::new(0)),
        2 => Some(Reg::new(sim_isa::reg::REG_COUNT - 1)),
        _ => Some(Reg::new(r)),
    })
}

/// 0, the largest value, or anything in between.
fn edge_or_any(max: u64) -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(move |(edge, v)| match edge {
        0 => 0,
        1 => max,
        _ if max == u64::MAX => v,
        _ => v % (max + 1),
    })
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    let word = u64::MAX / sim_isa::addr::INSTR_BYTES;
    (
        (edge_or_any(word), 0usize..8, edge_or_any(u64::MAX)),
        (0usize..6, any::<bool>(), edge_or_any(word)),
        (arb_reg(), arb_reg(), arb_reg()),
        (any::<bool>(), arb_reg(), arb_reg()),
        (any::<bool>(), arb_reg()),
    )
        .prop_map(
            |(
                (pc, class, mem),
                (bclass, taken, target),
                (s0, s1, d),
                (again, a0, a1),
                (dst_again, d2),
            )| Spec {
                pc: Addr::from_word_index(pc),
                class: InstrClass::ALL[class],
                mem,
                branch: (
                    BranchClass::ALL[bclass],
                    taken,
                    Addr::from_word_index(target),
                ),
                srcs: [s0, s1],
                dst: d,
                srcs_again: again.then_some([a0, a1]),
                dst_again: if dst_again { d2 } else { None },
            },
        )
}

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

    #[test]
    fn packed_record_returns_what_went_in(spec in arb_spec()) {
        let i = spec.build();
        prop_assert_eq!(fields(&i), spec.expected());
        // The fall-through of the very last word is outside the
        // address space.
        if spec.pc.word_index() < u64::MAX / sim_isa::addr::INSTR_BYTES {
            let next = match spec.class {
                InstrClass::Branch => spec.exec().next_pc(spec.pc),
                _ => spec.pc.next(),
            };
            prop_assert_eq!(i.next_pc(), next);
        }
    }

    #[test]
    fn packed_equality_is_field_wise_equality(a in arb_spec(), b in arb_spec(), same in 0u8..4) {
        // Rebuild `a` exactly, with other second builder calls, with
        // other inputs its class ignores (a memory address on a branch,
        // a target on an add: equal instructions all the same), or pair
        // it with an independent spec.
        let b = match same {
            0 => a,
            1 => Spec { dst_again: b.dst_again, srcs_again: b.srcs_again, ..a },
            2 => Spec { mem: b.mem, branch: b.branch, ..a },
            _ => b,
        };
        let (x, y) = (a.build(), b.build());
        prop_assert_eq!(x == y, fields(&x) == fields(&y));
    }
}
