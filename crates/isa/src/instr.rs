//! Dynamic instruction records.

use crate::{Addr, BranchClass, BranchExec, InstrClass, Reg};
use std::fmt;

/// A dynamic memory access made by a load or store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemAccess {
    /// The byte address accessed. Need not be instruction-aligned.
    pub addr: u64,
}

impl MemAccess {
    /// Creates a memory access record.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        MemAccess { addr }
    }
}

/// One dynamic instruction of an execution trace.
///
/// A `DynInstr` carries everything the predictors and the timing model need:
/// the fetch address, the instruction class (for functional-unit latency),
/// register operands (for the data-flow schedule), the data address of a
/// load/store (for the data cache), and — for control instructions — the
/// resolved [`BranchExec`] outcome.
///
/// Invariants, enforced by the constructors:
/// * `class == Branch` ⟺ `branch_exec().is_some()`
/// * `class ∈ {Load, Store}` ⟺ `mem().is_some()`
///
/// # Layout
///
/// Traces hold hundreds of thousands to millions of these, and decode,
/// generation and replay all stream them through memory, so the record
/// is packed into 24 bytes:
///
/// | field     | bits  | contents                                              |
/// |-----------|-------|-------------------------------------------------------|
/// | `pc`      | 64    | the fetch address                                     |
/// | `payload` | 64    | load/store data address, or raw branch target; else 0 |
/// | `packed`  | 0–2   | [`InstrClass::index`]                                 |
/// |           | 3–5   | [`BranchClass::index`] (branches only, else 0)        |
/// |           | 6     | taken (branches only, else 0)                         |
/// |           | 8–15  | source 0: 0 for none, register index + 1 otherwise    |
/// |           | 16–23 | source 1, the same way                                |
/// |           | 24–31 | destination, the same way                             |
///
/// Fields a class does not use are always zero, so the derived `==` and
/// `Hash` agree with field-wise comparison of the accessors.
///
/// # Example
///
/// ```
/// use sim_isa::{Addr, DynInstr, InstrClass, Reg};
///
/// let add = DynInstr::op(Addr::new(0x100), InstrClass::Integer)
///     .with_srcs(Some(Reg::new(1)), Some(Reg::new(2)))
///     .with_dst(Reg::new(3));
/// assert_eq!(add.class(), InstrClass::Integer);
/// assert!(add.branch_exec().is_none());
/// assert_eq!(std::mem::size_of::<DynInstr>(), 24);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynInstr {
    pc: Addr,
    payload: u64,
    packed: u32,
}

const _: () = assert!(std::mem::size_of::<DynInstr>() == 24);

const BRANCH_SHIFT: u32 = 3;
const TAKEN: u32 = 1 << 6;
const SRC0_SHIFT: u32 = 8;
const SRC1_SHIFT: u32 = 16;
const DST_SHIFT: u32 = 24;

/// A register slot: 0 for none, register index + 1 otherwise.
#[inline]
const fn reg_slot(r: Option<Reg>) -> u32 {
    match r {
        Some(r) => r.index() as u32 + 1,
        None => 0,
    }
}

#[inline]
fn slot_reg(slot: u32) -> Option<Reg> {
    match slot & 0xff {
        0 => None,
        s => Some(Reg::new((s - 1) as u16)),
    }
}

impl DynInstr {
    #[inline]
    const fn with_class(pc: Addr, class: InstrClass, payload: u64) -> Self {
        DynInstr {
            pc,
            payload,
            packed: class.index() as u32,
        }
    }

    /// Creates a non-memory, non-branch operation of the given class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is `Branch`, `Load`, or `Store`; use
    /// [`DynInstr::branch`](DynInstr::branch()) /
    /// [`DynInstr::load`] / [`DynInstr::store`] for those.
    #[inline]
    pub fn op(pc: Addr, class: InstrClass) -> Self {
        assert!(
            !class.is_control() && !class.is_memory(),
            "use the dedicated constructor for {class:?}"
        );
        DynInstr::with_class(pc, class, 0)
    }

    /// Creates a load from `mem_addr`.
    #[inline]
    pub fn load(pc: Addr, mem_addr: u64) -> Self {
        DynInstr::with_class(pc, InstrClass::Load, mem_addr)
    }

    /// Creates a store to `mem_addr`.
    #[inline]
    pub fn store(pc: Addr, mem_addr: u64) -> Self {
        DynInstr::with_class(pc, InstrClass::Store, mem_addr)
    }

    /// Creates a control instruction with the given resolved outcome.
    #[inline]
    pub fn branch(pc: Addr, exec: BranchExec) -> Self {
        let mut i = DynInstr::with_class(pc, InstrClass::Branch, exec.target.raw());
        i.packed |= (exec.class.index() as u32) << BRANCH_SHIFT;
        if exec.taken {
            i.packed |= TAKEN;
        }
        i
    }

    /// Sets the source registers (builder style).
    #[must_use]
    #[inline]
    pub fn with_srcs(mut self, a: Option<Reg>, b: Option<Reg>) -> Self {
        self.packed &= !(0xffff << SRC0_SHIFT);
        self.packed |= reg_slot(a) << SRC0_SHIFT | reg_slot(b) << SRC1_SHIFT;
        self
    }

    /// Sets the destination register (builder style).
    #[must_use]
    #[inline]
    pub fn with_dst(mut self, dst: Reg) -> Self {
        self.packed &= !(0xff << DST_SHIFT);
        self.packed |= reg_slot(Some(dst)) << DST_SHIFT;
        self
    }

    /// The instruction's fetch address.
    #[inline]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// The instruction's class.
    #[inline]
    pub fn class(&self) -> InstrClass {
        InstrClass::ALL[(self.packed & 0x7) as usize]
    }

    /// Source register operands (up to two).
    #[inline]
    pub fn srcs(&self) -> [Option<Reg>; 2] {
        [
            slot_reg(self.packed >> SRC0_SHIFT),
            slot_reg(self.packed >> SRC1_SHIFT),
        ]
    }

    /// Destination register, if any.
    #[inline]
    pub fn dst(&self) -> Option<Reg> {
        slot_reg(self.packed >> DST_SHIFT)
    }

    /// Memory access, if this is a load or store.
    #[inline]
    pub fn mem(&self) -> Option<MemAccess> {
        self.class()
            .is_memory()
            .then_some(MemAccess::new(self.payload))
    }

    /// Resolved branch outcome, if this is a control instruction.
    #[inline]
    pub fn branch_exec(&self) -> Option<BranchExec> {
        self.class().is_control().then(|| BranchExec {
            class: BranchClass::ALL[((self.packed >> BRANCH_SHIFT) & 0x7) as usize],
            taken: self.packed & TAKEN != 0,
            target: Addr::new(self.payload),
        })
    }

    /// The address of the next instruction on the executed path.
    #[inline]
    pub fn next_pc(&self) -> Addr {
        match self.branch_exec() {
            Some(b) => b.next_pc(self.pc),
            None => self.pc.next(),
        }
    }
}

impl fmt::Debug for DynInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.pc, self.class())?;
        if let Some(b) = self.branch_exec() {
            write!(
                f,
                " {} {} -> {}",
                b.class,
                if b.taken { "T" } else { "N" },
                b.target
            )?;
        }
        if let Some(m) = self.mem() {
            write!(f, " [{:#x}]", m.addr)?;
        }
        if let Some(d) = self.dst() {
            write!(f, " => {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchClass;

    #[test]
    fn op_constructor_sets_class() {
        let i = DynInstr::op(Addr::new(0x10), InstrClass::Mul);
        assert_eq!(i.class(), InstrClass::Mul);
        assert!(i.mem().is_none());
        assert!(i.branch_exec().is_none());
        assert_eq!(i.next_pc(), Addr::new(0x14));
    }

    #[test]
    #[should_panic(expected = "dedicated constructor")]
    fn op_rejects_branch_class() {
        DynInstr::op(Addr::new(0), InstrClass::Branch);
    }

    #[test]
    #[should_panic(expected = "dedicated constructor")]
    fn op_rejects_load_class() {
        DynInstr::op(Addr::new(0), InstrClass::Load);
    }

    #[test]
    fn load_and_store_carry_memory() {
        let l = DynInstr::load(Addr::new(0x20), 0xdead);
        assert_eq!(l.class(), InstrClass::Load);
        assert_eq!(l.mem().unwrap().addr, 0xdead);
        let s = DynInstr::store(Addr::new(0x24), 0xbeef);
        assert_eq!(s.class(), InstrClass::Store);
        assert_eq!(s.mem().unwrap().addr, 0xbeef);
    }

    #[test]
    fn branch_next_pc_follows_outcome() {
        let t = DynInstr::branch(
            Addr::new(0x100),
            BranchExec::taken(BranchClass::IndirectJump, Addr::new(0x900)),
        );
        assert_eq!(t.next_pc(), Addr::new(0x900));
        let n = DynInstr::branch(
            Addr::new(0x100),
            BranchExec::not_taken(BranchClass::CondDirect, Addr::new(0x900)),
        );
        assert_eq!(n.next_pc(), Addr::new(0x104));
    }

    #[test]
    fn builder_attaches_operands() {
        let i = DynInstr::op(Addr::new(0), InstrClass::Integer)
            .with_srcs(Some(Reg::new(1)), None)
            .with_dst(Reg::new(2));
        assert_eq!(i.srcs()[0], Some(Reg::new(1)));
        assert_eq!(i.srcs()[1], None);
        assert_eq!(i.dst(), Some(Reg::new(2)));
    }

    #[test]
    fn debug_output_mentions_branch_details() {
        let t = DynInstr::branch(
            Addr::new(0x100),
            BranchExec::taken(BranchClass::Call, Addr::new(0x200)),
        );
        let s = format!("{t:?}");
        assert!(s.contains("call"), "{s}");
        assert!(s.contains('T'), "{s}");
    }
}
