#![warn(missing_docs)]

//! Instruction and branch model substrate for the indirect-jump-prediction
//! workspace.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! reproduction of *Chang, Hao & Patt, "Target Prediction for Indirect
//! Jumps" (ISCA 1997)*:
//!
//! * [`Addr`] — word-aligned instruction addresses,
//! * [`Reg`] — architectural register names,
//! * [`InstrClass`] — the instruction classes of Table 3 of the paper,
//! * [`BranchClass`] — the conditional/unconditional × direct/indirect
//!   branch taxonomy of the paper's introduction,
//! * [`DynInstr`] — one dynamic instruction of an execution trace,
//! * [`trace`] — traces and whole-trace statistics.
//!
//! A [`DynInstr`] is a dense 24-byte record: the PC, one `u64` holding a
//! load/store's data address or a branch's target, and one `u32` packing
//! the class, branch class, taken bit and the three optional registers
//! (see its *Layout* section). Every trace in the workspace is a vector
//! of them, so generation, `.strc` decode and every simulator pass move
//! 24 bytes per instruction; the accessors unpack on read.
//!
//! # Example
//!
//! ```
//! use sim_isa::{Addr, BranchClass, BranchExec, DynInstr};
//!
//! // A taken indirect jump at 0x1000 landing on 0x2040.
//! let jump = DynInstr::branch(
//!     Addr::new(0x1000),
//!     BranchExec::taken(BranchClass::IndirectJump, Addr::new(0x2040)),
//! );
//! assert!(jump.branch_exec().unwrap().class.is_indirect());
//! assert_eq!(jump.branch_exec().unwrap().next_pc(Addr::new(0x1000)), Addr::new(0x2040));
//! ```

pub mod addr;
pub mod branch;
pub mod class;
pub mod instr;
pub mod reg;
pub mod trace;

pub use addr::{is_instr_aligned, Addr};
pub use branch::{BranchClass, BranchExec};
pub use class::InstrClass;
pub use instr::{DynInstr, MemAccess};
pub use reg::Reg;
pub use trace::{TraceStats, VecTrace};
