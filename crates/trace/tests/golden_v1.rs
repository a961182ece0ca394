//! Golden-file test pinning the `.strc` v1 byte layout.
//!
//! The encoded bytes of a small fixed trace are pinned in-source as
//! hex. If this test fails, the on-disk format changed: either revert
//! the codec change, or bump `FORMAT_VERSION` (readers must refuse the
//! new version loudly) and re-pin these bytes.

use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, Reg, VecTrace};
use sim_trace::{encode_to_vec, TraceError, TraceMeta, TraceReader};

/// A fixed trace covering every record shape: plain ops with each
/// operand combination, loads/stores with positive and negative
/// address deltas, and taken/not-taken branches of several classes.
fn golden_trace() -> VecTrace {
    vec![
        DynInstr::op(Addr::new(0x1000), InstrClass::Integer)
            .with_srcs(Some(Reg::new(1)), Some(Reg::new(2)))
            .with_dst(Reg::new(3)),
        DynInstr::op(Addr::new(0x1004), InstrClass::FpAdd).with_dst(Reg::new(30)),
        DynInstr::op(Addr::new(0x1008), InstrClass::Mul),
        DynInstr::op(Addr::new(0x100c), InstrClass::Div).with_srcs(None, Some(Reg::new(7))),
        DynInstr::op(Addr::new(0x1010), InstrClass::BitField).with_srcs(Some(Reg::new(0)), None),
        DynInstr::load(Addr::new(0x1014), 0x8000_0000).with_dst(Reg::new(9)),
        DynInstr::store(Addr::new(0x1018), 0x7fff_fff8).with_srcs(Some(Reg::new(9)), None),
        DynInstr::branch(
            Addr::new(0x101c),
            BranchExec::not_taken(BranchClass::CondDirect, Addr::new(0x0800)),
        ),
        DynInstr::branch(
            Addr::new(0x1020),
            BranchExec::taken(BranchClass::CondDirect, Addr::new(0x0800)),
        ),
        DynInstr::branch(
            Addr::new(0x0800),
            BranchExec::taken(BranchClass::Call, Addr::new(0x2000)),
        ),
        DynInstr::branch(
            Addr::new(0x2000),
            BranchExec::taken(BranchClass::IndirectJump, Addr::new(0x3000)),
        ),
        DynInstr::branch(
            Addr::new(0x3000),
            BranchExec::taken(BranchClass::Return, Addr::new(0x0804)),
        ),
    ]
    .into_iter()
    .collect()
}

fn golden_meta() -> TraceMeta {
    TraceMeta {
        benchmark: "golden".into(),
        scale: "quick".into(),
        seed: 0x0123_4567_89ab_cdef,
        generator_version: 1,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A file of the golden trace as an earlier writer produced it: the v1
/// encoding followed by a basic-block-vector section that the format no
/// longer has. The reader refuses it as corrupt.
const GOLDEN_HEX: &str = "53545243303030310100010006676f6c64656e05717569636befcdab89674523010c00000000000000010000000000000001000000000000000100000000000000010000000000000001000000000000000100000000000000010000000000000005000000000000000200000000000000000000000000000001000000000000000000000000000000010000000000000001000000000000000100000000000000010000000000000089100c7fd1c7b2d40c0000003900000038801001020321021e02021302070e020024020980808080100d02090f0700028d084700028f0847028f08801847058018801047048010fd27c58abe0070d1a59153544256303030311600000001000100000005800401800808880801801001801801c292f5be1aba4527";

/// The pinned v1 encoding of [`golden_trace`] under [`golden_meta`]:
/// magic, header and record chunks, then clean EOF.
const GOLDEN_HEX_PRE_BBV: &str = "53545243303030310100010006676f6c64656e05717569636befcdab89674523010c00000000000000010000000000000001000000000000000100000000000000010000000000000001000000000000000100000000000000010000000000000005000000000000000200000000000000000000000000000001000000000000000000000000000000010000000000000001000000000000000100000000000000010000000000000089100c7fd1c7b2d40c0000003900000038801001020321021e02021302070e020024020980808080100d02090f0700028d084700028f0847028f08801847058018801047048010fd27c58abe0070d1a591";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

#[test]
fn v1_byte_layout_is_pinned() {
    let bytes = encode_to_vec(golden_meta(), &golden_trace()).unwrap();
    assert_eq!(
        hex(&bytes),
        GOLDEN_HEX_PRE_BBV,
        "the .strc v1 byte layout changed; see the module docs"
    );
}

#[test]
fn pinned_bytes_decode_to_the_golden_trace() {
    // The inverse direction: the pinned hex itself (not a fresh
    // encode) must decode to the fixed trace, so a lockstep change to
    // encoder and decoder cannot slip through.
    let bytes = unhex(GOLDEN_HEX_PRE_BBV);
    let reader = TraceReader::new(bytes.as_slice()).unwrap();
    let header = reader.header().clone();
    assert_eq!(header.meta, golden_meta());
    assert_eq!(header.instructions, golden_trace().len() as u64);
    assert_eq!(reader.read_to_end().unwrap(), golden_trace());
}

#[test]
fn files_with_bytes_after_the_last_chunk_are_corrupt() {
    // Identical up to the last chunk; what follows is not part of the
    // format.
    assert!(GOLDEN_HEX.starts_with(GOLDEN_HEX_PRE_BBV));
    let bytes = unhex(GOLDEN_HEX);
    let err = TraceReader::new(bytes.as_slice())
        .unwrap()
        .read_to_end()
        .unwrap_err();
    assert!(
        matches!(err, TraceError::CorruptChunk { chunk: 1, .. }),
        "{err}"
    );
}
