//! The chunk decoder against the record-at-a-time reference model in
//! `reference/`: on arbitrary traces, and on files whose payload bytes
//! were overwritten and whose chunk checksums were then recomputed (so
//! the record validator, not the checksum, has to reject them), both
//! decoders return the same records or the same error. A flipped byte
//! that is *not* re-checksummed must always fail the decode.

mod reference;

use proptest::prelude::*;
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, Reg, VecTrace};
use sim_trace::format::{fnv64, CodecState};
use sim_trace::{encode_to_vec, TraceError, TraceMeta, TraceReader, CHUNK_RECORDS};

/// Either a small value (one-byte varint deltas, the common case) or
/// one drawn from the whole range `0..=max` (long varints).
fn small_or_any(max: u64) -> impl Strategy<Value = u64> {
    (any::<bool>(), 0u64..64, any::<u64>()).prop_map(move |(small, s, a)| {
        if small {
            s
        } else if max == u64::MAX {
            a
        } else {
            a % (max + 1)
        }
    })
}

/// One arbitrary record: every class, every branch class (conditional
/// ones taken or not), every operand combination.
fn arb_instr() -> impl Strategy<Value = DynInstr> {
    let word = u64::MAX / sim_isa::addr::INSTR_BYTES;
    let reg = prop::option::of(0u16..sim_isa::reg::REG_COUNT);
    (
        small_or_any(word),
        0usize..8,
        small_or_any(u64::MAX),
        small_or_any(word),
        (0usize..6, any::<bool>()),
        (reg.clone(), reg.clone(), reg),
    )
        .prop_map(|(pc, kind, mem, target, (class, taken), (s0, s1, d))| {
            let pc = Addr::from_word_index(pc);
            let instr = match InstrClass::ALL[kind] {
                InstrClass::Load => DynInstr::load(pc, mem),
                InstrClass::Store => DynInstr::store(pc, mem),
                InstrClass::Branch => {
                    let class = BranchClass::ALL[class];
                    let taken = taken || !class.is_conditional();
                    DynInstr::branch(
                        pc,
                        BranchExec::new(class, taken, Addr::from_word_index(target)),
                    )
                }
                op => DynInstr::op(pc, op),
            };
            let instr = instr.with_srcs(s0.map(Reg::new), s1.map(Reg::new));
            match d {
                Some(d) => instr.with_dst(Reg::new(d)),
                None => instr,
            }
        })
}

/// 1–3 chunks: half the time a length within two records of a chunk
/// boundary, otherwise any length up to three full chunks.
fn arb_trace() -> impl Strategy<Value = Vec<DynInstr>> {
    let chunk = CHUNK_RECORDS as usize;
    (any::<bool>(), 1usize..4, 0usize..5, 1..=3 * chunk).prop_flat_map(
        move |(boundary, k, d, any_len)| {
            let len = if boundary { k * chunk + d - 2 } else { any_len };
            prop::collection::vec(arb_instr(), len)
        },
    )
}

/// Where an edit lands in the chosen chunk's payload.
#[derive(Clone, Copy, Debug)]
enum Spot {
    /// Any byte.
    Anywhere,
    /// One of the last bytes, where a shortened record leaves trailing
    /// bytes behind.
    Tail,
    /// A record's tag byte, one bit flipped (`value % 8`): taken bit,
    /// kind, operand flags, the reserved bit.
    TagBit,
}

/// One payload edit: where, which position in that span, and the byte
/// written — half the time one of the values at the edges of the tag,
/// branch-class, register and varint encodings.
fn arb_edit() -> impl Strategy<Value = (Spot, u64, u8)> {
    const EDGES: [u8; 14] = [
        0x00, 0x06, 0x07, 0x0f, 0x10, 0x1f, 0x20, 0x27, 0x3f, 0x47, 0x7f, 0x80, 0x81, 0xff,
    ];
    let spot = prop::sample::select(vec![Spot::Anywhere, Spot::Tail, Spot::TagBit]);
    (
        spot,
        any::<u64>(),
        any::<bool>(),
        any::<u8>(),
        0usize..EDGES.len(),
    )
        .prop_map(|(spot, at, edge, raw, pick)| (spot, at, if edge { EDGES[pick] } else { raw }))
}

/// The offset of every record inside its chunk's payload.
fn record_offsets(trace: &[DynInstr]) -> Vec<Vec<usize>> {
    let mut codec = CodecState::default();
    trace
        .chunks(CHUNK_RECORDS as usize)
        .map(|chunk| {
            let mut buf = Vec::new();
            chunk
                .iter()
                .map(|i| {
                    let at = buf.len();
                    codec.encode(&mut buf, i);
                    at
                })
                .collect()
        })
        .collect()
}

fn encode(trace: &[DynInstr]) -> Vec<u8> {
    let meta = TraceMeta {
        benchmark: "prop".into(),
        scale: "quick".into(),
        seed: 3,
        generator_version: 7,
    };
    let trace: VecTrace = trace.iter().copied().collect();
    encode_to_vec(meta, &trace).unwrap()
}

/// The chunk decoder's answer, through `read_to_end`; the record
/// iterator must give the same one.
fn decode(bytes: &[u8]) -> Result<Vec<DynInstr>, TraceError> {
    let whole = TraceReader::new(bytes)
        .and_then(TraceReader::read_to_end)
        .map(|t| t.as_slice().to_vec());
    let iterated: Result<Vec<DynInstr>, TraceError> =
        TraceReader::new(bytes).and_then(|reader| reader.collect());
    assert_same(&whole, &iterated);
    whole
}

/// Same records, or the same error variant with the same fields.
fn assert_same(a: &Result<Vec<DynInstr>, TraceError>, b: &Result<Vec<DynInstr>, TraceError>) {
    match (a, b) {
        (Ok(x), Ok(y)) => assert!(x == y, "decoders disagree on the records"),
        (Err(x), Err(y)) => {
            assert_eq!(
                std::mem::discriminant(x),
                std::mem::discriminant(y),
                "{x} vs {y}"
            );
            assert_eq!(x.to_string(), y.to_string());
        }
        (x, y) => panic!(
            "one decoder failed: {:?} vs {:?}",
            x.as_ref().map(Vec::len),
            y.as_ref().map(Vec::len)
        ),
    }
}

proptest! {
    #[test]
    fn chunk_decoder_matches_the_reference_on_arbitrary_traces(trace in arb_trace()) {
        let bytes = encode(&trace);
        let got = decode(&bytes);
        assert_same(&got, &reference::decode_file(&bytes));
        prop_assert!(got.unwrap() == trace);
    }

    #[test]
    fn chunk_decoder_matches_the_reference_on_rechecksummed_garbage(
        trace in arb_trace(),
        chunk_pick in any::<u64>(),
        edits in prop::collection::vec(arb_edit(), 1..5),
        shorten in 0u32..8,
    ) {
        let mut bytes = encode(&trace);
        let frames = reference::chunk_frames(&bytes);
        let pick = (chunk_pick % frames.len() as u64) as usize;
        let (records, payload, sum_at) = frames[pick].clone();
        let tags = &record_offsets(&trace)[pick];
        for (spot, at, value) in edits {
            let pos = |span: usize| (at % span as u64) as usize;
            match spot {
                Spot::Anywhere => bytes[payload.start + pos(payload.len())] = value,
                Spot::Tail => bytes[payload.end - 1 - pos(payload.len().min(24))] = value,
                Spot::TagBit => bytes[payload.start + tags[pos(tags.len())]] ^= 1 << (value % 8),
            }
        }
        let sum = fnv64(&bytes[payload.clone()]);
        bytes[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        // Now and then the frame also promises fewer records than the
        // payload holds.
        if shorten == 0 && records > 1 {
            let at = payload.start - 8;
            bytes[at..at + 4].copy_from_slice(&(records - 1).to_le_bytes());
        }
        assert_same(&decode(&bytes), &reference::decode_file(&bytes));
    }

    #[test]
    fn one_flipped_byte_always_fails_and_never_yields_a_different_trace(
        trace in prop::collection::vec(arb_instr(), 1..2 * CHUNK_RECORDS as usize),
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode(&trace);
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        prop_assert!(decode(&bytes).is_err(), "flip at byte {at} decoded cleanly");
        // Streaming consumers see only whole chunks of the original
        // before the error (all of them when the flip hit the BBV
        // side-section).
        if let Ok(reader) = TraceReader::new(bytes.as_slice()) {
            let good: Vec<DynInstr> = reader.map_while(Result::ok).collect();
            prop_assert!(good.len().is_multiple_of(CHUNK_RECORDS as usize) || good.len() == trace.len());
            prop_assert!(good[..] == trace[..good.len()]);
        }
    }
}
