//! Reference model of the `.strc` record decoder: one record at a time,
//! every field read through a bounds-checked closure. It is slow and
//! obviously correct; `prop_decoder.rs` checks the chunk decoder against
//! it.

use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, Reg};
use sim_trace::format::{fnv64, NON_BRANCH_CLASSES};
use sim_trace::{varint, TraceError, TraceReader, BBV_MAGIC, MAGIC};

// The tag byte, as `sim_trace::format` documents it.
const TAG_KIND_MASK: u8 = 0x07;
const TAG_SRC0: u8 = 0x08;
const TAG_SRC1: u8 = 0x10;
const TAG_DST: u8 = 0x20;
const TAG_TAKEN: u8 = 0x40;
const TAG_RESERVED: u8 = 0x80;
const KIND_BRANCH: u8 = 7;

/// The delta state, threaded through records and across chunks.
#[derive(Default)]
pub struct RefCodec {
    prev_pc_word: u64,
    prev_mem: u64,
}

impl RefCodec {
    /// Decodes one record from `buf` at `*pos`, advancing `*pos`.
    pub fn decode(&mut self, buf: &[u8], pos: &mut usize) -> Result<DynInstr, String> {
        let byte = |pos: &mut usize| -> Result<u8, String> {
            let b = *buf.get(*pos).ok_or("record cut short")?;
            *pos += 1;
            Ok(b)
        };
        let delta = |pos: &mut usize| -> Result<i64, String> {
            varint::get_i64(buf, pos).ok_or_else(|| "invalid varint".to_string())
        };
        let tag = byte(pos)?;
        if tag & TAG_RESERVED != 0 {
            return Err(format!("reserved tag bit set ({tag:#04x})"));
        }
        let kind = tag & TAG_KIND_MASK;
        let taken = tag & TAG_TAKEN != 0;
        let branch_class = if kind == KIND_BRANCH {
            let b = byte(pos)?;
            let class = *BranchClass::ALL
                .get((b & 0x0f) as usize)
                .filter(|_| b & 0xf0 == 0)
                .ok_or_else(|| format!("invalid branch class byte {b:#04x}"))?;
            if !taken && !class.is_conditional() {
                return Err(format!("not-taken {class:?} branch"));
            }
            Some(class)
        } else {
            if taken {
                return Err("taken bit set on a non-branch record".to_string());
            }
            None
        };
        let word = self.prev_pc_word.wrapping_add(delta(pos)? as u64);
        self.prev_pc_word = word;
        if word > u64::MAX / sim_isa::addr::INSTR_BYTES {
            return Err(format!("pc word index {word:#x} out of address range"));
        }
        let pc = Addr::from_word_index(word);
        let reg = |what: &str, pos: &mut usize| -> Result<Reg, String> {
            let b = byte(pos)?;
            if u16::from(b) >= sim_isa::reg::REG_COUNT {
                return Err(format!("{what} register {b} out of range"));
            }
            Ok(Reg::new(u16::from(b)))
        };
        let src0 = if tag & TAG_SRC0 != 0 {
            Some(reg("source", pos)?)
        } else {
            None
        };
        let src1 = if tag & TAG_SRC1 != 0 {
            Some(reg("source", pos)?)
        } else {
            None
        };
        let dst = if tag & TAG_DST != 0 {
            Some(reg("destination", pos)?)
        } else {
            None
        };
        let mut instr = if let Some(class) = branch_class {
            let target_delta = delta(pos)?;
            let target_word = word.wrapping_add(target_delta as u64);
            if target_word > u64::MAX / sim_isa::addr::INSTR_BYTES {
                return Err(format!(
                    "target word index {target_word:#x} out of address range"
                ));
            }
            let target = Addr::from_word_index(target_word);
            DynInstr::branch(pc, BranchExec::new(class, taken, target))
        } else {
            let class = NON_BRANCH_CLASSES[kind as usize];
            match class {
                InstrClass::Load | InstrClass::Store => {
                    let addr = self.prev_mem.wrapping_add(delta(pos)? as u64);
                    self.prev_mem = addr;
                    if class == InstrClass::Load {
                        DynInstr::load(pc, addr)
                    } else {
                        DynInstr::store(pc, addr)
                    }
                }
                c => DynInstr::op(pc, c),
            }
        };
        instr = instr.with_srcs(src0, src1);
        if let Some(dst) = dst {
            instr = instr.with_dst(dst);
        }
        Ok(instr)
    }
}

/// Where each chunk of a well-framed `.strc` image sits: `(records,
/// payload range, checksum offset)`, in file order. Stops at the end of
/// the image or at the BBV side-section.
pub fn chunk_frames(bytes: &[u8]) -> Vec<(u32, std::ops::Range<usize>, usize)> {
    let header = TraceReader::new(bytes)
        .expect("a valid header")
        .header()
        .clone();
    let mut pos = MAGIC.len() + header.encode().expect("a decoded header re-encodes").len();
    let mut frames = Vec::new();
    while pos < bytes.len() && &bytes[pos..pos + 8] != BBV_MAGIC {
        let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let (records, length) = (field(pos), field(pos + 4) as usize);
        let payload = pos + 8..pos + 8 + length;
        frames.push((records, payload.clone(), payload.end));
        pos = payload.end + 8;
    }
    frames
}

/// Decodes a whole image whose chunk framing is intact, one record at a
/// time: the checksum of each chunk, then its records, then the check
/// that the payload holds nothing more, then the header's count.
pub fn decode_file(bytes: &[u8]) -> Result<Vec<DynInstr>, TraceError> {
    let declared = TraceReader::new(bytes)?.header().instructions;
    let mut codec = RefCodec::default();
    let mut out = Vec::new();
    for (chunk, (records, payload, sum_at)) in chunk_frames(bytes).into_iter().enumerate() {
        let chunk = chunk as u64;
        let payload = &bytes[payload];
        let expected = u64::from_le_bytes(bytes[sum_at..sum_at + 8].try_into().unwrap());
        let actual = fnv64(payload);
        if expected != actual {
            return Err(TraceError::Checksum {
                chunk,
                expected,
                actual,
            });
        }
        let mut pos = 0;
        for _ in 0..records {
            let instr = codec
                .decode(payload, &mut pos)
                .map_err(|reason| TraceError::BadRecord { chunk, reason })?;
            out.push(instr);
        }
        if pos != payload.len() {
            return Err(TraceError::BadRecord {
                chunk,
                reason: format!("{} trailing payload bytes", payload.len() - pos),
            });
        }
    }
    if out.len() as u64 != declared {
        return Err(TraceError::Truncated {
            expected: declared,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}
