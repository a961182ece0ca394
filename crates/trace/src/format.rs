//! The `.strc` v1 byte layout: magic, header, chunk framing, and the
//! delta-encoded record codec.
//!
//! Everything is little-endian. The file is:
//!
//! ```text
//! magic     8 bytes   "STRC0001"
//! header    variable  see [`TraceHeader`]; FNV-1a-64 checksum at the end
//! chunks    0 or more:
//!   records  u32      record count in this chunk (1 ..= CHUNK_RECORDS)
//!   length   u32      payload byte length
//!   payload  length bytes of packed records
//!   checksum u64      FNV-1a-64 over the payload
//! ```
//!
//! A record is a tag byte (class kind in bits 0–2, operand presence in
//! bits 3–5, taken in bit 6), an optional branch-class nibble byte, and
//! then varint deltas: the PC as a zigzag delta of its *word index* from
//! the previous record's PC, memory addresses as a delta from the
//! previous memory address, and branch targets as a delta from the
//! branch's own PC. Register operands are one byte each. Delta state
//! runs across chunk boundaries — chunks frame integrity, not random
//! access.
//!
//! The chunk framing is what makes corruption loud: a flipped bit fails
//! the payload checksum, and a truncated file either ends mid-chunk or
//! ends cleanly with fewer records than the header declares — both are
//! distinct, typed [`TraceError`]s.

use crate::varint;
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, Reg, TraceStats};
use std::io;

/// File magic identifying the `.strc` container, format version 1.
pub const MAGIC: &[u8; 8] = b"STRC0001";

/// The container format version this crate writes.
pub const FORMAT_VERSION: u16 = 1;

/// Maximum records per chunk; the writer flushes at this count.
pub const CHUNK_RECORDS: u32 = 4096;

/// Upper bound accepted for a chunk payload length. The packed encoding
/// never exceeds ~30 bytes/record, so this is generous; it exists so a
/// corrupt length field cannot ask the reader for a huge allocation.
pub const MAX_CHUNK_PAYLOAD: u32 = 1 << 22;

const TAG_KIND_MASK: u8 = 0x07;
const TAG_SRC0: u8 = 0x08;
const TAG_SRC1: u8 = 0x10;
const TAG_DST: u8 = 0x20;
const TAG_TAKEN: u8 = 0x40;
const TAG_RESERVED: u8 = 0x80;
const KIND_BRANCH: u8 = 7;

/// Non-branch classes in tag-kind order (kinds `0..=6`).
pub const NON_BRANCH_CLASSES: [InstrClass; 7] = [
    InstrClass::Integer,
    InstrClass::FpAdd,
    InstrClass::Mul,
    InstrClass::Div,
    InstrClass::Load,
    InstrClass::Store,
    InstrClass::BitField,
];

/// FNV-1a 64-bit hash — the chunk and header checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything that can go wrong reading a `.strc` stream.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The leading magic bytes did not match [`MAGIC`].
    BadMagic([u8; 8]),
    /// The header declares a format version this crate cannot read.
    UnsupportedVersion(u16),
    /// The header is malformed or fails its checksum.
    CorruptHeader(String),
    /// A chunk frame is malformed or cut short (truncation mid-chunk).
    CorruptChunk {
        /// Zero-based index of the offending chunk.
        chunk: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A chunk payload failed its FNV-1a checksum.
    Checksum {
        /// Zero-based index of the offending chunk.
        chunk: u64,
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum computed over the payload actually read.
        actual: u64,
    },
    /// A record inside a checksum-valid chunk is malformed.
    BadRecord {
        /// Zero-based index of the chunk holding the record.
        chunk: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// The stream ended cleanly but with fewer records than the header
    /// declares (truncation at a chunk boundary).
    Truncated {
        /// Instruction count the header promises.
        expected: u64,
        /// Instructions actually decoded.
        actual: u64,
    },
    /// The decoded trace's statistics disagree with the header summary.
    SummaryMismatch(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a .strc trace (magic {m:02x?})"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported .strc format version {v}")
            }
            TraceError::CorruptHeader(r) => write!(f, "corrupt header: {r}"),
            TraceError::CorruptChunk { chunk, reason } => {
                write!(f, "corrupt chunk {chunk}: {reason}")
            }
            TraceError::Checksum {
                chunk,
                expected,
                actual,
            } => write!(
                f,
                "chunk {chunk} checksum mismatch (file {expected:#018x}, computed {actual:#018x})"
            ),
            TraceError::BadRecord { chunk, reason } => {
                write!(f, "bad record in chunk {chunk}: {reason}")
            }
            TraceError::Truncated { expected, actual } => write!(
                f,
                "truncated trace: header declares {expected} instructions, decoded {actual}"
            ),
            TraceError::SummaryMismatch(r) => write!(f, "header summary mismatch: {r}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Provenance carried in a trace header: where the instructions came
/// from, not what they are (that is [`StatsSummary`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Benchmark name the trace was generated from.
    pub benchmark: String,
    /// Scale label the generating run used (`quick`, `standard`, …).
    pub scale: String,
    /// Generator seed.
    pub seed: u64,
    /// Version of the workload generators that produced the trace.
    pub generator_version: u16,
}

/// The whole-trace counters a header carries so readers can sanity-check
/// a decode without trusting the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct StatsSummary {
    /// Per-class dynamic counts, indexed by [`InstrClass::index`].
    pub class_counts: [u64; 8],
    /// Per-branch-class dynamic counts, indexed by
    /// [`BranchClass::index`].
    pub branch_counts: [u64; 6],
    /// Dynamic count of taken conditional branches.
    pub taken_conditional: u64,
    /// Number of static indirect-jump sites observed.
    pub static_indirect_jumps: u64,
}

impl StatsSummary {
    /// Extracts the summary counters from full trace statistics.
    pub fn of(stats: &TraceStats) -> Self {
        StatsSummary {
            class_counts: stats.class_counts(),
            branch_counts: stats.branch_class_counts(),
            taken_conditional: stats.taken_conditional(),
            static_indirect_jumps: stats.static_indirect_jumps() as u64,
        }
    }

    /// Checks the summary against freshly computed statistics, returning
    /// the first discrepancy as text.
    pub fn check(&self, stats: &TraceStats) -> Result<(), String> {
        let actual = StatsSummary::of(stats);
        if self == &actual {
            return Ok(());
        }
        if self.class_counts != actual.class_counts {
            return Err(format!(
                "class counts: header {:?}, decoded {:?}",
                self.class_counts, actual.class_counts
            ));
        }
        if self.branch_counts != actual.branch_counts {
            return Err(format!(
                "branch counts: header {:?}, decoded {:?}",
                self.branch_counts, actual.branch_counts
            ));
        }
        if self.taken_conditional != actual.taken_conditional {
            return Err(format!(
                "taken conditionals: header {}, decoded {}",
                self.taken_conditional, actual.taken_conditional
            ));
        }
        Err(format!(
            "static indirect jumps: header {}, decoded {}",
            self.static_indirect_jumps, actual.static_indirect_jumps
        ))
    }
}

/// Decoded `.strc` header: format and generator versions, provenance,
/// declared instruction count, and the [`StatsSummary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Container format version (currently always [`FORMAT_VERSION`]).
    pub format_version: u16,
    /// Provenance of the trace.
    pub meta: TraceMeta,
    /// Dynamic instruction count the chunks must add up to.
    pub instructions: u64,
    /// Whole-trace counters for integrity checking.
    pub summary: StatsSummary,
}

fn put_str(out: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    if bytes.len() > u8::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("header string {s:?} exceeds 255 bytes"),
        ));
    }
    out.push(bytes.len() as u8);
    out.extend_from_slice(bytes);
    Ok(())
}

impl TraceHeader {
    /// Builds the header for a trace with the given provenance and
    /// statistics.
    pub fn new(meta: TraceMeta, stats: &TraceStats) -> Self {
        TraceHeader {
            format_version: FORMAT_VERSION,
            instructions: stats.instructions(),
            summary: StatsSummary::of(stats),
            meta,
        }
    }

    /// Serializes the header (excluding the magic), checksum included.
    ///
    /// # Errors
    ///
    /// Fails if a meta string exceeds the 255-byte length prefix.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(192);
        out.extend_from_slice(&self.format_version.to_le_bytes());
        out.extend_from_slice(&self.meta.generator_version.to_le_bytes());
        put_str(&mut out, &self.meta.benchmark)?;
        put_str(&mut out, &self.meta.scale)?;
        out.extend_from_slice(&self.meta.seed.to_le_bytes());
        out.extend_from_slice(&self.instructions.to_le_bytes());
        for c in self.summary.class_counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for c in self.summary.branch_counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&self.summary.taken_conditional.to_le_bytes());
        out.extend_from_slice(&self.summary.static_indirect_jumps.to_le_bytes());
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }

    /// Parses a header from the bytes following the magic, verifying the
    /// trailing checksum. `buf` must hold exactly the encoded header.
    pub fn decode(buf: &[u8]) -> Result<Self, TraceError> {
        let corrupt = |r: &str| TraceError::CorruptHeader(r.to_string());
        if buf.len() < 8 {
            return Err(corrupt("shorter than its checksum"));
        }
        let (body, sum) = buf.split_at(buf.len() - 8);
        let expected = u64::from_le_bytes(sum.try_into().expect("split at len-8"));
        let actual = fnv64(body);
        if expected != actual {
            return Err(TraceError::CorruptHeader(format!(
                "checksum mismatch (file {expected:#018x}, computed {actual:#018x})"
            )));
        }
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], TraceError> {
            let end = pos.checked_add(n).filter(|&e| e <= body.len());
            let end = end.ok_or_else(|| corrupt("ends mid-field"))?;
            let slice = &body[pos..end];
            pos = end;
            Ok(slice)
        };
        let u16le = |b: &[u8]| u16::from_le_bytes(b.try_into().expect("fixed-width header field"));
        let u64le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("fixed-width header field"));
        let format_version = u16le(take(2)?);
        if format_version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(format_version));
        }
        let generator_version = u16le(take(2)?);
        let mut get_str = |what: &str| -> Result<String, TraceError> {
            let len = take(1)?[0] as usize;
            let bytes = take(len)?;
            String::from_utf8(bytes.to_vec())
                .map_err(|_| TraceError::CorruptHeader(format!("{what} is not UTF-8")))
        };
        let benchmark = get_str("benchmark name")?;
        let scale = get_str("scale label")?;
        let seed = u64le(take(8)?);
        let instructions = u64le(take(8)?);
        let mut summary = StatsSummary::default();
        for c in summary.class_counts.iter_mut() {
            *c = u64le(take(8)?);
        }
        for c in summary.branch_counts.iter_mut() {
            *c = u64le(take(8)?);
        }
        summary.taken_conditional = u64le(take(8)?);
        summary.static_indirect_jumps = u64le(take(8)?);
        if pos != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        if summary.class_counts.iter().sum::<u64>() != instructions {
            return Err(corrupt("class counts do not sum to the instruction count"));
        }
        Ok(TraceHeader {
            format_version,
            meta: TraceMeta {
                benchmark,
                scale,
                seed,
                generator_version,
            },
            instructions,
            summary,
        })
    }
}

/// Delta state threaded through encode and decode. Both sides start from
/// the same zero state and update it identically per record, so the
/// decoder reconstructs absolute values without any stored bases.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecState {
    prev_pc_word: u64,
    prev_mem: u64,
}

impl CodecState {
    /// Appends one packed record to `out`.
    pub fn encode(&mut self, out: &mut Vec<u8>, i: &DynInstr) {
        let srcs = i.srcs();
        let branch = i.branch_exec();
        let kind = match branch {
            Some(_) => KIND_BRANCH,
            None => NON_BRANCH_CLASSES
                .iter()
                .position(|&c| c == i.class())
                .expect("non-branch instruction has a non-branch class") as u8,
        };
        let tag = kind
            | if srcs[0].is_some() { TAG_SRC0 } else { 0 }
            | if srcs[1].is_some() { TAG_SRC1 } else { 0 }
            | if i.dst().is_some() { TAG_DST } else { 0 }
            | if branch.is_some_and(|b| b.taken) {
                TAG_TAKEN
            } else {
                0
            };
        out.push(tag);
        if let Some(b) = branch {
            out.push(b.class.index() as u8);
        }
        let word = i.pc().word_index();
        varint::put_i64(out, word.wrapping_sub(self.prev_pc_word) as i64);
        self.prev_pc_word = word;
        for src in srcs.into_iter().flatten() {
            out.push(src.index() as u8);
        }
        if let Some(dst) = i.dst() {
            out.push(dst.index() as u8);
        }
        if let Some(mem) = i.mem() {
            varint::put_i64(out, mem.addr.wrapping_sub(self.prev_mem) as i64);
            self.prev_mem = mem.addr;
        }
        if let Some(b) = branch {
            varint::put_i64(out, b.target.word_index().wrapping_sub(word) as i64);
        }
    }

    /// Decodes one checksum-verified chunk payload holding `records`
    /// records, appending them to `out`.
    ///
    /// Every field is validated before any panicking `sim-isa`
    /// constructor runs, so corrupt (but checksum-valid) bytes surface
    /// as an error string naming the first bad field, never a panic. The
    /// payload must hold exactly `records` records: bytes left over
    /// after the last one are an error too. On error `out` is left as
    /// it was.
    pub(crate) fn decode_chunk(
        &mut self,
        payload: &[u8],
        records: u32,
        out: &mut Vec<DynInstr>,
    ) -> Result<(), String> {
        let start = out.len();
        out.reserve(records as usize);
        let mut pos = 0;
        let mut decode_all = || {
            for _ in 0..records {
                out.push(self.decode_record(payload, &mut pos)?);
            }
            match payload.len() - pos {
                0 => Ok(()),
                n => Err(format!("{n} trailing payload bytes")),
            }
        };
        decode_all().inspect_err(|_| out.truncate(start))
    }

    #[inline(always)]
    fn decode_record(&mut self, buf: &[u8], pos: &mut usize) -> Result<DynInstr, String> {
        let tag = byte(buf, pos)?;
        if tag & TAG_RESERVED != 0 {
            return Err(format!("reserved tag bit set ({tag:#04x})"));
        }
        let kind = tag & TAG_KIND_MASK;
        let taken = tag & TAG_TAKEN != 0;
        let branch_class = if kind == KIND_BRANCH {
            // A branch-class byte is a nibble 0..6 with a clear high nibble.
            let b = byte(buf, pos)?;
            let class = *BranchClass::ALL
                .get(b as usize)
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
        let word = self.prev_pc_word.wrapping_add(delta(buf, pos)?);
        self.prev_pc_word = word;
        if word > MAX_WORD_INDEX {
            return Err(format!("pc word index {word:#x} out of address range"));
        }
        let pc = Addr::from_word_index(word);
        let src0 = reg_if(tag & TAG_SRC0 != 0, buf, pos, "source")?;
        let src1 = reg_if(tag & TAG_SRC1 != 0, buf, pos, "source")?;
        let dst = reg_if(tag & TAG_DST != 0, buf, pos, "destination")?;
        let instr = match branch_class {
            Some(class) => {
                let target = word.wrapping_add(delta(buf, pos)?);
                if target > MAX_WORD_INDEX {
                    return Err(format!(
                        "target word index {target:#x} out of address range"
                    ));
                }
                let target = Addr::from_word_index(target);
                DynInstr::branch(pc, BranchExec::new(class, taken, target))
            }
            None => match NON_BRANCH_CLASSES[kind as usize] {
                class @ (InstrClass::Load | InstrClass::Store) => {
                    let addr = self.prev_mem.wrapping_add(delta(buf, pos)?);
                    self.prev_mem = addr;
                    if class == InstrClass::Load {
                        DynInstr::load(pc, addr)
                    } else {
                        DynInstr::store(pc, addr)
                    }
                }
                class => DynInstr::op(pc, class),
            },
        };
        let instr = instr.with_srcs(src0, src1);
        Ok(match dst {
            Some(dst) => instr.with_dst(dst),
            None => instr,
        })
    }
}

/// The largest word index whose byte address fits in a `u64`.
const MAX_WORD_INDEX: u64 = u64::MAX / sim_isa::addr::INSTR_BYTES;

#[inline(always)]
fn byte(buf: &[u8], pos: &mut usize) -> Result<u8, String> {
    let b = *buf.get(*pos).ok_or("record cut short")?;
    *pos += 1;
    Ok(b)
}

/// A zigzag varint delta, as the wrapping `u64` the state adds. Most
/// deltas are one byte (sequential fetch), so that case skips the
/// general loop.
#[inline(always)]
fn delta(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let raw = match buf.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            u64::from(b)
        }
        _ => varint::get_u64(buf, pos).ok_or("invalid varint")?,
    };
    Ok((raw >> 1) ^ (raw & 1).wrapping_neg())
}

#[inline(always)]
fn reg_if(present: bool, buf: &[u8], pos: &mut usize, what: &str) -> Result<Option<Reg>, String> {
    if !present {
        return Ok(None);
    }
    let index = byte(buf, pos)?;
    if u16::from(index) >= sim_isa::reg::REG_COUNT {
        return Err(format!("{what} register {index} out of range"));
    }
    Ok(Some(Reg::new(u16::from(index))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::VecTrace;

    fn sample() -> Vec<DynInstr> {
        vec![
            DynInstr::op(Addr::new(0x100), InstrClass::Integer)
                .with_srcs(Some(Reg::new(1)), Some(Reg::new(2)))
                .with_dst(Reg::new(3)),
            DynInstr::load(Addr::new(0x104), 0xDEAD_BEEF).with_dst(Reg::new(4)),
            DynInstr::store(Addr::new(0x108), 0x1234_5678).with_srcs(Some(Reg::new(4)), None),
            DynInstr::branch(
                Addr::new(0x10c),
                BranchExec::not_taken(BranchClass::CondDirect, Addr::new(0x200)),
            ),
            DynInstr::branch(
                Addr::new(0x110),
                BranchExec::taken(BranchClass::IndirectJump, Addr::new(0x300)),
            ),
            DynInstr::branch(
                Addr::new(0x300),
                BranchExec::taken(BranchClass::Return, Addr::new(0x114)),
            ),
        ]
    }

    #[test]
    fn records_roundtrip_through_the_codec() {
        let mut enc = CodecState::default();
        let mut buf = Vec::new();
        for i in sample() {
            enc.encode(&mut buf, &i);
        }
        let mut dec = CodecState::default();
        let mut out = Vec::new();
        dec.decode_chunk(&buf, sample().len() as u32, &mut out)
            .unwrap();
        assert_eq!(out, sample());
    }

    #[test]
    fn sequential_fetch_costs_two_bytes_per_op() {
        // tag + one-byte pc delta: the common case the format optimizes.
        let mut enc = CodecState::default();
        let mut buf = Vec::new();
        enc.encode(
            &mut buf,
            &DynInstr::op(Addr::new(0x100), InstrClass::Integer),
        );
        let before = buf.len();
        enc.encode(
            &mut buf,
            &DynInstr::op(Addr::new(0x104), InstrClass::Integer),
        );
        assert_eq!(buf.len() - before, 2);
    }

    fn decode_one(bytes: &[u8]) -> Result<Vec<DynInstr>, String> {
        let mut out = Vec::new();
        CodecState::default()
            .decode_chunk(bytes, 1, &mut out)
            .map(|()| out)
    }

    #[test]
    fn decode_rejects_malformed_records() {
        let cases: [(&[u8], &str); 7] = [
            (&[0x80, 0x00], "reserved tag bit set (0x80)"),
            (&[0x47, 0x0e, 0x00, 0x00], "invalid branch class byte 0x0e"),
            // Not-taken return (BranchExec::new would panic on this).
            (
                &[0x07, BranchClass::Return.index() as u8, 0x00, 0x00],
                "not-taken Return branch",
            ),
            (&[0x40, 0x00], "taken bit set on a non-branch record"),
            (&[0x08, 0x00, 0x3f], "source register 63 out of range"),
            (&[0x08, 0x00], "record cut short"),
            (&[0x00, 0x80], "invalid varint"),
        ];
        for (bytes, reason) in cases {
            assert_eq!(decode_one(bytes).unwrap_err(), reason, "{bytes:02x?}");
        }
    }

    #[test]
    fn chunk_must_hold_exactly_its_records_and_fails_whole() {
        let mut enc = CodecState::default();
        let mut buf = Vec::new();
        for i in sample() {
            enc.encode(&mut buf, &i);
        }
        buf.push(0x00);
        let mut out = vec![sample()[0]];
        let err = CodecState::default()
            .decode_chunk(&buf, sample().len() as u32, &mut out)
            .unwrap_err();
        assert_eq!(err, "1 trailing payload bytes");
        assert_eq!(out, vec![sample()[0]], "a failed chunk appends nothing");
    }

    #[test]
    fn header_roundtrips_and_rejects_corruption() {
        let trace: VecTrace = sample().into_iter().collect();
        let meta = TraceMeta {
            benchmark: "perl".into(),
            scale: "quick".into(),
            seed: 0x5eed,
            generator_version: 1,
        };
        let header = TraceHeader::new(meta, &trace.stats());
        let bytes = header.encode().unwrap();
        assert_eq!(TraceHeader::decode(&bytes).unwrap(), header);
        let mut flipped = bytes.clone();
        flipped[4] ^= 1;
        assert!(matches!(
            TraceHeader::decode(&flipped),
            Err(TraceError::CorruptHeader(_))
        ));
        assert!(matches!(
            TraceHeader::decode(&bytes[..bytes.len() - 2]),
            Err(TraceError::CorruptHeader(_))
        ));
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let trace: VecTrace = sample().into_iter().collect();
        let meta = TraceMeta {
            benchmark: "perl".into(),
            scale: "quick".into(),
            seed: 1,
            generator_version: 1,
        };
        let mut header = TraceHeader::new(meta, &trace.stats());
        header.format_version = 2;
        let bytes = header.encode().unwrap();
        assert!(matches!(
            TraceHeader::decode(&bytes),
            Err(TraceError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn summary_check_pinpoints_the_field() {
        let trace: VecTrace = sample().into_iter().collect();
        let stats = trace.stats();
        let mut summary = StatsSummary::of(&stats);
        assert!(summary.check(&stats).is_ok());
        summary.taken_conditional += 1;
        let err = summary.check(&stats).unwrap_err();
        assert!(err.contains("taken conditionals"), "{err}");
    }
}
