//! Basic-block-vector (BBV) fingerprints: the optional, versioned,
//! checksummed side-section appended after the last chunk of a `.strc`
//! stream.
//!
//! SimPoint-style phase sampling needs to know, for every 4096-record
//! chunk, *which code* executed — not just how many instructions. A
//! chunk's fingerprint is its basic-block vector: for each basic block
//! entered during the chunk, the number of instructions the chunk spent
//! inside it. Blocks are straight-line runs delimited by control
//! instructions; a block is keyed by the PC word index of its leader
//! (the first instruction after a control transfer). A block that
//! straddles a chunk boundary contributes to both chunks under the same
//! leader.
//!
//! On disk the section rides after the final chunk frame:
//!
//! ```text
//! "STBV0001"                       8-byte section magic
//! payload_len: u32 le
//! payload:
//!   version:     u16 le            (currently 1)
//!   chunk_count: u32 le
//!   per chunk:
//!     n_blocks: varint
//!     n_blocks × (block_id: varint, count: varint), ascending block_id
//! checksum: u64 le                 FNV-1a-64 of the payload
//! ```
//!
//! The section is *optional*: a stream that ends cleanly after its last
//! chunk (every pre-section trace) still decodes, and readers that
//! predate the section never reach it — they stop at the header's
//! declared instruction count. The reader validates the section against
//! the header: the chunk count and every per-chunk instruction total
//! must match the trace's actual chunking.

use crate::format::{fnv64, CHUNK_RECORDS};
use crate::varint;
use sim_isa::{DynInstr, VecTrace};
use std::io::{self, Read};

/// Magic opening the BBV side-section. Deliberately 8 bytes — the same
/// width as a chunk frame, so a streaming reader positioned at a chunk
/// boundary can distinguish "next chunk", "side-section", and "end of
/// stream" with one read.
pub const BBV_MAGIC: &[u8; 8] = b"STBV0001";

/// Current side-section version.
pub const BBV_VERSION: u16 = 1;

/// Upper bound on the encoded section payload (64 MiB) — a corrupt
/// length field must not trigger a giant allocation.
pub const MAX_BBV_PAYLOAD: u32 = 1 << 26;

/// One chunk's basic-block vector: `(leader word index, instructions)`
/// pairs in ascending leader order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkFingerprint {
    /// `(block leader PC word index, instructions attributed)` pairs,
    /// sorted ascending by leader.
    pub blocks: Vec<(u64, u64)>,
}

impl ChunkFingerprint {
    /// Total instructions the fingerprint accounts for.
    pub fn instructions(&self) -> u64 {
        self.blocks.iter().map(|&(_, n)| n).sum()
    }

    /// Number of distinct basic blocks entered during the chunk.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// The decoded side-section: one fingerprint per chunk, in chunk order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BbvSection {
    /// Section format version (see [`BBV_VERSION`]).
    pub version: u16,
    /// Per-chunk fingerprints, index = chunk index.
    pub chunks: Vec<ChunkFingerprint>,
}

impl BbvSection {
    /// Encodes the full section: magic, length-prefixed payload,
    /// trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.chunks.len() * 64 + 8);
        payload.extend_from_slice(&self.version.to_le_bytes());
        payload.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for chunk in &self.chunks {
            varint::put_u64(&mut payload, chunk.blocks.len() as u64);
            for &(block, count) in &chunk.blocks {
                varint::put_u64(&mut payload, block);
                varint::put_u64(&mut payload, count);
            }
        }
        let mut out = Vec::with_capacity(8 + 4 + payload.len() + 8);
        out.extend_from_slice(BBV_MAGIC);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv64(&payload).to_le_bytes());
        out
    }

    /// Decodes a section payload (the bytes between the length prefix
    /// and the checksum).
    ///
    /// # Errors
    ///
    /// A human-readable reason: unsupported version, truncated varint,
    /// unsorted or duplicate block ids, or trailing bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<BbvSection, String> {
        if payload.len() < 6 {
            return Err(format!("payload too short ({} bytes)", payload.len()));
        }
        let version = u16::from_le_bytes(payload[0..2].try_into().expect("2-byte field"));
        if version != BBV_VERSION {
            return Err(format!("unsupported bbv section version {version}"));
        }
        let chunk_count =
            u32::from_le_bytes(payload[2..6].try_into().expect("4-byte field")) as usize;
        let mut pos = 6usize;
        let mut chunks = Vec::with_capacity(chunk_count.min(1 << 20));
        for c in 0..chunk_count {
            let n = varint::get_u64(payload, &mut pos)
                .ok_or_else(|| format!("chunk {c}: truncated block count"))?
                as usize;
            let mut blocks = Vec::with_capacity(n.min(CHUNK_RECORDS as usize));
            let mut prev: Option<u64> = None;
            for b in 0..n {
                let block = varint::get_u64(payload, &mut pos)
                    .ok_or_else(|| format!("chunk {c}: truncated block id {b}"))?;
                let count = varint::get_u64(payload, &mut pos)
                    .ok_or_else(|| format!("chunk {c}: truncated count for block {block}"))?;
                if prev.is_some_and(|p| p >= block) {
                    return Err(format!("chunk {c}: block ids not strictly ascending"));
                }
                prev = Some(block);
                blocks.push((block, count));
            }
            chunks.push(ChunkFingerprint { blocks });
        }
        if pos != payload.len() {
            return Err(format!("{} trailing payload bytes", payload.len() - pos));
        }
        Ok(BbvSection { version, chunks })
    }

    /// Reads the section body (length prefix, payload, checksum) from a
    /// stream positioned just past the magic.
    ///
    /// # Errors
    ///
    /// `Err(Ok(_))` never occurs; I/O failures surface as the outer
    /// `io::Error`, structural corruption as the inner `Err(String)`.
    pub fn read_body<R: Read>(src: &mut R) -> io::Result<Result<BbvSection, String>> {
        let mut len = [0u8; 4];
        if let Err(e) = src.read_exact(&mut len) {
            return short_read(e, "length");
        }
        let len = u32::from_le_bytes(len);
        if len > MAX_BBV_PAYLOAD {
            return Ok(Err(format!("payload length {len} out of range")));
        }
        let mut payload = vec![0u8; len as usize];
        if let Err(e) = src.read_exact(&mut payload) {
            return short_read(e, "payload");
        }
        let mut sum = [0u8; 8];
        if let Err(e) = src.read_exact(&mut sum) {
            return short_read(e, "checksum");
        }
        let expected = u64::from_le_bytes(sum);
        let actual = fnv64(&payload);
        if expected != actual {
            return Ok(Err(format!(
                "checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            )));
        }
        Ok(BbvSection::decode_payload(&payload))
    }

    /// Validates the section against a trace's declared instruction
    /// count: chunk count and per-chunk instruction totals must match
    /// the trace's actual 4096-record chunking.
    ///
    /// # Errors
    ///
    /// A human-readable mismatch description.
    pub fn validate(&self, instructions: u64) -> Result<(), String> {
        let expected_chunks = instructions.div_ceil(u64::from(CHUNK_RECORDS));
        if self.chunks.len() as u64 != expected_chunks {
            return Err(format!(
                "section has {} chunk fingerprints but the trace has {expected_chunks} chunks",
                self.chunks.len()
            ));
        }
        for (c, chunk) in self.chunks.iter().enumerate() {
            let start = c as u64 * u64::from(CHUNK_RECORDS);
            let expected = (instructions - start).min(u64::from(CHUNK_RECORDS));
            let actual = chunk.instructions();
            if actual != expected {
                return Err(format!(
                    "chunk {c} fingerprint accounts for {actual} instructions, expected {expected}"
                ));
            }
        }
        Ok(())
    }
}

fn short_read(e: io::Error, what: &str) -> io::Result<Result<BbvSection, String>> {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        Ok(Err(format!("file ends inside the bbv section {what}")))
    } else {
        Err(e)
    }
}

/// Streaming fingerprint accumulator: observe each record in order,
/// mark chunk boundaries, and collect the finished [`BbvSection`].
///
/// The writer drives one of these alongside the record codec so
/// fingerprints are computed at record time; [`fingerprint_trace`]
/// drives one over an in-memory trace and produces identical output.
/// Per record it only counts the open basic block's run; a run is
/// recorded once, when its block closes, and a chunk's runs are sorted
/// and merged by leader when the chunk ends.
#[derive(Default)]
pub struct FingerprintBuilder {
    chunks: Vec<ChunkFingerprint>,
    /// This chunk's finished runs, `(leader, instructions)`, in the order
    /// their blocks closed; a leader recurs once per visit.
    runs: Vec<(u64, u64)>,
    /// The open basic block: its leader and the instructions it has had
    /// in this chunk.
    open: Option<(u64, u64)>,
}

impl FingerprintBuilder {
    /// A builder with no observed records.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one record. The instruction is attributed to the
    /// current basic block (opened at this PC if none is open); a
    /// control instruction closes the block.
    #[inline]
    pub fn observe(&mut self, i: &DynInstr) {
        let (_, count) = self.open.get_or_insert((i.pc().word_index(), 0));
        *count += 1;
        if i.branch_exec().is_some() {
            self.runs.extend(self.open.take());
        }
    }

    /// Marks a chunk boundary: the counts accumulated since the last
    /// boundary become that chunk's fingerprint. An open basic block
    /// stays open — its remaining instructions land in the next chunk
    /// under the same leader.
    pub fn end_chunk(&mut self) {
        if let Some((leader, count)) = &mut self.open {
            if *count > 0 {
                self.runs.push((*leader, std::mem::take(count)));
            }
        }
        self.runs.sort_unstable_by_key(|&(leader, _)| leader);
        // Merge each leader's runs into its first, keeping that one.
        self.runs.dedup_by(|(leader, count), (kept, total)| {
            let same = leader == kept;
            if same {
                *total += *count;
            }
            same
        });
        // A fingerprint lives as long as the trace: copy it out at its
        // exact size and keep the run buffer for the next chunk.
        self.chunks.push(ChunkFingerprint {
            blocks: self.runs.to_vec(),
        });
        self.runs.clear();
    }

    /// Finishes the builder. Any records observed since the last chunk
    /// boundary must already have been flushed by [`end_chunk`] — the
    /// writer calls it from its own final chunk flush.
    ///
    /// [`end_chunk`]: FingerprintBuilder::end_chunk
    pub fn finish(self) -> BbvSection {
        debug_assert!(
            self.runs.is_empty() && self.open.is_none_or(|(_, count)| count == 0),
            "records observed after the last chunk boundary"
        );
        BbvSection {
            version: BBV_VERSION,
            chunks: self.chunks,
        }
    }
}

/// Fingerprints an in-memory trace, chunked exactly as the writer
/// chunks it (4096 records per chunk, short final chunk).
pub fn fingerprint_trace(trace: &VecTrace) -> BbvSection {
    let mut b = FingerprintBuilder::new();
    for (n, i) in trace.iter().enumerate() {
        b.observe(i);
        if (n + 1).is_multiple_of(CHUNK_RECORDS as usize) {
            b.end_chunk();
        }
    }
    if !trace.len().is_multiple_of(CHUNK_RECORDS as usize) {
        b.end_chunk();
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Addr, BranchClass, BranchExec, InstrClass};

    fn toy_trace(n: usize) -> VecTrace {
        // A loop shape: blocks of 4 instructions ending in a taken
        // conditional back to the top.
        (0..n)
            .map(|i| {
                let pc = Addr::from_word_index((i % 4) as u64);
                if i % 4 == 3 {
                    DynInstr::branch(
                        pc,
                        BranchExec::taken(BranchClass::CondDirect, Addr::from_word_index(0)),
                    )
                } else {
                    DynInstr::op(pc, InstrClass::Integer)
                }
            })
            .collect()
    }

    #[test]
    fn fingerprints_attribute_every_instruction() {
        let trace = toy_trace(10_000);
        let section = fingerprint_trace(&trace);
        assert_eq!(section.chunks.len(), 3);
        assert!(section.validate(10_000).is_ok());
        // The loop has one leader (word 0) once running; the very first
        // chunk may also start there, so every chunk has exactly 1 block.
        for chunk in &section.chunks {
            assert_eq!(chunk.block_count(), 1);
            assert_eq!(chunk.blocks[0].0, 0);
        }
    }

    #[test]
    fn section_round_trips_through_encode() {
        let section = fingerprint_trace(&toy_trace(5_000));
        let bytes = section.encode();
        assert_eq!(&bytes[..8], BBV_MAGIC);
        let mut src = &bytes[8..];
        let decoded = BbvSection::read_body(&mut src).unwrap().unwrap();
        assert_eq!(decoded, section);
        assert!(src.is_empty());
    }

    #[test]
    fn corrupt_payload_and_checksum_are_rejected() {
        let section = fingerprint_trace(&toy_trace(5_000));
        let mut bytes = section.encode();
        // Flip one payload byte: checksum must catch it.
        let mid = 8 + 4 + 3;
        bytes[mid] ^= 0xff;
        let mut src = &bytes[8..];
        let err = BbvSection::read_body(&mut src).unwrap().unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        // Truncate inside the payload: a loud structural error, not EOF.
        let bytes = section.encode();
        let mut src = &bytes[8..bytes.len() - 12];
        let err = BbvSection::read_body(&mut src).unwrap().unwrap_err();
        assert!(err.contains("ends inside"), "{err}");
    }

    #[test]
    fn validate_catches_count_mismatches() {
        let section = fingerprint_trace(&toy_trace(5_000));
        assert!(section.validate(5_000).is_ok());
        let err = section.validate(5_001).unwrap_err();
        assert!(
            err.contains("5001") || err.contains("instructions"),
            "{err}"
        );
        let err = section.validate(50_000).unwrap_err();
        assert!(err.contains("chunks"), "{err}");
    }

    #[test]
    fn blocks_straddling_chunks_keep_their_leader() {
        // 4097 straight-line instructions, no branches: one giant block
        // whose leader is word 0; the second chunk's single entry must
        // still be keyed by leader 0, not by the chunk's first PC.
        let trace: VecTrace = (0..4097)
            .map(|i| DynInstr::op(Addr::from_word_index(i), InstrClass::Integer))
            .collect();
        let section = fingerprint_trace(&trace);
        assert_eq!(section.chunks.len(), 2);
        assert_eq!(section.chunks[0].blocks, vec![(0, 4096)]);
        assert_eq!(section.chunks[1].blocks, vec![(0, 1)]);
    }
}
