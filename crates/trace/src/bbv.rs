//! Basic-block-vector (BBV) fingerprints of a trace, for SimPoint-style
//! phase sampling.
//!
//! Phase sampling needs to know, for every 4096-record chunk, *which
//! code* executed — not just how many instructions. A chunk's
//! fingerprint is its basic-block vector: for each basic block entered
//! during the chunk, the number of instructions the chunk spent inside
//! it. Blocks are straight-line runs delimited by control instructions;
//! a block is keyed by the PC word index of its leader (the first
//! instruction after a control transfer). A block that straddles a chunk
//! boundary contributes to both chunks under the same leader.
//!
//! Fingerprints are never stored in a `.strc` file. They are computed
//! from the in-memory trace, by [`fingerprint_trace`], only when a phase
//! map has to be built; the map itself is what gets cached.

use crate::format::CHUNK_RECORDS;
use sim_isa::VecTrace;

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

/// A whole trace's fingerprints: one per chunk, in chunk order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceFingerprint {
    /// Per-chunk fingerprints, index = chunk index.
    pub chunks: Vec<ChunkFingerprint>,
}

/// Fingerprints an in-memory trace, chunked exactly as the writer
/// chunks it (4096 records per chunk, short final chunk).
///
/// Per record it only counts the open basic block's run; a run is
/// recorded once, when its block closes or its chunk ends, and a
/// chunk's runs are sorted and merged by leader when the chunk ends.
pub fn fingerprint_trace(trace: &VecTrace) -> TraceFingerprint {
    let records = trace.as_slice().chunks(CHUNK_RECORDS as usize);
    let mut chunks = Vec::with_capacity(records.len());
    // This chunk's finished runs, `(leader, instructions)`, in the order
    // they ended; a leader recurs once per visit.
    let mut runs: Vec<(u64, u64)> = Vec::new();
    // The open basic block's leader; it stays open across a chunk
    // boundary, so its remaining instructions land in the next chunk
    // under the same leader.
    let mut open: Option<u64> = None;
    for chunk in records {
        let mut count = 0;
        for i in chunk {
            let leader = *open.get_or_insert(i.pc().word_index());
            count += 1;
            if i.branch_exec().is_some() {
                runs.push((leader, count));
                open = None;
                count = 0;
            }
        }
        if let Some(leader) = open.filter(|_| count > 0) {
            runs.push((leader, count));
        }
        runs.sort_unstable_by_key(|&(leader, _)| leader);
        // Merge each leader's runs into its first, keeping that one.
        runs.dedup_by(|(leader, count), (kept, total)| {
            let same = leader == kept;
            if same {
                *total += *count;
            }
            same
        });
        // A fingerprint lives as long as the trace: copy it out at its
        // exact size and keep the run buffer for the next chunk.
        chunks.push(ChunkFingerprint {
            blocks: runs.to_vec(),
        });
        runs.clear();
    }
    TraceFingerprint { chunks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass};

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
        let fp = fingerprint_trace(&trace);
        let per_chunk: Vec<u64> = fp.chunks.iter().map(|c| c.instructions()).collect();
        assert_eq!(per_chunk, [4096, 4096, 1808]);
        // The loop has one leader (word 0) once running; the very first
        // chunk may also start there, so every chunk has exactly 1 block.
        for chunk in &fp.chunks {
            assert_eq!(chunk.block_count(), 1);
            assert_eq!(chunk.blocks[0].0, 0);
        }
    }

    #[test]
    fn blocks_straddling_chunks_keep_their_leader() {
        // 4097 straight-line instructions, no branches: one giant block
        // whose leader is word 0; the second chunk's single entry must
        // still be keyed by leader 0, not by the chunk's first PC.
        let trace: VecTrace = (0..4097)
            .map(|i| DynInstr::op(Addr::from_word_index(i), InstrClass::Integer))
            .collect();
        let fp = fingerprint_trace(&trace);
        assert_eq!(fp.chunks.len(), 2);
        assert_eq!(fp.chunks[0].blocks, vec![(0, 4096)]);
        assert_eq!(fp.chunks[1].blocks, vec![(0, 1)]);
    }
}
