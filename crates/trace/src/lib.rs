//! `sim-trace`: the compact on-disk trace format (`.strc`), streaming
//! reader/writer, and the content-addressed trace store.
//!
//! The reproduction's workloads are deterministic generators, so every
//! run used to pay full price regenerating identical traces. This crate
//! turns a trace into an artifact: [`TraceWriter`] packs `DynInstr`
//! records into delta-encoded, varint-packed, checksummed chunks behind
//! a self-describing header; [`TraceReader`] reads them back; and
//! [`TraceStore`] caches one file per `(benchmark, scale, seed,
//! generator-version)` key so the whole campaign records each trace
//! once and replays it everywhere else. The `trace-pack` binary
//! inspects, validates, and micro-benchmarks `.strc` files.
//!
//! [`TraceReader`] is a cursor over chunks. Each step reads one frame,
//! verifies the payload's checksum, and decodes the whole payload (up to
//! [`CHUNK_RECORDS`] records) in one call to `CodecState::decode_chunk`,
//! the only record decoder. Its consumers are views of that one cursor:
//! [`TraceReader::read_to_end`] appends every chunk to one trace,
//! [`TraceReader::next_chunk`] hands out one decoded chunk at a time
//! (the store's read-back verify compares each with the generated trace
//! and never holds a second copy), and the `Iterator` yields
//! `Result<DynInstr, TraceError>` records out of a reused chunk buffer.
//!
//! Corruption is loud by construction: every chunk carries its length
//! and an FNV-1a-64 checksum, the header checksums itself, a clean
//! end-of-file with fewer records than the header declares is a typed
//! [`TraceError::Truncated`] — which is how injected
//! `REPRO_FAULTS=truncate-store:…` faults surface as retryable errors
//! instead of silently degraded results — and any byte after the last
//! declared record is a [`TraceError::CorruptChunk`].
//!
//! A file holds records and nothing derived from them. The per-chunk
//! basic-block vectors that phase sampling clusters are computed from
//! an in-memory trace by [`fingerprint_trace`], only when a phase map
//! has to be built.
//!
//! # Example
//!
//! ```
//! use sim_isa::{Addr, DynInstr, InstrClass, VecTrace};
//! use sim_trace::{encode_to_vec, TraceMeta, TraceReader};
//!
//! let trace: VecTrace = (0..100)
//!     .map(|i| DynInstr::op(Addr::from_word_index(i), InstrClass::Integer))
//!     .collect();
//! let meta = TraceMeta {
//!     benchmark: "example".into(),
//!     scale: "quick".into(),
//!     seed: 42,
//!     generator_version: 1,
//! };
//! let bytes = encode_to_vec(meta, &trace).unwrap();
//! let reader = TraceReader::new(bytes.as_slice()).unwrap();
//! assert_eq!(reader.header().instructions, 100);
//! let decoded = reader.read_to_end().unwrap();
//! assert_eq!(decoded, trace);
//! ```

#![warn(missing_docs)]

pub mod bbv;
pub mod format;
pub mod reader;
pub mod store;
pub mod varint;
pub mod writer;

pub use bbv::{fingerprint_trace, ChunkFingerprint, TraceFingerprint};
pub use format::{
    StatsSummary, TraceError, TraceHeader, TraceMeta, CHUNK_RECORDS, FORMAT_VERSION, MAGIC,
};
pub use reader::{read_trace_file, TraceReader};
pub use store::{StoreError, StoreMode, StoreOutcome, TraceKey, TraceStore};
pub use writer::{encode_to_vec, write_trace, TraceWriter, WriteSummary};
