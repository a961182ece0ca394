//! Streaming `.strc` writer.

use crate::format::fnv64;
use crate::format::{CodecState, TraceHeader, TraceMeta, CHUNK_RECORDS, MAGIC};
use sim_isa::{DynInstr, TraceStats, VecTrace};
use std::io::{self, Write};

/// What a completed write produced, for logs and store accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteSummary {
    /// Instructions written (equal to the header's declared count).
    pub instructions: u64,
    /// Total bytes of the encoded stream, header included.
    pub bytes: u64,
    /// Number of chunks emitted.
    pub chunks: u64,
}

/// Streaming encoder: header up front, then records pushed one at a
/// time, flushed as checksummed chunks.
///
/// The header carries the trace statistics, so they must be known
/// before writing begins; workload generation materializes a
/// [`VecTrace`] anyway, making a stats-first pass free. [`finish`]
/// fails if the number of pushed records disagrees with the header —
/// a half-written trace must not look complete.
///
/// [`finish`]: TraceWriter::finish
pub struct TraceWriter<W: Write> {
    sink: W,
    codec: CodecState,
    buf: Vec<u8>,
    records_in_chunk: u32,
    expected: u64,
    written: u64,
    bytes: u64,
    chunks: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace: writes the magic and header for a trace with the
    /// given provenance and statistics.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors; rejects meta strings longer than the
    /// format's 255-byte length prefix.
    pub fn new(mut sink: W, meta: TraceMeta, stats: &TraceStats) -> io::Result<Self> {
        let header = TraceHeader::new(meta, stats).encode()?;
        sink.write_all(MAGIC)?;
        sink.write_all(&header)?;
        Ok(TraceWriter {
            sink,
            codec: CodecState::default(),
            buf: Vec::with_capacity(CHUNK_RECORDS as usize * 8),
            records_in_chunk: 0,
            expected: stats.instructions(),
            written: 0,
            bytes: (MAGIC.len() + header.len()) as u64,
            chunks: 0,
        })
    }

    /// Appends one instruction.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors; rejects pushes past the instruction
    /// count declared in the header.
    pub fn push(&mut self, i: &DynInstr) -> io::Result<()> {
        if self.written == self.expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace header declares {} instructions", self.expected),
            ));
        }
        self.codec.encode(&mut self.buf, i);
        self.written += 1;
        self.records_in_chunk += 1;
        if self.records_in_chunk == CHUNK_RECORDS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.records_in_chunk == 0 {
            return Ok(());
        }
        self.sink.write_all(&self.records_in_chunk.to_le_bytes())?;
        self.sink
            .write_all(&(self.buf.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.buf)?;
        self.sink.write_all(&fnv64(&self.buf).to_le_bytes())?;
        self.bytes += 16 + self.buf.len() as u64;
        self.chunks += 1;
        self.buf.clear();
        self.records_in_chunk = 0;
        Ok(())
    }

    /// Flushes the final chunk and the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors; fails with `InvalidData` when fewer
    /// instructions were pushed than the header declares.
    pub fn finish(mut self) -> io::Result<WriteSummary> {
        self.flush_chunk()?;
        if self.written != self.expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace header declares {} instructions but {} were written",
                    self.expected, self.written
                ),
            ));
        }
        self.sink.flush()?;
        Ok(WriteSummary {
            instructions: self.written,
            bytes: self.bytes,
            chunks: self.chunks,
        })
    }
}

/// Encodes a whole in-memory trace to `sink` (stats computed here).
///
/// # Errors
///
/// Propagates sink I/O errors and over-long meta strings.
pub fn write_trace<W: Write>(
    sink: W,
    meta: TraceMeta,
    trace: &VecTrace,
) -> io::Result<WriteSummary> {
    let stats = trace.stats();
    let mut w = TraceWriter::new(sink, meta, &stats)?;
    for i in trace.iter() {
        w.push(i)?;
    }
    w.finish()
}

/// Encodes a whole in-memory trace into a byte vector.
///
/// # Errors
///
/// Fails only on over-long meta strings (a `Vec` sink cannot fail).
pub fn encode_to_vec(meta: TraceMeta, trace: &VecTrace) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(trace.len() * 4 + 256);
    write_trace(&mut out, meta, trace)?;
    Ok(out)
}
