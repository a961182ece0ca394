//! Streaming `.strc` reader.

use crate::bbv::{BbvSection, BBV_MAGIC};
use crate::format::{
    fnv64, CodecState, TraceError, TraceHeader, CHUNK_RECORDS, MAGIC, MAX_CHUNK_PAYLOAD,
};
use sim_isa::{DynInstr, VecTrace};
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

/// Streaming decoder: validates the magic and header on open, then
/// walks the file a chunk at a time. Each chunk's checksum is verified
/// before the chunk decoder turns its whole payload into records.
///
/// The chunk cursor has three consumers:
/// * [`read_to_end`](TraceReader::read_to_end) appends every chunk to
///   one output trace;
/// * [`next_chunk`](TraceReader::next_chunk) hands the caller one
///   decoded chunk at a time (the trace store's read-back verify
///   compares each against the generated trace, `trace-pack verify`
///   fingerprints each);
/// * the `Iterator` impl yields records one at a time out of a reused
///   chunk buffer, so a record is yielded only once its whole chunk
///   has decoded.
///
/// Iteration yields `Result<DynInstr, TraceError>`; after the first
/// error the reader is exhausted (further `next` calls return `None`,
/// further `next_chunk` calls `Ok(false)`). A clean end-of-stream with
/// fewer records than the header declares is itself an error
/// ([`TraceError::Truncated`]), so a file cut at a chunk boundary cannot
/// pass for complete.
pub struct TraceReader<R: Read> {
    src: R,
    header: TraceHeader,
    codec: CodecState,
    payload: Vec<u8>,
    chunk_index: u64,
    decoded: u64,
    /// Input bytes not yet consumed, when the source's length is known.
    unread: Option<u64>,
    bbv: Option<BbvSection>,
    /// The iterator's current chunk and the index of its next record.
    chunk: Vec<DynInstr>,
    next: usize,
    state: State,
}

#[derive(PartialEq, Eq)]
enum State {
    Reading,
    Done,
    Failed,
}

impl<R: Read> TraceReader<R> {
    /// Opens a stream: reads and validates the magic and header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, wrong magic, an unsupported format version,
    /// or a header that is malformed or fails its checksum.
    pub fn new(src: R) -> Result<Self, TraceError> {
        TraceReader::with_len(src, None)
    }

    /// [`TraceReader::new`] over a source of `len` bytes, when known.
    fn with_len(mut src: R, len: Option<u64>) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        src.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        // The header has no stored length; re-encoding after a field-wise
        // parse would couple reader to writer. Instead read the fixed
        // prefix, then the variable strings, then the fixed tail — and
        // let `TraceHeader::decode` do the real validation on the exact
        // byte range.
        let mut head = vec![0u8; 5];
        src.read_exact(&mut head)
            .map_err(|e| header_eof(e, "fixed prefix"))?;
        let bench_len = head[4] as usize;
        let mut rest = vec![0u8; bench_len + 1];
        src.read_exact(&mut rest)
            .map_err(|e| header_eof(e, "benchmark name"))?;
        let scale_len = *rest.last().expect("read at least one byte") as usize;
        head.extend_from_slice(&rest);
        // scale bytes + seed + instructions + 8 class + 6 branch counts
        // + taken-conditional + static-sites + checksum.
        let mut tail = vec![0u8; scale_len + 8 + 8 + 8 * 8 + 6 * 8 + 8 + 8 + 8];
        src.read_exact(&mut tail)
            .map_err(|e| header_eof(e, "counters"))?;
        head.extend_from_slice(&tail);
        let header = TraceHeader::decode(&head)?;
        Ok(TraceReader {
            src,
            header,
            codec: CodecState::default(),
            payload: Vec::new(),
            chunk_index: 0,
            decoded: 0,
            unread: len.map(|len| len.saturating_sub((MAGIC.len() + head.len()) as u64)),
            bbv: None,
            chunk: Vec::new(),
            next: 0,
            state: State::Reading,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Instructions decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// The BBV side-section, if the stream carried one. Populated only
    /// once the stream has been consumed to its clean end (the section
    /// sits after the last chunk).
    pub fn bbv(&self) -> Option<&BbvSection> {
        self.bbv.as_ref()
    }

    /// Takes ownership of the decoded BBV side-section, if any.
    pub fn take_bbv(&mut self) -> Option<BbvSection> {
        self.bbv.take()
    }

    /// Decodes the next chunk, appending its records to `out`.
    /// `Ok(false)` means the stream has ended: cleanly, with every
    /// declared record decoded (and the BBV side-section, if any,
    /// read), or after an earlier error. On error `out` is unchanged.
    ///
    /// Records the `Iterator` has buffered but not yet yielded are not
    /// part of what this returns; use one consumer per reader.
    ///
    /// # Errors
    ///
    /// A malformed or cut-short frame, a checksum mismatch, a bad
    /// record, or a clean end before the header's instruction count.
    pub fn next_chunk(&mut self, out: &mut Vec<DynInstr>) -> Result<bool, TraceError> {
        if self.state != State::Reading {
            return Ok(false);
        }
        match self.read_chunk(out) {
            Ok(true) => Ok(true),
            Ok(false) => {
                self.state = State::Done;
                Ok(false)
            }
            Err(e) => {
                self.state = State::Failed;
                Err(e)
            }
        }
    }

    fn read_chunk(&mut self, out: &mut Vec<DynInstr>) -> Result<bool, TraceError> {
        let chunk = self.chunk_index;
        let corrupt = |reason: String| TraceError::CorruptChunk { chunk, reason };
        let mut frame = [0u8; 8];
        match read_exact_or_eof(&mut self.src, &mut frame)? {
            ReadOutcome::Eof => {
                if self.decoded != self.header.instructions {
                    return Err(TraceError::Truncated {
                        expected: self.header.instructions,
                        actual: self.decoded,
                    });
                }
                return Ok(false);
            }
            ReadOutcome::Partial => {
                return Err(corrupt("file ends inside a chunk frame".to_string()))
            }
            ReadOutcome::Full => {}
        }
        // After the final record chunk the stream may carry the optional
        // BBV side-section; its magic is frame-width by design so the
        // "next chunk or end of stream?" read also recognizes it. A
        // pre-section trace hits clean EOF above instead.
        if &frame == BBV_MAGIC && self.decoded == self.header.instructions {
            let bbv = |reason: String| TraceError::CorruptChunk {
                chunk,
                reason: format!("bbv section: {reason}"),
            };
            let section = BbvSection::read_body(&mut self.src)
                .map_err(TraceError::Io)?
                .map_err(&bbv)?;
            section.validate(self.header.instructions).map_err(&bbv)?;
            let mut trailing = [0u8; 1];
            match read_exact_or_eof(&mut self.src, &mut trailing)? {
                ReadOutcome::Eof => {}
                _ => return Err(bbv("trailing bytes after the section".to_string())),
            }
            self.bbv = Some(section);
            return Ok(false);
        }
        let records = u32::from_le_bytes(frame[..4].try_into().expect("4-byte field"));
        let length = u32::from_le_bytes(frame[4..].try_into().expect("4-byte field"));
        if records == 0 || records > CHUNK_RECORDS {
            return Err(corrupt(format!("record count {records} out of range")));
        }
        if length > MAX_CHUNK_PAYLOAD {
            return Err(corrupt(format!("payload length {length} out of range")));
        }
        if self.decoded + u64::from(records) > self.header.instructions {
            return Err(corrupt(format!(
                "chunk overruns the header's {} instructions",
                self.header.instructions
            )));
        }
        self.payload.resize(length as usize, 0);
        self.src.read_exact(&mut self.payload).map_err(|e| {
            eof_as(e, || {
                corrupt("file ends inside a chunk payload".to_string())
            })
        })?;
        let mut sum = [0u8; 8];
        self.src.read_exact(&mut sum).map_err(|e| {
            eof_as(e, || {
                corrupt("file ends inside a chunk checksum".to_string())
            })
        })?;
        let expected = u64::from_le_bytes(sum);
        let actual = fnv64(&self.payload);
        if expected != actual {
            return Err(TraceError::Checksum {
                chunk,
                expected,
                actual,
            });
        }
        self.codec
            .decode_chunk(&self.payload, records, out)
            .map_err(|reason| TraceError::BadRecord { chunk, reason })?;
        self.chunk_index += 1;
        self.decoded += u64::from(records);
        if let Some(unread) = &mut self.unread {
            *unread = unread.saturating_sub(16 + u64::from(length));
        }
        Ok(true)
    }

    /// Decodes the remainder of the stream into a [`VecTrace`].
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the chunk cursor would return.
    pub fn read_to_end(self) -> Result<VecTrace, TraceError> {
        self.read_to_end_with_bbv().map(|(trace, _)| trace)
    }

    /// [`read_to_end`], also returning the BBV side-section when the
    /// stream carries one (`None` for pre-section traces).
    ///
    /// The output is reserved up front only as far as the input can
    /// back it: every record takes at least two bytes, so a header that
    /// declares more records than the remaining bytes could hold never
    /// turns into a huge allocation, and a source of unknown length
    /// grows the output chunk by chunk.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the chunk cursor would return.
    ///
    /// [`read_to_end`]: TraceReader::read_to_end
    pub fn read_to_end_with_bbv(mut self) -> Result<(VecTrace, Option<BbvSection>), TraceError> {
        let buffered = &self.chunk[self.next..];
        let declared = self.header.instructions - self.decoded;
        let backed = self.unread.map_or(0, |bytes| declared.min(bytes / 2));
        let mut records = Vec::with_capacity(buffered.len() + backed as usize);
        records.extend_from_slice(buffered);
        while self.next_chunk(&mut records)? {}
        Ok((VecTrace::from_iter(records), self.bbv))
    }
}

impl TraceReader<BufReader<File>> {
    /// Opens a `.strc` file. The file's length bounds what
    /// [`read_to_end`](TraceReader::read_to_end) reserves, so a valid
    /// file's trace is allocated once at its exact size.
    pub(crate) fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        TraceReader::with_len(BufReader::new(file), Some(len))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<DynInstr, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.chunk.len() {
            let mut chunk = std::mem::take(&mut self.chunk);
            chunk.clear();
            self.next = 0;
            let more = self.next_chunk(&mut chunk);
            self.chunk = chunk;
            match more {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        let record = self.chunk[self.next];
        self.next += 1;
        Some(Ok(record))
    }
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// `read_exact`, but distinguishing "no bytes at all" (clean EOF) from
/// "some but not all" (truncation).
fn read_exact_or_eof<R: Read>(src: &mut R, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

fn eof_as(e: io::Error, mk: impl FnOnce() -> TraceError) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        mk()
    } else {
        TraceError::Io(e)
    }
}

fn header_eof(e: io::Error, what: &str) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::CorruptHeader(format!("file ends inside the header ({what})"))
    } else {
        TraceError::Io(e)
    }
}

/// Opens, fully decodes, and closes a `.strc` file.
///
/// # Errors
///
/// Any [`TraceError`]; plain I/O failures (missing file, permissions)
/// surface as [`TraceError::Io`].
pub fn read_trace_file(path: &Path) -> Result<(TraceHeader, VecTrace), TraceError> {
    let reader = TraceReader::open(path)?;
    let header = reader.header().clone();
    let trace = reader.read_to_end()?;
    Ok((header, trace))
}

/// [`read_trace_file`], also returning the BBV side-section when the
/// file carries one.
///
/// # Errors
///
/// Any [`TraceError`]; plain I/O failures surface as [`TraceError::Io`].
pub fn read_trace_file_with_bbv(
    path: &Path,
) -> Result<(TraceHeader, VecTrace, Option<BbvSection>), TraceError> {
    let reader = TraceReader::open(path)?;
    let header = reader.header().clone();
    let (trace, bbv) = reader.read_to_end_with_bbv()?;
    Ok((header, trace, bbv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{StatsSummary, TraceMeta, FORMAT_VERSION};

    /// A checksum-valid file whose header declares `instructions`
    /// records (all integer ops) and which holds no chunks at all.
    fn header_only(instructions: u64) -> Vec<u8> {
        let mut summary = StatsSummary::default();
        summary.class_counts[0] = instructions;
        let header = TraceHeader {
            format_version: FORMAT_VERSION,
            meta: TraceMeta {
                benchmark: "huge".into(),
                scale: "quick".into(),
                seed: 1,
                generator_version: 1,
            },
            instructions,
            summary,
        };
        let mut bytes = MAGIC.to_vec();
        bytes.extend(header.encode().unwrap());
        bytes
    }

    #[test]
    fn a_header_declaring_more_than_the_input_holds_is_truncated_not_an_abort() {
        // 2^36 records would be a 1.6 TB reservation: the allocator would
        // abort the process, which no `catch_unwind` can contain.
        let bytes = header_only(1 << 36);
        let err = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_to_end()
            .unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated { expected, actual: 0 } if expected == 1 << 36),
            "{err}"
        );
        // The file path knows its length and bounds the reservation by it.
        let path = std::env::temp_dir().join(format!("huge-header-{}.strc", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let err = read_trace_file(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(err, TraceError::Truncated { expected, actual: 0 } if expected == 1 << 36),
            "{err}"
        );
    }
}
