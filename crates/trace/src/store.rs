//! Content-addressed trace store: record-on-miss, replay-on-hit.
//!
//! Traces are deterministic functions of `(benchmark, scale, seed,
//! generator version)` — the [`TraceKey`]. The store maps each key to
//! one `.strc` file under its directory (default `results/traces/`),
//! so a trace is generated at most once per configuration and every
//! later run replays it from disk.
//!
//! Writes are crash- and concurrency-safe: the encoded bytes go to a
//! uniquely named staging file (same directory, process-unique suffix)
//! which is fsynced and atomically renamed into place — the same
//! discipline as `sim_telemetry::atomic_write`, but with per-process
//! staging names so two recorders racing on one key cannot tear each
//! other's half-written bytes; the losing rename simply overwrites with
//! identical content. Every recorded file is immediately read back and
//! compared to the generated trace, so a bad write (or an injected
//! `truncate-store` fault) fails the recording attempt instead of
//! poisoning the cache.
//!
//! Within one process the record-on-miss path is additionally
//! *single-writer per key*: concurrent lookups of the same missing key
//! serialize on an in-flight table, so exactly one thread pays the
//! generation cost and every waiter replays the freshly published file
//! as a hit. (Cross-process races remain safe via the atomic-rename
//! discipline above — they just both generate.) This is what lets a
//! resident daemon share one read-mostly store across many concurrent
//! request campaigns.

use crate::bbv::BbvSection;
use crate::format::{TraceError, TraceHeader, TraceMeta, CHUNK_RECORDS};
use crate::reader::TraceReader;
use crate::writer::encode_to_vec;
use sim_isa::VecTrace;
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable selecting the store mode.
pub const MODE_ENV: &str = "REPRO_TRACE_STORE";

/// Environment variable overriding the store directory.
pub const DIR_ENV: &str = "REPRO_TRACE_STORE_DIR";

/// Default store directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "results/traces";

/// What the store is allowed to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// Bypass the store entirely: always generate, never touch disk.
    Off,
    /// Replay hits, record misses (the default).
    #[default]
    ReadWrite,
    /// Replay hits, but never write: misses generate without recording
    /// and corrupt files are reported without being deleted.
    ReadOnly,
}

impl StoreMode {
    /// The values [`StoreMode::parse`] accepts, for error messages.
    pub const ACCEPTED: &'static str = "off, rw, ro";

    /// Parses a mode name (`off` / `rw` / `ro`, case-insensitive).
    pub fn parse(value: &str) -> Result<StoreMode, String> {
        match value.to_ascii_lowercase().as_str() {
            "off" => Ok(StoreMode::Off),
            "rw" => Ok(StoreMode::ReadWrite),
            "ro" => Ok(StoreMode::ReadOnly),
            _ => Err(format!(
                "unrecognized {MODE_ENV} value {value:?}; accepted values: {}",
                StoreMode::ACCEPTED
            )),
        }
    }

    /// Reads the mode from [`MODE_ENV`], defaulting to read-write when
    /// unset or empty. A typo is an error, not a silent default — the
    /// same contract as every other `REPRO_*` knob.
    pub fn from_env() -> Result<StoreMode, String> {
        match std::env::var(MODE_ENV) {
            Ok(v) if v.is_empty() => Ok(StoreMode::ReadWrite),
            Ok(v) => StoreMode::parse(&v),
            Err(_) => Ok(StoreMode::ReadWrite),
        }
    }

    /// The mode's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            StoreMode::Off => "off",
            StoreMode::ReadWrite => "rw",
            StoreMode::ReadOnly => "ro",
        }
    }
}

/// The content address of one trace: everything its bytes are a
/// deterministic function of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceKey {
    /// Benchmark name.
    pub benchmark: String,
    /// Scale label (part of the name for provenance; the budget is what
    /// determines content).
    pub scale: String,
    /// Instruction budget the generator was given.
    pub budget: u64,
    /// Generator seed.
    pub seed: u64,
    /// Workload generator version.
    pub generator_version: u16,
}

impl TraceKey {
    /// The store file name for this key. Every key component is in the
    /// name, so distinct configurations can never collide.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-b{}-s{:016x}-g{}.strc",
            self.benchmark, self.scale, self.budget, self.seed, self.generator_version
        )
    }

    /// The header provenance a trace recorded under this key carries.
    pub fn meta(&self) -> TraceMeta {
        TraceMeta {
            benchmark: self.benchmark.clone(),
            scale: self.scale.clone(),
            seed: self.seed,
            generator_version: self.generator_version,
        }
    }

    /// Checks a decoded header against this key (defense against a
    /// renamed or mislabeled file).
    fn check_header(&self, h: &TraceHeader) -> Result<(), String> {
        if h.meta != self.meta() {
            return Err(format!(
                "header provenance {:?} does not match key {:?}",
                h.meta,
                self.meta()
            ));
        }
        if h.instructions != self.budget {
            return Err(format!(
                "header has {} instructions, key expects {}",
                h.instructions, self.budget
            ));
        }
        Ok(())
    }
}

/// What one store lookup did, with enough accounting for telemetry.
#[derive(Debug)]
pub struct StoreOutcome {
    /// The trace, whether replayed or generated.
    pub trace: VecTrace,
    /// Whether the trace was replayed from an existing store file.
    pub hit: bool,
    /// Whether a new store file was recorded.
    pub recorded: bool,
    /// Bytes of the `.strc` file involved (0 when the store is off or a
    /// read-only miss generated without recording).
    pub bytes: u64,
    /// Wall time of the decode (the hit replay, or the record path's
    /// read-back verification), in nanoseconds. 0 when nothing decoded.
    pub decode_ns: u64,
    /// The trace's BBV side-section, when the store file carries one
    /// (every store-recorded trace does; `None` when the store is off
    /// or a read-only miss generated without recording). Already
    /// validated against the header by the reader, so phase sampling
    /// can cluster these fingerprints without recomputing them.
    pub bbv: Option<BbvSection>,
}

/// A failed store interaction.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble reading or writing a store path.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A store file failed decoding, header validation, or read-back
    /// comparison.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Why it was rejected.
        reason: String,
        /// Whether the store deleted it (read-write mode), so a retry
        /// will regenerate instead of failing on the same bytes.
        removed: bool,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "trace store i/o on {}: {source}", path.display())
            }
            StoreError::Corrupt {
                path,
                reason,
                removed,
            } => write!(
                f,
                "corrupt trace {}: {reason}{}",
                path.display(),
                if *removed {
                    " (removed; a retry will regenerate it)"
                } else {
                    ""
                }
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// The store itself: a directory plus a [`StoreMode`].
#[derive(Clone, Debug)]
pub struct TraceStore {
    dir: PathBuf,
    mode: StoreMode,
}

static STAGE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Process-wide table of store files currently being recorded, keyed by
/// the destination path. A thread missing on a key that is already
/// in flight waits here instead of generating a duplicate trace.
fn inflight() -> &'static (Mutex<HashSet<PathBuf>>, Condvar) {
    static INFLIGHT: OnceLock<(Mutex<HashSet<PathBuf>>, Condvar)> = OnceLock::new();
    INFLIGHT.get_or_init(|| (Mutex::new(HashSet::new()), Condvar::new()))
}

/// RAII claim on a key's record-on-miss slot: inserted on acquire,
/// removed (with waiters notified) on drop — panic-safe, so a
/// generator that panics under `catch_unwind` releases the key.
struct InflightClaim {
    path: PathBuf,
}

impl InflightClaim {
    /// Blocks until `path` has no in-flight recorder, then claims it.
    fn acquire(path: &Path) -> InflightClaim {
        let (table, cv) = inflight();
        let mut held = table.lock().expect("trace store in-flight table");
        while held.contains(path) {
            held = cv.wait(held).expect("trace store in-flight table");
        }
        held.insert(path.to_path_buf());
        InflightClaim {
            path: path.to_path_buf(),
        }
    }
}

impl Drop for InflightClaim {
    fn drop(&mut self) {
        let (table, cv) = inflight();
        if let Ok(mut held) = table.lock() {
            held.remove(&self.path);
        }
        cv.notify_all();
    }
}

impl TraceStore {
    /// A store over `dir` with the given mode. Nothing touches the
    /// filesystem until a lookup does.
    pub fn new(dir: impl Into<PathBuf>, mode: StoreMode) -> Self {
        TraceStore {
            dir: dir.into(),
            mode,
        }
    }

    /// Builds the store from [`MODE_ENV`] and [`DIR_ENV`].
    ///
    /// # Errors
    ///
    /// Returns the parse error for an unrecognized mode value.
    pub fn from_env() -> Result<TraceStore, String> {
        let mode = StoreMode::from_env()?;
        let dir = match std::env::var(DIR_ENV) {
            Ok(v) if !v.is_empty() => PathBuf::from(v),
            _ => PathBuf::from(DEFAULT_DIR),
        };
        Ok(TraceStore::new(dir, mode))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store mode.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// The file a key maps to.
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Replays the trace for `key` from the store, or generates it with
    /// `generate` (recording it in read-write mode).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when an existing file fails its
    /// checksums or read-back verification — in read-write mode the
    /// file is deleted first, so retrying the same call regenerates a
    /// good one. [`StoreError::Io`] for filesystem trouble.
    pub fn load_or_record(
        &self,
        key: &TraceKey,
        generate: impl FnOnce() -> VecTrace,
    ) -> Result<StoreOutcome, StoreError> {
        self.load_or_record_with(key, generate, None)
    }

    /// [`TraceStore::load_or_record`] with an optional fault hook:
    /// `corrupt_fraction` truncates the encoded bytes to that fraction
    /// before the recording write, modeling a torn write for chaos
    /// tests (the read-back verification is expected to catch it).
    pub fn load_or_record_with(
        &self,
        key: &TraceKey,
        generate: impl FnOnce() -> VecTrace,
        corrupt_fraction: Option<f64>,
    ) -> Result<StoreOutcome, StoreError> {
        if self.mode == StoreMode::Off {
            return Ok(StoreOutcome {
                trace: generate(),
                hit: false,
                recorded: false,
                bytes: 0,
                decode_ns: 0,
                bbv: None,
            });
        }
        let path = self.path_for(key);
        if path.exists() {
            let (trace, bbv, bytes, decode_ns) = self.replay(key, &path)?;
            return Ok(StoreOutcome {
                trace,
                hit: true,
                recorded: false,
                bytes,
                decode_ns,
                bbv,
            });
        }
        if self.mode == StoreMode::ReadOnly {
            return Ok(StoreOutcome {
                trace: generate(),
                hit: false,
                recorded: false,
                bytes: 0,
                decode_ns: 0,
                bbv: None,
            });
        }
        // Read-write miss: claim the single-writer slot for this key so
        // concurrent misses serialize — one thread generates, the rest
        // wait and then replay what it published.
        let _claim = InflightClaim::acquire(&path);
        if path.exists() {
            let (trace, bbv, bytes, decode_ns) = self.replay(key, &path)?;
            return Ok(StoreOutcome {
                trace,
                hit: true,
                recorded: false,
                bytes,
                decode_ns,
                bbv,
            });
        }
        let trace = generate();
        let mut encoded = encode_to_vec(key.meta(), &trace).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        if let Some(fraction) = corrupt_fraction {
            let keep = ((encoded.len() as f64 * fraction) as usize).min(encoded.len());
            encoded.truncate(keep);
        }
        let bytes = encoded.len() as u64;
        self.write_atomic(&path, &encoded)?;
        // Read back what the filesystem now holds: verifies the write
        // end to end through the same reader a hit uses.
        let started = Instant::now();
        let bbv = self.verify(key, &path, &trace)?;
        let decode_ns = started.elapsed().as_nanos() as u64;
        Ok(StoreOutcome {
            trace,
            hit: false,
            recorded: true,
            bytes,
            decode_ns,
            bbv,
        })
    }

    /// Opens a store file and checks its header against `key` before
    /// any of the body is decoded, so a renamed or mislabeled file is
    /// rejected for the price of its header.
    fn open(
        &self,
        key: &TraceKey,
        path: &Path,
    ) -> Result<TraceReader<BufReader<File>>, StoreError> {
        let reader = TraceReader::open(path).map_err(|e| self.decode_error(path, e))?;
        key.check_header(reader.header())
            .map_err(|reason| self.reject(path, reason))?;
        Ok(reader)
    }

    /// Replays a hit: the whole body, decoded chunk by chunk into one
    /// trace.
    #[allow(clippy::type_complexity)]
    fn replay(
        &self,
        key: &TraceKey,
        path: &Path,
    ) -> Result<(VecTrace, Option<BbvSection>, u64, u64), StoreError> {
        let started = Instant::now();
        let (trace, bbv) = self
            .open(key, path)?
            .read_to_end_with_bbv()
            .map_err(|e| self.decode_error(path, e))?;
        let decode_ns = started.elapsed().as_nanos() as u64;
        let bytes = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        Ok((trace, bbv, bytes, decode_ns))
    }

    /// Read-back verification of a freshly written file: decodes it one
    /// chunk at a time and compares each chunk with the matching slice
    /// of the generated trace, so no second copy of the trace is ever
    /// held. Returns the file's BBV side-section.
    fn verify(
        &self,
        key: &TraceKey,
        path: &Path,
        trace: &VecTrace,
    ) -> Result<Option<BbvSection>, StoreError> {
        let mut reader = self.open(key, path)?;
        let expected = trace.as_slice();
        let differs = || self.reject(path, "read-back decoded a different trace".to_string());
        let mut chunk = Vec::with_capacity(CHUNK_RECORDS as usize);
        let mut at = 0;
        while reader
            .next_chunk(&mut chunk)
            .map_err(|e| self.decode_error(path, e))?
        {
            let end = at + chunk.len();
            if expected.get(at..end) != Some(chunk.as_slice()) {
                return Err(differs());
            }
            at = end;
            chunk.clear();
        }
        if at != expected.len() {
            return Err(differs());
        }
        Ok(reader.take_bbv())
    }

    /// Maps a reader error: plain I/O trouble stays an I/O error,
    /// anything wrong with the bytes rejects the file.
    fn decode_error(&self, path: &Path, e: TraceError) -> StoreError {
        match e {
            TraceError::Io(source) if source.kind() != io::ErrorKind::UnexpectedEof => {
                StoreError::Io {
                    path: path.to_path_buf(),
                    source,
                }
            }
            e => self.reject(path, e.to_string()),
        }
    }

    /// Marks `path` bad: deletes it in read-write mode so the next
    /// attempt regenerates, and reports accordingly.
    fn reject(&self, path: &Path, reason: String) -> StoreError {
        let removed = self.mode == StoreMode::ReadWrite && fs::remove_file(path).is_ok();
        StoreError::Corrupt {
            path: path.to_path_buf(),
            reason,
            removed,
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let io_err = |source: io::Error| StoreError::Io {
            path: path.to_path_buf(),
            source,
        };
        fs::create_dir_all(&self.dir).map_err(io_err)?;
        let stage = self.dir.join(format!(
            "{}.stage.{}.{}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("trace"),
            std::process::id(),
            STAGE_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let result = (|| {
            let mut f = fs::File::create(&stage)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&stage, path)
        })();
        if let Err(source) = result {
            let _ = fs::remove_file(&stage);
            return Err(io_err(source));
        }
        // Directory sync is best-effort, as in sim-telemetry's fsio: it
        // narrows the window where the rename itself is lost to a crash.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Addr, DynInstr, InstrClass};
    use std::sync::atomic::AtomicBool;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sim-trace-store-{tag}-{}-{}",
            std::process::id(),
            STAGE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key() -> TraceKey {
        TraceKey {
            benchmark: "unit".into(),
            scale: "quick".into(),
            budget: 64,
            seed: 7,
            generator_version: 1,
        }
    }

    fn make_trace(n: u64) -> VecTrace {
        (0..n)
            .map(|i| DynInstr::op(Addr::from_word_index(i), InstrClass::Integer))
            .collect()
    }

    #[test]
    fn miss_records_then_hit_replays_without_generating() {
        let dir = scratch("hit");
        let store = TraceStore::new(&dir, StoreMode::ReadWrite);
        let first = store.load_or_record(&key(), || make_trace(64)).unwrap();
        assert!(!first.hit);
        assert!(first.recorded);
        assert!(first.bytes > 0);
        let generated = AtomicBool::new(false);
        let second = store
            .load_or_record(&key(), || {
                generated.store(true, Ordering::Relaxed);
                make_trace(64)
            })
            .unwrap();
        assert!(second.hit);
        assert!(!generated.load(Ordering::Relaxed), "hit must not generate");
        assert_eq!(second.trace, first.trace);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_and_hit_both_carry_the_bbv_side_section() {
        // Phase sampling clusters the store-borne fingerprints instead
        // of re-walking the trace, so both the record path and the hit
        // path must hand back exactly what record-time fingerprinting
        // produced.
        let dir = scratch("bbv");
        let store = TraceStore::new(&dir, StoreMode::ReadWrite);
        let expected = crate::fingerprint_trace(&make_trace(64));
        let first = store.load_or_record(&key(), || make_trace(64)).unwrap();
        assert_eq!(first.bbv.as_ref(), Some(&expected));
        let second = store.load_or_record(&key(), || make_trace(64)).unwrap();
        assert!(second.hit);
        assert_eq!(second.bbv.as_ref(), Some(&expected));
        let off = TraceStore::new(dir.join("off"), StoreMode::Off);
        assert!(off
            .load_or_record(&key(), || make_trace(64))
            .unwrap()
            .bbv
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_mode_never_touches_disk() {
        let dir = scratch("off");
        let store = TraceStore::new(dir.join("sub"), StoreMode::Off);
        let out = store.load_or_record(&key(), || make_trace(64)).unwrap();
        assert!(!out.hit && !out.recorded);
        assert!(!store.dir().exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_mode_replays_but_never_records() {
        let dir = scratch("ro");
        let rw = TraceStore::new(&dir, StoreMode::ReadWrite);
        rw.load_or_record(&key(), || make_trace(64)).unwrap();
        let ro = TraceStore::new(&dir, StoreMode::ReadOnly);
        assert!(ro.load_or_record(&key(), || make_trace(64)).unwrap().hit);
        let mut other = key();
        other.seed = 99;
        let miss = ro.load_or_record(&other, || make_trace(64)).unwrap();
        assert!(!miss.hit && !miss.recorded);
        assert!(!ro.path_for(&other).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_rejected_removed_and_healed_on_retry() {
        let dir = scratch("corrupt");
        let store = TraceStore::new(&dir, StoreMode::ReadWrite);
        let good = store.load_or_record(&key(), || make_trace(64)).unwrap();
        let path = store.path_for(&key());
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = store.load_or_record(&key(), || make_trace(64)).unwrap_err();
        match err {
            StoreError::Corrupt { removed, .. } => assert!(removed),
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(!path.exists(), "corrupt file must be deleted");
        let healed = store.load_or_record(&key(), || make_trace(64)).unwrap();
        assert!(healed.recorded);
        assert_eq!(healed.trace, good.trace);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_mode_reports_corruption_without_deleting() {
        let dir = scratch("ro-corrupt");
        TraceStore::new(&dir, StoreMode::ReadWrite)
            .load_or_record(&key(), || make_trace(64))
            .unwrap();
        let path = TraceStore::new(&dir, StoreMode::ReadOnly).path_for(&key());
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        let err = TraceStore::new(&dir, StoreMode::ReadOnly)
            .load_or_record(&key(), || make_trace(64))
            .unwrap_err();
        match err {
            StoreError::Corrupt { removed, .. } => assert!(!removed),
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(path.exists(), "read-only mode must not delete");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_truncation_fails_the_recording_attempt_then_heals() {
        let dir = scratch("fault");
        let store = TraceStore::new(&dir, StoreMode::ReadWrite);
        let err = store
            .load_or_record_with(&key(), || make_trace(64), Some(0.5))
            .unwrap_err();
        match err {
            StoreError::Corrupt { removed, .. } => assert!(removed),
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(!store.path_for(&key()).exists());
        let retry = store.load_or_record(&key(), || make_trace(64)).unwrap();
        assert!(retry.recorded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mislabeled_file_is_rejected() {
        let dir = scratch("mislabel");
        let store = TraceStore::new(&dir, StoreMode::ReadWrite);
        store.load_or_record(&key(), || make_trace(64)).unwrap();
        let mut other = key();
        other.seed = 99;
        fs::rename(store.path_for(&key()), store.path_for(&other)).unwrap();
        // The header is checked before the body is decoded: a damaged
        // body would otherwise be what the error names.
        let mut bytes = fs::read(store.path_for(&other)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(store.path_for(&other), &bytes).unwrap();
        let err = store.load_or_record(&other, || make_trace(64)).unwrap_err();
        assert!(err.to_string().contains("provenance"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_misses_generate_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Arc, Barrier};

        let dir = scratch("single-writer");
        let store = TraceStore::new(&dir, StoreMode::ReadWrite);
        let generations = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = store.clone();
                let generations = Arc::clone(&generations);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    store
                        .load_or_record(&key(), || {
                            generations.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: without the
                            // in-flight claim, several threads would be
                            // in here at once.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            make_trace(64)
                        })
                        .unwrap()
                })
            })
            .collect();
        let outcomes: Vec<StoreOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            generations.load(Ordering::SeqCst),
            1,
            "exactly one thread must pay the generation cost"
        );
        assert_eq!(outcomes.iter().filter(|o| o.recorded).count(), 1);
        assert_eq!(outcomes.iter().filter(|o| o.hit).count(), 7);
        let first = &outcomes[0].trace;
        assert!(outcomes.iter().all(|o| o.trace == *first));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mode_parsing_is_strict() {
        assert_eq!(StoreMode::parse("rw").unwrap(), StoreMode::ReadWrite);
        assert_eq!(StoreMode::parse("RO").unwrap(), StoreMode::ReadOnly);
        assert_eq!(StoreMode::parse("off").unwrap(), StoreMode::Off);
        let err = StoreMode::parse("banana").unwrap_err();
        assert!(err.contains(MODE_ENV), "{err}");
    }
}
