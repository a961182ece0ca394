//! trace-pack: inspect, validate, and micro-benchmark `.strc` traces.
//!
//! ```text
//! trace-pack record --bench <name> [--budget N] [--seed N] [--scale LABEL] --out <path>
//! trace-pack info   <file>... [--chunks]
//! trace-pack verify <file|dir>...
//! trace-pack cat    <file> [--limit N]
//! trace-pack bench  <file> [--iters N]
//! ```
//!
//! Exit status: `0` on success, `1` when `verify` finds a bad file,
//! `2` on a usage error.

use sim_isa::{BranchClass, TraceStats};
use sim_trace::bbv::BbvSection;
use sim_trace::{
    encode_to_vec, FingerprintBuilder, StatsSummary, TraceError, TraceReader, BBV_MAGIC,
    CHUNK_RECORDS,
};
use sim_workloads::{Benchmark, OoBenchmark};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

const USAGE: &str = "\
usage: trace-pack <COMMAND> [ARGS]

commands:
  record --bench <name> [--budget N] [--seed N] [--scale LABEL] --out <path>
        generate a workload trace (a SPECint95 model, or the OO
        benchmarks ixx and deltablue) and write it as .strc
        (--out may be a directory: the store file name is used)
  info <file>... [--chunks]
        print each file's header, size, bytes/instruction, per-class
        branch counts and the targets-per-site histogram of its
        indirect jumps; --chunks adds a per-chunk table (record count,
        payload bytes, checksum, BBV fingerprint presence)
  verify <file|dir>...
        fully decode each .strc file (directories are scanned for
        *.strc), checking chunk checksums, record validity, the
        header's statistics summary, and — when a BBV side-section is
        present — that its fingerprints match the decoded records;
        exit 1 if any file fails
  cat <file> [--limit N]
        print decoded records (default limit 20; 0 = all)
  bench <file> [--iters N]
        measure decode and encode throughput on one file

exit status: 0 ok, 1 verification failure, 2 usage error
";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("run trace-pack --help for usage");
    exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        exit(0);
    }
    if args.is_empty() {
        usage_error("missing command: record, info, verify, cat, bench");
    }
    let command = args.remove(0);
    match command.as_str() {
        "record" => record(&args),
        "info" => info(&args),
        "verify" => verify(&args),
        "cat" => cat(&args),
        "bench" => bench(&args),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| match args.get(i + 1) {
            Some(v) => v.clone(),
            None => usage_error(&format!("{flag} wants a value")),
        })
}

fn parse_number(flag: &str, value: &str) -> u64 {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} wants a number, got {value:?}")))
}

fn positional(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        out.push(a.clone());
    }
    out
}

fn record(args: &[String]) {
    let bench_name =
        flag_value(args, "--bench").unwrap_or_else(|| usage_error("record wants --bench <name>"));
    let out = flag_value(args, "--out").unwrap_or_else(|| usage_error("record wants --out <path>"));
    let workload = Benchmark::from_name(&bench_name)
        .map(Benchmark::workload)
        .or_else(|| {
            let oo = OoBenchmark::ALL
                .into_iter()
                .find(|b| b.name() == bench_name);
            oo.map(OoBenchmark::workload)
        })
        .unwrap_or_else(|| {
            let spec = Benchmark::ALL.map(Benchmark::name);
            let oo = OoBenchmark::ALL.map(OoBenchmark::name);
            usage_error(&format!(
                "unknown benchmark {bench_name:?}; accepted: {}, {}",
                spec.join(", "),
                oo.join(", ")
            ))
        });
    let budget = flag_value(args, "--budget")
        .map(|v| parse_number("--budget", &v))
        .unwrap_or(workload.default_budget() as u64);
    let seed = flag_value(args, "--seed")
        .map(|v| parse_number("--seed", &v))
        .unwrap_or(workload.seed());
    let scale = flag_value(args, "--scale").unwrap_or_else(|| "adhoc".to_string());
    let key = sim_trace::TraceKey {
        benchmark: bench_name,
        scale,
        budget,
        seed,
        generator_version: sim_workloads::GENERATOR_VERSION,
    };
    let path = {
        let p = PathBuf::from(&out);
        if p.is_dir() {
            p.join(key.file_name())
        } else {
            p
        }
    };
    let started = Instant::now();
    let trace = workload.generate_seeded(seed, budget as usize);
    let generate_ns = started.elapsed().as_nanos() as u64;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                exit(2);
            }
        }
    }
    let file = File::create(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot create {}: {e}", path.display());
        exit(2);
    });
    let started = Instant::now();
    let summary =
        sim_trace::write_trace(BufWriter::new(file), key.meta(), &trace).unwrap_or_else(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            exit(2);
        });
    let encode_ns = started.elapsed().as_nanos() as u64;
    println!(
        "recorded {}: {} instructions, {} bytes ({:.2} bytes/instr, {} chunks)",
        path.display(),
        summary.instructions,
        summary.bytes,
        summary.bytes as f64 / summary.instructions.max(1) as f64,
        summary.chunks,
    );
    println!(
        "  generate {:.1} ms, encode {:.1} ms",
        generate_ns as f64 / 1e6,
        encode_ns as f64 / 1e6
    );
}

fn open_reader(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceError> {
    TraceReader::new(BufReader::new(File::open(path)?))
}

fn print_header(path: &Path, reader: &TraceReader<BufReader<File>>) {
    let h = reader.header();
    let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("{}:", path.display());
    println!(
        "  format v{}, generator v{}, benchmark {}, scale {}, seed {:#x}",
        h.format_version, h.meta.generator_version, h.meta.benchmark, h.meta.scale, h.meta.seed
    );
    println!(
        "  {} instructions, {} bytes ({:.2} bytes/instr)",
        h.instructions,
        size,
        size as f64 / h.instructions.max(1) as f64
    );
    let branches: u64 = h.summary.branch_counts.iter().sum();
    let indirect = h.summary.branch_counts[BranchClass::IndirectJump.index()]
        + h.summary.branch_counts[BranchClass::IndirectCall.index()];
    println!(
        "  {branches} branches, {indirect} indirect jumps over {} static sites",
        h.summary.static_indirect_jumps
    );
    for class in BranchClass::ALL {
        let n = h.summary.branch_counts[class.index()];
        if n > 0 {
            println!("    {:>6}: {n}", class.mnemonic());
        }
    }
}

/// Decodes the whole trace and prints how many distinct targets each
/// static indirect-jump site reached, as `targets:sites` buckets (the
/// last bucket collects 30 or more).
fn print_targets_histogram(path: &Path, reader: TraceReader<BufReader<File>>) {
    let mut stats = TraceStats::default();
    for record in reader {
        match record {
            Ok(i) => stats.record(&i),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                exit(2);
            }
        }
    }
    print!("  targets/site histogram:");
    for (k, &n) in stats.targets_per_jump_histogram(30).iter().enumerate() {
        if n > 0 {
            print!(" {}{}:{n}", if k == 29 { ">=" } else { "" }, k + 1);
        }
    }
    println!();
}

fn info(args: &[String]) {
    // `--chunks` is a bare flag: strip it before positional parsing,
    // which would otherwise swallow the following file name.
    let chunks = args.iter().any(|a| a == "--chunks");
    let args: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--chunks")
        .cloned()
        .collect();
    let files = positional(&args);
    if files.is_empty() {
        usage_error("info wants at least one file");
    }
    for f in &files {
        let path = Path::new(f);
        match open_reader(path) {
            Ok(reader) => {
                print_header(path, &reader);
                print_targets_histogram(path, reader);
                if chunks {
                    print_chunk_table(path);
                }
            }
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                exit(2);
            }
        }
    }
}

/// One scanned chunk frame, as `info --chunks` reports it.
struct ChunkRow {
    records: u32,
    payload: u32,
    checksum: u64,
    ok: bool,
}

/// Prints the per-chunk view: record counts, payload sizes, stored
/// checksums (re-verified against the payload), and whether the file's
/// BBV side-section carries a fingerprint for the chunk.
fn print_chunk_table(path: &Path) {
    let mut bytes = Vec::new();
    if let Err(e) = File::open(path).and_then(|mut f| f.read_to_end(&mut bytes)) {
        eprintln!("error: cannot read {}: {e}", path.display());
        exit(2);
    }
    let header = match TraceReader::new(bytes.as_slice()) {
        Ok(r) => r.header().clone(),
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            exit(2);
        }
    };
    // The header has no stored length; re-encoding the parsed header
    // recovers exactly how many bytes it occupied.
    let mut pos = 8 + header.encode().expect("re-encoding a decoded header").len();
    let mut rows: Vec<ChunkRow> = Vec::new();
    let mut section: Option<Result<BbvSection, String>> = None;
    while pos < bytes.len() {
        if bytes.len() - pos >= 8 && &bytes[pos..pos + 8] == BBV_MAGIC {
            let mut src = &bytes[pos + 8..];
            section = Some(BbvSection::read_body(&mut src).unwrap_or_else(|e| Err(e.to_string())));
            pos = bytes.len() - src.len();
            continue;
        }
        if bytes.len() - pos < 8 {
            println!(
                "  … {} trailing bytes (not a chunk frame)",
                bytes.len() - pos
            );
            break;
        }
        let records = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte field"));
        let payload = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4-byte field"));
        pos += 8;
        if bytes.len() - pos < payload as usize + 8 {
            println!("  … file ends inside chunk {} payload", rows.len());
            break;
        }
        let body = &bytes[pos..pos + payload as usize];
        pos += payload as usize;
        let checksum = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8-byte field"));
        pos += 8;
        rows.push(ChunkRow {
            records,
            payload,
            checksum,
            ok: sim_trace::format::fnv64(body) == checksum,
        });
    }
    println!("  chunk  records  payload   checksum          fingerprint");
    for (i, row) in rows.iter().enumerate() {
        let fingerprint = match &section {
            Some(Ok(s)) => match s.chunks.get(i) {
                Some(fp) => format!("{} blocks", fp.block_count()),
                None => "missing".to_string(),
            },
            Some(Err(_)) => "section corrupt".to_string(),
            None => "-".to_string(),
        };
        println!(
            "  {i:>5}  {:>7}  {:>7}   {:016x}{}  {fingerprint}",
            row.records,
            row.payload,
            row.checksum,
            if row.ok { " " } else { "!" },
        );
    }
    match &section {
        Some(Ok(s)) => println!(
            "  bbv side-section: v{}, {} chunk fingerprints",
            s.version,
            s.chunks.len()
        ),
        Some(Err(e)) => println!("  bbv side-section: CORRUPT ({e})"),
        None => println!("  bbv side-section: absent"),
    }
}

fn expand(paths: &[String]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            let mut found: Vec<PathBuf> = match std::fs::read_dir(&path) {
                Ok(entries) => entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "strc"))
                    .collect(),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", path.display());
                    exit(2);
                }
            };
            found.sort();
            out.extend(found);
        } else {
            out.push(path);
        }
    }
    out
}

/// Streams the whole file, recomputing statistics and checking them
/// against the header summary. Fingerprints are recomputed alongside;
/// when the file carries a BBV side-section it must match them exactly.
/// Returns `(instructions, bytes, bbv chunk count if present)`.
fn verify_file(path: &Path) -> Result<(u64, u64, Option<usize>), TraceError> {
    let mut reader = open_reader(path)?;
    let summary = reader.header().summary;
    let declared = reader.header().instructions;
    let mut stats = TraceStats::default();
    let mut fingerprints = FingerprintBuilder::new();
    let mut chunk = Vec::with_capacity(CHUNK_RECORDS as usize);
    while reader.next_chunk(&mut chunk)? {
        for record in &chunk {
            stats.record(record);
            fingerprints.observe(record);
        }
        fingerprints.end_chunk();
        chunk.clear();
    }
    summary.check(&stats).map_err(TraceError::SummaryMismatch)?;
    let bbv_chunks = match reader.take_bbv() {
        Some(section) => {
            let recomputed = fingerprints.finish();
            if section != recomputed {
                let chunk = section
                    .chunks
                    .iter()
                    .zip(&recomputed.chunks)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0) as u64;
                return Err(TraceError::CorruptChunk {
                    chunk,
                    reason: "bbv fingerprint does not match the decoded records".to_string(),
                });
            }
            Some(section.chunks.len())
        }
        None => None,
    };
    let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    debug_assert_eq!(stats.instructions(), declared);
    Ok((declared, size, bbv_chunks))
}

fn verify(args: &[String]) {
    let files = expand(&positional(args));
    if files.is_empty() {
        usage_error("verify wants at least one file or directory");
    }
    let mut failures = 0u32;
    for path in &files {
        match verify_file(path) {
            Ok((instructions, bytes, bbv)) => {
                let bbv = match bbv {
                    Some(chunks) => format!("bbv {chunks} chunks ok"),
                    None => "no bbv section".to_string(),
                };
                println!(
                    "{}: ok ({instructions} instructions, {bytes} bytes, {bbv})",
                    path.display()
                )
            }
            Err(e) => {
                println!("{}: FAIL ({e})", path.display());
                failures += 1;
            }
        }
    }
    println!(
        "\ntrace-pack: {} file(s), {failures} failure(s)",
        files.len()
    );
    if failures > 0 {
        exit(1);
    }
}

fn cat(args: &[String]) {
    let files = positional(args);
    let [file] = files.as_slice() else {
        usage_error("cat wants exactly one file");
    };
    let limit = flag_value(args, "--limit")
        .map(|v| parse_number("--limit", &v))
        .unwrap_or(20);
    let path = Path::new(file);
    let mut reader = open_reader(path).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", path.display());
        exit(2);
    });
    let total = reader.header().instructions;
    let mut printed = 0u64;
    for record in &mut reader {
        match record {
            Ok(i) => println!("{i:?}"),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                exit(2);
            }
        }
        printed += 1;
        if limit != 0 && printed == limit {
            break;
        }
    }
    if printed < total {
        println!("… and {} more", total - printed);
    }
}

fn bench(args: &[String]) {
    let files = positional(args);
    let [file] = files.as_slice() else {
        usage_error("bench wants exactly one file");
    };
    let iters = flag_value(args, "--iters")
        .map(|v| parse_number("--iters", &v))
        .unwrap_or(5)
        .max(1);
    let path = Path::new(file);
    let mut bytes = Vec::new();
    if let Err(e) = File::open(path).and_then(|mut f| f.read_to_end(&mut bytes)) {
        eprintln!("error: cannot read {}: {e}", path.display());
        exit(2);
    }
    let mut decoded = None;
    let mut best_decode = u64::MAX;
    for _ in 0..iters {
        let started = Instant::now();
        let reader = TraceReader::new(bytes.as_slice()).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            exit(2);
        });
        let trace = reader.read_to_end().unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            exit(2);
        });
        best_decode = best_decode.min(started.elapsed().as_nanos() as u64);
        decoded = Some(trace);
    }
    let trace = decoded.expect("at least one iteration");
    let meta = {
        let reader = TraceReader::new(bytes.as_slice()).expect("already decoded once");
        reader.header().meta.clone()
    };
    let mut best_encode = u64::MAX;
    for _ in 0..iters {
        let started = Instant::now();
        let out = encode_to_vec(meta.clone(), &trace).expect("encoding a decoded trace");
        best_encode = best_encode.min(started.elapsed().as_nanos() as u64);
        assert_eq!(out.len(), bytes.len());
    }
    // Sanity: the summary the file carries matches what we replayed.
    assert!(StatsSummary::of(&trace.stats())
        .check(&trace.stats())
        .is_ok());
    let n = trace.len() as f64;
    let mb = bytes.len() as f64 / (1024.0 * 1024.0);
    println!(
        "{}: {} instructions, {} bytes ({:.2} bytes/instr), best of {iters}:",
        path.display(),
        trace.len(),
        bytes.len(),
        bytes.len() as f64 / n.max(1.0)
    );
    println!(
        "  decode {:.1} ms  ({:.1} M instr/s, {:.1} MB/s)",
        best_decode as f64 / 1e6,
        n / (best_decode as f64 / 1e9) / 1e6,
        mb / (best_decode as f64 / 1e9)
    );
    println!(
        "  encode {:.1} ms  ({:.1} M instr/s, {:.1} MB/s)",
        best_encode as f64 / 1e6,
        n / (best_encode as f64 / 1e9) / 1e6,
        mb / (best_encode as f64 / 1e9)
    );
}
