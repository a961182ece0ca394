#![warn(missing_docs)]

//! SimPoint-style phase analysis over a trace's chunk fingerprints.
//!
//! `sim_trace::fingerprint_trace` gives one basic-block vector per
//! 4096-record chunk of an in-memory trace. Programs execute in
//! *phases* — stretches of chunks running the same code mix — so the
//! chunk BBVs cluster tightly, and simulating one weighted
//! representative chunk per cluster approximates the full run at a
//! fraction of the cost (Sherwood et al.'s SimPoint methodology).
//!
//! Everything here is deterministic: the random projection draws its
//! signs from a splitmix64 hash of `(block, dimension, seed)`, k-means
//! uses farthest-point initialization with index-order tie-breaking,
//! and k is selected by a BIC-style score — the same seed and the same
//! fingerprints always produce the same [`PhaseMap`], which is what
//! lets independent shard cells recompute the map instead of shipping
//! it.
//!
//! [`recombine`] is the other half of the contract: per-slice counts
//! scaled by integer cluster sizes, summed in slice order — so a
//! degenerate map that selects *every* chunk as its own representative
//! ([`PhaseMap::exhaustive`]) recombines to results bit-identical to
//! the exact simulation.

use sim_telemetry::json::obj;
use sim_telemetry::Json;
use sim_trace::ChunkFingerprint;
use std::collections::BTreeMap;

/// Default clustering seed ("SIMPT" in ASCII, padded).
pub const DEFAULT_SEED: u64 = 0x53_494d_5054_u64;

/// Tuning knobs for [`cluster`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Seed for the projection and initialization hashes.
    pub seed: u64,
    /// Random-projection target dimensionality.
    pub dims: usize,
    /// Largest k the BIC sweep considers (clamped to the chunk count).
    pub max_k: usize,
    /// Lloyd iterations per k.
    pub iters: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: DEFAULT_SEED,
            dims: 16,
            max_k: 6,
            iters: 30,
        }
    }
}

/// splitmix64: the standard 64-bit finalizer, used for projection signs
/// and deterministic initialization.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Projects one chunk fingerprint to `dims` dimensions: L1-normalize
/// the block counts, then accumulate each block's weight under a ±1
/// sign drawn from `hash(block, dim, seed)`.
/// A block's random-projection signs, one ±1 per dimension. Depends
/// only on `(block, dims, seed)`, so callers projecting many chunks
/// memoize rows per block — the hot loops of a trace repeat the same
/// blocks in every chunk, and recomputing the hash per chunk made
/// projection the dominant clustering cost.
fn sign_row(block: u64, dims: usize, seed: u64) -> Vec<f64> {
    (0..dims)
        .map(|d| {
            let h = splitmix64(block.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (d as u64) ^ seed);
            if h & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

fn project_cached(
    fp: &ChunkFingerprint,
    dims: usize,
    seed: u64,
    signs: &mut BTreeMap<u64, Vec<f64>>,
) -> Vec<f64> {
    let total = fp.instructions() as f64;
    let mut v = vec![0.0; dims];
    if total == 0.0 {
        return v;
    }
    for &(block, count) in &fp.blocks {
        let w = count as f64 / total;
        let row = signs
            .entry(block)
            .or_insert_with(|| sign_row(block, dims, seed));
        for (slot, s) in v.iter_mut().zip(row.iter()) {
            *slot += w * s;
        }
    }
    v
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's k-means with deterministic farthest-point initialization,
/// over `n` points stored row-major in one flat `n × dims` buffer
/// (contiguous storage keeps the distance loops out of pointer-chasing;
/// the arithmetic is element-for-element identical to per-point `Vec`s,
/// so maps built before the flattening reproduce exactly).
/// Returns `(assignments, sse)`.
fn kmeans(
    flat: &[f64],
    n: usize,
    dims: usize,
    k: usize,
    seed: u64,
    iters: usize,
) -> (Vec<usize>, f64) {
    debug_assert!(k >= 1 && k <= n);
    debug_assert_eq!(flat.len(), n * dims);
    let pt = |i: usize| &flat[i * dims..(i + 1) * dims];
    // Farthest-point init: seed picks the first center, each further
    // center is the point farthest from all chosen so far (ties: lowest
    // index). Deterministic and spread-out.
    let mut centers: Vec<f64> = Vec::with_capacity(k * dims);
    centers.extend_from_slice(pt((splitmix64(seed) % n as u64) as usize));
    let mut min_d: Vec<f64> = (0..n).map(|i| dist2(pt(i), &centers[..dims])).collect();
    while centers.len() < k * dims {
        let far = (0..n)
            .max_by(|&a, &b| min_d[a].partial_cmp(&min_d[b]).expect("finite distances"))
            .expect("n >= 1");
        centers.extend_from_slice(pt(far));
        let newest = &centers[centers.len() - dims..];
        for (i, slot) in min_d.iter_mut().enumerate() {
            let d = dist2(pt(i), newest);
            if d < *slot {
                *slot = d;
            }
        }
    }
    let center =
        |centers: &[f64], c: usize| -> Vec<f64> { centers[c * dims..(c + 1) * dims].to_vec() };
    let mut assign = vec![0usize; n];
    for _ in 0..iters {
        let mut changed = false;
        for (i, a) in assign.iter_mut().enumerate() {
            let p = pt(i);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, chunk) in centers.chunks_exact(dims).enumerate() {
                let d = dist2(p, chunk);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if *a != best {
                *a = best;
                changed = true;
            }
        }
        let mut sums = vec![0.0; k * dims];
        let mut counts = vec![0u64; k];
        for (i, &a) in assign.iter().enumerate() {
            counts[a] += 1;
            for (s, x) in sums[a * dims..(a + 1) * dims].iter_mut().zip(pt(i)) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seat an empty cluster on the point farthest from
                // its current center (deterministic).
                let far = (0..n)
                    .max_by(|&a, &b| {
                        dist2(pt(a), &center(&centers, assign[a]))
                            .partial_cmp(&dist2(pt(b), &center(&centers, assign[b])))
                            .expect("finite distances")
                    })
                    .expect("n >= 1");
                let row = pt(far).to_vec();
                centers[c * dims..(c + 1) * dims].copy_from_slice(&row);
                changed = true;
            } else {
                for (s, slot) in sums[c * dims..(c + 1) * dims]
                    .iter()
                    .zip(centers[c * dims..(c + 1) * dims].iter_mut())
                {
                    *slot = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let sse = assign
        .iter()
        .enumerate()
        .map(|(i, &a)| dist2(pt(i), &centers[a * dims..(a + 1) * dims]))
        .sum();
    (assign, sse)
}

/// BIC-style model score (lower is better): log-likelihood term from
/// the mean squared error plus a per-parameter penalty, the standard
/// SimPoint device for picking k without a human in the loop.
fn bic_score(n: usize, dims: usize, k: usize, sse: f64) -> f64 {
    let n_f = n as f64;
    let mse = (sse / n_f).max(1e-12);
    n_f * mse.ln() + (k as f64) * (dims as f64 + 1.0) * n_f.ln()
}

/// One phase: a cluster of chunks and the chunk chosen to represent it.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Cluster index (`0..k`).
    pub cluster: u32,
    /// Chunk index of the representative slice.
    pub representative: u64,
    /// Member chunks in the cluster.
    pub size: u64,
    /// `size / total chunks`.
    pub weight: f64,
}

/// The clustering result: per-chunk assignments plus one weighted
/// representative per phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseMap {
    /// Seed the map was built with.
    pub seed: u64,
    /// Projection dimensionality used.
    pub dims: u32,
    /// Number of phases.
    pub k: u32,
    /// Total chunks clustered.
    pub chunks: u64,
    /// Cluster index per chunk.
    pub assignments: Vec<u32>,
    /// Phases in cluster order.
    pub phases: Vec<Phase>,
}

impl PhaseMap {
    /// The degenerate map selecting every chunk as its own
    /// representative with weight `1/chunks` — sampling with this map
    /// recombines to exactly the full simulation (see [`recombine`]).
    pub fn exhaustive(chunks: usize) -> PhaseMap {
        PhaseMap {
            seed: 0,
            dims: 0,
            k: chunks as u32,
            chunks: chunks as u64,
            assignments: (0..chunks as u32).collect(),
            phases: (0..chunks)
                .map(|c| Phase {
                    cluster: c as u32,
                    representative: c as u64,
                    size: 1,
                    weight: 1.0 / chunks.max(1) as f64,
                })
                .collect(),
        }
    }

    /// Fraction of chunks simulated under this map (representatives
    /// over total).
    pub fn coverage(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.phases.len() as f64 / self.chunks as f64
        }
    }

    /// The map as JSON (stable field order). The seed is written as a
    /// hex string: JSON numbers are f64 and a 64-bit seed must
    /// round-trip exactly.
    pub fn to_json(&self) -> Json {
        obj([
            ("seed", Json::from(format!("{:#018x}", self.seed))),
            ("dims", Json::from(u64::from(self.dims))),
            ("k", Json::from(u64::from(self.k))),
            ("chunks", Json::from(self.chunks)),
            (
                "assignments",
                Json::Arr(
                    self.assignments
                        .iter()
                        .map(|&a| Json::from(u64::from(a)))
                        .collect(),
                ),
            ),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            obj([
                                ("cluster", Json::from(u64::from(p.cluster))),
                                ("representative", Json::from(p.representative)),
                                ("size", Json::from(p.size)),
                                ("weight", Json::from(p.weight)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a map previously written by [`PhaseMap::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<PhaseMap, String> {
        let num = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("phase map missing numeric {name:?}"))
        };
        let assignments = v
            .get("assignments")
            .and_then(Json::as_arr)
            .ok_or("phase map missing \"assignments\"")?
            .iter()
            .map(|a| a.as_u64().map(|x| x as u32))
            .collect::<Option<Vec<u32>>>()
            .ok_or("non-numeric assignment")?;
        let phases = v
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("phase map missing \"phases\"")?
            .iter()
            .map(|p| {
                Ok(Phase {
                    cluster: p
                        .get("cluster")
                        .and_then(Json::as_u64)
                        .ok_or("phase missing \"cluster\"")? as u32,
                    representative: p
                        .get("representative")
                        .and_then(Json::as_u64)
                        .ok_or("phase missing \"representative\"")?,
                    size: p
                        .get("size")
                        .and_then(Json::as_u64)
                        .ok_or("phase missing \"size\"")?,
                    weight: p
                        .get("weight")
                        .and_then(Json::as_f64)
                        .ok_or("phase missing \"weight\"")?,
                })
            })
            .collect::<Result<Vec<Phase>, &'static str>>()?;
        let seed = v
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or("phase map missing hex \"seed\"")?;
        Ok(PhaseMap {
            seed,
            dims: num("dims")? as u32,
            k: num("k")? as u32,
            chunks: num("chunks")?,
            assignments,
            phases,
        })
    }

    /// Parses a map from JSON text.
    ///
    /// # Errors
    ///
    /// JSON syntax errors or missing fields.
    pub fn parse(text: &str) -> Result<PhaseMap, String> {
        let v = sim_telemetry::json::parse(text).map_err(|e| e.to_string())?;
        PhaseMap::from_json(&v)
    }
}

/// Clusters chunk fingerprints into phases: project, sweep k over
/// `1..=max_k` under the BIC score, pick per-cluster representatives
/// (the member nearest the centroid, ties to the lowest chunk index).
///
/// Deterministic: same fingerprints + same config ⇒ identical map.
pub fn cluster(bbvs: &[ChunkFingerprint], cfg: &ClusterConfig) -> PhaseMap {
    let n = bbvs.len();
    if n == 0 {
        return PhaseMap {
            seed: cfg.seed,
            dims: cfg.dims as u32,
            k: 0,
            chunks: 0,
            assignments: Vec::new(),
            phases: Vec::new(),
        };
    }
    let mut signs = BTreeMap::new();
    let mut points: Vec<f64> = Vec::with_capacity(n * cfg.dims);
    for fp in bbvs {
        points.extend(project_cached(fp, cfg.dims, cfg.seed, &mut signs));
    }
    let pt = |i: usize| &points[i * cfg.dims..(i + 1) * cfg.dims];
    let max_k = cfg.max_k.max(1).min(n);
    let mut best: Option<(f64, Vec<usize>, usize)> = None;
    for k in 1..=max_k {
        let (assign, sse) = kmeans(&points, n, cfg.dims, k, cfg.seed ^ k as u64, cfg.iters);
        let score = bic_score(n, cfg.dims, k, sse);
        if best.as_ref().is_none_or(|(s, _, _)| score < *s) {
            best = Some((score, assign, k));
        }
    }
    let (_, assignments, k) = best.expect("at least k=1 evaluated");
    // Centroids of the winning assignment, for representative picking.
    let mut sums = vec![vec![0.0; cfg.dims]; k];
    let mut sizes = vec![0u64; k];
    for (i, &a) in assignments.iter().enumerate() {
        sizes[a] += 1;
        for (s, x) in sums[a].iter_mut().zip(pt(i)) {
            *s += x;
        }
    }
    let phases: Vec<Phase> = (0..k)
        .map(|c| {
            let centroid: Vec<f64> = sums[c].iter().map(|s| s / sizes[c].max(1) as f64).collect();
            let representative = (0..n)
                .filter(|&i| assignments[i] == c)
                .min_by(|&a, &b| {
                    dist2(pt(a), &centroid)
                        .partial_cmp(&dist2(pt(b), &centroid))
                        .expect("finite distances")
                })
                .expect("every winning cluster is non-empty");
            Phase {
                cluster: c as u32,
                representative: representative as u64,
                size: sizes[c],
                weight: sizes[c] as f64 / n as f64,
            }
        })
        .collect();
    PhaseMap {
        seed: cfg.seed,
        dims: cfg.dims as u32,
        k: k as u32,
        chunks: n as u64,
        assignments: assignments.iter().map(|&a| a as u32).collect(),
        phases,
    }
}

/// One representative slice's contribution to the recombined totals:
/// raw counts scaled by the integer number of chunks the slice stands
/// for.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceStats {
    /// Cluster size — how many chunks this slice represents.
    pub multiplier: u64,
    /// Named counters measured over the slice alone.
    pub counts: BTreeMap<String, f64>,
}

/// Weighted recombination: `Σ multiplier × counts`, accumulated in
/// slice order. Multipliers are integer cluster sizes (not fractional
/// weights) so that integer-valued counts recombine exactly: an
/// [`PhaseMap::exhaustive`] map with full-prefix warmup recombines
/// bit-identically to the exact simulation's totals.
pub fn recombine(slices: &[SliceStats]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in slices {
        for (key, &v) in &s.counts {
            *out.entry(key.clone()).or_insert(0.0) += s.multiplier as f64 * v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two alternating synthetic phases: chunks touching blocks
    /// {1..4} vs {100..104}.
    fn two_phase_bbvs(n: usize) -> Vec<ChunkFingerprint> {
        (0..n)
            .map(|i| {
                let base = if (i / 8) % 2 == 0 { 1u64 } else { 100 };
                ChunkFingerprint {
                    blocks: (0..4).map(|b| (base + b, 1024)).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn two_phases_are_separated() {
        let bbvs = two_phase_bbvs(64);
        let map = cluster(&bbvs, &ClusterConfig::default());
        assert!(map.k >= 2, "expected >= 2 phases, got {}", map.k);
        // Chunks with the same code mix must land in the same cluster.
        assert_eq!(map.assignments[0], map.assignments[16]);
        assert_eq!(map.assignments[8], map.assignments[24]);
        assert_ne!(map.assignments[0], map.assignments[8]);
        let total: u64 = map.phases.iter().map(|p| p.size).sum();
        assert_eq!(total, 64);
        let weight: f64 = map.phases.iter().map(|p| p.weight).sum();
        assert!((weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_chunks_collapse_to_one_phase() {
        let bbvs: Vec<ChunkFingerprint> = (0..32)
            .map(|_| ChunkFingerprint {
                blocks: vec![(7, 2048), (19, 2048)],
            })
            .collect();
        let map = cluster(&bbvs, &ClusterConfig::default());
        assert_eq!(map.k, 1, "identical chunks must form one phase");
        assert_eq!(map.phases[0].size, 32);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let map = cluster(&two_phase_bbvs(40), &ClusterConfig::default());
        let parsed = PhaseMap::parse(&map.to_json().to_string()).unwrap();
        assert_eq!(parsed, map);
    }

    #[test]
    fn exhaustive_map_recombines_to_exact_totals() {
        let slices: Vec<SliceStats> = (0..10)
            .map(|i| SliceStats {
                multiplier: 1,
                counts: BTreeMap::from([
                    ("executed".to_string(), (100 + i) as f64),
                    ("mispredicted".to_string(), (3 * i) as f64),
                ]),
            })
            .collect();
        let out = recombine(&slices);
        let exact_exec: f64 = (0..10).map(|i| (100 + i) as f64).sum();
        let exact_miss: f64 = (0..10).map(|i| (3 * i) as f64).sum();
        // Bit-identical, not approximately equal.
        assert_eq!(out["executed"], exact_exec);
        assert_eq!(out["mispredicted"], exact_miss);
    }

    #[test]
    fn empty_input_yields_empty_map() {
        let map = cluster(&[], &ClusterConfig::default());
        assert_eq!(map.k, 0);
        assert!(map.phases.is_empty());
        assert_eq!(PhaseMap::exhaustive(0).coverage(), 0.0);
    }
}
