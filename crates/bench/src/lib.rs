//! Bench support: shared setup for the Criterion benches.
//!
//! The benches live in `benches/`:
//!
//! * `experiments` — one bench per registry experiment (every table,
//!   figure and extension): each measures the sequential regeneration of
//!   that experiment at quick scale and, as a side effect, validates that
//!   it still runs (`cargo bench --bench experiments -- table4`).
//! * `ablations` — the design-choice ablations DESIGN.md calls out:
//!   index-hash cost, tagless vs tagged lookup cost, and history-source
//!   maintenance cost.
//! * `throughput` — raw component speeds: trace generation, functional
//!   prediction, and the timing model, in instructions per second. The
//!   bench bodies are the shared `repro-bench` scenario matrix
//!   (`experiments::perf::scenario_matrix`), so `cargo bench` and
//!   `repro-bench` report comparable rates.

use sim_isa::VecTrace;
use sim_workloads::Benchmark;

/// The trace budget benches use: big enough to exercise steady state,
/// small enough that `cargo bench` completes in minutes.
pub const BENCH_BUDGET: usize = 100_000;

/// Generates the standard bench trace for a benchmark.
pub fn bench_trace(bench: Benchmark) -> VecTrace {
    bench.workload().generate(BENCH_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_trace_has_expected_size() {
        assert_eq!(bench_trace(Benchmark::Compress).len(), BENCH_BUDGET);
    }
}
