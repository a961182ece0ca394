//! Correlation identifiers joining every artifact of one run.
//!
//! A [`TraceId`] is minted once per campaign (or per `repro-serve`
//! request), written into the campaign log's `campaign-started` line,
//! and kept across every resume of that campaign. The run manifest, the
//! Chrome trace export, the driver banner, and `repro-serve`'s
//! `/status` carry it too, so one grep over `results/` joins them:
//!
//! ```text
//! $ grep -rl tr-9f2ab04c71d3e586 results/
//! results/journal/chaos.jsonl
//! results/telemetry/all.manifest.json
//! results/traceviz/chaos.trace.json
//! ```
//!
//! Ids are minted from a SplitMix64 stream seeded with the wall clock,
//! the process id, and a process-global counter: unique across
//! processes and across mints within one process, with no RNG
//! dependency. [`SpanId`] is the short per-unit form (one cell attempt,
//! one HTTP request) carried inside a trace.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A campaign/request-scoped correlation id: `tr-` + 16 hex digits.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

/// A unit-of-work id inside a trace: `sp-` + 8 hex digits.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u32);

/// Process-global mint counter: two ids minted in the same nanosecond
/// still differ.
static MINTED: AtomicU64 = AtomicU64::new(0);

/// One step of SplitMix64 — the same mixer the jobs pool uses for
/// backoff jitter, chosen for full 64-bit avalanche with zero state.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn entropy() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = MINTED.fetch_add(1, Ordering::Relaxed);
    // Mix each source through its own SplitMix64 step so a broken clock
    // (nanos == 0) still yields distinct ids from the counter alone.
    splitmix64(nanos) ^ splitmix64(u64::from(std::process::id()).rotate_left(32)) ^ splitmix64(seq)
}

impl TraceId {
    /// Mints a fresh id, unique across processes and mints.
    pub fn mint() -> TraceId {
        TraceId(entropy())
    }

    /// Parses the canonical `tr-<16 hex>` form (as produced by
    /// `Display`); rejects anything else so a truncated id in an
    /// artifact fails loudly instead of aliasing another run.
    pub fn parse(text: &str) -> Result<TraceId, String> {
        let hex = text
            .strip_prefix("tr-")
            .ok_or_else(|| format!("trace id {text:?} does not start with \"tr-\""))?;
        if hex.len() != 16 {
            return Err(format!(
                "trace id {text:?} must be tr- followed by 16 hex digits"
            ));
        }
        u64::from_str_radix(hex, 16)
            .map(TraceId)
            .map_err(|_| format!("trace id {text:?} has non-hex digits"))
    }

    /// The raw 64-bit value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tr-{:016x}", self.0)
    }
}

impl SpanId {
    /// Mints a fresh short id.
    pub fn mint() -> SpanId {
        SpanId(entropy() as u32)
    }

    /// Parses the canonical `sp-<8 hex>` form.
    pub fn parse(text: &str) -> Result<SpanId, String> {
        let hex = text
            .strip_prefix("sp-")
            .ok_or_else(|| format!("span id {text:?} does not start with \"sp-\""))?;
        if hex.len() != 8 {
            return Err(format!(
                "span id {text:?} must be sp- followed by 8 hex digits"
            ));
        }
        u32::from_str_radix(hex, 16)
            .map(SpanId)
            .map_err(|_| format!("span id {text:?} has non-hex digits"))
    }

    /// The raw 32-bit value.
    pub fn value(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sp-{:08x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_unique_across_calls() {
        let ids: std::collections::BTreeSet<String> =
            (0..1000).map(|_| TraceId::mint().to_string()).collect();
        assert_eq!(ids.len(), 1000, "collision within one process");
    }

    #[test]
    fn display_parse_round_trip() {
        let id = TraceId::mint();
        let text = id.to_string();
        assert!(text.starts_with("tr-"), "{text}");
        assert_eq!(text.len(), 3 + 16, "{text}");
        assert_eq!(TraceId::parse(&text), Ok(id));

        let sp = SpanId::mint();
        let text = sp.to_string();
        assert!(text.starts_with("sp-"), "{text}");
        assert_eq!(text.len(), 3 + 8, "{text}");
        assert_eq!(SpanId::parse(&text), Ok(sp));
    }

    #[test]
    fn parse_rejects_malformed_ids() {
        for bad in [
            "",
            "tr-",
            "tr-123",               // too short
            "tr-00000000000000000", // too long
            "tr-zzzzzzzzzzzzzzzz",  // non-hex
            "sp-0011223344556677",  // wrong prefix for the length
            "9f2ab04c71d3e586",     // no prefix
        ] {
            assert!(TraceId::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(SpanId::parse("sp-123").is_err());
        assert!(SpanId::parse("tr-00112233").is_err());
    }

    #[test]
    fn parse_is_exact_inverse_of_display() {
        let id = TraceId(0x9f2a_b04c_71d3_e586);
        assert_eq!(id.to_string(), "tr-9f2ab04c71d3e586");
        assert_eq!(TraceId::parse("tr-9f2ab04c71d3e586"), Ok(id));
        let sp = SpanId(0x0011_2233);
        assert_eq!(sp.to_string(), "sp-00112233");
        assert_eq!(SpanId::parse("sp-00112233"), Ok(sp));
    }

    #[test]
    fn zero_entropy_sources_still_mint_distinct_ids() {
        // Even if the clock were stuck, the mint counter alone must
        // separate consecutive ids.
        let a = splitmix64(0) ^ splitmix64(1);
        let b = splitmix64(0) ^ splitmix64(2);
        assert_ne!(a, b);
    }
}
