//! The paper's Section 4.2 hardware-cost model.
//!
//! "The cost of the predictor is estimated using the following equations:
//! BTB = \[entries\] × \[bits/entry\]; target cache(n) = \[bits/entry\] × n;
//! predictor budget = BTB + target cache(n). ... Since the BTB has 256 sets
//! and is 4-way set-associative, the target cache increases the predictor
//! hardware budget by ~10 percent." (The scan garbles the exact per-entry
//! constants; our model — documented at
//! [`TargetCacheConfig::hardware_bits`] — charges 32 bits per tagless entry
//! and 64 per tagged entry, and 80 bits per BTB entry per the paper's
//! footnote: valid, LRU, tag, target, type, fall-through, history.)

use crate::jobs::{CellData, CellSet};
use crate::report::{count, pct, TextTable};
use crate::runner::Scale;
use crate::telemetry::TelemetryCtx;
use branch_predictors::PathFilter;
use target_cache::TargetCacheConfig;

/// Bits per BTB entry (from the paper's footnote: valid bit, LRU bits, tag,
/// 32-bit target, branch-type bits, fall-through address, history bits).
pub const BTB_ENTRY_BITS: usize = 80;

/// The baseline BTB's storage, in bits (1K entries).
pub const BTB_BITS: usize = 1024 * BTB_ENTRY_BITS;

/// The design points the paper discusses.
pub fn points() -> Vec<(&'static str, TargetCacheConfig)> {
    vec![
        (
            "tagless 512, gshare, pattern(9)",
            TargetCacheConfig::isca97_tagless_gshare(),
        ),
        (
            "tagless 512, GAg(9)",
            TargetCacheConfig::isca97_tagless_gag(),
        ),
        (
            "tagless 512, path ind-jmp",
            TargetCacheConfig::isca97_tagless_path(PathFilter::IndirectJump),
        ),
        (
            "tagged 256, 4-way, xor",
            TargetCacheConfig::isca97_tagged(4),
        ),
        (
            "tagged 256, fully assoc",
            TargetCacheConfig::isca97_tagged(256),
        ),
    ]
}

/// The single pseudo-benchmark label this cost model runs under — it has
/// no trace, so the whole table is one cell.
pub fn cell_labels() -> Vec<&'static str> {
    vec!["model"]
}

/// Computes the cost model's one cell: `bits.<name>` and `increase.<name>`
/// per design point. The model simulates nothing, so it ignores the
/// telemetry context and the scale.
pub fn cell(_ctx: &TelemetryCtx, _label: &str, _scale: Scale) -> CellData {
    let mut d = CellData::new();
    for (name, config) in points() {
        let cache_bits = config.hardware_bits();
        d.set(format!("bits.{name}"), cache_bits as f64);
        d.set(
            format!("increase.{name}"),
            cache_bits as f64 / BTB_BITS as f64,
        );
    }
    d
}

/// Renders a (possibly failed) cell set as the cost table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "configuration".into(),
        "cache bits".into(),
        "BTB bits".into(),
        "budget increase".into(),
    ]);
    for (name, _) in points() {
        table.row(vec![
            name.into(),
            cells.fmt("model", &format!("bits.{name}"), |v| count(v as u64)),
            count(BTB_BITS as u64),
            cells.fmt("model", &format!("increase.{name}"), pct),
        ]);
    }
    format!(
        "Hardware budget (paper Section 4.2 cost model; paper estimates the\n\
         512-entry target cache at ~10% over the 1K-entry BTB — ~20% under\n\
         our 32-bit-target accounting)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick;

    /// The cache bits and budget increase of the design point whose name
    /// contains `name`.
    fn point(name: &str) -> (f64, f64) {
        let cells = quick("costs");
        let d = cells.data("model").unwrap();
        let (full, _) = points()
            .into_iter()
            .find(|(n, _)| n.contains(name))
            .unwrap();
        (
            d.req(&format!("bits.{full}")),
            d.req(&format!("increase.{full}")),
        )
    }

    #[test]
    fn tagless_and_tagged_presets_cost_the_same() {
        // The paper's equal-budget comparison: 512 tagless ≡ 256 tagged.
        assert_eq!(point("tagless 512, gshare").0, point("tagged 256, 4-way").0);
    }

    #[test]
    fn target_cache_is_a_modest_fraction_of_the_btb() {
        for (name, _) in points() {
            let (_, increase) = point(name);
            assert!(
                increase < 0.35,
                "{name}: budget increase {increase} is not modest"
            );
            assert!(increase > 0.0);
        }
    }

    #[test]
    fn history_source_does_not_change_storage_cost() {
        // Pattern vs path history reuse existing registers; the cache
        // storage itself is identical.
        assert_eq!(point("gshare, pattern").0, point("path ind-jmp").0);
    }
}
