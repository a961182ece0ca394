//! The experiment registry: every table and figure of the reproduction,
//! described uniformly so the campaign driver ([`super::cli`]) can
//! enumerate, execute, and render them without knowing any experiment's
//! internals.
//!
//! Each [`ExperimentDef`] is three function pointers into one experiment
//! module: `labels` enumerates the benchmark cells, `cell` computes one
//! of them, and `render` turns a (possibly partial) [`CellSet`] back
//! into the experiment's table or figure, with `ERR(reason)` markers in
//! any failed slot. The [`CellSet`] is the only result an experiment
//! has: the campaign driver fills it on the worker pool,
//! [`ExperimentDef::compute`] fills it in order on the calling thread.

use super::{CellData, CellSet};
use crate::runner::Scale;
use crate::telemetry::TelemetryCtx;

/// One experiment, as the campaign driver sees it.
#[derive(Clone, Copy)]
pub struct ExperimentDef {
    /// Registry name — the `experiment` half of every cell id, and the
    /// `repro` argument that runs it (`repro table4`).
    pub name: &'static str,
    /// One-line description printed above the rendered output.
    pub title: &'static str,
    /// Enumerates the benchmark labels this experiment's cells run over.
    pub labels: fn() -> Vec<&'static str>,
    /// Computes one benchmark's cell at a scale, recording telemetry
    /// through the session context the campaign driver threads in.
    pub cell: fn(&TelemetryCtx, &str, Scale) -> CellData,
    /// Renders a (possibly partial) cell set as the experiment's output.
    pub render: fn(&CellSet) -> String,
}

impl ExperimentDef {
    /// Computes every cell in label order on the calling thread, without
    /// the pool's panic isolation, retries or campaign log: a panicking
    /// cell panics the caller.
    pub fn compute(&self, ctx: &TelemetryCtx, scale: Scale) -> CellSet {
        let mut cells = CellSet::new();
        for label in (self.labels)() {
            cells.insert(label, Ok((self.cell)(ctx, label, scale)));
        }
        cells
    }
}

/// Every experiment, in `repro all`'s print order.
pub fn all() -> Vec<ExperimentDef> {
    use crate::*;
    vec![
        ExperimentDef {
            name: "table1",
            title: "Table 1: benchmark characterization",
            labels: table1::cell_labels,
            cell: table1::cell,
            render: table1::render_cells,
        },
        ExperimentDef {
            name: "table2",
            title: "Table 2: BTB update strategies",
            labels: table2::cell_labels,
            cell: table2::cell,
            render: table2::render_cells,
        },
        ExperimentDef {
            name: "fig_targets",
            title: "Figures 1-8: targets per indirect jump",
            labels: fig_targets::cell_labels,
            cell: fig_targets::cell,
            render: fig_targets::render_cells,
        },
        ExperimentDef {
            name: "table4",
            title: "Table 4: tagless pattern-history index schemes",
            labels: table4::cell_labels,
            cell: table4::cell,
            render: table4::render_cells,
        },
        ExperimentDef {
            name: "table5",
            title: "Table 5: path history address-bit selection",
            labels: table5::cell_labels,
            cell: table5::cell,
            render: table5::render_cells,
        },
        ExperimentDef {
            name: "table6",
            title: "Table 6: path history bits per target",
            labels: table6::cell_labels,
            cell: table6::cell,
            render: table6::render_cells,
        },
        ExperimentDef {
            name: "table7",
            title: "Table 7: tagged index scheme x associativity",
            labels: table7::cell_labels,
            cell: table7::cell,
            render: table7::render_cells,
        },
        ExperimentDef {
            name: "table8",
            title: "Table 8: tagged path-history caches",
            labels: table8::cell_labels,
            cell: table8::cell,
            render: table8::render_cells,
        },
        ExperimentDef {
            name: "table9",
            title: "Table 9: tagged 9 vs 16 history bits",
            labels: table9::cell_labels,
            cell: table9::cell,
            render: table9::render_cells,
        },
        ExperimentDef {
            name: "fig_tagless_vs_tagged",
            title: "Figures 12-13: tagless vs tagged at equal budget",
            labels: fig_tagless_vs_tagged::cell_labels,
            cell: fig_tagless_vs_tagged::cell,
            render: fig_tagless_vs_tagged::render_cells,
        },
        ExperimentDef {
            name: "headline",
            title: "Headline results",
            labels: headline::cell_labels,
            cell: headline::cell,
            render: headline::render_cells,
        },
        ExperimentDef {
            name: "extension_oo",
            title: "Extension: OO benchmarks",
            labels: extension_oo::cell_labels,
            cell: extension_oo::cell,
            render: extension_oo::render_cells,
        },
        ExperimentDef {
            name: "extension_limits",
            title: "Extension: oracle limit study",
            labels: extension_limits::cell_labels,
            cell: extension_limits::cell,
            render: extension_limits::render_cells,
        },
        ExperimentDef {
            name: "extension_cascade",
            title: "Extension: cascaded prediction",
            labels: extension_cascade::cell_labels,
            cell: extension_cascade::cell,
            render: extension_cascade::render_cells,
        },
        ExperimentDef {
            name: "costs",
            title: "Hardware cost model",
            labels: costs::cell_labels,
            cell: costs::cell,
            render: costs::render_cells,
        },
        ExperimentDef {
            name: "extension_hysteresis",
            title: "Extension: 2-bit update hysteresis",
            labels: extension_hysteresis::cell_labels,
            cell: extension_hysteresis::cell,
            render: extension_hysteresis::render_cells,
        },
        ExperimentDef {
            name: "extension_scaling",
            title: "Extension: machine-aggressiveness scaling",
            labels: extension_scaling::cell_labels,
            cell: extension_scaling::cell,
            render: extension_scaling::render_cells,
        },
        ExperimentDef {
            name: "lint",
            title: "Static analysis: simlint over the benchmark models",
            labels: lint::cell_labels,
            cell: lint::cell,
            render: lint::render_cells,
        },
        ExperimentDef {
            name: "predictability",
            title: "Static predictability: census, envelopes, reconciliation",
            labels: predictability::cell_labels,
            cell: predictability::cell,
            render: predictability::render_cells,
        },
        ExperimentDef {
            name: "simpoint",
            title: "SimPoint phase sampling: sampled vs exact misprediction",
            labels: sample::cell_labels,
            cell: sample::cell,
            render: sample::render_cells,
        },
    ]
}

/// Looks an experiment up by registry name.
pub fn find(name: &str) -> Option<ExperimentDef> {
    all().into_iter().find(|d| d.name == name)
}

/// Experiment `name` computed at quick scale with telemetry off — the
/// module tests' way to run an experiment.
#[cfg(test)]
pub(crate) fn quick(name: &str) -> CellSet {
    find(name)
        .expect("registered experiment")
        .compute(&TelemetryCtx::off(), Scale::Quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_consistent() {
        let defs = all();
        assert_eq!(defs.len(), 20);
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "names must be unique");
        for def in &defs {
            assert!(!(def.labels)().is_empty(), "{} has no cells", def.name);
        }
        assert!(find("table4").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_cell_renders_even_when_failed() {
        // Render each experiment with every cell marked failed: the ERR
        // path of every render_cells must produce full-width tables.
        for def in all() {
            let mut cells = CellSet::new();
            for label in (def.labels)() {
                cells.insert(label, Err("synthetic failure".to_string()));
            }
            let out = (def.render)(&cells);
            assert!(
                out.contains("ERR(synthetic failure)"),
                "{}: ERR marker missing from\n{out}",
                def.name
            );
        }
    }

    #[test]
    fn renders_survive_cells_without_data() {
        // A restored campaign log is outside input: a cell may come back
        // ok but without some (here: every) key. No renderer may panic;
        // a slot whose keys are absent reads ERR(missing <key>).
        for def in all() {
            let mut cells = CellSet::new();
            for label in (def.labels)() {
                cells.insert(label, Ok(CellData::new()));
            }
            let out = (def.render)(&cells);
            // fig_targets stores its histograms sparsely: an absent slot
            // is a zero count, not a missing key.
            if def.name != "fig_targets" {
                assert!(out.contains("ERR(missing "), "{}:\n{out}", def.name);
            }
        }
        let mut cells = CellSet::new();
        cells.insert("perl", Ok(CellData::new()));
        let out = (find("table2").unwrap().render)(&cells);
        let perl = out.lines().find(|l| l.starts_with("perl")).unwrap();
        assert_eq!(perl.matches("ERR(missing default)").count(), 2, "{perl}");
        assert!(perl.contains("ERR(missing two_bit)"), "{perl}");
    }

    #[test]
    fn quick_cells_round_trip_through_render() {
        // One cheap experiment end to end: compute, render — the value
        // must appear.
        let def = find("costs").unwrap();
        let out = (def.render)(&def.compute(&TelemetryCtx::off(), Scale::Quick));
        assert!(out.contains("tagless 512"), "{out}");
        assert!(!out.contains("ERR("), "{out}");
    }
}
