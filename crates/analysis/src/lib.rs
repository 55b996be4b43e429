//! # iotls-analysis
//!
//! Reporting layer for the IoTLS reproduction: turns live experiment
//! results into the paper's tables and figures.
//!
//! * [`render`] — text-table and ASCII-heatmap primitives;
//! * [`tables`] — Tables 1–9 regenerated from experiment reports;
//! * [`figures`] — Figures 1–4 (heatmaps, staleness histogram);
//! * [`fpdb`] — the 1,684-entry labeled fingerprint database
//!   (Kotzias et al. stand-in);
//! * [`fpgraph`] — the Figure 5 device–fingerprint–application
//!   sharing graph;
//! * [`export`] — CSV exports of the figure series for external
//!   plotting;
//! * [`minimization`] — §5.2's root-store utilization question,
//!   answered with measurements.

pub mod export;
pub mod figures;
pub mod fpdb;
pub mod golden;
pub mod fpgraph;
pub mod minimization;
pub mod render;
pub mod tables;

pub use export::{cipher_series_csv, staleness_csv, version_series_csv};
pub use fpdb::{template_fingerprint, FingerprintDb, DB_SIZE};
pub use golden::experiment_artifacts;
pub use fpgraph::{Edge, Node, SharingGraph};
pub use minimization::{render_utilization, root_store_utilization, UtilizationRow};
pub use render::{heat_glyph, heat_row, TextTable};

/// The production passive fold over the seed-scale capture, which the
/// renderer and export tests read.
#[cfg(test)]
fn seed_analysis() -> &'static iotls::PassiveAnalysis {
    static A: std::sync::OnceLock<iotls::PassiveAnalysis> = std::sync::OnceLock::new();
    A.get_or_init(|| {
        iotls::analyze_columnar(iotls_capture::global_columnar(), &iotls::ExperimentCtx::new(0))
    })
}
