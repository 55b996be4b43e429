//! Root-store minimization (§5.2's closing question).
//!
//! "An important question is whether these devices all need to use
//! such large root stores, or instead some of the devices can reduce
//! their trusted set of certificates to cover only the destinations
//! that are required for the device." This analysis answers it with
//! measurements: the issuers actually *used* by a device's
//! destinations (observed in served certificate chains at the
//! gateway) versus the store size the probe measured.

use iotls::RootProbeReport;
use iotls_capture::ColumnarDataset;
use std::collections::{BTreeMap, BTreeSet};

/// One device's utilization row.
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    /// Device name.
    pub device: String,
    /// Distinct issuer CNs observed in served leaf certificates.
    pub issuers_used: BTreeSet<String>,
    /// Root-store size as the probe measured it (present commons +
    /// present deprecated).
    pub measured_store_size: usize,
}

impl UtilizationRow {
    /// Fraction of the measured store the device actually needs.
    pub fn utilization(&self) -> f64 {
        self.issuers_used.len() as f64 / self.measured_store_size.max(1) as f64
    }
}

/// Computes utilization for every amenable (probed) device.
pub fn root_store_utilization(
    ds: &ColumnarDataset,
    probe: &RootProbeReport,
) -> Vec<UtilizationRow> {
    // Issuers per device from passive data.
    let mut issuers: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for r in ds.rows() {
        if let Some(issuer) = r.leaf_issuer() {
            issuers
                .entry(r.device_name())
                .or_default()
                .insert(issuer.to_string());
        }
    }
    probe
        .amenable_rows()
        .into_iter()
        .map(|row| {
            let (cp, _) = row.common_ratio();
            let (dp, _) = row.deprecated_ratio();
            UtilizationRow {
                device: row.device.clone(),
                issuers_used: issuers
                    .get(row.device.as_str())
                    .cloned()
                    .unwrap_or_default(),
                measured_store_size: cp + dp,
            }
        })
        .collect()
}

/// Renders the utilization table.
pub fn render_utilization(rows: &[UtilizationRow]) -> String {
    let mut t = crate::render::TextTable::new(&[
        "Device",
        "Issuers used",
        "Measured store size",
        "Utilization",
    ]);
    for row in rows {
        t.row(&[
            row.device.clone(),
            row.issuers_used.len().to_string(),
            row.measured_store_size.to_string(),
            format!("{:.1}%", 100.0 * row.utilization()),
        ]);
    }
    format!(
        "Root-store utilization (§5.2): issuers actually used vs roots trusted\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls::run_root_probe;
    use iotls_capture::global_columnar;
    use iotls_devices::Testbed;
    use std::sync::OnceLock;

    fn rows() -> &'static Vec<UtilizationRow> {
        static R: OnceLock<Vec<UtilizationRow>> = OnceLock::new();
        R.get_or_init(|| {
            let probe = run_root_probe(Testbed::global(), 0x07111);
            root_store_utilization(global_columnar(), &probe)
        })
    }

    #[test]
    fn covers_the_eight_amenable_devices() {
        assert_eq!(rows().len(), 8);
    }

    #[test]
    fn every_device_wildly_overtrusts() {
        // The paper's implied answer: devices contact a handful of
        // issuers yet trust ~100+ roots.
        for row in rows() {
            assert!(
                !row.issuers_used.is_empty(),
                "{}: no issuers observed",
                row.device
            );
            assert!(
                row.issuers_used.len() <= 25,
                "{}: {} issuers",
                row.device,
                row.issuers_used.len()
            );
            assert!(row.measured_store_size >= 80, "{}", row.device);
            assert!(
                row.utilization() < 0.25,
                "{}: {:.1}% utilization",
                row.device,
                100.0 * row.utilization()
            );
        }
    }

    #[test]
    fn issuers_are_real_ca_names() {
        for row in rows() {
            for issuer in &row.issuers_used {
                assert!(
                    issuer.contains("SimTrust") || issuer.contains("CA"),
                    "{}: odd issuer {issuer}",
                    row.device
                );
            }
        }
    }

    #[test]
    fn render_contains_percentages() {
        let text = render_utilization(rows());
        assert!(text.contains("Utilization"));
        assert!(text.contains('%'));
        assert!(text.contains("Google Home Mini"));
    }
}
