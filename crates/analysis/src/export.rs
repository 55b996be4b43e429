//! Machine-readable exports: CSV series for external plotting tools.
//!
//! The paper's figures are heatmaps over (device, month) grids; these
//! exporters write the exact numeric series behind them so downstream
//! users can re-plot with their own tooling.

use iotls::{CipherMix, Series, VersionMix};
use iotls_rootstore::{staleness_histogram, SimPki};
use iotls::RootProbeReport;
use iotls_x509::Month;

/// Escapes a CSV field (quotes fields containing separators).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// CSV of the Figure 1 series: one row per (device, month) with the
/// six version-mix fractions.
pub fn version_series_csv(axis: &[Month], series: &Series<VersionMix>) -> String {
    let mut out = String::from(
        "device,month,adv_tls13,adv_tls12,adv_older,est_tls13,est_tls12,est_older\n",
    );
    for (device, months) in series {
        for m in axis {
            if let Some(mix) = months.get(m) {
                out.push_str(&format!(
                    "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
                    field(device),
                    m,
                    mix.adv_tls13,
                    mix.adv_tls12,
                    mix.adv_older,
                    mix.est_tls13,
                    mix.est_tls12,
                    mix.est_older
                ));
            }
        }
    }
    out
}

/// CSV of the Figures 2–3 series.
pub fn cipher_series_csv(axis: &[Month], series: &Series<CipherMix>) -> String {
    let mut out =
        String::from("device,month,adv_insecure,est_insecure,adv_strong,est_strong\n");
    for (device, months) in series {
        for m in axis {
            if let Some(mix) = months.get(m) {
                out.push_str(&format!(
                    "{},{},{:.4},{:.4},{:.4},{:.4}\n",
                    field(device),
                    m,
                    mix.adv_insecure,
                    mix.est_insecure,
                    mix.adv_strong,
                    mix.est_strong
                ));
            }
        }
    }
    out
}

/// CSV of the Figure 4 data: per amenable device, per removal year,
/// the count of still-trusted deprecated roots.
pub fn staleness_csv(pki: &SimPki, report: &RootProbeReport) -> String {
    let mut out = String::from("device,removal_year,count\n");
    for row in report.amenable_rows() {
        let hist = staleness_histogram(&pki.histories, &row.deprecated_present_ids());
        for (year, count) in hist {
            out.push_str(&format!("{},{},{}\n", field(&row.device), year, count));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed_analysis as analysis;

    #[test]
    fn version_csv_shape() {
        let a = analysis();
        let csv = version_series_csv(&a.month_axis, &a.version_series);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "device,month,adv_tls13,adv_tls12,adv_older,est_tls13,est_tls12,est_older"
        );
        let body: Vec<&str> = lines.collect();
        // 40 devices × up to 27 months.
        assert!(body.len() > 700, "{} rows", body.len());
        for line in body {
            assert_eq!(line.split(',').count(), 8, "{line}");
        }
        assert!(csv.contains("Wemo Plug,2018-01,0.0000,0.0000,1.0000"));
    }

    #[test]
    fn cipher_csv_fractions_in_range() {
        let a = analysis();
        let csv = cipher_series_csv(&a.month_axis, &a.cipher_series);
        for line in csv.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            for v in &fields[2..] {
                let f: f64 = v.parse().unwrap();
                assert!((0.0..=1.0).contains(&f), "{line}");
            }
        }
    }

    #[test]
    fn field_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
