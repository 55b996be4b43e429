//! Renderers for the paper's figures: monthly heatmaps (Figures 1–3),
//! the staleness histogram (Figure 4), and the sharing graph's text
//! form (Figure 5 lives in [`crate::fpgraph`]).
//!
//! The heatmaps take their axis and series from one
//! [`iotls::PassiveAnalysis`] (`month_axis`, `version_series`,
//! `cipher_series`), the output of the production passive fold.

use crate::render::heat_row;
use iotls::{CipherMix, RootProbeReport, Series, VersionMix};
use iotls_rootstore::{staleness_histogram, SimPki};
use iotls_x509::Month;
use std::collections::BTreeMap;

const LABEL_WIDTH: usize = 22;

fn series_row<T, F: Fn(&T) -> f64>(
    series: &BTreeMap<Month, T>,
    axis: &[Month],
    f: F,
) -> Vec<Option<f64>> {
    axis.iter()
        .map(|m| series.get(m).map(&f))
        .collect()
}

fn axis_header(axis: &[Month]) -> String {
    let mut line = format!("{:<width$} |", "", width = LABEL_WIDTH);
    for m in axis {
        line.push(if m.month == 1 {
            char::from_digit((m.year % 10) as u32, 10).unwrap_or('?')
        } else {
            '.'
        });
    }
    line.push('|');
    line
}

/// Row extractors for one device's six Figure 1 rows.
type MixRow<'a> = (&'a str, Box<dyn Fn(&VersionMix) -> f64>);

/// Figure 1: advertised and established TLS version heatmap. Only the
/// devices with non-TLS-1.2 behavior are shown, as in the paper.
pub fn fig1_versions(
    axis: &[Month],
    series: &Series<VersionMix>,
    fig1_devices: &[String],
) -> String {
    let mut out = String::from(
        "Figure 1: TLS version support over time (rows per device: 1.3 / 1.2 / older; \
         left = advertised, right = established; '·' = no traffic)\n\n",
    );
    out.push_str(&axis_header(axis));
    out.push('\n');
    for device in fig1_devices {
        let Some(s) = series.get(device) else {
            continue;
        };
        let rows: [MixRow; 6] = [
            ("adv 1.3", Box::new(|m: &VersionMix| m.adv_tls13)),
            ("adv 1.2", Box::new(|m: &VersionMix| m.adv_tls12)),
            ("adv old", Box::new(|m: &VersionMix| m.adv_older)),
            ("est 1.3", Box::new(|m: &VersionMix| m.est_tls13)),
            ("est 1.2", Box::new(|m: &VersionMix| m.est_tls12)),
            ("est old", Box::new(|m: &VersionMix| m.est_older)),
        ];
        for (label, f) in rows {
            let values = series_row(s, axis, &f);
            out.push_str(&heat_row(
                &format!("{device} {label}"),
                &values,
                LABEL_WIDTH + 8,
            ));
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Figure 2: insecure-ciphersuite advertisement heatmap (devices that
/// advertise them; lower is better).
pub fn fig2_insecure(axis: &[Month], series: &Series<CipherMix>) -> String {
    let mut out = String::from(
        "Figure 2: fraction of connections advertising insecure ciphersuites \
         (DES/3DES/RC4/EXPORT) per month\n\n",
    );
    out.push_str(&axis_header(axis));
    out.push('\n');
    for (device, s) in series {
        let values = series_row(s, axis, |m| m.adv_insecure);
        // Skip the clean devices, as the paper's figure does.
        let ever = values.iter().flatten().any(|v| *v > 0.01);
        if !ever {
            continue;
        }
        out.push_str(&heat_row(device, &values, LABEL_WIDTH + 8));
        out.push('\n');
    }
    out
}

/// Figure 3: strong-ciphersuite (forward secrecy) establishment
/// heatmap (higher is better).
pub fn fig3_strong(axis: &[Month], series: &Series<CipherMix>) -> String {
    let mut out = String::from(
        "Figure 3: fraction of connections established with forward-secret \
         ciphersuites per month\n\n",
    );
    out.push_str(&axis_header(axis));
    out.push('\n');
    for (device, s) in series {
        let values = series_row(s, axis, |m| m.est_strong);
        // The paper hides the 18 devices that are always-strong.
        let always_strong = values.iter().flatten().all(|v| *v > 0.9)
            && values.iter().any(|v| v.is_some());
        if always_strong {
            continue;
        }
        out.push_str(&heat_row(device, &values, LABEL_WIDTH + 8));
        out.push('\n');
    }
    out
}

/// Figure 4: per-device staleness of deprecated roots (year-of-removal
/// histogram), from *measured* probe results.
pub fn fig4_staleness(pki: &SimPki, report: &RootProbeReport) -> String {
    let mut out = String::from(
        "Figure 4: year of removal (from major platforms) of deprecated root \
         certificates still present in each device\n\n",
    );
    let years: Vec<i32> = (2013..=2021).collect();
    out.push_str(&format!("{:<24}", "Device"));
    for y in &years {
        out.push_str(&format!("{:>6}", y));
    }
    out.push_str("  total\n");
    for row in report.amenable_rows() {
        let present = row.deprecated_present_ids();
        let hist = staleness_histogram(&pki.histories, &present);
        out.push_str(&format!("{:<24}", row.device));
        let mut total = 0;
        for y in &years {
            let c = hist.get(y).copied().unwrap_or(0);
            total += c;
            out.push_str(&format!("{:>6}", if c > 0 { c.to_string() } else { "-".into() }));
        }
        out.push_str(&format!("{total:>7}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed_analysis as analysis;

    #[test]
    fn fig1_contains_wemo_and_axis() {
        let a = analysis();
        let text = fig1_versions(&a.month_axis, &a.version_series, &a.summary.fig1_devices);
        assert!(text.contains("Wemo Plug adv old"));
        assert!(text.contains("Google Home Mini adv 1.3"));
        // 27 months of axis between the pipes.
        let header = text.lines().nth(2).unwrap();
        let width = header.rfind('|').unwrap() - header.find('|').unwrap() - 1;
        assert_eq!(width, 27);
    }

    #[test]
    fn fig2_skips_clean_devices() {
        let a = analysis();
        let text = fig2_insecure(&a.month_axis, &a.cipher_series);
        assert!(text.contains("Zmodo Doorbell"));
        assert!(!text.contains("D-Link Camera"));
        assert!(!text.contains("Nest Thermostat"));
    }

    #[test]
    fn fig3_shows_transitioning_devices() {
        let a = analysis();
        let text = fig3_strong(&a.month_axis, &a.cipher_series);
        assert!(text.contains("Blink Hub"));
        assert!(text.contains("Wink Hub 2"));
    }
}
