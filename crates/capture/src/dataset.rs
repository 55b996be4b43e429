//! Revocation-endpoint flows, and the aggregate statistics §4.1
//! reports over the passive dataset (≈17M connections; per-device
//! mean ≈422K, median ≈138K).

use crate::columnar::ColumnarDataset;
use iotls_x509::Timestamp;
use std::collections::{BTreeMap, BTreeSet};

/// Which revocation mechanism a flow exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevocationKind {
    /// A CRL distribution point fetch.
    CrlFetch,
    /// An OCSP responder query.
    OcspQuery,
}

/// A device contacting a revocation endpoint (observed as plain
/// HTTP-over-TCP flows at the gateway, as in the paper).
#[derive(Debug, Clone)]
pub struct RevocationFlow {
    /// When.
    pub time: Timestamp,
    /// Which device.
    pub device: String,
    /// CRL or OCSP.
    pub kind: RevocationKind,
    /// Endpoint URL.
    pub url: String,
    /// Connections that month.
    pub count: u64,
}

/// Aggregate statistics over the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Total TLS connections represented.
    pub total_connections: u64,
    /// Per-device totals, sorted by device name.
    pub per_device: Vec<(String, u64)>,
    /// Mean connections per device.
    pub mean_per_device: f64,
    /// Median connections per device.
    pub median_per_device: u64,
}

impl ColumnarDataset {
    /// Device names with at least one observation, sorted. Allocates
    /// one `String` per *distinct* device, not per row.
    pub fn device_names(&self) -> Vec<String> {
        let names: BTreeSet<&str> = self.rows().map(|r| r.device_name()).collect();
        names.into_iter().map(String::from).collect()
    }

    /// Aggregate statistics (§4.1).
    pub fn stats(&self) -> DatasetStats {
        let mut per: BTreeMap<&str, u64> = BTreeMap::new();
        for r in self.rows() {
            *per.entry(r.device_name()).or_insert(0) += r.raw.count();
        }
        let per_device: Vec<(String, u64)> =
            per.into_iter().map(|(d, c)| (d.to_string(), c)).collect();
        let total: u64 = per_device.iter().map(|(_, c)| c).sum();
        let mut counts: Vec<u64> = per_device.iter().map(|(_, c)| *c).collect();
        counts.sort_unstable();
        let median = if counts.is_empty() {
            0
        } else {
            counts[counts.len() / 2]
        };
        DatasetStats {
            total_connections: total,
            mean_per_device: if per_device.is_empty() {
                0.0
            } else {
                total as f64 / per_device.len() as f64
            },
            median_per_device: median,
            per_device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::DatasetBuilder;
    use iotls_simnet::TlsObservation;
    use iotls_tls::fingerprint::{Fingerprint, FingerprintId};
    use iotls_tls::version::ProtocolVersion;
    use iotls_x509::Month;

    fn obs(device: &str, month: Month) -> TlsObservation {
        let fp: FingerprintId = Fingerprint {
            version: 0x0303,
            ciphers: vec![0xc02f],
            extensions: vec![0],
            groups: vec![],
            point_formats: vec![],
        }
        .id();
        TlsObservation {
            time: month.start().plus_days(14),
            device: device.into(),
            destination: "x.example".into(),
            sni: None,
            advertised_versions: vec![ProtocolVersion::Tls12],
            max_advertised: ProtocolVersion::Tls12,
            offered_suites: vec![0xc02f],
            requested_ocsp: false,
            fingerprint: fp,
            negotiated_version: Some(ProtocolVersion::Tls12),
            negotiated_suite: Some(0xc02f),
            ocsp_stapled: false,
            leaf_issuer: None,
            established: true,
            alerts_from_client: vec![],
            alerts_from_server: vec![],
        }
    }

    /// A dataset of one row per `(device, month, count)`.
    fn weighted(rows: &[(&str, Month, u64)]) -> ColumnarDataset {
        let mut b = DatasetBuilder::new();
        let mut chunks = Vec::new();
        for &(device, month, count) in rows {
            b.push_obs(&obs(device, month), count, &mut |c| chunks.push(c));
        }
        b.flush(&mut |c| chunks.push(c));
        b.into_dataset(chunks)
    }

    #[test]
    fn totals_and_filters() {
        let ds = weighted(&[
            ("A", Month::new(2018, 1), 100),
            ("A", Month::new(2018, 2), 50),
            ("B", Month::new(2018, 1), 10),
        ]);
        assert_eq!(ds.total_connections(), 160);
        assert_eq!(ds.device_rows("A").count(), 2);
        assert_eq!(ds.device_names(), vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn stats_mean_and_median() {
        let ds = weighted(&[
            ("A", Month::new(2018, 1), 100),
            ("B", Month::new(2018, 1), 10),
            ("C", Month::new(2018, 1), 40),
        ]);
        let s = ds.stats();
        assert_eq!(s.total_connections, 150);
        assert!((s.mean_per_device - 50.0).abs() < 1e-9);
        assert_eq!(s.median_per_device, 40);
        assert_eq!(s.per_device.len(), 3);
    }

    #[test]
    fn empty_dataset_stats() {
        let ds = ColumnarDataset::default();
        let s = ds.stats();
        assert_eq!(s.total_connections, 0);
        assert_eq!(s.median_per_device, 0);
    }
}
