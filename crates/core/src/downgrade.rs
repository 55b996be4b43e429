//! Downgrade probing: connection-failure fallbacks (Table 5) and
//! old-version negotiation support (Table 6).
//!
//! Both experiments are purely observational: the prober compares the
//! ClientHello of a device's *retry* against its first attempt
//! (Table 5), or watches whether the device proceeds past a
//! ServerHello that selects an old protocol version (Table 6). It
//! never reads device configuration.

use crate::attacker::InterceptPolicy;
use crate::experiment::{
    fault_stats_json, DowngradeProbe, Experiment, ExperimentCtx, OldVersionScan, Report,
};
use crate::lab::{ActiveLab, FaultStats, LabSeed};
use iotls_capture::json::Json;
use iotls_devices::Testbed;
use iotls_obs::Registry;
use iotls_tls::ciphersuite;
use iotls_tls::client::HandshakeFailure;
use iotls_tls::extension::sig_scheme;
use iotls_tls::handshake::ClientHello;
use iotls_tls::version::ProtocolVersion;
use std::collections::BTreeSet;

/// How a retry weakened the connection, as observed on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DowngradeKind {
    /// Maximum advertised version dropped.
    VersionFallback {
        /// Original maximum.
        from: ProtocolVersion,
        /// Retry maximum.
        to: ProtocolVersion,
    },
    /// The retry offer added insecure suites or weak signature
    /// algorithms.
    WeakerCiphers {
        /// Insecure suites newly offered.
        added_insecure: Vec<u16>,
        /// rsa_pkcs1_sha1 newly advertised.
        added_sha1: bool,
    },
    /// The suite list collapsed (Roku's 73 → 1).
    SuiteCollapse {
        /// Original offer size.
        from: usize,
        /// Retry offer size.
        to: usize,
        /// What remained.
        remaining: Vec<u16>,
    },
}

/// One device's Table 5 row.
#[derive(Debug, Clone)]
pub struct DowngradeRow {
    /// Device name.
    pub device: String,
    /// Downgrades after a *failed* handshake.
    pub on_failed_handshake: bool,
    /// Downgrades after an *incomplete* handshake.
    pub on_incomplete_handshake: bool,
    /// What the downgrade looks like.
    pub kind: DowngradeKind,
    /// Destinations that downgraded.
    pub downgraded_destinations: BTreeSet<String>,
    /// Destinations tested.
    pub total_destinations: usize,
}

/// Classifies the difference between two hellos from the same device.
pub fn classify_downgrade(first: &ClientHello, retry: &ClientHello) -> Option<DowngradeKind> {
    let from = first.max_version();
    let to = retry.max_version();
    if to < from {
        return Some(DowngradeKind::VersionFallback { from, to });
    }
    if retry.cipher_suites.len() < first.cipher_suites.len() / 2 {
        return Some(DowngradeKind::SuiteCollapse {
            from: first.cipher_suites.len(),
            to: retry.cipher_suites.len(),
            remaining: retry.cipher_suites.clone(),
        });
    }
    let added_insecure: Vec<u16> = retry
        .cipher_suites
        .iter()
        .filter(|s| !first.cipher_suites.contains(s))
        .filter(|s| ciphersuite::id_is_insecure(**s))
        .copied()
        .collect();
    let sha1 = |h: &ClientHello| {
        h.extensions.iter().any(|e| match e {
            iotls_tls::Extension::SignatureAlgorithms(algs) => {
                algs.contains(&sig_scheme::RSA_PKCS1_SHA1)
            }
            _ => false,
        })
    };
    let added_sha1 = !sha1(first) && sha1(retry);
    if !added_insecure.is_empty() || added_sha1 {
        return Some(DowngradeKind::WeakerCiphers {
            added_insecure,
            added_sha1,
        });
    }
    None
}

/// The Table 5 report: downgrade rows plus the fault/recovery
/// counters aggregated across every lab the probe spun up.
#[derive(Debug, Clone)]
pub struct DowngradeReport {
    /// One row per device that downgraded (devices that never
    /// weakened a retry are absent — Table 5 prints offenders only).
    pub rows: Vec<DowngradeRow>,
    /// Aggregated fault/recovery counters; all zeros outside chaos
    /// runs.
    pub fault_stats: FaultStats,
}

/// Runs the Table 5 experiment — every active device, every boot
/// destination, under both failure modes — with the default context.
pub fn run_downgrade_probe(testbed: &Testbed, seed: u64) -> Vec<DowngradeRow> {
    DowngradeProbe.run(testbed, &ExperimentCtx::new(seed)).rows
}

impl Experiment for DowngradeProbe {
    type Report = DowngradeReport;

    fn name(&self) -> &'static str {
        "downgrade_probe"
    }

    /// Runs the Table 5 experiment under the context's fault schedule.
    /// An outcome still tainted after the lab's retry budget never
    /// mints a downgrade verdict: a retry forced by a network fault is
    /// not a device fallback decision. Per-lab `sim.*`/`core.*`
    /// counters merge in roster order, plus `downgrade.*`
    /// step/trigger counters tallied from the rows in the sequential
    /// merge; the report's fault totals are read back from it.
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> DowngradeReport {
        let seed = ctx.seed();
        let mut rows = Vec::new();
        let mut reg = Registry::new();
        // One lab seed (and its attacker) per attack mode, shared by
        // every device's lab for that mode.
        let policies = [InterceptPolicy::Mute, InterceptPolicy::SelfSigned];
        let lab_seeds: Vec<LabSeed> = (0..policies.len() as u64)
            .map(|mode| LabSeed::new(testbed.pki, seed ^ mode << 16))
            .collect();
        let devices: Vec<_> = testbed.devices.iter().filter(|d| d.spec.in_active).collect();
        let per_device = iotls_simnet::ordered_map_with(ctx.threads(), devices, |device| {
            let mut device_reg = Registry::new();
            let mut on_failed = false;
            let mut on_incomplete = false;
            let mut kind: Option<DowngradeKind> = None;
            let mut downgraded = BTreeSet::new();
            let mut total = 0;

            for (mode_idx, (policy, lab_seed)) in policies.iter().zip(&lab_seeds).enumerate() {
                let mut lab = ActiveLab::new(testbed, ctx, lab_seed, device);
                if mode_idx == 0 {
                    total = device.spec.boot_destinations().len();
                }
                // Boot until the device talks (flaky boots).
                let mut outcomes = Vec::new();
                for _ in 0..6 {
                    outcomes = lab.boot_and_connect(Some(policy));
                    if !outcomes.is_empty() {
                        break;
                    }
                }
                for o in &outcomes {
                    if o.result.tainted() {
                        continue;
                    }
                    let Some(retry) = &o.retry_hello else {
                        continue;
                    };
                    if let Some(k) = classify_downgrade(&o.first_hello, retry) {
                        downgraded.insert(o.destination.clone());
                        if mode_idx == 0 {
                            on_incomplete = true;
                        } else {
                            on_failed = true;
                        }
                        kind.get_or_insert(k);
                    }
                }
                device_reg.merge(&lab.metrics());
            }

            let row = kind.map(|kind| DowngradeRow {
                device: device.spec.name.clone(),
                on_failed_handshake: on_failed,
                on_incomplete_handshake: on_incomplete,
                kind,
                downgraded_destinations: downgraded,
                total_destinations: total,
            });
            (row, device_reg)
        });
        for (row, device_reg) in per_device {
            reg.merge(&device_reg);
            reg.inc("downgrade.devices.probed");
            if let Some(row) = &row {
                reg.inc(match row.kind {
                    DowngradeKind::VersionFallback { .. } => "downgrade.steps.version_fallback",
                    DowngradeKind::WeakerCiphers { .. } => "downgrade.steps.weaker_ciphers",
                    DowngradeKind::SuiteCollapse { .. } => "downgrade.steps.suite_collapse",
                });
                if row.on_failed_handshake {
                    reg.inc("downgrade.triggers.failed_handshake");
                }
                if row.on_incomplete_handshake {
                    reg.inc("downgrade.triggers.incomplete_handshake");
                }
                reg.add(
                    "downgrade.destinations.downgraded",
                    row.downgraded_destinations.len() as u64,
                );
            }
            rows.extend(row);
        }
        ctx.merge_metrics(&reg);
        DowngradeReport {
            rows,
            fault_stats: FaultStats::from_counters(&reg),
        }
    }
}

impl Report for DowngradeReport {
    fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let kind = match &r.kind {
                    DowngradeKind::VersionFallback { from, to } => Json::Obj(vec![
                        ("kind".into(), Json::Str("version_fallback".into())),
                        ("from".into(), Json::Str(format!("{from:?}"))),
                        ("to".into(), Json::Str(format!("{to:?}"))),
                    ]),
                    DowngradeKind::WeakerCiphers {
                        added_insecure,
                        added_sha1,
                    } => Json::Obj(vec![
                        ("kind".into(), Json::Str("weaker_ciphers".into())),
                        (
                            "added_insecure".into(),
                            Json::Arr(
                                added_insecure.iter().map(|s| Json::Num(*s as i128)).collect(),
                            ),
                        ),
                        ("added_sha1".into(), Json::Bool(*added_sha1)),
                    ]),
                    DowngradeKind::SuiteCollapse {
                        from,
                        to,
                        remaining,
                    } => Json::Obj(vec![
                        ("kind".into(), Json::Str("suite_collapse".into())),
                        ("from".into(), Json::Num(*from as i128)),
                        ("to".into(), Json::Num(*to as i128)),
                        (
                            "remaining".into(),
                            Json::Arr(remaining.iter().map(|s| Json::Num(*s as i128)).collect()),
                        ),
                    ]),
                };
                Json::Obj(vec![
                    ("device".into(), Json::Str(r.device.clone())),
                    (
                        "on_failed_handshake".into(),
                        Json::Bool(r.on_failed_handshake),
                    ),
                    (
                        "on_incomplete_handshake".into(),
                        Json::Bool(r.on_incomplete_handshake),
                    ),
                    ("downgrade".into(), kind),
                    (
                        "downgraded_destinations".into(),
                        Json::Num(r.downgraded_destinations.len() as i128),
                    ),
                    (
                        "total_destinations".into(),
                        Json::Num(r.total_destinations as i128),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("rows".into(), Json::Arr(rows)),
            ("fault_stats".into(), fault_stats_json(&self.fault_stats)),
        ])
    }

    fn fixtures(&self) -> &'static [&'static str] {
        &["table5_downgrades"]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fault_stats)
    }
}

/// One device's Table 6 row: which old versions it will negotiate.
#[derive(Debug, Clone)]
pub struct OldVersionRow {
    /// Device name.
    pub device: String,
    /// Accepts a TLS 1.0 ServerHello.
    pub tls10: bool,
    /// Accepts a TLS 1.1 ServerHello.
    pub tls11: bool,
}

/// Observes whether the lab's device accepts a forced old version: if
/// it aborts with `protocol_version` before the certificate stage, the
/// version is unsupported; anything later (including a certificate
/// rejection) means the version was accepted.
fn accepts_version(lab: &mut ActiveLab<'_>, v: ProtocolVersion) -> bool {
    let policy = InterceptPolicy::ForcedVersion(v);
    for _ in 0..6 {
        let outcomes = lab.boot_and_connect(Some(&policy));
        if outcomes.is_empty() {
            continue;
        }
        return outcomes.iter().any(|o| {
            if o.result.tainted() {
                // A faulted session proves nothing about version
                // support either way.
                return false;
            }
            if o.result.established {
                return true;
            }
            match &o.result.client_summary.failure {
                Some(HandshakeFailure::UnsupportedVersion(_)) => false,
                // Anything past version negotiation (certificate
                // alerts, key-exchange failures) means v was accepted.
                Some(_) => o.result.client_summary.version == Some(v),
                None => false,
            }
        });
    }
    false
}

/// The Table 6 report: acceptance rows plus aggregated fault
/// counters.
#[derive(Debug, Clone)]
pub struct OldVersionReport {
    /// One row per device that accepted at least one old version.
    pub rows: Vec<OldVersionRow>,
    /// Aggregated fault/recovery counters; all zeros outside chaos
    /// runs.
    pub fault_stats: FaultStats,
}

/// Runs the Table 6 scan over every active device with the default
/// context.
pub fn run_old_version_scan(testbed: &Testbed, seed: u64) -> Vec<OldVersionRow> {
    OldVersionScan.run(testbed, &ExperimentCtx::new(seed)).rows
}

impl Experiment for OldVersionScan {
    type Report = OldVersionReport;

    fn name(&self) -> &'static str {
        "old_version_scan"
    }

    /// Runs the Table 6 scan under the context's fault schedule:
    /// per-lab counters merge in roster order plus `oldversion.*`
    /// acceptance counters; the report's fault totals are read back
    /// from them.
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> OldVersionReport {
        let seed = ctx.seed();
        let mut rows = Vec::new();
        let mut reg = Registry::new();
        // One lab seed (and its attacker) per scanned version.
        let (seed10, seed11) = (
            LabSeed::new(testbed.pki, seed ^ 0x10),
            LabSeed::new(testbed.pki, seed ^ 0x11),
        );
        let devices: Vec<_> = testbed.devices.iter().filter(|d| d.spec.in_active).collect();
        let per_device = iotls_simnet::ordered_map_with(ctx.threads(), devices, |device| {
            let mut lab10 = ActiveLab::new(testbed, ctx, &seed10, device);
            let tls10 = accepts_version(&mut lab10, ProtocolVersion::Tls10);
            let mut device_reg = lab10.metrics();
            let mut lab11 = ActiveLab::new(testbed, ctx, &seed11, device);
            let tls11 = accepts_version(&mut lab11, ProtocolVersion::Tls11);
            device_reg.merge(&lab11.metrics());
            let row = (tls10 || tls11).then(|| OldVersionRow {
                device: device.spec.name.clone(),
                tls10,
                tls11,
            });
            (row, device_reg)
        });
        for (row, device_reg) in per_device {
            reg.merge(&device_reg);
            reg.inc("oldversion.devices.scanned");
            if let Some(row) = &row {
                if row.tls10 {
                    reg.inc("oldversion.accepts.tls10");
                }
                if row.tls11 {
                    reg.inc("oldversion.accepts.tls11");
                }
            }
            rows.extend(row);
        }
        ctx.merge_metrics(&reg);
        OldVersionReport {
            rows,
            fault_stats: FaultStats::from_counters(&reg),
        }
    }
}

impl Report for OldVersionReport {
    fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("device".into(), Json::Str(r.device.clone())),
                    ("tls10".into(), Json::Bool(r.tls10)),
                    ("tls11".into(), Json::Bool(r.tls11)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("rows".into(), Json::Arr(rows)),
            ("fault_stats".into(), fault_stats_json(&self.fault_stats)),
        ])
    }

    fn fixtures(&self) -> &'static [&'static str] {
        &["table6_old_versions"]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fault_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn downgrades() -> &'static Vec<DowngradeRow> {
        static R: OnceLock<Vec<DowngradeRow>> = OnceLock::new();
        R.get_or_init(|| run_downgrade_probe(Testbed::global(), 0xD0E6))
    }

    fn old_versions() -> &'static Vec<OldVersionRow> {
        static R: OnceLock<Vec<OldVersionRow>> = OnceLock::new();
        R.get_or_init(|| run_old_version_scan(Testbed::global(), 0x01DE))
    }

    #[test]
    fn seven_devices_downgrade() {
        let names: Vec<&str> = downgrades().iter().map(|r| r.device.as_str()).collect();
        assert_eq!(names.len(), 7, "{names:?}");
    }

    #[test]
    fn amazon_family_falls_back_to_ssl30_on_incomplete_only() {
        for name in [
            "Amazon Echo Dot",
            "Amazon Echo Plus",
            "Amazon Echo Spot",
            "Fire TV",
        ] {
            let row = downgrades()
                .iter()
                .find(|r| r.device == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(!row.on_failed_handshake, "{name}");
            assert!(row.on_incomplete_handshake, "{name}");
            assert!(
                matches!(
                    row.kind,
                    DowngradeKind::VersionFallback {
                        to: ProtocolVersion::Ssl30,
                        ..
                    }
                ),
                "{name}: {:?}",
                row.kind
            );
        }
    }

    #[test]
    fn homepod_falls_back_to_tls10() {
        let row = downgrades()
            .iter()
            .find(|r| r.device == "Apple HomePod")
            .unwrap();
        assert!(matches!(
            row.kind,
            DowngradeKind::VersionFallback {
                to: ProtocolVersion::Tls10,
                ..
            }
        ));
        assert!(!row.on_failed_handshake);
        assert!(row.on_incomplete_handshake);
    }

    #[test]
    fn google_home_mini_weakens_ciphers_and_sigalgs_everywhere() {
        let row = downgrades()
            .iter()
            .find(|r| r.device == "Google Home Mini")
            .unwrap();
        match &row.kind {
            DowngradeKind::WeakerCiphers {
                added_insecure,
                added_sha1,
            } => {
                assert!(added_insecure.contains(&0x000a), "3DES added");
                assert!(added_sha1, "SHA-1 sig alg added");
            }
            other => panic!("unexpected kind {other:?}"),
        }
        // 5/5: every destination downgrades.
        assert_eq!(row.downgraded_destinations.len(), row.total_destinations);
        assert_eq!(row.total_destinations, 5);
    }

    #[test]
    fn roku_collapses_to_single_rc4_suite_on_both_triggers() {
        let row = downgrades().iter().find(|r| r.device == "Roku TV").unwrap();
        assert!(row.on_failed_handshake);
        assert!(row.on_incomplete_handshake);
        match &row.kind {
            DowngradeKind::SuiteCollapse { from, to, remaining } => {
                assert!(*from >= 40, "Roku offered {from} suites");
                assert_eq!(*to, 1);
                assert_eq!(remaining, &vec![0x0005]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(row.downgraded_destinations.len(), 8);
        assert_eq!(row.total_destinations, 15);
    }

    #[test]
    fn downgraded_destination_ratios_match_table5() {
        let expect = [
            ("Amazon Echo Dot", 7, 9),
            ("Amazon Echo Plus", 6, 7),
            ("Amazon Echo Spot", 11, 15),
            ("Fire TV", 13, 21),
            ("Apple HomePod", 7, 9),
            ("Google Home Mini", 5, 5),
            ("Roku TV", 8, 15),
        ];
        for (name, down, total) in expect {
            let row = downgrades().iter().find(|r| r.device == name).unwrap();
            assert_eq!(
                (row.downgraded_destinations.len(), row.total_destinations),
                (down, total),
                "{name}"
            );
        }
    }

    #[test]
    fn eighteen_devices_accept_old_versions() {
        let names: Vec<&str> = old_versions().iter().map(|r| r.device.as_str()).collect();
        assert_eq!(names.len(), 18, "{names:?}");
    }

    #[test]
    fn asymmetric_version_support_rows() {
        let find = |n: &str| old_versions().iter().find(|r| r.device == n);
        let fridge = find("Samsung Fridge").expect("fridge row");
        assert!(!fridge.tls10 && fridge.tls11);
        let dryer = find("Samsung Dryer").expect("dryer row");
        assert!(!dryer.tls10 && dryer.tls11);
        let wemo = find("Wemo Plug").expect("wemo row");
        assert!(wemo.tls10 && !wemo.tls11);
        assert!(find("Amazon Echo Dot 3").is_none(), "Dot 3 is TLS 1.2+");
        assert!(find("Apple TV").is_none(), "Apple refuses old versions");
    }

    #[test]
    fn classify_detects_nothing_when_hellos_match() {
        let hello = ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [0; 32],
            session_id: vec![],
            cipher_suites: vec![0xc02f],
            compression_methods: vec![0],
            extensions: vec![],
        };
        assert_eq!(classify_downgrade(&hello, &hello.clone()), None);
    }
}
