//! Cross-crate end-to-end test: runs the complete IoTLS experiment
//! suite through the public API and asserts the paper's headline
//! findings (the abstract's numbers).

use iotls_repro::capture::global_columnar;
use iotls_repro::core::{
    analyze_columnar, library_alert_matrix, run_downgrade_probe, run_interception_audit,
    run_old_version_scan, run_root_probe, ExperimentCtx,
};
use iotls_repro::devices::Testbed;

#[test]
fn abstract_headline_findings() {
    let testbed = Testbed::global();

    // "11/32 devices are vulnerable to TLS interception attacks."
    let audit = run_interception_audit(testbed, 0xE2E);
    assert_eq!(audit.rows.len(), 32);
    assert_eq!(audit.vulnerable_rows().len(), 11);

    // "TLS connections from 7 vulnerable devices contained sensitive
    // data."
    assert_eq!(audit.leaky_devices().len(), 7);

    // "7 devices downgrade to deprecated protocol versions or old
    // ciphersuites in the face of an active on-path attacker."
    let downgrades = run_downgrade_probe(testbed, 0xE2E);
    assert_eq!(downgrades.len(), 7);

    // Table 6: 18 devices accept old TLS versions.
    let old = run_old_version_scan(testbed, 0xE2E);
    assert_eq!(old.len(), 18);

    // "At least 8 IoT devices still include distrusted certificates
    // in their root stores" — 8 amenable devices, each trusting at
    // least one deprecated (and at least one distrusted) root.
    let probe = run_root_probe(testbed, 0xE2E);
    let amenable = probe.amenable_rows();
    assert_eq!(amenable.len(), 8);
    let distrusted: std::collections::BTreeSet<_> =
        testbed.pki.universe.distrusted_ids().into_iter().collect();
    for row in &amenable {
        let present = row.deprecated_present_ids();
        assert!(!present.is_empty(), "{} has no deprecated roots", row.device);
        assert!(
            present.iter().any(|id| distrusted.contains(id)),
            "{} trusts no explicitly distrusted CA",
            row.device
        );
    }

    // Table 4: exactly MbedTLS and OpenSSL are amenable.
    let amenable_libs: Vec<_> = library_alert_matrix()
        .into_iter()
        .filter(|r| r.amenable())
        .map(|r| r.library)
        .collect();
    assert_eq!(amenable_libs.len(), 2);
}

#[test]
fn passive_headlines_match_paper() {
    let summary = analyze_columnar(global_columnar(), &ExperimentCtx::new(0)).summary;

    // "A large majority of the devices (28/40) use TLS 1.2
    // exclusively."
    assert_eq!(summary.tls12_exclusive_devices.len(), 28);

    // "Devices never support (ANON, NULL) ciphersuites."
    assert!(!summary.null_anon_seen);

    // "34 devices advertised insecure ciphersuites but only 2 ever
    // established connections using those."
    assert_eq!(summary.devices_advertising_insecure.len(), 34);
    assert_eq!(summary.devices_establishing_insecure.len(), 2);

    // "33 devices advertise support for forward secrecy."
    assert_eq!(summary.devices_advertising_fs.len(), 33);
}

#[test]
fn dataset_scale_matches_section_4_1() {
    let stats = global_columnar().stats();
    // ≈17M total connections, mean ≈422K, median ≈138K — same order
    // and same mean>median skew.
    assert!(
        (12_000_000..=22_000_000).contains(&stats.total_connections),
        "{}",
        stats.total_connections
    );
    assert!(stats.mean_per_device > stats.median_per_device as f64);
    assert_eq!(stats.per_device.len(), 40);
}
