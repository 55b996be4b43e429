//! Dataset serialization on real generated data, and smoke coverage
//! that every table/figure renderer produces the expected artifacts.

use iotls_repro::analysis::{figures, tables, FingerprintDb, SharingGraph};
use iotls_repro::capture::{from_json, global_columnar, to_json_columnar};
use iotls_repro::core::{
    analyze_columnar, library_alert_matrix, run_downgrade_probe, run_fingerprint_survey,
    run_interception_audit, run_old_version_scan, run_root_probe, ExperimentCtx,
};
use iotls_repro::devices::Testbed;

#[test]
fn full_dataset_json_roundtrip() {
    let ds = global_columnar();
    let json = to_json_columnar(ds);
    assert!(json.len() > 100_000, "dataset JSON suspiciously small");
    let back = from_json(&json).expect("roundtrip parses");
    // The parsed dataset exports the same bytes.
    assert_eq!(to_json_columnar(&back), json);
    assert_eq!(back.total_rows(), ds.total_rows());
    assert_eq!(back.total_connections(), ds.total_connections());
    assert_eq!(back.revocation_flows.len(), ds.revocation_flows.len());
    // Spot-check structural equality of a few records.
    for i in [0usize, 7, 1000 % ds.total_rows()] {
        let a = ds.rows().nth(i).expect("row");
        let b = back.rows().nth(i).expect("row");
        assert_eq!(a.raw.count(), b.raw.count());
        let (a, b) = (a.observation(), b.observation());
        assert_eq!(a.device, b.device);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.offered_suites, b.offered_suites);
    }
    // The export carries every column the fold reads (the maximum
    // advertised version is the maximum of the advertised list on
    // both sides), so the re-read dataset folds to the same analysis.
    let ctx = ExperimentCtx::new(0);
    assert_eq!(analyze_columnar(&back, &ctx), analyze_columnar(ds, &ctx));
}

#[test]
fn every_table_renders_with_expected_rows() {
    let testbed = Testbed::global();
    let t1 = tables::table1_roster(testbed);
    assert!(t1.contains("Appliances (n = 7)"));

    let t2 = tables::table2_attacks();
    assert!(t2.contains("InvalidBasicConstraints"));

    let t3 = tables::table3_platforms();
    assert!(t3.contains("Microsoft"));

    let t4 = tables::table4_library_alerts(&library_alert_matrix());
    assert!(t4.contains("WolfSSL (v4.1.0)"));

    let t5 = tables::table5_downgrades(&run_downgrade_probe(testbed, 0x4E9D));
    assert!(t5.contains("Falls back to using SSL 3.0"));
    assert!(t5.contains("Roku TV"));
    assert!(t5.contains("5 / 5"));

    let t6 = tables::table6_old_versions(&run_old_version_scan(testbed, 0x4E9D));
    assert!(t6.contains("18 devices"));
    assert!(t6.contains("Wemo Plug"));

    let audit = run_interception_audit(testbed, 0x4E9D);
    let t7 = tables::table7_interception(&audit);
    assert!(t7.contains("Zmodo Doorbell"));
    assert!(t7.contains("1 / 21"));

    let a = analyze_columnar(global_columnar(), &ExperimentCtx::new(0));
    let t8 = tables::table8_revocation(&a.revocation, &a.device_names);
    assert!(t8.contains("OCSP Stapling"));
    assert!(t8.contains("Samsung TV"));

    let probe = run_root_probe(testbed, 0x4E9D);
    let t9 = tables::table9_rootstores(&probe);
    assert!(t9.contains("Google Home Mini"));
    assert!(t9.contains("(119/119)"));
}

#[test]
fn every_figure_renders() {
    let testbed = Testbed::global();
    let a = analyze_columnar(global_columnar(), &ExperimentCtx::new(0));
    let f1 = figures::fig1_versions(&a.month_axis, &a.version_series, &a.summary.fig1_devices);
    assert!(f1.contains("Wemo Plug"));
    let f2 = figures::fig2_insecure(&a.month_axis, &a.cipher_series);
    assert!(f2.contains("advertising insecure"));
    let f3 = figures::fig3_strong(&a.month_axis, &a.cipher_series);
    assert!(f3.contains("forward-secret"));
    let probe = run_root_probe(testbed, 0x4E9D);
    let f4 = figures::fig4_staleness(testbed.pki, &probe);
    assert!(f4.contains("LG TV"));
    let survey = run_fingerprint_survey(testbed, 0x4E9D);
    let graph = SharingGraph::build(&survey, &FingerprintDb::build(0xDB));
    let f5 = graph.render();
    assert!(f5.contains("fingerprint"));
    assert_eq!(graph.devices().len(), 19);
}

#[test]
fn experiments_are_reproducible_across_runs() {
    let testbed = Testbed::global();
    let a = run_interception_audit(testbed, 0x5EED);
    let b = run_interception_audit(testbed, 0x5EED);
    assert_eq!(a.vulnerable_rows().len(), b.vulnerable_rows().len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.device, rb.device);
        assert_eq!(ra.vulnerable_destinations, rb.vulnerable_destinations);
        assert_eq!(ra.total_destinations, rb.total_destinations);
    }
    let pa = run_root_probe(testbed, 0x5EED);
    let pb = run_root_probe(testbed, 0x5EED);
    for (ra, rb) in pa.rows.iter().zip(&pb.rows) {
        assert_eq!(ra.amenable, rb.amenable);
        assert_eq!(ra.common_ratio(), rb.common_ratio());
        assert_eq!(ra.deprecated_ratio(), rb.deprecated_ratio());
    }
}
