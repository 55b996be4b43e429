//! The design ablations (DESIGN.md §6) as checked claims: each test
//! asserts the exact counts EXPERIMENTS.md states for it, at seed
//! `0xBE7C`.
//!
//! * **Alert side channel** — with only success/failure visible, every
//!   spoofed-CA probe looks the same; the first client alert tells a
//!   store's present roots from its absent ones.
//! * **Probe scheduling** — one boot burst mixes TLS instances, so
//!   probing several certificates inside one boot would mis-attribute
//!   store contents; one reboot per certificate costs one handshake
//!   per probe, a batched boot drives every boot connection.
//! * **Fingerprint features** — the full JA3 feature permutation
//!   separates instances that a version+ciphers-only fingerprint
//!   merges.
//!
//! Handshakes are counted from the returned outcomes, never from the
//! process-wide session counter, which other tests in this binary move
//! concurrently.

use iotls_repro::core::{
    run_fingerprint_survey, ActiveLab, ConnectionOutcome, ExperimentCtx, InterceptPolicy, LabSeed,
};
use iotls_repro::devices::{canonical_probe_order, Testbed};
use iotls_repro::tls::alert::AlertDescription;
use std::collections::{BTreeSet, HashSet};

/// The seed every ablation runs at.
const SEED: u64 = 0xBE7C;

/// The ctx the ablations' labs borrow: no faults, one worker and no
/// metrics, whatever the environment says.
fn lab_ctx() -> ExperimentCtx {
    ExperimentCtx::builder()
        .seed(SEED)
        .threads(1)
        .metrics(false)
        .build()
}

/// Handshakes behind a run of connections: one per outcome, plus one
/// for each fallback reconnect.
fn handshakes(outcomes: &[ConnectionOutcome]) -> usize {
    outcomes
        .iter()
        .map(|o| 1 + usize::from(o.retry_hello.is_some()))
        .sum()
}

#[test]
fn alert_side_channel_carries_what_success_and_failure_cannot() {
    // 20 spoofed-CA probes of an amenable device: the head of the
    // canonical probe order (present in its store) and the tail
    // (mostly absent).
    let testbed = Testbed::global();
    let order = canonical_probe_order(testbed.pki);
    let sample = order.iter().take(10).chain(order.iter().rev().take(10));
    let ctx = lab_ctx();
    let lab_seed = LabSeed::new(testbed.pki, SEED);
    let dev = testbed.device("Google Home Mini");
    let mut lab = ActiveLab::new(testbed, &ctx, &lab_seed, dev);
    let dest = &dev.spec.destinations[0];
    let mut established = BTreeSet::new();
    let mut first_alerts = HashSet::new();
    for ca in sample {
        let target = testbed.pki.universe.get(*ca).cert.clone();
        let out = lab.connect(dest, Some(&InterceptPolicy::SpoofedCa(Box::new(target))));
        established.insert(out.result.established);
        first_alerts.insert(
            out.result
                .observation
                .as_ref()
                .and_then(|o| o.alerts_from_client.first().copied()),
        );
    }
    assert_eq!(
        established,
        BTreeSet::from([false]),
        "success/failure: one class"
    );
    assert_eq!(
        first_alerts,
        HashSet::from([
            Some(AlertDescription::UnknownCa),
            Some(AlertDescription::BadCertificate),
        ]),
        "first client alert: two classes"
    );
}

#[test]
fn one_boot_burst_mixes_tls_instances() {
    let testbed = Testbed::global();
    let ctx = lab_ctx();
    let lab_seed = LabSeed::new(testbed.pki, SEED);
    let mut lab = ActiveLab::new(testbed, &ctx, &lab_seed, testbed.device("Fire TV"));
    let outcomes = lab.boot_and_connect(None);
    let instances: BTreeSet<_> = outcomes.iter().map(|o| o.first_fingerprint).collect();
    assert_eq!(outcomes.len(), 21, "connections in one boot burst");
    assert_eq!(
        instances.len(),
        3,
        "distinct first fingerprints in the burst"
    );
}

#[test]
fn one_reboot_per_certificate_costs_one_handshake_per_probe() {
    let testbed = Testbed::global();
    let dev = testbed.device("Amazon Echo Dot");
    let target = testbed.pki.universe.get(testbed.pki.common[2]).cert.clone();
    let policy = InterceptPolicy::SpoofedCa(Box::new(target));

    let ctx = lab_ctx();
    let lab_seed = LabSeed::new(testbed.pki, SEED);

    // The paper's unit: power-cycle, then probe the first boot
    // connection only.
    let mut lab = ActiveLab::new(testbed, &ctx, &lab_seed, dev);
    assert!(lab.power_cycle(), "the first boot produces traffic");
    let dest = dev.spec.boot_destinations()[0];
    let probe = [lab.connect(dest, Some(&policy))];
    assert_eq!(handshakes(&probe), 1);

    // The batched alternative drives the whole boot.
    let mut lab = ActiveLab::new(testbed, &ctx, &lab_seed, dev);
    let batched = lab.boot_and_connect(Some(&policy));
    assert_eq!(handshakes(&batched), 9);
}

#[test]
fn full_ja3_features_separate_instances_version_and_ciphers_merge() {
    let testbed = Testbed::global();
    let survey = run_fingerprint_survey(testbed, SEED);
    let mut full = BTreeSet::new();
    let mut reduced = BTreeSet::new();
    for dev in testbed.devices.iter().filter(|d| d.spec.in_active) {
        full.extend(
            survey
                .by_device
                .get(&dev.spec.name)
                .into_iter()
                .flatten()
                .copied(),
        );
        for inst in dev.spec.instances_now() {
            let versions: Vec<u16> = inst.versions.iter().map(|v| v.wire()).collect();
            reduced.insert((versions, inst.cipher_suites.clone()));
        }
    }
    assert_eq!(full.len(), 33, "distinct full JA3 fingerprints");
    assert_eq!(reduced.len(), 27, "distinct version+ciphers fingerprints");
}
