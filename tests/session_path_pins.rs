//! Session-path pins: every engine's report and deterministic counter
//! snapshot, and the seed-scale passive capture, digested under
//! uniform fault plans at 0, 50 and 200‰.
//!
//! The expected digests were captured from the byte-feed tap path that
//! preceded the chain-fed driver, so they hold the one remaining
//! session path to the old outputs *under faults* — garbled, cut and
//! stalled links included, where an observer riding inside the
//! endpoints' record loops diverges from a gateway tap. They are never
//! re-blessed: a mismatch is a behaviour change in the session path.

use iotls_repro::capture::{to_json_columnar, CaptureCtx};
use iotls_repro::core::{ExperimentCtx, ExperimentKind, Report};
use iotls_repro::crypto::sha256::{hex, sha256};
use iotls_repro::devices::Testbed;
use iotls_repro::obs::{Registry, SharedRegistry};
use iotls_repro::simnet::FaultPlan;

/// Worker count of every pinned run (the outputs are identical at any
/// count; two exercises the parallel merge).
const THREADS: usize = 2;
/// Seed of the pinned capture (the generator's unit-test seed).
const CAPTURE_SEED: u64 = 0xCAFE;
/// XORed into an engine's canonical seed to derive its fault-plan
/// seed (the capture draws its faults from its own seed).
const PLAN_SALT: u64 = 0x55;

/// `(fault rate ‰, run, report digest, counters digest)`.
#[rustfmt::skip]
const PINS: &[(u16, &str, &str, &str)] = &[
    (0, "interception_audit", "e25eac26a0e30808", "b3264c463805cf68"),
    (0, "root_probe", "a0efe33727fc7ae1", "0f58c3ceed5120e4"),
    (0, "downgrade_probe", "1990efa706617203", "a57bb9bd24f11794"),
    (0, "old_version_scan", "9ef3fe46310c7215", "96b573db4ad4bf92"),
    (0, "fingerprint_survey", "01ab590c77c697f5", "b04a6a97519ca793"),
    (0, "audit_service", "d4c99c78f817d63a", "446ee4b9cd14f5ff"),
    (0, "gateway_service", "7e64fbf5e4c9605c", "8f228c94bbea2abd"),
    (0, "capture", "c824c5dda23fcd4c", "7cba242b60ed78a7"),
    (50, "interception_audit", "0dd2ce801eaa7b33", "e701a772aaea21f9"),
    (50, "root_probe", "3a3a17b0b0cad637", "ab59d87452470b0f"),
    (50, "downgrade_probe", "85cd24b6a7254dd7", "490df63aee402d18"),
    (50, "old_version_scan", "16ffbcd15d922357", "52b736cd92d1288d"),
    (50, "fingerprint_survey", "307b52e9e9b8b0c4", "8409e66403eccb6f"),
    (50, "audit_service", "4d8a32781f29df0c", "9d95266377a07717"),
    (50, "gateway_service", "1a4141103074f019", "5f097fb0fceef2fa"),
    (50, "capture", "b6f425812cd69d1d", "0cdcbe982ea00b74"),
    (200, "interception_audit", "4c5e40e3531ec1a2", "cb2b891eab00df3b"),
    (200, "root_probe", "cbaba02e6c1cdc68", "18b3dd2eb4885a43"),
    (200, "downgrade_probe", "0205c0a41fc4b74b", "709e0b5badcfcfdc"),
    (200, "old_version_scan", "626ba2b669e2329b", "1a68fbf794a73e94"),
    (200, "fingerprint_survey", "ef5bda5fb31b0688", "9551ab96229134c5"),
    (200, "audit_service", "df9b85be51e6af10", "eb74e5997620ce76"),
    (200, "gateway_service", "d7ea02bb2af14c43", "3292f80364f80c4f"),
    (200, "capture", "ed45af20de866887", "4a6520737a0a2611"),
];

/// A short content digest (the first 8 bytes of SHA-256, hex).
fn digest(s: &str) -> String {
    hex(&sha256(s.as_bytes())[..8])
}

/// Runs every engine at its canonical seed, then the capture, under a
/// uniform plan at `pm`; returns the digest rows plus each run's
/// counter registry.
fn run_all(pm: u16) -> Vec<(String, String, String, Registry)> {
    let tb = Testbed::global();
    let mut rows = Vec::new();
    for kind in ExperimentKind::ALL {
        let seed = kind.canonical_seed();
        let ctx = ExperimentCtx::builder()
            .seed(seed)
            .plan(FaultPlan::uniform(seed ^ PLAN_SALT, pm))
            .threads(THREADS)
            .metrics(true)
            .build();
        let report = kind.run(tb, &ctx).to_json().encode();
        let reg = ctx.metrics_snapshot();
        rows.push((
            kind.name().to_string(),
            digest(&report),
            digest(&reg.counters_json()),
            reg,
        ));
    }
    let metrics = SharedRegistry::live();
    let ds = CaptureCtx::new(CAPTURE_SEED)
        .with_plan(FaultPlan::uniform(CAPTURE_SEED, pm))
        .with_threads(THREADS)
        .with_metrics(metrics.clone())
        .generate_columnar(tb);
    let reg = metrics.snapshot();
    rows.push((
        "capture".to_string(),
        digest(&to_json_columnar(&ds)),
        digest(&reg.counters_json()),
        reg,
    ));
    rows
}

/// Checks every run at `pm` against [`PINS`], reporting all mismatches
/// at once; returns the registries by run name for spot checks.
fn check(pm: u16) -> Vec<(String, Registry)> {
    let rows = run_all(pm);
    let mut mismatches = Vec::new();
    for (name, report, counters, _) in &rows {
        let pinned = PINS
            .iter()
            .find(|(p, n, _, _)| *p == pm && n == name)
            .map(|(_, _, r, c)| (*r, *c));
        if pinned != Some((report.as_str(), counters.as_str())) {
            mismatches.push(format!(
                "    ({pm}, \"{name}\", \"{report}\", \"{counters}\"), // pinned {pinned:?}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "session-path outputs moved at {pm}‰:\n{}",
        mismatches.join("\n")
    );
    rows.into_iter()
        .map(|(name, _, _, reg)| (name, reg))
        .collect()
}

fn registry<'a>(regs: &'a [(String, Registry)], name: &str) -> &'a Registry {
    &regs.iter().find(|(n, _)| n == name).expect("run present").1
}

#[test]
fn clean_links_match_the_parent() {
    check(0);
}

#[test]
fn faults_at_50_permille_match_the_parent() {
    check(50);
}

#[test]
fn faults_at_200_permille_match_the_parent() {
    let regs = check(200);
    // Spot values behind the digests, readable on their own.
    let audit = registry(&regs, "interception_audit");
    assert_eq!(audit.counter("sim.tap.bytes"), 2_749_264);
    assert_eq!(audit.counter("sim.tap.records_deframed"), 21_043);
    let capture = registry(&regs, "capture");
    assert_eq!(capture.counter("sim.tap.bytes"), 260_934);
    assert_eq!(capture.counter("sim.tap.records_deframed"), 2_664);
    assert_eq!(capture.counter("capture.captures.truncated"), 5);
}
