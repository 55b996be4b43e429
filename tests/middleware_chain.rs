//! Middleware-chain suite: determinism of the chained gateway across
//! worker counts, the audit- and survey-as-middleware oracles, detection
//! scored against simulator ground truth on the gateway path, and the
//! empty-chain equivalence of the chained replay primitives. (That the
//! tap-as-middleware reproduces every engine's outputs under faults is
//! pinned by `session_path_pins`.)
//!
//! Every test pins its worker count through the builder, so nothing
//! here reads `IOTLS_THREADS` or races the environment.

use iotls_repro::core::{
    AuditObserver, DriftDetector, Experiment, ExperimentCtx, FingerprintSurveyor, Gateway,
    GatewayConfig, InterceptionAudit, Report,
};
use iotls_repro::crypto::sha256::{hex, sha256};
use iotls_repro::devices::Testbed;
use iotls_repro::simnet::{replay_flow_chained, replay_flow_with, FaultPlan, ReplayScratch};
use iotls_repro::tls::middleware::{Chain, RecordCounter};
use iotls_repro::tls::Stage;

/// Report digests (first 8 bytes of SHA-256 over the report JSON, hex)
/// of the standalone byte-feed tap sweeps that preceded the chain-fed
/// driver, at the seeds and worker count of the two oracles below. The
/// middleware sweeps of that time produced the same bytes.
const AUDIT_TAP_SWEEP: &str = "e25eac26a0e30808";
const SURVEY_TAP_SWEEP: &str = "01ab590c77c697f5";

fn digest(s: &str) -> String {
    hex(&sha256(s.as_bytes())[..8])
}

/// Builds the canonical audit + detection chain factory for a gateway:
/// every endpoint gets an [`AuditObserver`] and a [`DriftDetector`]
/// enrolled with that endpoint's roster baselines.
fn register_audit_detection_chains(gw: &mut Gateway<'_>) {
    let baselines = gw.endpoint_baselines();
    gw.register_chains(Box::new(move |endpoint| {
        let enrolled = baselines.get(endpoint).cloned().unwrap_or_default();
        Some(
            Chain::new()
                .with(Box::new(AuditObserver::default()))
                .with(Box::new(DriftDetector::new(&enrolled))),
        )
    }));
}

#[test]
fn chained_gateway_report_is_byte_identical_across_worker_counts() {
    let tb = Testbed::global();
    let run = |threads: usize| {
        let ctx = ExperimentCtx::builder()
            .seed(0x31D1)
            .plan(FaultPlan::uniform(0x31D1, 100))
            .threads(threads)
            .build();
        let cfg = GatewayConfig {
            ticks: 24,
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(tb, &ctx, cfg);
        register_audit_detection_chains(&mut gw);
        let report = gw.run();
        assert!(report.invariant_holds(), "{}", report.render());
        (report.render(), report.to_json().encode())
    };
    let (text_1, json_1) = run(1);
    let (text_8, json_8) = run(8);
    assert_eq!(text_1, text_8, "rendered chained report diverged across threads");
    assert_eq!(json_1, json_8, "JSON chained report diverged across threads");
    // The middleware counters are present (and therefore covered by
    // the byte-identity assertion above).
    for stage in Stage::ALL {
        let name = format!("gateway.middleware.stage.{}.invocations", stage.label());
        assert!(text_1.contains(&name), "missing counter {name}");
    }
}

/// Digests (first 8 bytes of SHA-256, hex) of `render()` and of the
/// JSON encoding of the chained gateway report at seed 0x31D1, 24
/// ticks, audit + detection chains on every endpoint, one row per
/// uniform fault rate in per mille. Recorded before the drift detector
/// compared enrolled bodies instead of FNV-1a hashes and before the
/// gateway kept one worker pool for the whole run.
const CHAINED_GATEWAY_PINS: [(u16, &str, &str); 3] = [
    (0, "73b94dd7754c65f9", "8530641c27ade888"),
    (20, "a0323ea4f1fc3666", "71fef14f9958c87e"),
    (100, "b96e03381b9cb16a", "439a39d30b5e358e"),
];

#[test]
fn chained_gateway_report_is_pinned_at_every_worker_count() {
    let tb = Testbed::global();
    let mut moved = Vec::new();
    for (pm, want_text, want_json) in CHAINED_GATEWAY_PINS {
        for threads in [1, 2, 8] {
            let ctx = ExperimentCtx::builder()
                .seed(0x31D1)
                .plan(FaultPlan::uniform(0x31D1, pm))
                .threads(threads)
                .metrics(true)
                .build();
            let cfg = GatewayConfig {
                ticks: 24,
                ..GatewayConfig::default()
            };
            let mut gw = Gateway::new(tb, &ctx, cfg);
            register_audit_detection_chains(&mut gw);
            let report = gw.run();
            let text = digest(&report.render());
            let json = digest(&report.to_json().encode());
            if text != want_text || json != want_json {
                moved.push(format!(
                    "pm {pm} threads {threads}: {text} / {json} \
                     (admitted {} established {} intercepted {})",
                    report.admitted,
                    report.established,
                    report
                        .counters
                        .iter()
                        .find(|(k, _)| k == "gateway.middleware.sessions.intercepted")
                        .map_or(0, |(_, v)| *v),
                ));
            }
        }
    }
    assert!(moved.is_empty(), "chained gateway moved:\n{}", moved.join("\n"));
}

#[test]
fn benign_roster_replays_never_trip_the_detector() {
    // Ground truth on the gateway path: every session replays an
    // enrolled roster tape, so a correctly-enrolled drift detector
    // must flag nothing — the soak's verdict mix is exactly the
    // chainless one's.
    let tb = Testbed::global();
    let ctx = ExperimentCtx::builder().seed(0x6A7E).threads(4).build();
    let cfg = GatewayConfig {
        ticks: 16,
        ..GatewayConfig::default()
    };
    let chainless = Gateway::new(tb, &ctx, cfg).run();
    let mut gw = Gateway::new(tb, &ctx, cfg);
    register_audit_detection_chains(&mut gw);
    let chained = gw.run();

    let counter = |report: &iotls_repro::core::GatewayReport, name: &str| {
        report
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };
    // The registry omits zero-valued counters, so "never tripped"
    // shows up as the counter being absent entirely.
    assert_eq!(
        counter(&chained, "gateway.middleware.sessions.intercepted").unwrap_or(0),
        0,
        "false positives on enrolled tapes"
    );
    assert_eq!(
        counter(&chained, "gateway.middleware.sessions.aborted").unwrap_or(0),
        0
    );
    assert!(
        counter(&chained, "gateway.middleware.stage.record.invocations").unwrap_or(0) > 0,
        "chain never saw a record"
    );
    // Observe-only chains change nothing the chainless gateway
    // reports: verdict tallies and drain accounting are identical.
    assert_eq!(chained.admitted, chainless.admitted);
    assert_eq!(chained.established, chainless.established);
    assert_eq!(chained.handshake_failed, chainless.handshake_failed);
    assert_eq!(chained.bytes_replayed, chainless.bytes_replayed);
}

#[test]
fn audit_as_middleware_matches_the_standalone_sweep() {
    // The oracle: the Table 7 audit observed through the tap at slot 0
    // of the lab's middleware chain must reproduce the byte-feed tap
    // sweep exactly — same rows, same passthrough gain, same fault and
    // cache counters — held to that sweep's report digest.
    let tb = Testbed::global();
    let ctx = ExperimentCtx::builder().seed(0x7AB1E7).threads(4).build();
    let mw_path = InterceptionAudit.run(tb, &ctx).to_json().encode();
    assert_eq!(
        digest(&mw_path),
        AUDIT_TAP_SWEEP,
        "audit-as-middleware diverged from the standalone sweep"
    );
}

#[test]
fn fingerprint_survey_as_middleware_matches_the_tap_survey() {
    let tb = Testbed::global();
    let ctx = ExperimentCtx::builder().seed(0x5075).threads(4).build();
    let mw_path = FingerprintSurveyor.run(tb, &ctx).to_json().encode();
    assert_eq!(
        digest(&mw_path),
        SURVEY_TAP_SWEEP,
        "survey-as-middleware diverged from the tap survey"
    );
}

#[test]
fn empty_and_observe_chains_preserve_replay_outcomes() {
    // replay_flow_chained with an empty chain — and with an
    // observe-only counter — must classify exactly like
    // replay_flow_with, fault draw by fault draw.
    use iotls_repro::crypto::drbg::Drbg;
    use iotls_repro::devices::client_config;
    use iotls_repro::simnet::SessionFlow;
    use iotls_repro::tls::client::ClientConnection;
    use iotls_repro::tls::server::ServerConnection;

    let tb = Testbed::global();
    let plan = FaultPlan::uniform(0xFEED, 150);
    let mut scratch = ReplayScratch::new();
    let mut empty = Chain::new();
    let mut observed = Chain::new().with(Box::new(RecordCounter::default()));

    let now = iotls_repro::rootstore::probe_time();
    for (i, device) in tb
        .devices
        .iter()
        .filter(|d| d.spec.in_active)
        .take(4)
        .enumerate()
    {
        let dest = &device.spec.destinations[0];
        let instances = device.spec.instances_at(now.month());
        let instance = &instances[dest.instance.min(instances.len() - 1)];
        let cfg = client_config(instance, device.truth.store.clone());
        let rng = Drbg::from_seed(0xFEED).fork("mw-eq").fork(&dest.hostname);
        let server_rng = rng.fork("server");
        let client = ClientConnection::new(cfg, &dest.hostname, now, rng);
        let server = ServerConnection::new(tb.server_config(dest), server_rng);
        let flow = SessionFlow::record(client, server, Some(b"ping"), Some(b"ok"));

        let faults = plan.session_faults(&format!("eq/{i}"));
        let base = replay_flow_with(&flow, faults.clone(), 12, &mut scratch);
        let via_empty = replay_flow_chained(&flow, faults.clone(), 12, &mut scratch, &mut empty);
        let via_observe =
            replay_flow_chained(&flow, faults, 12, &mut scratch, &mut observed);
        for out in [&via_empty, &via_observe] {
            assert_eq!(out.completed, base.completed, "flow {i}");
            assert_eq!(out.established, base.established, "flow {i}");
            assert_eq!(out.failure, base.failure, "flow {i}");
            assert_eq!(out.rounds_used, base.rounds_used, "flow {i}");
            assert_eq!(out.bytes_delivered, base.bytes_delivered, "flow {i}");
        }
        assert!(empty.take_stats().total_invocations() == 0, "empty chain invoked hooks");
    }
    let counter = observed.middleware_mut::<RecordCounter>(0).unwrap();
    assert!(
        counter.c2s_records + counter.s2c_records > 0,
        "observe chain saw no records"
    );
}
