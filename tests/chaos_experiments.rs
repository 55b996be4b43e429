//! Chaos suite: the full measurement pipeline under deterministic
//! injected faults.
//!
//! A fixed-seed [`FaultPlan`] subjects every experiment to ~5%
//! connection resets, DNS flaps, and a sprinkling of garbled
//! fragments, stalls, and mid-handshake power cycles. The retry and
//! recovery machinery in the measurement core must absorb all of it:
//! every table and headline count asserted here is compared
//! field-by-field against a fault-free run of the same seed.

use iotls_repro::core::{
    run_downgrade_probe, run_interception_audit, run_old_version_scan, run_root_probe, ActiveLab,
    DowngradeProbe, Experiment, ExperimentCtx, FaultStats, InterceptPolicy, InterceptionAudit,
    OldVersionScan, RootProbe,
};
use iotls_repro::devices::{client_config, Testbed};
use iotls_repro::simnet::{
    drive_session, DriveScratch, FailureCause, FaultOp, FaultPlan, GatewayTap, LinkConditioner,
    SessionFaults, SessionParams,
};
use iotls_repro::tls::client::ClientConnection;
use iotls_repro::tls::middleware::Chain;
use iotls_repro::tls::server::ServerConnection;
use iotls_repro::crypto::drbg::Drbg;

/// The canonical chaos schedule: ~5% resets, ~5% DNS flaps, plus
/// lower-rate garbles, stalls, and power cycles.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
        reset_pm: 50,
        garble_pm: 20,
        stall_pm: 10,
        dns_fail_pm: 50,
        power_cycle_pm: 15,
    }
}

/// A context carrying the chaos schedule for `seed`.
fn chaos_ctx(seed: u64) -> ExperimentCtx {
    ExperimentCtx::builder().seed(seed).plan(chaos_plan()).build()
}

#[test]
fn interception_audit_is_identical_under_chaos() {
    let tb = Testbed::global();
    let clean = run_interception_audit(tb, 0x7AB1E7);
    let chaos = InterceptionAudit.run(tb, &chaos_ctx(0x7AB1E7));

    assert_eq!(chaos.vulnerable_rows().len(), 11);
    assert_eq!(chaos.leaky_devices().len(), 7);
    assert_eq!(clean.rows.len(), chaos.rows.len());
    for (a, b) in clean.rows.iter().zip(&chaos.rows) {
        assert_eq!(a.device, b.device);
        assert_eq!(a.no_validation, b.no_validation, "{}", a.device);
        assert_eq!(
            a.invalid_basic_constraints, b.invalid_basic_constraints,
            "{}",
            a.device
        );
        assert_eq!(a.wrong_hostname, b.wrong_hostname, "{}", a.device);
        assert_eq!(
            a.vulnerable_destinations, b.vulnerable_destinations,
            "{}",
            a.device
        );
        assert_eq!(a.total_destinations, b.total_destinations, "{}", a.device);
        assert_eq!(a.sensitive_leaks, b.sensitive_leaks, "{}", a.device);
    }
    assert_eq!(
        clean.passthrough_extra_hostnames_pct,
        chaos.passthrough_extra_hostnames_pct
    );

    // The run was not trivially clean: faults fired and were healed.
    let s = chaos.fault_stats;
    assert!(s.injected_total() > 0, "no faults fired: {s:?}");
    assert!(s.dns_failures > 0, "no DNS flaps fired: {s:?}");
    assert!(s.recovered > 0, "nothing recovered: {s:?}");
    assert_eq!(clean.fault_stats, FaultStats::default());
    println!("audit fault/recovery report: {s:?}");
}

#[test]
fn downgrade_and_old_version_tables_are_identical_under_chaos() {
    let tb = Testbed::global();
    let clean = run_downgrade_probe(tb, 0xD0E6);
    let report = DowngradeProbe.run(tb, &chaos_ctx(0xD0E6));
    let (chaos, stats) = (report.rows, report.fault_stats);
    assert_eq!(chaos.len(), 7);
    assert_eq!(clean.len(), chaos.len());
    for (a, b) in clean.iter().zip(&chaos) {
        assert_eq!(a.device, b.device);
        assert_eq!(a.on_failed_handshake, b.on_failed_handshake, "{}", a.device);
        assert_eq!(
            a.on_incomplete_handshake, b.on_incomplete_handshake,
            "{}",
            a.device
        );
        assert_eq!(a.kind, b.kind, "{}", a.device);
        assert_eq!(
            a.downgraded_destinations, b.downgraded_destinations,
            "{}",
            a.device
        );
        assert_eq!(a.total_destinations, b.total_destinations, "{}", a.device);
    }
    assert!(stats.injected_total() > 0, "{stats:?}");
    println!("downgrade fault/recovery report: {stats:?}");

    let clean_old = run_old_version_scan(tb, 0x01DE);
    let old_report = OldVersionScan.run(tb, &chaos_ctx(0x01DE));
    let (chaos_old, old_stats) = (old_report.rows, old_report.fault_stats);
    assert_eq!(chaos_old.len(), 18);
    assert_eq!(clean_old.len(), chaos_old.len());
    for (a, b) in clean_old.iter().zip(&chaos_old) {
        assert_eq!((a.device.as_str(), a.tls10, a.tls11), (b.device.as_str(), b.tls10, b.tls11));
    }
    assert!(old_stats.injected_total() > 0, "{old_stats:?}");
}

#[test]
fn root_probe_table9_is_identical_under_chaos() {
    let tb = Testbed::global();
    let clean = run_root_probe(tb, 0x6007);
    let chaos = RootProbe.run(tb, &chaos_ctx(0x6007));

    assert_eq!(clean.excluded_reboot_unsafe, chaos.excluded_reboot_unsafe);
    assert_eq!(clean.excluded_no_validation, chaos.excluded_no_validation);
    assert_eq!(chaos.amenable_rows().len(), 8);
    assert_eq!(clean.rows.len(), chaos.rows.len());
    for (a, b) in clean.rows.iter().zip(&chaos.rows) {
        assert_eq!(a.device, b.device);
        assert_eq!(a.amenable, b.amenable, "{}", a.device);
        assert_eq!(a.common, b.common, "{} common verdicts", a.device);
        assert_eq!(a.deprecated, b.deprecated, "{} deprecated verdicts", a.device);
    }

    let s = chaos.fault_stats;
    assert!(s.injected_total() > 0, "no faults fired: {s:?}");
    assert!(s.recovered > 0, "nothing recovered: {s:?}");
    // The verdict pass lost probes to faults and re-probed them back.
    assert!(chaos.reprobed_verdicts > 0, "no verdicts re-probed");
    assert_eq!(clean.reprobed_verdicts, 0);
    println!(
        "root-probe fault/recovery report: {s:?}, reprobed {} verdicts",
        chaos.reprobed_verdicts
    );
}

#[test]
fn chaos_runs_are_deterministic() {
    // Same FaultPlan seed ⇒ identical fault schedule, identical
    // outcomes, identical retry counts — run twice, compare.
    let tb = Testbed::global();
    let run = || {
        let mut lab = ActiveLab::with_faults(tb, 0xDE7, chaos_plan());
        let dev = tb.device("Amazon Echo Dot");
        let mut log = Vec::new();
        for _ in 0..6 {
            for o in lab.boot_and_connect(dev, Some(&InterceptPolicy::SelfSigned)) {
                log.push((
                    o.destination.clone(),
                    o.result.established,
                    o.result.faults.clone(),
                ));
            }
        }
        (log, lab.fault_stats())
    };
    let (log_a, stats_a) = run();
    let (log_b, stats_b) = run();
    assert_eq!(log_a, log_b);
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.injected_total() > 0, "plan never fired: {stats_a:?}");

    // And the schedule itself is a pure function of (seed, key).
    let plan = chaos_plan();
    for i in 0..50 {
        let key = format!("conn/dev/host/0/false/try{i}");
        assert_eq!(plan.session_faults(&key), plan.session_faults(&key));
    }
}

#[test]
fn stalled_peer_is_reported_wedged_not_rejected() {
    // Regression: a session that stops making progress must surface
    // as FailureCause::Wedged, not as a TLS-level rejection by either
    // endpoint.
    let tb = Testbed::global();
    let dev = tb.device("D-Link Camera");
    let dest = dev.spec.destinations[0].clone();
    let now = iotls_repro::rootstore::probe_time();
    let spec = dev.spec.instances_at(now.month())[0].clone();
    let cfg = client_config(&spec, dev.truth.store.clone());
    let server_cfg = tb.server_config(&dest);
    let client_rng = Drbg::from_seed(0x57A11).fork("client");
    let server_rng = client_rng.fork("server");
    let client = ClientConnection::new(cfg, &dest.hostname, now, client_rng);
    let server = ServerConnection::new(server_cfg, server_rng);
    let mut conditioner = LinkConditioner::new(SessionFaults {
        ops: vec![FaultOp::Stall { after_round: 0 }],
        dns: None,
    });
    let result = drive_session(
        client,
        server,
        SessionParams::default(),
        &mut conditioner,
        &mut Chain::new().with(Box::new(GatewayTap::new())),
        &mut DriveScratch::new(),
    );
    assert!(!result.established);
    assert_eq!(result.failure, Some(FailureCause::Wedged));
    assert!(
        result.client_summary.failure.is_none(),
        "wedge misreported as a TLS rejection: {:?}",
        result.client_summary.failure
    );
    assert!(result.tainted());
}

#[test]
fn fault_counters_exactly_match_the_injected_schedule() {
    // The observability layer counts faults twice, independently: the
    // link conditioner's injections land in `sim.faults.injected.*`
    // (per session result, at the tap) and the lab's recovery
    // machinery tallies the same events into `FaultStats` (exported as
    // `core.faults.*`). Both views must agree *exactly* with the
    // engine's own fault report — a higher metric would mean a fault
    // double-counted, a lower one a fault silently swallowed.
    let tb = Testbed::global();
    for (name, reg, stats) in [
        {
            let ctx = ExperimentCtx::builder()
                .seed(0x7AB1E7)
                .plan(chaos_plan())
                .metrics(true)
                .build();
            let report = InterceptionAudit.run(tb, &ctx);
            ("audit", ctx.metrics_snapshot(), report.fault_stats)
        },
        {
            let ctx = ExperimentCtx::builder()
                .seed(0x6007)
                .plan(chaos_plan())
                .metrics(true)
                .build();
            let report = RootProbe.run(tb, &ctx);
            ("rootprobe", ctx.metrics_snapshot(), report.fault_stats)
        },
    ] {
        assert!(stats.injected_total() > 0, "{name}: plan never fired");
        for (counter, want) in [
            ("sim.faults.injected.reset", stats.resets),
            ("sim.faults.injected.garble", stats.garbles),
            ("sim.faults.injected.stall", stats.stalls),
            ("sim.faults.injected.power_cycle", stats.power_cycles),
            ("sim.faults.injected.dns", stats.dns_failures),
            ("core.faults.resets", stats.resets),
            ("core.faults.garbles", stats.garbles),
            ("core.faults.stalls", stats.stalls),
            ("core.faults.power_cycles", stats.power_cycles),
            ("core.faults.dns_failures", stats.dns_failures),
            ("core.retries.inline", stats.inline_retries),
            ("core.recovered", stats.recovered),
            ("core.unrecovered", stats.unrecovered),
        ] {
            assert_eq!(
                reg.counter(counter),
                want,
                "{name}: `{counter}` diverges from the engine's FaultStats {stats:?}"
            );
        }
        let injected_metric: u64 = reg
            .counters()
            .filter(|(k, _)| k.starts_with("sim.faults.injected."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(injected_metric, stats.injected_total(), "{name}");
    }
}

#[test]
fn gateway_survives_fault_plan_extremes() {
    use iotls_repro::core::{Gateway, GatewayConfig, GatewayService};

    let tb = Testbed::global();
    let run = |pm: u16| {
        let ctx = ExperimentCtx::builder()
            .seed(0x6A7E)
            .plan(FaultPlan::uniform(0x6A7E, pm))
            .threads(4)
            .build();
        Gateway::new(tb, &ctx, GatewayConfig::default()).run()
    };

    // 0% fault rate: the hot path. No panics, no faults, no failure
    // verdicts — and still every admitted session accounted for.
    let clean = run(0);
    assert!(clean.invariant_holds(), "{}", clean.render());
    assert_eq!(clean.panicked, 0);
    assert_eq!(clean.fault_stats, FaultStats::default());
    assert_eq!(clean.failed_total(), 0);
    assert_eq!(clean.deadline_exceeded, 0);
    assert_eq!(
        clean.established + clean.handshake_failed,
        clean.completed,
        "every clean session must carry a terminal verdict"
    );
    assert!(clean.established > 0);

    // 100% fault rate: every try of every session faults. Still no
    // panics, and every completed session lands on a *typed* verdict —
    // a FailureCause bucket, a deadline overrun, or a clean-link
    // decline; nothing unclassified.
    let storm = run(1000);
    assert!(storm.invariant_holds(), "{}", storm.render());
    assert_eq!(storm.panicked, 0, "fault storms must not panic the pool");
    assert_eq!(storm.established, 0, "nothing survives a 100% fault rate");
    assert_eq!(
        storm.failed_total() + storm.deadline_exceeded + storm.handshake_failed,
        storm.completed,
        "unclassified sessions under 100% faults: {}",
        storm.render()
    );
    assert!(storm.failed_total() > 0);

    // FaultStats totals must equal the injected-fault counters the
    // same run exported — one event, two independent tallies.
    let s = storm.fault_stats;
    assert!(s.injected_total() > 0);
    let injected_metric: u64 = storm
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("gateway.faults.injected."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(injected_metric, s.injected_total());
    for (counter, want) in [
        ("gateway.faults.injected.reset", s.resets),
        ("gateway.faults.injected.garble", s.garbles),
        ("gateway.faults.injected.stall", s.stalls),
        ("gateway.faults.injected.power_cycle", s.power_cycles),
        ("gateway.faults.injected.dns", s.dns_failures),
    ] {
        let got = storm
            .counters
            .iter()
            .find(|(k, _)| *k == counter)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(got, want, "`{counter}` diverges from FaultStats {s:?}");
    }

    // The registered engine path absorbs the chaos ctx the same way.
    let report = GatewayService.run(tb, &chaos_ctx(0x6A7E));
    assert!(report.invariant_holds());
    assert!(report.fault_stats.injected_total() > 0);
}

#[test]
fn passive_dataset_is_identical_under_chaos_and_counts_truncations() {
    use iotls_repro::capture::{generate, CaptureCtx};
    let tb = Testbed::global();
    let clean = generate(tb, 0xCAFE);
    let chaos = CaptureCtx::new(0xCAFE).with_plan(chaos_plan()).generate(tb);
    assert_eq!(clean.total_connections(), chaos.total_connections());
    assert_eq!(clean.observations.len(), chaos.observations.len());
    assert_eq!(
        clean.revocation_flows.len(),
        chaos.revocation_flows.len()
    );
    // Truncated captures were counted, not silently dropped.
    assert!(chaos.truncated > 0, "no truncated captures recorded");
    assert_eq!(clean.truncated, 0);
    println!("passive chaos: {} truncated captures re-driven", chaos.truncated);
}
