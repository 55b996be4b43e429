//! Quickstart: build the simulated smart-home testbed, drive one real
//! TLS handshake through the gateway tap, and try one interception.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Flags: `--seed N --threads N --faults PM --metrics` (see
//! `iotls_repro::cli`). With `--faults`, the fault-stats line at the
//! end shows the injected chaos and the labs' recovery work.

use iotls_repro::cli::{fault_stats_line, ExampleArgs};
use iotls_repro::core::{ActiveLab, InterceptPolicy, LabSeed};
use iotls_repro::devices::Testbed;
use iotls_repro::simnet::SessionResult;

fn main() {
    println!("== IoTLS reproduction quickstart ==\n");

    let args = ExampleArgs::parse();
    let ctx = args.ctx(1);

    // The testbed: 40 devices (Table 1), their cloud endpoints, and a
    // full synthetic PKI. Built once, deterministic.
    let testbed = Testbed::global();
    println!(
        "Testbed ready: {} devices, {} cloud endpoints, {} CAs\n",
        testbed.devices.len(),
        testbed.cloud().len(),
        testbed.pki.universe.len(),
    );
    println!("{}", iotls_repro::analysis::tables::table1_roster(testbed));

    // A benign connection: the D-Link camera phones home while the
    // gateway passively observes. A lab drives one device; it borrows
    // the ctx, so the fault plan follows the flags, and takes its
    // attacker from the lab seed. Every connection below recovers from
    // injected faults (a reset or power cycle mid-handshake) by
    // reconnecting, within the lab's budget.
    let lab_seed = LabSeed::new(testbed.pki, ctx.seed());
    let camera = testbed.device("D-Link Camera");
    let mut camera_lab = ActiveLab::new(testbed, &ctx, &lab_seed, camera);
    let dest = &camera.spec.destinations[0];
    let outcome = camera_lab.connect_recovering(dest, None);
    if outcome.result.tainted() {
        println!("{}", tainted_line("Benign connection", &outcome.result));
    } else if let Some(obs) = &outcome.result.observation {
        println!(
            "Passive observation: {} -> {} | negotiated {} with {} | fingerprint {}",
            obs.device,
            obs.destination,
            obs.negotiated_version.map(|v| v.to_string()).unwrap_or_default(),
            obs.negotiated_suite
                .and_then(iotls_repro::tls::ciphersuite::by_id)
                .map(|s| s.name)
                .unwrap_or("?"),
            obs.fingerprint,
        );
    }

    // The same connection under a NoValidation attack: the strict
    // camera refuses (and we see exactly which alert it sends).
    let outcome = camera_lab.connect_recovering(dest, Some(&InterceptPolicy::SelfSigned));
    if outcome.result.tainted() {
        println!("{}", tainted_line("Self-signed interception", &outcome.result));
    } else {
        println!(
            "Self-signed interception of {}: established = {}, client alerts = {:?}",
            dest.hostname,
            outcome.result.established,
            outcome
                .result
                .observation
                .map(|o| o.alerts_from_client)
                .unwrap_or_default(),
        );
    }

    // And against a device that never validates, the attacker reads
    // the plaintext. The doorbell gets a lab of its own.
    let zmodo = testbed.device("Zmodo Doorbell");
    let mut zmodo_lab = ActiveLab::new(testbed, &ctx, &lab_seed, zmodo);
    let dest = &zmodo.spec.destinations[0];
    let outcome = zmodo_lab.connect_recovering(dest, Some(&InterceptPolicy::SelfSigned));
    if outcome.result.tainted() {
        println!("{}", tainted_line("Self-signed interception", &outcome.result));
    } else {
        println!(
            "Self-signed interception of {}: established = {}, exfiltrated = {:?}",
            dest.hostname,
            outcome.result.established,
            String::from_utf8_lossy(&outcome.result.server_received),
        );
    }

    let mut stats = camera_lab.fault_stats();
    stats.merge(&zmodo_lab.fault_stats());
    println!("\n{}", fault_stats_line(&stats));
    args.finish(&ctx);
}

/// What a connection that injected faults still spoiled after the
/// reconnect budget shows: the faults, and no verdict.
fn tainted_line(what: &str, result: &SessionResult) -> String {
    format!(
        "{what}: still tainted after the reconnect budget \
         (last try: {} injected fault(s), failure {:?}); no verdict",
        result.faults.len(),
        result.failure,
    )
}
