//! The paper's §6 recommendations, demonstrated end-to-end: the
//! vendor auditing service grades every device's TLS instances, the
//! SPIN-style guardian gateway pauses insecure connections, and
//! certificate pinning (leaf vs root) is shown against a
//! compromised-CA MITM.
//!
//! Run with: `cargo run --release --example mitigations`
//!
//! Flags: `--seed N --threads N --faults PM --metrics` (see
//! `iotls_repro::cli`).

use iotls_repro::capture::global_columnar;
use iotls_repro::cli::{fault_stats_line, ExampleArgs};
use iotls_repro::core::{
    guardian_verdict, AuditService, Experiment, Grade, GuardianAction,
};
use iotls_repro::devices::Testbed;

fn main() {
    println!("== IoTLS §6 mitigations ==\n");

    let args = ExampleArgs::parse();
    let ctx = args.ctx(0xA0D1);

    // 1. The auditing service: devices phone in at reboot, the
    //    service grades their hellos and alerts manufacturers.
    let report = AuditService.run(Testbed::global(), &ctx);
    println!("Auditing service report (32 active devices):\n");
    for grade in [Grade::Critical, Grade::NeedsAttention, Grade::Good] {
        let devices: Vec<&iotls_repro::core::DeviceAudit> =
            report.audits.iter().filter(|a| a.grade() == grade).collect();
        println!("{grade:?} ({}):", devices.len());
        for a in devices {
            let worst = a
                .instances
                .iter()
                .max_by_key(|i| i.grade)
                .expect("instances non-empty");
            let issues: Vec<String> = worst.issues.iter().map(|i| i.to_string()).collect();
            println!("  {:<22} {}", a.device, issues.join("; "));
        }
        println!();
    }
    println!("{}\n", fault_stats_line(&report.fault_stats));

    // 2. The guardian gateway over one month of passive traffic.
    let ds = global_columnar();
    let mut paused: u64 = 0;
    let mut allowed: u64 = 0;
    let mut paused_devices = std::collections::BTreeSet::new();
    for r in ds.rows() {
        match guardian_verdict(&r.observation()) {
            GuardianAction::Allow => allowed += r.raw.count(),
            GuardianAction::PauseAndAsk(_) => {
                paused += r.raw.count();
                paused_devices.insert(r.device_name());
            }
        }
    }
    println!(
        "Guardian gateway over the two-year capture: {} connections allowed, \
         {} paused for user confirmation ({} devices affected):",
        allowed, paused, paused_devices.len()
    );
    for d in &paused_devices {
        println!("  {d}");
    }
    println!(
        "\n(Pinning demonstrations live in crates/tls/tests/mitigations.rs: a leaf\n\
         pin defeats interception even for a non-validating client, while a root\n\
         pin does not survive a compromised CA — the paper's §6 caveat.)"
    );

    args.finish(&ctx);
}
