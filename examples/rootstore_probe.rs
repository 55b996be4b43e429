//! The root-store exploration: validates the alert side channel
//! against the six library profiles (Table 4), then probes every
//! rebootable, validating device with spoofed CAs (Table 9) and
//! reports the staleness of what it finds (Figure 4).
//!
//! Run with: `cargo run --release --example rootstore_probe`
//!
//! Flags: `--seed N --threads N --faults PM --metrics` (see
//! `iotls_repro::cli`).

use iotls_repro::analysis::{figures, tables};
use iotls_repro::cli::{fault_stats_line, ExampleArgs};
use iotls_repro::core::{library_alert_matrix, Experiment, RootProbe};
use iotls_repro::devices::Testbed;

fn main() {
    println!("== IoTLS root-store exploration (Tables 3, 4, 9; Figure 4) ==\n");
    println!("{}", tables::table3_platforms());
    println!("{}", tables::table4_library_alerts(&library_alert_matrix()));

    let args = ExampleArgs::parse();
    let ctx = args.ctx(0x6007);

    let testbed = Testbed::global();
    println!(
        "Probe sets from the platform histories: {} common, {} deprecated certificates\n",
        testbed.pki.common.len(),
        testbed.pki.deprecated.len(),
    );

    let report = RootProbe.run(testbed, &ctx);
    println!("{}", tables::table9_rootstores(&report));
    println!("{}", figures::fig4_staleness(testbed.pki, &report));

    // §5.2's closing question, answered with measurements.
    let utilization = iotls_repro::analysis::root_store_utilization(
        iotls_repro::capture::global_columnar(),
        &report,
    );
    println!("{}", iotls_repro::analysis::render_utilization(&utilization));

    // The distrusted-CA headline.
    let distrusted: Vec<_> = testbed.pki.universe.distrusted_ids();
    println!("Explicitly distrusted CAs still trusted by probed devices:");
    for row in report.amenable_rows() {
        let present = row.deprecated_present_ids();
        let names: Vec<&str> = distrusted
            .iter()
            .filter(|id| present.contains(id))
            .map(|id| testbed.pki.universe.get(*id).name.common_name.as_str())
            .collect();
        println!("  {:<20} {}", row.device, names.join(", "));
    }
    println!("\n{}", fault_stats_line(&report.fault_stats));

    args.finish(&ctx);
}
