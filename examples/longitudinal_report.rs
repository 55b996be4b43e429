//! The two-year passive analysis: generates the 27-month dataset,
//! renders Figures 1–3 as heatmaps, Table 8, the §5.1 summary
//! statistics, and the prior-work comparison — then sweeps the whole
//! active-experiment registry through one [`Orchestrator`] pass and
//! prints every golden artifact the reports back.
//!
//! Everything below the dataset line comes from ONE pass over the
//! columnar chunk stream (`analyze_columnar`), not repeated scans of
//! a materialized row vector.
//!
//! Run with: `cargo run --release --example longitudinal_report`
//!
//! Set `IOTLS_METRICS=path.json` to also write the run's observability
//! registry (passive.* counters plus wall-clock timings) as JSON.
//! Flags: `--seed N --threads N --faults PM --metrics`, plus
//! `--store DIR` to persist the columnar dataset as a segmented store
//! directory and `--from-store DIR` to analyze a previously persisted
//! store instead of generating (see `iotls_repro::cli`). `--append`
//! extends the `--store` directory with this run's dataset as a new
//! batch (multi-day ingestion) — the analysis then covers the whole
//! store, all batches included.

use iotls_repro::analysis::{experiment_artifacts, figures, tables};
use iotls_repro::capture::{global_columnar, SegmentedStore, SegmentedWriter};
use iotls_repro::cli::ExampleArgs;
use iotls_repro::core::{analyze_columnar, analyze_store, Orchestrator, Report};
use iotls_repro::devices::Testbed;
use iotls_repro::obs::Span;
use std::path::Path;

/// Seed for the labeled fingerprint database Figure 5 joins against.
const FPDB_SEED: u64 = 0xDB;

/// Store errors are expected operator input (a bad path, a corrupt
/// file) — report and exit instead of panicking with a backtrace.
fn fail(msg: &str) -> ! {
    eprintln!("longitudinal_report: {msg}");
    std::process::exit(2);
}

fn main() {
    println!("== IoTLS longitudinal analysis (Figures 1-3, Table 8, §5.1) ==\n");

    let args = ExampleArgs::parse();
    let ctx = args.ctx(iotls_repro::capture::DEFAULT_SEED);

    let span = Span::start("passive.analyze");
    let (a, rows, chunks) = match args.from_store.as_deref() {
        // Analyze a persisted store: frames stream off disk in
        // bounded memory; no generation happens at all.
        Some(path) => {
            let store = SegmentedStore::open(Path::new(path))
                .unwrap_or_else(|e| fail(&format!("open store {path}: {e}")));
            eprintln!(
                "segmented store: {} segments, {} orphans",
                store.segment_count(),
                store.orphan_segments()
            );
            let a = analyze_store(&store, &ctx)
                .unwrap_or_else(|e| fail(&format!("analyze store {path}: {e}")));
            (a, store.total_rows(), store.chunk_count())
        }
        None => {
            let ds = global_columnar();
            match args.store.as_deref() {
                // Create or (--append) extend the store directory with
                // this dataset as one batch, then analyze the whole
                // store — previous batches included.
                Some(path) => {
                    let dir = Path::new(path);
                    let mut w = if args.append {
                        SegmentedWriter::append(dir)
                            .unwrap_or_else(|e| fail(&format!("reopen store {path}: {e}")))
                    } else {
                        SegmentedWriter::create(dir)
                            .unwrap_or_else(|e| fail(&format!("create store {path}: {e}")))
                    };
                    w.append_columnar(ds, 0)
                        .unwrap_or_else(|e| fail(&format!("append to store {path}: {e}")));
                    w.finish_batch()
                        .unwrap_or_else(|e| fail(&format!("publish store {path}: {e}")));
                    let store = SegmentedStore::open(dir)
                        .unwrap_or_else(|e| fail(&format!("reopen store {path}: {e}")));
                    eprintln!(
                        "segmented store {} at {path} ({} segments)",
                        if args.append { "extended" } else { "written" },
                        store.segment_count()
                    );
                    let a = analyze_store(&store, &ctx)
                        .unwrap_or_else(|e| fail(&format!("analyze store {path}: {e}")));
                    (a, store.total_rows(), store.chunk_count())
                }
                None => {
                    (analyze_columnar(ds, &ctx), ds.total_rows() as u64, ds.chunks.len())
                }
            }
        }
    };
    ctx.metrics().with(|reg| reg.record(span));
    println!(
        "Dataset: {} TLS connections from {} devices ({} columnar rows in {} chunks)\n",
        a.total_connections,
        a.device_names.len(),
        rows,
        chunks,
    );

    let summary = &a.summary;
    println!(
        "{}",
        figures::fig1_versions(&a.month_axis, &a.version_series, &summary.fig1_devices)
    );
    println!("{}", figures::fig2_insecure(&a.month_axis, &a.cipher_series));
    println!("{}", figures::fig3_strong(&a.month_axis, &a.cipher_series));

    println!("Detected protocol-version upgrades:");
    for t in &a.transitions {
        println!("  {:<20} {} -> {} ({})", t.device, t.from, t.to, t.month);
    }

    println!("\n§5.1 summary:");
    println!(
        "  TLS 1.2-exclusive devices:        {}",
        summary.tls12_exclusive_devices.len()
    );
    println!(
        "  devices advertising insecure:     {}",
        summary.devices_advertising_insecure.len()
    );
    println!(
        "  devices establishing insecure:    {} ({:?})",
        summary.devices_establishing_insecure.len(),
        summary.devices_establishing_insecure
    );
    println!(
        "  devices advertising PFS:          {}",
        summary.devices_advertising_fs.len()
    );
    println!(
        "  devices mostly without PFS:       {}",
        summary.devices_mostly_without_fs.len()
    );
    println!("  NULL/ANON suites ever seen:       {}", summary.null_anon_seen);
    println!(
        "\nPrior-work comparison: {:.1}% of connections advertise TLS 1.3 \
         (web ≈60%); {:.1}% advertise RC4 (web ≈10%)\n",
        summary.pct_connections_tls13, summary.pct_connections_rc4,
    );

    println!(
        "{}",
        tables::table8_revocation(&a.revocation, &a.device_names)
    );

    // The full active registry, one orchestrator pass: every
    // experiment at its canonical paper seed, sharing this run's
    // fault plan, thread policy and metrics shard.
    let testbed = Testbed::global();
    println!("== Active experiment registry (one orchestrator pass) ==\n");
    for run in Orchestrator::new(testbed, &ctx).canonical_seeds().run_all() {
        match &run.result {
            Ok(report) => {
                let artifacts = experiment_artifacts(testbed, report, FPDB_SEED);
                println!(
                    "{}: ok ({} fixture artifact{})",
                    run.kind.name(),
                    artifacts.len(),
                    if artifacts.len() == 1 { "" } else { "s" },
                );
                for (name, text) in artifacts {
                    println!("\n-- {name} --\n{text}");
                }
                if let Some(stats) = report.fault_stats() {
                    println!("  {}", iotls_repro::cli::fault_stats_line(stats));
                }
            }
            Err(e) => println!("{}: FAILED ({e})", run.kind.name()),
        }
    }

    args.finish(&ctx);
}
