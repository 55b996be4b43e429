//! Thread-count invariance of the parallel experiment engine.
//!
//! Every driver fans per-device work out over `IOTLS_THREADS` workers
//! and merges results in device-roster order; the contract is that the
//! rendered tables, the fault/cache counters, and the passive dataset
//! are *byte-identical* at any worker count. This test runs the full
//! active sweep plus the passive generator at 1 and at 8 workers and
//! compares everything.

use iotls_repro::analysis::{figures, tables};
use iotls_repro::capture::{generate_columnar, to_json_columnar, SegmentedStore, SegmentedWriter};
use iotls_repro::core::{
    analyze_columnar, analyze_store, analyze_streamed, run_fingerprint_survey, DowngradeProbe,
    Experiment, ExperimentCtx, ExperimentError, InterceptionAudit, OldVersionScan,
    PassiveAnalysis, RootProbe, METRICS_ENV,
};
use iotls_repro::crypto::sha256::sha256;
use iotls_repro::devices::Testbed;
use iotls_repro::simnet::par::THREADS_ENV;
use iotls_repro::simnet::FaultPlan;
use std::sync::Mutex;

/// Both tests in this binary mutate `IOTLS_THREADS`; the harness runs
/// them on concurrent threads, so the env var is serialized here.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Everything a sweep produces, flattened to comparable bytes.
#[derive(Debug, PartialEq)]
struct SweepFootprint {
    table5: String,
    table6: String,
    table7: String,
    table9: String,
    fingerprints: Vec<(String, usize)>,
    audit_fault_stats: String,
    audit_cache_stats: String,
    probe_fault_stats: String,
    probe_cache_stats: String,
    dataset_digest: [u8; 32],
    dataset_truncated: u64,
}

fn run_sweep(testbed: &'static Testbed) -> SweepFootprint {
    // Built after the caller pins IOTLS_THREADS: the ctx resolves its
    // thread policy from the env exactly once, here.
    let ctx = ExperimentCtx::builder()
        .seed(0x4E9D)
        .plan(FaultPlan::uniform(0xDE7, 40))
        .build();
    let audit = InterceptionAudit.run(testbed, &ctx);
    let probe = RootProbe.run(testbed, &ctx);
    let down_rows = DowngradeProbe.run(testbed, &ctx).rows;
    let old_rows = OldVersionScan.run(testbed, &ctx).rows;
    let survey = run_fingerprint_survey(testbed, 0x5075);
    let dataset = generate_columnar(testbed, 0x10AD);
    SweepFootprint {
        table5: tables::table5_downgrades(&down_rows),
        table6: tables::table6_old_versions(&old_rows),
        table7: tables::table7_interception(&audit),
        table9: tables::table9_rootstores(&probe),
        fingerprints: survey
            .by_device
            .iter()
            .map(|(d, fps)| (d.clone(), fps.len()))
            .collect(),
        audit_fault_stats: format!("{:?}", audit.fault_stats),
        audit_cache_stats: format!("{:?}", audit.verify_cache_stats),
        probe_fault_stats: format!("{:?}", probe.fault_stats),
        probe_cache_stats: format!("{:?}", probe.verify_cache_stats),
        dataset_digest: sha256(to_json_columnar(&dataset).as_bytes()),
        dataset_truncated: dataset.truncated,
    }
}

#[test]
fn one_worker_and_eight_workers_produce_identical_bytes() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let testbed = Testbed::global();

    std::env::set_var(THREADS_ENV, "1");
    let sequential = run_sweep(testbed);

    std::env::set_var(THREADS_ENV, "8");
    let parallel = run_sweep(testbed);
    std::env::remove_var(THREADS_ENV);

    assert_eq!(sequential, parallel);
    // The footprint carries real work, not empty strings.
    assert!(sequential.table7.contains("Zmodo Doorbell"));
    assert!(!sequential.fingerprints.is_empty());
    assert_ne!(sequential.dataset_digest, [0u8; 32]);
    // Chaos plan actually fired, so the FaultStats comparison above is
    // comparing non-trivial counters.
    assert_ne!(sequential.audit_fault_stats, format!("{:?}", iotls_repro::core::FaultStats::default()));
    assert_ne!(sequential.audit_cache_stats, "CacheStats { hits: 0, misses: 0 }");
}

/// The rendered passive deliverables, flattened to comparable bytes.
#[derive(Debug, PartialEq)]
struct PassiveFootprint {
    fig1: String,
    fig2: String,
    fig3: String,
    table8: String,
    export_digest: [u8; 32],
}

/// Renders every passive table/figure plus the JSON export through the
/// streaming accumulator, asserting along the way that it matches the
/// in-memory chunk walk. (The row-scan oracle in `iotls::passive`'s
/// tests holds the fold to the per-row scans on this same seed.)
fn run_passive(testbed: &'static Testbed) -> PassiveFootprint {
    let cds = generate_columnar(testbed, 0x10AD);

    // Single-pass streamed analysis (chunks dropped as they are
    // folded) vs the in-memory chunk walk.
    let ctx = ExperimentCtx::new(0x10AD);
    let streamed = analyze_streamed(testbed, &ctx, u64::MAX);
    assert_eq!(streamed, analyze_columnar(&cds, &ctx));

    let export = to_json_columnar(&cds);

    PassiveFootprint {
        fig1: figures::fig1_versions(
            &streamed.month_axis,
            &streamed.version_series,
            &streamed.summary.fig1_devices,
        ),
        fig2: figures::fig2_insecure(&streamed.month_axis, &streamed.cipher_series),
        fig3: figures::fig3_strong(&streamed.month_axis, &streamed.cipher_series),
        table8: tables::table8_revocation(&streamed.revocation, &streamed.device_names),
        export_digest: sha256(export.as_bytes()),
    }
}

#[test]
fn streamed_pipeline_is_byte_identical_at_any_thread_count() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let testbed = Testbed::global();

    std::env::set_var(THREADS_ENV, "1");
    let sequential = run_passive(testbed);

    std::env::set_var(THREADS_ENV, "8");
    let parallel = run_passive(testbed);
    std::env::remove_var(THREADS_ENV);

    assert_eq!(sequential, parallel);
    assert!(sequential.fig1.contains("Wemo Plug"));
    assert!(sequential.fig3.contains("Blink Hub"));
    assert!(sequential.table8.contains("OCSP Stapling"));
}

/// The `passive.*` and `capture.*` counter sections of a ctx's
/// metrics snapshot, rendered to comparable text (counter storage is
/// a BTreeMap, so the rendering is deterministic by construction).
fn counter_sections(ctx: &ExperimentCtx) -> String {
    ctx.metrics_snapshot()
        .counters()
        .filter(|(name, _)| name.starts_with("passive.") || name.starts_with("capture."))
        .map(|(name, v)| format!("{name}={v}\n"))
        .collect()
}

/// Runs the passive pipeline twice at the current `IOTLS_THREADS`:
/// once fully streamed (generator → accumulator, nothing persisted),
/// once through the on-disk store (generator → `SegmentedWriter` sink
/// → reopen → `analyze_store`). Returns both analyses plus each run's
/// `passive.*`/`capture.*` counter section.
fn run_store_passive(
    testbed: &'static Testbed,
    dir: &std::path::Path,
) -> (PassiveAnalysis, PassiveAnalysis, String, String) {
    let streamed_ctx = ExperimentCtx::builder().seed(0x10AD).metrics(true).build();
    let streamed = analyze_streamed(testbed, &streamed_ctx, u64::MAX);

    let disk_ctx = ExperimentCtx::builder().seed(0x10AD).metrics(true).build();
    let capture = disk_ctx.capture_ctx();
    let mut writer = SegmentedWriter::create(dir).expect("create store");
    let tail = capture.generate_streamed(testbed, u64::MAX, &mut |c| {
        writer.add_chunk(&c).expect("persist chunk");
    });
    writer
        .finish(&tail.strings, &tail.fps, &tail.revocation_flows, tail.truncated)
        .expect("finish store");
    let store = SegmentedStore::open(dir).expect("open store");
    let from_disk = analyze_store(&store, &disk_ctx).expect("analyze store");

    (
        streamed,
        from_disk,
        counter_sections(&streamed_ctx),
        counter_sections(&disk_ctx),
    )
}

#[test]
fn store_backed_analysis_is_byte_identical_at_any_thread_count() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let testbed = Testbed::global();
    let dir = std::path::Path::new("target/test_store/determinism.store");

    std::env::set_var(THREADS_ENV, "1");
    let (streamed_1, disk_1, streamed_counters_1, disk_counters_1) =
        run_store_passive(testbed, dir);

    std::env::set_var(THREADS_ENV, "8");
    let (streamed_8, disk_8, streamed_counters_8, disk_counters_8) =
        run_store_passive(testbed, dir);
    std::env::remove_var(THREADS_ENV);
    std::fs::remove_dir_all(dir).ok();

    // Streamed vs file-backed, at each worker count.
    assert_eq!(streamed_1, disk_1, "streamed vs store-backed at 1 worker");
    assert_eq!(streamed_8, disk_8, "streamed vs store-backed at 8 workers");
    // And across worker counts.
    assert_eq!(streamed_1, streamed_8, "streamed at 1 vs 8 workers");
    assert_eq!(disk_1, disk_8, "store-backed at 1 vs 8 workers");

    // The `passive.*`/`capture.*` counter sections are equally
    // invariant: same names, same values, whichever path and
    // whichever worker count produced them.
    assert_eq!(streamed_counters_1, disk_counters_1);
    assert_eq!(streamed_counters_1, streamed_counters_8);
    assert_eq!(disk_counters_1, disk_counters_8);
    // ... and they carry real work.
    assert!(streamed_counters_1.contains("passive.connections="));
    assert!(streamed_counters_1.contains("passive.rows.analyzed="));
    assert!(streamed_counters_1.contains("capture.rows.weighted="));
    assert!(streamed_1.total_connections > 0);
}

#[test]
fn bad_env_values_fall_back_and_are_recorded() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Non-numeric and zero thread counts fall back to the default
    // parallelism, warn, and bump the ctx.env.threads.invalid counter.
    for bad in ["notanumber", "0", "-3"] {
        std::env::set_var(THREADS_ENV, bad);
        let ctx = ExperimentCtx::builder().seed(1).metrics(true).build();
        assert!(ctx.threads() >= 1, "{bad}: threads {}", ctx.threads());
        assert!(
            ctx.warnings().iter().any(|w| matches!(
                w,
                ExperimentError::InvalidEnv { var, value }
                    if *var == THREADS_ENV && value == bad
            )),
            "{bad}: warnings {:?}",
            ctx.warnings()
        );
        assert_eq!(
            ctx.metrics_snapshot().counter("ctx.env.threads.invalid"),
            1,
            "{bad}"
        );
    }
    std::env::remove_var(THREADS_ENV);

    // A *valid* value produces no warning and no counter.
    std::env::set_var(THREADS_ENV, "2");
    let ctx = ExperimentCtx::builder().seed(1).metrics(true).build();
    assert_eq!(ctx.threads(), 2);
    assert!(ctx.warnings().is_empty(), "{:?}", ctx.warnings());
    std::env::remove_var(THREADS_ENV);

    // An empty IOTLS_METRICS path is unusable: warn, no sink, and the
    // metrics shard stays a no-op unless explicitly forced live.
    std::env::set_var(METRICS_ENV, "");
    let ctx = ExperimentCtx::builder().seed(1).build();
    assert!(ctx.metrics_sink().is_none());
    assert!(!ctx.metrics().is_live());
    assert!(
        ctx.warnings().iter().any(|w| matches!(
            w,
            ExperimentError::InvalidEnv { var, .. } if *var == METRICS_ENV
        )),
        "{:?}",
        ctx.warnings()
    );
    std::env::remove_var(METRICS_ENV);

    // Explicit builder knobs win over the environment entirely.
    std::env::set_var(THREADS_ENV, "notanumber");
    let ctx = ExperimentCtx::builder().seed(1).threads(3).build();
    assert_eq!(ctx.threads(), 3);
    assert!(ctx.warnings().is_empty(), "{:?}", ctx.warnings());
    std::env::remove_var(THREADS_ENV);
}
