//! The segmented store end to end: arbitrary segment splits vs the
//! single-file oracle, incremental append vs one-shot build, pruning
//! soundness against a brute-force row filter, and the read-counting
//! proof that skipped segments are never touched.
//!
//! The contract under test: HOW a chunk stream is cut into segment
//! files and batches is invisible to analysis — `analyze_store` over
//! any segmented layout is byte-identical (analysis, JSON export,
//! and `passive.*`/`capture.*` counter sections) to the same chunks
//! in one file, at any `IOTLS_THREADS`; and a `(window, device)`
//! slice through `analyze_store_slice` equals re-analyzing a
//! brute-force row-filtered copy of the corpus while provably never
//! reading a pruned segment.
//!
//! All scratch stores live under `target/test_segstore/`.

use iotls_repro::capture::{
    to_json_columnar, ColumnarDataset, ColumnarStore, DatasetBuilder, RevocationFlow,
    RevocationKind, SegmentedStore, SegmentedWriter,
};
use iotls_repro::core::{
    analyze_columnar, analyze_store, analyze_store_slice, ExperimentCtx, PassiveAnalysis,
};
use iotls_repro::crypto::drbg::Drbg;
use iotls_repro::simnet::TlsObservation;
use iotls_repro::tls::alert::AlertDescription;
use iotls_repro::tls::fingerprint::FingerprintId;
use iotls_repro::tls::version::ProtocolVersion;
use iotls_repro::x509::Month;
use std::path::{Path, PathBuf};

/// A scratch path under `target/test_segstore/`, wiped per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from("target/test_segstore");
    std::fs::create_dir_all(&dir).expect("create target/test_segstore");
    let path = dir.join(name);
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

const DEVICES: [&str; 3] = ["Cam A", "Hub B", "Plug C"];

/// The `n`th month of the synthetic study (0 = January 2018).
fn month_n(n: u32) -> Month {
    let mut m = Month::new(2018, 1);
    for _ in 0..n {
        m = m.next();
    }
    m
}

fn obs(rng: &mut Drbg, device: &str, month: Month, dest: &str) -> TlsObservation {
    let fp = rng.below(4) as u8;
    let negotiated = rng.chance(0.9);
    TlsObservation {
        time: month.start().plus_days(rng.below(27) as i64),
        device: device.into(),
        destination: dest.into(),
        sni: if rng.chance(0.8) { Some(dest.into()) } else { None },
        advertised_versions: vec![ProtocolVersion::Tls11, ProtocolVersion::Tls12],
        max_advertised: ProtocolVersion::Tls12,
        offered_suites: vec![0xc02f, 0x0005],
        requested_ocsp: rng.chance(0.5),
        fingerprint: FingerprintId([fp; 16]),
        negotiated_version: negotiated.then_some(ProtocolVersion::Tls12),
        negotiated_suite: negotiated.then_some(0xc02f),
        ocsp_stapled: fp.is_multiple_of(2),
        leaf_issuer: negotiated.then(|| "SimTrust Root".into()),
        established: negotiated,
        alerts_from_client: vec![AlertDescription::CloseNotify],
        alerts_from_server: vec![],
    }
}

/// A multi-month corpus: one sealed chunk per month (so segment
/// splits land on meaningful time boundaries), every device active
/// every month with Drbg-varied handshakes, plus revocation flows
/// spread across the window. Deterministic per seed.
fn corpus(seed: u64, months: u8) -> ColumnarDataset {
    let mut rng = Drbg::from_seed(seed);
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for m in 0..months {
        let month = month_n(m as u32);
        for device in DEVICES {
            for dest in ["cloud-a.example", "cloud-b.example"] {
                b.push_obs(&obs(&mut rng, device, month, dest), 1 + rng.below(4), &mut |c| {
                    chunks.push(c)
                });
            }
        }
        if m % 3 == 0 {
            b.push_flow(&RevocationFlow {
                time: month.start().plus_days(2),
                device: DEVICES[m as usize % DEVICES.len()].into(),
                kind: if m % 2 == 0 { RevocationKind::CrlFetch } else { RevocationKind::OcspQuery },
                url: "http://crl.example/x.crl".into(),
                count: 2,
            });
        }
        b.flush(&mut |c| chunks.push(c));
    }
    b.truncated = 5;
    let ds = b.into_dataset(chunks);
    assert_eq!(ds.chunks.len(), months as usize, "one chunk per month");
    ds
}

/// The `passive.*`/`capture.*` counter sections of a ctx's metrics
/// snapshot, rendered to comparable text.
fn counter_sections(ctx: &ExperimentCtx) -> String {
    ctx.metrics_snapshot()
        .counters()
        .filter(|(name, _)| name.starts_with("passive.") || name.starts_with("capture."))
        .map(|(name, v)| format!("{name}={v}\n"))
        .collect()
}

fn metered_ctx(threads: usize) -> ExperimentCtx {
    ExperimentCtx::builder().seed(0x10AD).metrics(true).threads(threads).build()
}

/// Analyzes a segmented store, returning the analysis, the counter
/// section, and the JSON export of its materialized dataset.
fn footprint(dir: &Path, threads: usize) -> (PassiveAnalysis, String, String) {
    let store = SegmentedStore::open(dir).expect("open segmented store");
    let ctx = metered_ctx(threads);
    let a = analyze_store(&store, &ctx).expect("analyze segmented store");
    let export = to_json_columnar(&store.to_dataset().expect("materialize"));
    (a, counter_sections(&ctx), export)
}

#[test]
fn arbitrary_segment_splits_match_the_single_file_oracle() {
    let ds = corpus(0x5E6, 12);

    // Oracle: the same chunks in one self-contained file.
    let oracle_path = scratch("oracle.iotls");
    ds.write_to(&oracle_path).expect("write oracle");
    let oracle_store = ColumnarStore::open(&oracle_path).expect("open oracle");
    let oracle_ctx = metered_ctx(1);
    let oracle = analyze_store(&oracle_store, &oracle_ctx).expect("analyze oracle");
    let oracle_counters = counter_sections(&oracle_ctx);
    let oracle_export = to_json_columnar(&ds);

    let mut multi_segment_trials = 0;
    let mut multi_batch_trials = 0;
    let mut rng = Drbg::from_seed(0xA5B1).fork("splits");
    for trial in 0..8u32 {
        let dir = scratch(&format!("split_{trial}"));
        // Random cut of the chunk stream into segments (seal_segment)
        // and into separately published batches (finish + append).
        let mut w = SegmentedWriter::create(&dir).expect("create").with_chunk_limit(64);
        let mut batches = 1;
        for chunk in &ds.chunks {
            w.add_chunk(chunk).expect("add chunk");
            if rng.chance(0.35) {
                w.seal_segment();
            }
            if rng.chance(0.2) {
                // Publish a mid-stream batch (tables, no tails yet)
                // and reopen — the incremental-ingest path.
                w.finish(&ds.strings, &ds.fps, &[], 0).expect("publish batch");
                w = SegmentedWriter::append(&dir).expect("reopen for append");
                batches += 1;
            }
        }
        // The final batch carries the tails.
        w.finish(&ds.strings, &ds.fps, &ds.revocation_flows, ds.truncated)
            .expect("publish final batch");

        let store = SegmentedStore::open(&dir).expect("open split store");
        if store.segment_count() > 1 {
            multi_segment_trials += 1;
        }
        if batches > 1 {
            multi_batch_trials += 1;
        }
        let (a, counters, export) = footprint(&dir, 1 + (trial as usize % 8));
        assert_eq!(a, oracle, "trial {trial}: analysis must match the oracle");
        assert_eq!(counters, oracle_counters, "trial {trial}: counters must match");
        assert_eq!(export, oracle_export, "trial {trial}: export must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(multi_segment_trials >= 4, "splits must actually exercise multi-segment layouts");
    assert!(multi_batch_trials >= 2, "splits must actually exercise multi-batch appends");
    std::fs::remove_file(&oracle_path).ok();
}

#[test]
fn append_then_reopen_equals_one_shot_build_at_any_thread_count() {
    let ds = corpus(0xAB3, 9);

    // One shot: every chunk in a single published batch.
    let one_shot = scratch("oneshot.segdir");
    let mut w = SegmentedWriter::create(&one_shot).expect("create").with_chunk_limit(2);
    for chunk in &ds.chunks {
        w.add_chunk(chunk).expect("add chunk");
    }
    w.finish(&ds.strings, &ds.fps, &ds.revocation_flows, ds.truncated).expect("publish");

    // Incremental: three batches of three chunks, each one a
    // create-or-append followed by a full manifest publish.
    let appended = scratch("appended.segdir");
    for (i, batch) in ds.chunks.chunks(3).enumerate() {
        let mut w = if i == 0 {
            SegmentedWriter::create(&appended).expect("create")
        } else {
            SegmentedWriter::append(&appended).expect("append")
        }
        .with_chunk_limit(2);
        for chunk in batch {
            w.add_chunk(chunk).expect("add chunk");
        }
        let last = (i + 1) * 3 >= ds.chunks.len();
        let (flows, truncated): (&[_], u64) =
            if last { (&ds.revocation_flows, ds.truncated) } else { (&[], 0) };
        w.finish(&ds.strings, &ds.fps, flows, truncated).expect("publish batch");
    }

    let mut prev: Option<(PassiveAnalysis, String, String)> = None;
    for threads in [1usize, 8] {
        let one = footprint(&one_shot, threads);
        let multi = footprint(&appended, threads);
        assert_eq!(one, multi, "one-shot vs appended at {threads} threads");
        if let Some(p) = &prev {
            assert_eq!(*p, one, "thread-count invariance");
        }
        prev = Some(one);
    }
    let (a, counters, _) = prev.expect("ran");
    assert!(a.total_connections > 0);
    assert!(counters.contains("passive.rows.analyzed="));
    std::fs::remove_dir_all(&one_shot).ok();
    std::fs::remove_dir_all(&appended).ok();
}

/// Brute force: rebuild a corpus containing ONLY the rows (and
/// flows) inside the slice, then analyze it in memory.
fn brute_force_slice(
    ds: &ColumnarDataset,
    from: i64,
    to: i64,
    device: Option<&str>,
) -> PassiveAnalysis {
    let rows = ds.to_rows();
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for w in &rows.observations {
        let t = w.observation.time.0;
        if t >= from && t <= to && device.is_none_or(|d| d == w.observation.device) {
            b.push_obs(&w.observation, w.count, &mut |c| chunks.push(c));
        }
    }
    for f in &rows.revocation_flows {
        if f.time.0 >= from && f.time.0 <= to && device.is_none_or(|d| d == f.device) {
            b.push_flow(f);
        }
    }
    b.flush(&mut |c| chunks.push(c));
    let filtered = b.into_dataset(chunks);
    analyze_columnar(&filtered, &ExperimentCtx::new(0x10AD))
}

#[test]
fn every_window_device_slice_matches_the_brute_force_filter() {
    let ds = corpus(0xF17, 8);
    let dir = scratch("slices.segdir");
    let mut w = SegmentedWriter::create(&dir).expect("create").with_chunk_limit(2);
    for chunk in &ds.chunks {
        w.add_chunk(chunk).expect("add chunk");
    }
    w.finish(&ds.strings, &ds.fps, &ds.revocation_flows, ds.truncated).expect("publish");
    let store = SegmentedStore::open(&dir).expect("open");
    assert!(store.segment_count() >= 4, "slice corpus must span several segments");

    let mut nonempty = 0;
    for lo in 0..8u32 {
        for hi in lo..8u32 {
            let from = month_n(lo).start().0;
            let to = month_n(hi).end().0;
            for device in std::iter::once(None).chain(DEVICES.iter().map(|d| Some(*d))) {
                let ctx = metered_ctx(2);
                let got = analyze_store_slice(&store, from, to, device, &ctx)
                    .expect("analyze slice");
                let want = brute_force_slice(&ds, from, to, device);
                assert_eq!(got, want, "slice months {lo}..={hi} device {device:?}");
                if got.total_connections > 0 {
                    nonempty += 1;
                }
            }
        }
    }
    assert!(nonempty > 50, "the sweep must exercise real slices, got {nonempty}");

    // A device the corpus never saw is an empty slice, not an error.
    let ctx = metered_ctx(1);
    let ghost = analyze_store_slice(&store, 0, i64::MAX, Some("No Such Device"), &ctx)
        .expect("unknown device slice");
    assert_eq!(ghost.total_connections, 0);
    assert!(ghost.device_names.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn skipped_segments_are_provably_never_read() {
    let ds = corpus(0x9D0, 12);
    let dir = scratch("skipped.segdir");
    let mut w = SegmentedWriter::create(&dir).expect("create").with_chunk_limit(2);
    for chunk in &ds.chunks {
        w.add_chunk(chunk).expect("add chunk");
    }
    w.finish(&ds.strings, &ds.fps, &ds.revocation_flows, ds.truncated).expect("publish");

    // A fresh open has clean read counters; slice one early month.
    let store = SegmentedStore::open(&dir).expect("open");
    assert_eq!(store.frame_bytes_read(), 0, "no frames read before the slice");
    let month = Month::new(2018, 2);
    let (from, to) = (month.start().0, month.end().0);
    let touched: std::collections::BTreeSet<usize> = store
        .select_chunks(from, to, None)
        .into_iter()
        .map(|i| store.segment_of(i))
        .collect();
    assert!(
        !touched.is_empty() && touched.len() < store.segment_count(),
        "the window must keep some segments and skip others ({}/{})",
        touched.len(),
        store.segment_count()
    );

    let ctx = metered_ctx(2);
    let a = analyze_store_slice(&store, from, to, None, &ctx).expect("analyze slice");
    assert!(a.total_connections > 0);

    // The per-segment read counters are the witness: pruned segments
    // transferred zero frame bytes, scanned ones transferred some,
    // and the counters agree with the registry's account.
    let mut read_total = 0;
    for seg in 0..store.segment_count() {
        let bytes = store.segment_bytes_read(seg);
        if touched.contains(&seg) {
            assert!(bytes > 0, "segment {seg} was selected but never read");
        } else {
            assert_eq!(bytes, 0, "segment {seg} was pruned yet read {bytes} bytes");
        }
        read_total += bytes;
    }
    assert_eq!(read_total, store.frame_bytes_read());
    let snap = ctx.metrics_snapshot();
    assert_eq!(snap.counter("capture.store.segments_scanned"), touched.len() as u64);
    assert_eq!(
        snap.counter("capture.store.segments_skipped"),
        (store.segment_count() - touched.len()) as u64
    );
    assert_eq!(snap.counter("capture.store.bytes.read"), read_total);
    assert_eq!(snap.counter("capture.store.bytes.total"), store.frame_bytes_total());
    assert!(read_total < store.frame_bytes_total());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_interns_against_the_existing_symbol_tables() {
    // Batch 1 and batch 2 are built with INDEPENDENT interners (their
    // symbol numbering disagrees); append_columnar must remap batch 2
    // onto the store's tables, growing them append-only.
    let day1 = corpus(0x0D1, 3);
    let mut rng = Drbg::from_seed(0x0D2);
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for m in 0..3u8 {
        let month = month_n(3 + m as u32);
        // New device first, so its standalone numbering collides with
        // day 1's, plus one shared device.
        for device in ["Sensor D", "Hub B"] {
            b.push_obs(&obs(&mut rng, device, month, "cloud-c.example"), 2, &mut |c| {
                chunks.push(c)
            });
        }
        b.flush(&mut |c| chunks.push(c));
    }
    let day2 = b.into_dataset(chunks);

    let dir = scratch("interning.segdir");
    let mut w = SegmentedWriter::create(&dir).expect("create");
    w.append_columnar(&day1, 0).expect("ingest day 1");
    w.finish_batch().expect("publish day 1");
    let tables_after_day1: Vec<String> = {
        let store = SegmentedStore::open(&dir).expect("open after day 1");
        store.strings().iter().map(|s| s.to_string()).collect()
    };

    let mut w = SegmentedWriter::append(&dir).expect("reopen");
    w.append_columnar(&day2, 0).expect("ingest day 2");
    w.finish_batch().expect("publish day 2");

    let store = SegmentedStore::open(&dir).expect("open combined");
    let combined: Vec<String> = store.strings().iter().map(|s| s.to_string()).collect();
    assert_eq!(
        &combined[..tables_after_day1.len()],
        &tables_after_day1[..],
        "append must extend the string table, never renumber it"
    );
    assert!(store.strings().lookup("Sensor D").is_some(), "new symbols interned");
    assert_eq!(
        store.total_rows(),
        day1.total_rows() as u64 + day2.total_rows() as u64
    );

    // The combined analysis equals analyzing the concatenated rows.
    let mut both = day1.to_rows();
    let more = day2.to_rows();
    both.observations.extend(more.observations);
    both.revocation_flows.extend(more.revocation_flows);
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for w in &both.observations {
        b.push_obs(&w.observation, w.count, &mut |c| chunks.push(c));
    }
    for f in &both.revocation_flows {
        b.push_flow(f);
    }
    b.truncated = both.truncated;
    b.flush(&mut |c| chunks.push(c));
    let merged = b.into_dataset(chunks);
    let ctx = ExperimentCtx::new(0x10AD);
    let from_store = analyze_store(&store, &ctx).expect("analyze combined");
    assert_eq!(from_store, analyze_columnar(&merged, &ctx));
    std::fs::remove_dir_all(&dir).ok();
}
