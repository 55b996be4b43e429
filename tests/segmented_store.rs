//! The segmented store end to end: arbitrary segment splits vs the
//! one-segment oracle, incremental append vs one-shot build, pruning
//! soundness against a brute-force row filter, and the read-counting
//! proof that skipped segments are never touched.
//!
//! The contract under test: HOW a chunk stream is cut into segment
//! files and batches is invisible to analysis — `analyze_store` over
//! any segmented layout is byte-identical (analysis, JSON export,
//! and `passive.*`/`capture.*` counter sections) to the same chunks
//! in one segment, at any `IOTLS_THREADS`; and a `(window, device)`
//! slice through `analyze_store_slice` equals re-analyzing a
//! brute-force row-filtered copy of the corpus while provably never
//! reading a pruned segment.
//!
//! All scratch stores live under `target/test_segstore/`.

use iotls_repro::capture::{
    to_json_columnar, CaptureCtx, ColumnarDataset, DatasetBuilder, RevRow, RevocationFlow,
    RevocationKind, SegmentedStore, SegmentedWriter, DEFAULT_SEED,
};
use iotls_repro::core::{
    analyze_columnar, analyze_store, analyze_store_slice, ExperimentCtx, PassiveAnalysis,
};
use iotls_repro::crypto::drbg::Drbg;
use iotls_repro::crypto::sha256::{self, Sha256};
use iotls_repro::devices::Testbed;
use iotls_repro::simnet::TlsObservation;
use iotls_repro::tls::alert::AlertDescription;
use iotls_repro::tls::fingerprint::FingerprintId;
use iotls_repro::tls::version::ProtocolVersion;
use iotls_repro::x509::{Month, Timestamp};
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

/// The oracle layout: every chunk of `ds` in one segment file (the
/// chunk limit never rolls) published as one batch, tails included.
fn one_segment_oracle(name: &str, ds: &ColumnarDataset) -> SegmentedStore {
    let dir = scratch(name);
    let mut w = SegmentedWriter::create(&dir)
        .expect("create oracle")
        .with_chunk_limit(usize::MAX);
    for chunk in &ds.chunks {
        w.add_chunk(chunk).expect("add chunk");
    }
    w.finish(&ds.strings, &ds.fps, &ds.revocation_flows, ds.truncated)
        .expect("publish oracle");
    let store = SegmentedStore::open(&dir).expect("open oracle");
    assert_eq!(store.segment_count(), 1, "the oracle is one segment");
    store
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

    // Oracle: the same chunks in one segment file.
    let oracle_store = one_segment_oracle("oracle.segdir", &ds);
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
    std::fs::remove_dir_all(oracle_store.dir()).ok();
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

/// One interned flow of `ds`, with its names resolved.
fn decode_flow(ds: &ColumnarDataset, f: &RevRow) -> RevocationFlow {
    RevocationFlow {
        time: Timestamp(f.time),
        device: ds.strings.resolve(f.device).into(),
        kind: f.kind,
        url: ds.strings.resolve(f.url).into(),
        count: f.count,
    }
}

/// Brute force: rebuild a corpus containing ONLY the rows (and
/// flows) inside the slice, then analyze it in memory.
fn brute_force_slice(
    ds: &ColumnarDataset,
    from: i64,
    to: i64,
    device: Option<&str>,
) -> PassiveAnalysis {
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for r in ds.rows() {
        let o = r.observation();
        let t = o.time.0;
        if t >= from && t <= to && device.is_none_or(|d| d == o.device) {
            b.push_obs(&o, r.raw.count(), &mut |c| chunks.push(c));
        }
    }
    for f in ds.revocation_flows.iter().map(|f| decode_flow(ds, f)) {
        if f.time.0 >= from && f.time.0 <= to && device.is_none_or(|d| d == f.device) {
            b.push_flow(&f);
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
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for day in [&day1, &day2] {
        for r in day.rows() {
            b.push_obs(&r.observation(), r.raw.count(), &mut |c| chunks.push(c));
        }
    }
    for day in [&day1, &day2] {
        for f in &day.revocation_flows {
            b.push_flow(&decode_flow(day, f));
        }
    }
    b.truncated = day1.truncated;
    b.flush(&mut |c| chunks.push(c));
    let merged = b.into_dataset(chunks);
    let ctx = ExperimentCtx::new(0x10AD);
    let from_store = analyze_store(&store, &ctx).expect("analyze combined");
    assert_eq!(from_store, analyze_columnar(&merged, &ctx));
    std::fs::remove_dir_all(&dir).ok();
}

/// SHA-256 over every file of a store directory in name order, each
/// file framed by its name and length.
fn dir_digest(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list store directory")
        .map(|e| e.expect("directory entry").file_name().into_string().expect("UTF-8 name"))
        .collect();
    names.sort();
    let mut h = Sha256::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).expect("read store file");
        h.update(name.as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    sha256::hex(&h.finalize())
}

/// The exact bytes a segmented build lays down, pinned as SHA-256
/// digests over the manifest and every segment: a two-batch build of
/// the synthetic corpus at two chunks per segment, and the generated
/// capture at four connections per row streamed in at 16 chunks per
/// segment. A codec change that moves one byte fails here even when
/// every decoded value still roundtrips.
#[test]
fn segmented_store_bytes_are_pinned() {
    let ds = corpus(0x5E6, 12);
    let small = scratch("pinned_corpus.segdir");
    let mut w = SegmentedWriter::create(&small).expect("create").with_chunk_limit(2);
    for chunk in &ds.chunks[..7] {
        w.add_chunk(chunk).expect("add chunk");
    }
    w.finish(&ds.strings, &ds.fps, &[], 0).expect("publish batch 1");
    let mut w = SegmentedWriter::append(&small).expect("append").with_chunk_limit(2);
    for chunk in &ds.chunks[7..] {
        w.add_chunk(chunk).expect("add chunk");
    }
    w.finish(&ds.strings, &ds.fps, &ds.revocation_flows, ds.truncated)
        .expect("publish batch 2");

    let generated = scratch("pinned_generated.segdir");
    let mut w = SegmentedWriter::create(&generated).expect("create").with_chunk_limit(16);
    let tail = CaptureCtx::new(DEFAULT_SEED)
        .with_threads(2)
        .generate_streamed(Testbed::global(), 4, &mut |c| w.add_chunk(&c).expect("add chunk"));
    w.finish(&tail.strings, &tail.fps, &tail.revocation_flows, tail.truncated)
        .expect("publish generated capture");
    assert!(
        SegmentedStore::open(&generated).expect("open").segment_count() > 1,
        "the generated capture must span several segments"
    );

    let mut moved = Vec::new();
    for (name, dir, want) in [
        (
            "corpus",
            &small,
            "73f4ced20b6d0a9f1cfa4c7d8d800ec81857b6fc6de6b24dc1749218d59f991d",
        ),
        (
            "generated",
            &generated,
            "2dae9e92cb9098735366d1e6e5871b4c3480257171ccdb2735ea9d5eeb1a6ee9",
        ),
    ] {
        let got = dir_digest(dir);
        if got != want {
            moved.push(format!("{name}: {got}"));
        }
        std::fs::remove_dir_all(dir).ok();
    }
    assert!(moved.is_empty(), "segmented store bytes moved:\n{}", moved.join("\n"));
}

/// Two kinds of batch seal an empty segment: a chunkless first batch
/// (the store needs a segment to carry its tables) and a flows-only
/// batch. Both leave equal cumulative offsets behind, so mapping a
/// global chunk index to its segment must skip every empty segment.
#[test]
fn empty_segments_never_own_a_chunk() {
    let ds = corpus(0xE57, 6);
    assert_eq!(ds.revocation_flows.len(), 2, "fixture splits its flows across batches");
    let dir = scratch("empty_segments.segdir");
    // Batch 1: no chunks at all, so segment 0 is empty.
    SegmentedWriter::create(&dir)
        .expect("create")
        .finish(&ds.strings, &ds.fps, &[], 0)
        .expect("publish chunkless batch");
    // Batch 2: three chunks at two per segment (segments 1 and 2);
    // batch 3: one flow and no chunks (empty segment 3); batch 4: the
    // rest (segments 4 and 5) with the tails.
    let batches: [(&[_], &[_], u64); 3] = [
        (&ds.chunks[..3], &[], 0),
        (&[], &ds.revocation_flows[..1], 0),
        (&ds.chunks[3..], &ds.revocation_flows[1..], ds.truncated),
    ];
    for (chunks, flows, truncated) in batches {
        let mut w = SegmentedWriter::append(&dir).expect("append").with_chunk_limit(2);
        for chunk in chunks {
            w.add_chunk(chunk).expect("add chunk");
        }
        w.finish(&ds.strings, &ds.fps, flows, truncated).expect("publish batch");
    }

    let store = SegmentedStore::open(&dir).expect("open");
    assert_eq!(store.segment_count(), 6);
    assert_eq!(store.chunk_count(), ds.chunks.len());
    let owner = [1usize, 1, 2, 4, 4, 5];
    let mut read_back = Vec::new();
    for (i, &seg) in owner.iter().enumerate() {
        assert_eq!(store.segment_of(i), seg, "chunk {i}");
        assert_eq!(store.chunk_rows(i), ds.chunks[i].len(), "chunk {i}");
        read_back.push(store.read_chunk(i).expect("every chunk reads"));
    }
    let via_index = ColumnarDataset {
        strings: store.strings().clone(),
        fps: store.fps().clone(),
        chunks: read_back,
        revocation_flows: store.revocation_flows().to_vec(),
        truncated: store.truncated(),
    };
    assert_eq!(to_json_columnar(&via_index), to_json_columnar(&ds));

    let oracle = one_segment_oracle("empty_segments_oracle.segdir", &ds);
    let ctx = ExperimentCtx::new(0x10AD);
    assert_eq!(
        analyze_store(&store, &ctx).expect("analyze segmented"),
        analyze_store(&oracle, &ctx).expect("analyze oracle")
    );

    for m in 0..6u32 {
        let (from, to) = (month_n(m).start().0, month_n(m).end().0);
        for device in std::iter::once(None).chain(DEVICES.iter().map(|d| Some(*d))) {
            let ctx = metered_ctx(1);
            let got = analyze_store_slice(&store, from, to, device, &ctx).expect("slice");
            let want = analyze_store_slice(&oracle, from, to, device, &metered_ctx(1))
                .expect("oracle slice");
            assert_eq!(got, want, "month {m} device {device:?}");
            let sym = device.and_then(|d| store.strings().lookup(d));
            let named: std::collections::BTreeSet<usize> = store
                .select_chunks(from, to, sym)
                .into_iter()
                .map(|i| owner[i])
                .collect();
            assert_eq!(
                ctx.metrics_snapshot().counter("capture.store.segments_scanned"),
                named.len() as u64,
                "month {m} device {device:?}"
            );
            for seg in [0, 3] {
                assert_eq!(store.segment_bytes_read(seg), 0, "empty segment {seg} was read");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(oracle.dir()).ok();
}
