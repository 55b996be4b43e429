//! The on-disk columnar store: roundtrip fidelity, directory-level
//! pruning, and corruption behavior.
//!
//! The contract under test: [`ColumnarDataset::write_to`] followed by
//! any of the open paths (`ColumnarDataset::open`,
//! `ColumnarStore::open`, `ColumnarStore::open_mmap`) reproduces the
//! dataset byte-for-byte; chunk pruning works entirely off the footer
//! directory; and *no* corrupt input — truncated at any offset,
//! bit-flipped at any position — ever panics. Corruption is a typed
//! [`StoreError`], nothing else.
//!
//! All scratch files live under `target/test_store/`.

use iotls_repro::capture::{
    global_columnar, to_json_columnar, ColumnarDataset, ColumnarStore, DatasetBuilder,
    RevocationFlow, RevocationKind, SegmentedStore, SegmentedWriter, StoreError,
};
use iotls_repro::core::{analyze_columnar, analyze_store, ExperimentCtx};
use iotls_repro::simnet::TlsObservation;
use iotls_repro::tls::alert::AlertDescription;
use iotls_repro::tls::fingerprint::FingerprintId;
use iotls_repro::tls::version::ProtocolVersion;
use iotls_repro::x509::Month;
use std::path::PathBuf;

/// A scratch path under `target/test_store/`, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from("target/test_store");
    std::fs::create_dir_all(&dir).expect("create target/test_store");
    dir.join(name)
}

fn obs(device: &str, month: Month, dest: &str, fp: u8) -> TlsObservation {
    TlsObservation {
        time: month.start().plus_days(10),
        device: device.into(),
        destination: dest.into(),
        sni: Some(dest.into()),
        advertised_versions: vec![ProtocolVersion::Tls11, ProtocolVersion::Tls12],
        max_advertised: ProtocolVersion::Tls12,
        offered_suites: vec![0xc02f, 0x0005],
        requested_ocsp: true,
        fingerprint: FingerprintId([fp; 16]),
        negotiated_version: Some(ProtocolVersion::Tls12),
        negotiated_suite: Some(0xc02f),
        ocsp_stapled: fp.is_multiple_of(2),
        leaf_issuer: Some("SimTrust Root".into()),
        established: true,
        alerts_from_client: vec![AlertDescription::CloseNotify],
        alerts_from_server: vec![],
    }
}

/// A deliberately small dataset with TWO sealed chunks (forced by
/// flushing mid-stream), distinct devices per chunk (so the bitmap
/// pruning has something to distinguish), flows, and a truncation
/// tail — every footer section populated, total file ≈2 KB, small
/// enough to sweep corruption over every byte.
fn small_dataset() -> ColumnarDataset {
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for (i, dest) in ["cloud-a.example", "cloud-b.example"].iter().enumerate() {
        b.push_obs(
            &obs("Cam A", Month::new(2018, 1 + i as u8), dest, 7),
            3 + i as u64,
            &mut |c| chunks.push(c),
        );
    }
    b.flush(&mut |c| chunks.push(c)); // seal chunk 0: Cam A, Jan-Feb
    for (i, dest) in ["cloud-b.example", "cloud-c.example"].iter().enumerate() {
        b.push_obs(
            &obs("Hub B", Month::new(2019, 5 + i as u8), dest, 9),
            2,
            &mut |c| chunks.push(c),
        );
    }
    b.flush(&mut |c| chunks.push(c)); // seal chunk 1: Hub B, May-Jun
    b.push_flow(&RevocationFlow {
        time: Month::new(2018, 1).start().plus_days(3),
        device: "Hub B".into(),
        kind: RevocationKind::CrlFetch,
        url: "http://crl.example/x.crl".into(),
        count: 4,
    });
    b.truncated = 3;
    let ds = b.into_dataset(chunks);
    assert_eq!(ds.chunks.len(), 2, "fixture must span two chunks");
    ds
}

/// Opens a store and materializes everything — the deepest read path,
/// used by the corruption sweeps so a flip anywhere (header, any
/// frame, footer) must surface.
fn open_fully(path: &std::path::Path) -> Result<ColumnarDataset, StoreError> {
    ColumnarStore::open(path)?.to_dataset()
}

#[test]
fn roundtrip_reproduces_the_dataset_exactly() {
    let ds = small_dataset();
    let path = scratch("roundtrip.iotls");
    ds.write_to(&path).expect("write store");

    // All three open paths, byte-compared through the JSON export
    // (which resolves every symbol, span, flag, and tail).
    let want = to_json_columnar(&ds);
    let via_dataset = ColumnarDataset::open(&path).expect("dataset open");
    assert_eq!(to_json_columnar(&via_dataset), want);
    let via_pread = ColumnarStore::open(&path)
        .expect("pread open")
        .to_dataset()
        .expect("pread materialize");
    assert_eq!(to_json_columnar(&via_pread), want);

    // Chunk-level metadata survives the trip too.
    let store = ColumnarStore::open(&path).expect("reopen");
    assert_eq!(store.chunk_count(), ds.chunks.len());
    assert_eq!(store.total_rows(), ds.total_rows() as u64);
    assert_eq!(store.total_connections(), ds.total_connections());
    assert_eq!(store.truncated(), ds.truncated);
    assert_eq!(
        format!("{:?}", store.revocation_flows()),
        format!("{:?}", ds.revocation_flows),
    );
    for (i, chunk) in ds.chunks.iter().enumerate() {
        assert_eq!(store.chunk_rows(i), chunk.len());
        let got = store.read_chunk(i).expect("read chunk");
        assert_eq!(got.min_time(), chunk.min_time());
        assert_eq!(got.max_time(), chunk.max_time());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mmap_and_pread_backings_agree() {
    let ds = small_dataset();
    let path = scratch("backing.iotls");
    ds.write_to(&path).expect("write store");
    let pread = ColumnarStore::open(&path).expect("pread open");
    let mapped = ColumnarStore::open_mmap(&path).expect("mmap open");
    assert_eq!(
        to_json_columnar(&pread.to_dataset().expect("pread")),
        to_json_columnar(&mapped.to_dataset().expect("mmap")),
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn seed_scale_store_analysis_matches_in_memory() {
    let ds = global_columnar();
    let path = scratch("seed_scale.iotls");
    ds.write_to(&path).expect("write store");
    let store = ColumnarStore::open(&path).expect("open");

    let ctx = ExperimentCtx::new(0x10AD);
    let from_disk = analyze_store(&store, &ctx).expect("analyze store");
    assert_eq!(from_disk, analyze_columnar(ds, &ctx));
    assert!(from_disk.total_connections > 0);
    std::fs::remove_file(&path).ok();
}

/// A corpus with one sealed chunk per study month — realistic shape
/// for the pruning directory: distinct time ranges per chunk, devices
/// rotating through the chunks.
fn monthly_corpus() -> ColumnarDataset {
    let devices = ["Cam A", "Hub B", "Plug C"];
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    for m in 0..12u8 {
        let month = Month::new(2019, m + 1);
        // Two devices per month, rotating, so device bitmaps differ
        // across chunks.
        for k in 0..2usize {
            let device = devices[(m as usize + k) % devices.len()];
            b.push_obs(&obs(device, month, "cloud.example", 7), 5, &mut |c| {
                chunks.push(c)
            });
        }
        b.flush(&mut |c| chunks.push(c));
    }
    b.into_dataset(chunks)
}

#[test]
fn directory_pruning_matches_the_in_memory_chunk_walk() {
    let ds = monthly_corpus();
    assert_eq!(ds.chunks.len(), 12);
    let path = scratch("pruning.iotls");
    ds.write_to(&path).expect("write store");
    let store = ColumnarStore::open(&path).expect("open");

    // A mid-study window plus one device, the way a longitudinal
    // slice queries: directory-only selection must agree with the
    // in-memory per-chunk metadata tests.
    let (from, to) = (
        Month::new(2019, 3).start().0,
        Month::new(2019, 8).start().plus_days(27).0,
    );
    let device = store.strings().lookup("Cam A").expect("known device");
    for dev in [None, Some(device)] {
        let selected = store.select_chunks(from, to, dev);
        let expected: Vec<usize> = ds
            .chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.overlaps(from, to)
                    && match dev {
                        None => true,
                        Some(d) => c.has_device(d),
                    }
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(selected, expected, "device filter {dev:?}");
        assert!(
            !selected.is_empty() && selected.len() < store.chunk_count(),
            "window should prune some chunks and keep some ({}/{})",
            selected.len(),
            store.chunk_count()
        );
    }

    // An empty window and an impossible device prune everything.
    assert!(store.select_chunks(i64::MAX - 1, i64::MAX, None).is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let ds = small_dataset();
    let path = scratch("trunc_full.iotls");
    ds.write_to(&path).expect("write store");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert!(bytes.len() < 16 * 1024, "fixture meant to be small");

    let cut_path = scratch("trunc_cut.iotls");
    for cut in 0..bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write truncated");
        assert!(
            open_fully(&cut_path).is_err(),
            "truncation at byte {cut}/{} must error",
            bytes.len()
        );
    }
    // Sanity: the untruncated bytes still open.
    std::fs::write(&cut_path, &bytes).expect("write full");
    open_fully(&cut_path).expect("full file opens");
    std::fs::remove_file(&cut_path).ok();
}

#[test]
fn every_single_bit_flip_is_caught() {
    let ds = small_dataset();
    let path = scratch("flip_full.iotls");
    ds.write_to(&path).expect("write store");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();

    // One flip per byte position (rotating which bit) covers the
    // header, every frame, and the whole footer; the format has no
    // padding, so every position is load-bearing.
    let flip_path = scratch("flip_cut.iotls");
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1u8 << (i % 8);
        std::fs::write(&flip_path, &corrupt).expect("write flipped");
        assert!(
            open_fully(&flip_path).is_err(),
            "bit flip at byte {i} must error"
        );
    }
    std::fs::remove_file(&flip_path).ok();
}

#[test]
fn corruption_errors_are_specific() {
    let ds = small_dataset();
    let path = scratch("typed.iotls");
    ds.write_to(&path).expect("write store");
    let bytes = std::fs::read(&path).expect("read back");
    let case = scratch("typed_case.iotls");

    // Wrong magic.
    let mut b = bytes.clone();
    b[0] = b'X';
    std::fs::write(&case, &b).unwrap();
    assert!(matches!(open_fully(&case), Err(StoreError::BadMagic)));

    // Future version.
    let mut b = bytes.clone();
    b[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&case, &b).unwrap();
    assert!(matches!(
        open_fully(&case),
        Err(StoreError::UnsupportedVersion(99))
    ));

    // Empty file.
    std::fs::write(&case, []).unwrap();
    assert!(matches!(
        open_fully(&case),
        Err(StoreError::Truncated { .. })
    ));

    // A flip inside the first frame: the footer still validates, the
    // store opens, and the damage surfaces as that chunk's checksum.
    let mut b = bytes.clone();
    b[24] ^= 0x10; // past the 20-byte header, inside chunk 0
    std::fs::write(&case, &b).unwrap();
    let store = ColumnarStore::open(&case).expect("directory still intact");
    assert!(matches!(
        store.read_chunk(0),
        Err(StoreError::ChecksumMismatch { chunk: Some(0), .. })
    ));

    // A flip in the footer CRC itself.
    let mut b = bytes.clone();
    let last = b.len() - 1;
    b[last] ^= 0x01;
    std::fs::write(&case, &b).unwrap();
    assert!(matches!(
        open_fully(&case),
        Err(StoreError::ChecksumMismatch { chunk: None, .. })
    ));

    // Errors render and chain like real errors.
    let err = open_fully(&case).unwrap_err();
    assert!(!err.to_string().is_empty());
    let io: StoreError = std::io::Error::other("disk fell off").into();
    assert!(std::error::Error::source(&io).is_some());

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&case).ok();
}

// ── Segmented store: torn writes, stale directories, attribution ────
//
// The segmented layout adds two new places a crash can land: inside
// the MANIFEST (published by rename, so only full rewrites should
// ever be visible) and inside a segment file written by a batch that
// never published. The sweeps below hold the same line as the
// single-file ones: every corruption is a typed `StoreError` or a
// clean recovery to the last sealed state — never a panic, never
// silently wrong data.

/// A scratch segmented-store directory, wiped before use.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The monthly corpus as a segmented store: 12 chunks at 3 per
/// segment = 4 segment files plus the manifest.
fn small_segmented(name: &str) -> PathBuf {
    let dir = scratch_dir(name);
    let ds = monthly_corpus();
    let mut w = SegmentedWriter::create(&dir)
        .expect("create segmented store")
        .with_chunk_limit(3);
    w.append_columnar(&ds, 0).expect("ingest corpus");
    w.finish_batch().expect("publish");
    let store = SegmentedStore::open(&dir).expect("fixture opens");
    assert_eq!(store.segment_count(), 4, "fixture must span four segments");
    dir
}

#[test]
fn manifest_truncation_at_every_offset_is_a_typed_error() {
    let dir = small_segmented("seg_manifest_trunc");
    let manifest = dir.join("MANIFEST");
    let bytes = std::fs::read(&manifest).expect("read manifest");
    assert!(bytes.len() < 4096, "manifest meant to be small");
    for cut in 0..bytes.len() {
        std::fs::write(&manifest, &bytes[..cut]).expect("write truncated manifest");
        assert!(
            SegmentedStore::open(&dir).is_err(),
            "manifest truncated at byte {cut}/{} must error",
            bytes.len()
        );
    }
    std::fs::write(&manifest, &bytes).expect("restore manifest");
    SegmentedStore::open(&dir).expect("restored manifest opens");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_bit_flips_are_caught() {
    let dir = small_segmented("seg_manifest_flip");
    let manifest = dir.join("MANIFEST");
    let bytes = std::fs::read(&manifest).expect("read manifest");
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1u8 << (i % 8);
        std::fs::write(&manifest, &corrupt).expect("write flipped manifest");
        assert!(
            SegmentedStore::open(&dir).is_err(),
            "manifest bit flip at byte {i} must error"
        );
    }
    std::fs::write(&manifest, &bytes).expect("restore manifest");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn segment_truncation_at_every_offset_is_a_typed_error() {
    let dir = small_segmented("seg_file_trunc");
    let seg = dir.join("seg-000001.seg");
    let bytes = std::fs::read(&seg).expect("read segment");
    assert!(bytes.len() < 64 * 1024, "segment meant to be small");
    for cut in 0..bytes.len() {
        std::fs::write(&seg, &bytes[..cut]).expect("write truncated segment");
        let result = SegmentedStore::open(&dir).and_then(|s| s.to_dataset());
        assert!(
            result.is_err(),
            "segment truncated at byte {cut}/{} must error",
            bytes.len()
        );
    }
    std::fs::write(&seg, &bytes).expect("restore segment");
    SegmentedStore::open(&dir).expect("restored segment opens");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_append_recovers_to_the_last_sealed_batch() {
    let dir = small_segmented("seg_torn_append");
    let before = SegmentedStore::open(&dir).expect("open sealed store");
    let want = to_json_columnar(&before.to_dataset().expect("materialize"));
    let rows_before = before.total_rows();
    let segments_before = before.segment_count();
    drop(before);

    // A batch that crashed before its manifest rename leaves segment
    // files in arbitrary states of completeness — and possibly a torn
    // MANIFEST.tmp. None of it is named by the published manifest.
    std::fs::write(dir.join("seg-000099.seg"), b"IOTLSCS1 half a segment").expect("orphan");
    std::fs::write(dir.join("seg-000100.seg"), b"").expect("empty orphan");
    std::fs::write(dir.join("MANIFEST.tmp"), b"torn temp manifest").expect("tmp");

    let after = SegmentedStore::open(&dir).expect("store must reopen cleanly");
    assert_eq!(after.segment_count(), segments_before, "sealed segments only");
    assert_eq!(after.total_rows(), rows_before, "no silent data change");
    assert_eq!(after.orphan_segments(), 2, "strays are counted, not read");
    assert_eq!(
        to_json_columnar(&after.to_dataset().expect("materialize")),
        want,
        "recovered store is byte-identical to the last sealed state"
    );
    drop(after);

    // The next real append numbers PAST the orphans — it never
    // overwrites a file a crashed batch may still own.
    let mut w = SegmentedWriter::append(&dir).expect("append after crash");
    w.append_columnar(&monthly_corpus(), 366 * 24 * 3600).expect("ingest day 2");
    w.finish_batch().expect("publish day 2");
    assert!(
        dir.join("seg-000101.seg").exists(),
        "new segments must number past every file on disk"
    );
    let grown = SegmentedStore::open(&dir).expect("reopen grown store");
    assert_eq!(grown.total_rows(), rows_before * 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_messages_name_the_file_and_offset() {
    // Segment path + offset: a manifest-listed segment cut to zero.
    let dir = small_segmented("seg_msg_shape");
    let seg = dir.join("seg-000000.seg");
    std::fs::write(&seg, b"").expect("truncate segment");
    let msg = SegmentedStore::open(&dir).expect_err("must error").to_string();
    assert_eq!(
        msg,
        format!(
            "store truncated reading segment file at byte 0 of {}",
            seg.display()
        ),
        "the message shape is load-bearing for multi-file attribution"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Single-file stores carry their path too.
    let path = scratch("msg_shape.iotls");
    small_dataset().write_to(&path).expect("write store");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &bytes[..10]).expect("truncate");
    let err = ColumnarStore::open(&path).expect_err("must error");
    assert!(matches!(err, StoreError::Truncated { .. }));
    let msg = err.to_string();
    assert!(msg.starts_with("store truncated reading "), "{msg}");
    assert!(msg.contains(" at byte "), "{msg}");
    assert!(msg.ends_with(&format!(" of {}", path.display())), "{msg}");

    // And the manifest names itself on a torn read.
    let dir = small_segmented("seg_msg_manifest");
    let manifest = dir.join("MANIFEST");
    std::fs::write(&manifest, b"IO").expect("tear manifest");
    let msg = SegmentedStore::open(&dir).expect_err("must error").to_string();
    assert!(msg.contains("manifest"), "{msg}");
    assert!(msg.ends_with(&format!(" of {}", manifest.display())), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}
