//! The on-disk store: roundtrip fidelity, directory-level pruning,
//! and corruption behavior.
//!
//! The contract under test: a store written by [`SegmentedWriter`]
//! and reopened by [`SegmentedStore::open`] reproduces the dataset
//! byte-for-byte, and the bytes of its segment files are pinned;
//! chunk pruning works entirely off the manifest and the segment
//! footers; and *no* corrupt input — a segment file or the manifest
//! truncated at any offset or bit-flipped at any position — ever
//! panics. Corruption is a typed [`StoreError`], nothing else.
//!
//! The codec sweeps run over a one-segment store (every chunk in one
//! segment file), so every byte of that file is a byte of the segment
//! codec; the segmented section below adds the manifest, torn
//! appends, and multi-segment attribution.
//!
//! All scratch files live under `target/test_store/`.

use iotls_repro::capture::store::crc32;
use iotls_repro::capture::{
    global_columnar, to_json_columnar, ColumnarDataset, DatasetBuilder, RevocationFlow,
    RevocationKind, SegmentedStore, SegmentedWriter, StoreError,
};
use iotls_repro::core::{analyze_columnar, analyze_store, ExperimentCtx};
use iotls_repro::crypto::sha256;
use iotls_repro::simnet::TlsObservation;
use iotls_repro::tls::alert::AlertDescription;
use iotls_repro::tls::fingerprint::FingerprintId;
use iotls_repro::tls::version::ProtocolVersion;
use iotls_repro::x509::Month;
use std::path::{Path, PathBuf};

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
/// tail — every footer section populated, segment file ≈650 bytes,
/// small enough to sweep corruption over every byte.
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

/// A scratch store directory under `target/test_store/`, wiped before
/// use.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `ds` as a one-segment store: every chunk in segment file
/// `seg-000000.seg` (the chunk limit never rolls), the tables and
/// tails in its footer, one entry in the manifest.
fn one_segment_store(name: &str, ds: &ColumnarDataset) -> PathBuf {
    let dir = scratch_dir(name);
    let mut w = SegmentedWriter::create(&dir)
        .expect("create store")
        .with_chunk_limit(usize::MAX);
    for chunk in &ds.chunks {
        w.add_chunk(chunk).expect("add chunk");
    }
    w.finish(&ds.strings, &ds.fps, &ds.revocation_flows, ds.truncated)
        .expect("publish store");
    dir
}

/// The segment file of a one-segment store.
fn segment_file(dir: &Path) -> PathBuf {
    dir.join("seg-000000.seg")
}

/// Opens a store and materializes everything — the deepest read path,
/// used by the corruption sweeps so a flip anywhere (header, any
/// frame, footer) must surface.
fn open_fully(dir: &Path) -> Result<ColumnarDataset, StoreError> {
    SegmentedStore::open(dir)?.to_dataset()
}

#[test]
fn roundtrip_reproduces_the_dataset_exactly() {
    let ds = small_dataset();
    let dir = one_segment_store("roundtrip", &ds);
    let store = SegmentedStore::open(&dir).expect("open");
    assert_eq!(store.segment_count(), 1);

    // Byte-compared through the JSON export (which resolves every
    // symbol, span, flag, and tail).
    let want = to_json_columnar(&ds);
    assert_eq!(to_json_columnar(&store.to_dataset().expect("materialize")), want);

    // Chunk-level metadata survives the trip too.
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
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seed_scale_store_analysis_matches_in_memory() {
    let ds = global_columnar();
    let dir = one_segment_store("seed_scale", ds);
    let store = SegmentedStore::open(&dir).expect("open");

    let ctx = ExperimentCtx::new(0x10AD);
    let from_disk = analyze_store(&store, &ctx).expect("analyze store");
    assert_eq!(from_disk, analyze_columnar(ds, &ctx));
    assert!(from_disk.total_connections > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hex SHA-256 of a file's bytes.
fn file_digest(path: &Path) -> String {
    let bytes = std::fs::read(path).expect("read store file");
    sha256::hex(&sha256::sha256(&bytes))
}

/// The exact bytes of a one-segment store's segment file, pinned as
/// SHA-256 digests (taken when each dataset was one self-contained
/// store file, the format a segment file still is): a codec change
/// that moves one byte of a frame, the directory, or the footer fails
/// here, even when every decoded value still roundtrips. Both ways of
/// filling a batch — chunks with explicit tables and tails, and a
/// whole dataset remapped onto the writer's own tables — must lay
/// down these bytes.
#[test]
fn single_file_store_bytes_are_pinned() {
    let cases: [(&str, &ColumnarDataset, &str); 3] = [
        (
            "small",
            &small_dataset(),
            "325c0af7857e7f79be50879add242183da4f624c40a06d76869738416a0a0aff",
        ),
        (
            "monthly",
            &monthly_corpus(),
            "a463b4b0f3b7d1e8965caedac0f0d3457344394455e4103e5d0cb90828bfc0db",
        ),
        (
            "seed_scale",
            global_columnar(),
            "bd22627cf35f4ab04a19553f6ad0de67b2ffb8b79276e5f835ff05257c31b388",
        ),
    ];
    let mut moved = Vec::new();
    for (name, ds, want) in cases {
        let chunked = one_segment_store(&format!("pinned_{name}"), ds);
        let remapped = scratch_dir(&format!("pinned_{name}_remapped"));
        let mut w = SegmentedWriter::create(&remapped)
            .expect("create store")
            .with_chunk_limit(usize::MAX);
        w.append_columnar(ds, 0).expect("ingest dataset");
        w.finish_batch().expect("publish store");
        for (how, dir) in [("chunks", &chunked), ("append_columnar", &remapped)] {
            let got = file_digest(&segment_file(dir));
            if got != want {
                moved.push(format!("{name} via {how}: {got}"));
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }
    assert!(moved.is_empty(), "store bytes moved:\n{}", moved.join("\n"));
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
    let dir = one_segment_store("pruning", &ds);
    let store = SegmentedStore::open(&dir).expect("open");

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
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let dir = one_segment_store("trunc_full", &small_dataset());
    let seg = segment_file(&dir);
    let bytes = std::fs::read(&seg).expect("read back");
    assert!(bytes.len() < 16 * 1024, "fixture meant to be small");

    for cut in 0..bytes.len() {
        std::fs::write(&seg, &bytes[..cut]).expect("write truncated");
        assert!(
            open_fully(&dir).is_err(),
            "truncation at byte {cut}/{} must error",
            bytes.len()
        );
    }
    // Sanity: the untruncated bytes still open.
    std::fs::write(&seg, &bytes).expect("write full");
    open_fully(&dir).expect("full file opens");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_bit_flip_is_caught() {
    let dir = one_segment_store("flip_full", &small_dataset());
    let seg = segment_file(&dir);
    let bytes = std::fs::read(&seg).expect("read back");

    // One flip per byte position (rotating which bit) covers the
    // header, every frame, and the whole footer; the format has no
    // padding, so every position is load-bearing.
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1u8 << (i % 8);
        std::fs::write(&seg, &corrupt).expect("write flipped");
        assert!(
            open_fully(&dir).is_err(),
            "bit flip at byte {i} must error"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_errors_are_specific() {
    let dir = one_segment_store("typed", &small_dataset());
    let seg = segment_file(&dir);
    let bytes = std::fs::read(&seg).expect("read back");

    // Wrong magic.
    let mut b = bytes.clone();
    b[0] = b'X';
    std::fs::write(&seg, &b).unwrap();
    assert!(matches!(open_fully(&dir), Err(StoreError::BadMagic)));

    // Future version.
    let mut b = bytes.clone();
    b[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&seg, &b).unwrap();
    assert!(matches!(
        open_fully(&dir),
        Err(StoreError::UnsupportedVersion(99))
    ));

    // Empty segment file.
    std::fs::write(&seg, []).unwrap();
    assert!(matches!(
        open_fully(&dir),
        Err(StoreError::Truncated { .. })
    ));

    // A flip inside the first frame: the footer still validates, the
    // store opens, and the damage surfaces as that chunk's checksum.
    let mut b = bytes.clone();
    b[24] ^= 0x10; // past the 20-byte header, inside chunk 0
    std::fs::write(&seg, &b).unwrap();
    let store = SegmentedStore::open(&dir).expect("directory still intact");
    assert!(matches!(
        store.read_chunk(0),
        Err(StoreError::ChecksumMismatch { chunk: Some(0), .. })
    ));

    // A flip in the footer CRC itself.
    let mut b = bytes.clone();
    let last = b.len() - 1;
    b[last] ^= 0x01;
    std::fs::write(&seg, &b).unwrap();
    assert!(matches!(
        open_fully(&dir),
        Err(StoreError::ChecksumMismatch { chunk: None, .. })
    ));

    // Errors render and chain like real errors.
    let err = open_fully(&dir).unwrap_err();
    assert!(!err.to_string().is_empty());
    let io: StoreError = std::io::Error::other("disk fell off").into();
    assert!(std::error::Error::source(&io).is_some());

    std::fs::remove_dir_all(&dir).ok();
}

// ── Segmented store: torn writes, stale directories, attribution ────
//
// Beyond the segment codec, the store has two more places a crash
// can land: inside the MANIFEST (published by rename, so only full
// rewrites should ever be visible) and inside a segment file written
// by a batch that never published. The sweeps below hold the same
// line as the codec sweeps above: every corruption is a typed
// `StoreError` or a clean recovery to the last sealed state — never
// a panic, never silently wrong data.

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

    // A one-segment store names its segment file too.
    let one = one_segment_store("msg_shape_one", &small_dataset());
    let path = segment_file(&one);
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &bytes[..10]).expect("truncate");
    let err = open_fully(&one).expect_err("must error");
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
    std::fs::remove_dir_all(&one).ok();
}

/// A manifest that lists the same segment file twice is CRC-valid but
/// would count that segment's chunks, rows, flows, and truncations
/// twice; opening (and therefore appending to) such a store is a typed
/// corruption error.
#[test]
fn manifest_naming_a_segment_twice_is_corrupt() {
    let dir = one_segment_store("seg_manifest_dup", &monthly_corpus());
    let manifest = dir.join("MANIFEST");
    let bytes = std::fs::read(&manifest).expect("read manifest");
    // magic (8) · version (4) · count (4) · one entry ·
    // strings_len (4) · fps_len (4) · crc (4)
    let entry = &bytes[16..bytes.len() - 12];
    let mut forged = bytes[..12].to_vec();
    forged.extend_from_slice(&2u32.to_le_bytes());
    forged.extend_from_slice(entry);
    forged.extend_from_slice(entry);
    forged.extend_from_slice(&bytes[bytes.len() - 12..bytes.len() - 4]);
    let crc = crc32(&forged);
    forged.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&manifest, &forged).expect("write forged manifest");

    assert!(
        matches!(SegmentedStore::open(&dir), Err(StoreError::Corrupt(_))),
        "a segment named twice must not open"
    );
    assert!(
        matches!(SegmentedWriter::append(&dir), Err(StoreError::Corrupt(_))),
        "nor be appended to"
    );
    std::fs::write(&manifest, &bytes).expect("restore manifest");
    assert_eq!(SegmentedStore::open(&dir).expect("restored").total_rows(), 24);
    std::fs::remove_dir_all(&dir).ok();
}
