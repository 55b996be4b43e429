//! Property tests for the sans-IO record write/read pair:
//! [`write_record`] into a caller-owned [`SessionBuf`] must
//! round-trip through [`Deframer::pop_ref`] for arbitrary content
//! types, versions, payload sizes (including multi-fragment), and
//! arbitrary transport re-chunking — and must stay byte-identical to
//! the legacy `Record::fragment` + `Record::encode` oracle.
//!
//! Hand-rolled with the repo's deterministic [`Drbg`] (no external
//! property-testing crate): every case is a pure function of the
//! seed, so a failure names its iteration and reproduces exactly.

use iotls_crypto::drbg::Drbg;
use iotls_tls::record::MAX_FRAGMENT;
use iotls_tls::version::ProtocolVersion;
use iotls_tls::{write_record, ContentType, Deframer, Record, SessionBuf};

const CONTENT_TYPES: [ContentType; 4] = [
    ContentType::ChangeCipherSpec,
    ContentType::Alert,
    ContentType::Handshake,
    ContentType::ApplicationData,
];

const VERSIONS: [ProtocolVersion; 5] = [
    ProtocolVersion::Ssl30,
    ProtocolVersion::Tls10,
    ProtocolVersion::Tls11,
    ProtocolVersion::Tls12,
    ProtocolVersion::Tls13,
];

/// Draws one arbitrary (content type, version, payload) triple.
/// Payload lengths are biased toward the interesting boundaries:
/// empty, 1, around [`MAX_FRAGMENT`], and several fragments long.
fn arbitrary_case(rng: &mut Drbg) -> (ContentType, ProtocolVersion, Vec<u8>) {
    let ct = *rng.choose(&CONTENT_TYPES).unwrap();
    let version = *rng.choose(&VERSIONS).unwrap();
    let len = match rng.below(6) {
        0 => 0,
        1 => rng.below(8) as usize,
        2 => MAX_FRAGMENT - 1 + rng.below(3) as usize,
        3 => MAX_FRAGMENT * 2 + rng.below(5) as usize,
        _ => rng.below(3 * MAX_FRAGMENT as u64) as usize,
    };
    let mut payload = vec![0u8; len];
    rng.fill_bytes(&mut payload);
    (ct, version, payload)
}

/// Splits `wire` into arbitrary chunks and feeds them to a deframer,
/// popping every complete record as it appears. Returns the popped
/// records as owned (content type, version, payload) triples.
fn feed_in_splits(
    wire: &[u8],
    rng: &mut Drbg,
) -> Vec<(ContentType, ProtocolVersion, Vec<u8>)> {
    let mut deframer = Deframer::new();
    let mut popped = Vec::new();
    let mut offset = 0;
    while offset < wire.len() {
        // Chunk sizes from 1 byte (worst-case trickle) up past a
        // whole record, exercising every header/payload straddle.
        let take = (1 + rng.below(MAX_FRAGMENT as u64 + 64) as usize).min(wire.len() - offset);
        deframer.push(&wire[offset..offset + take]);
        offset += take;
        while let Some(rec) = deframer.pop_ref().expect("well-formed wire bytes") {
            popped.push((rec.content_type, rec.version, rec.payload.to_vec()));
        }
    }
    assert_eq!(deframer.buffered(), 0, "no trailing partial record");
    popped
}

#[test]
fn write_record_roundtrips_arbitrary_cases_through_pop_ref() {
    let mut rng = Drbg::from_seed(0x05EC_04D5).fork("record-roundtrip");
    let mut out = SessionBuf::new();
    for iteration in 0..200 {
        let (ct, version, payload) = arbitrary_case(&mut rng);
        out.clear();
        write_record(ct, version, &payload, &mut out);

        let records = feed_in_splits(out.as_slice(), &mut rng);
        let expected_records = payload.len().div_ceil(MAX_FRAGMENT).max(1);
        assert_eq!(
            records.len(),
            expected_records,
            "iteration {iteration}: fragment count for {} payload bytes",
            payload.len()
        );
        let mut reassembled = Vec::new();
        for (rec_ct, rec_version, rec_payload) in &records {
            assert_eq!(*rec_ct, ct, "iteration {iteration}");
            assert_eq!(*rec_version, version, "iteration {iteration}");
            assert!(rec_payload.len() <= MAX_FRAGMENT, "iteration {iteration}");
            reassembled.extend_from_slice(rec_payload);
        }
        assert_eq!(reassembled, payload, "iteration {iteration}");
    }
}

#[test]
fn write_record_matches_fragment_encode_oracle() {
    // The legacy Record::fragment + Record::encode pair is kept as an
    // independently implemented oracle; the sans-IO writer must stay
    // byte-identical to it for every case, or golden wire fixtures
    // would shift.
    let mut rng = Drbg::from_seed(0x0_4AC1E).fork("record-oracle");
    let mut out = SessionBuf::new();
    for iteration in 0..200 {
        let (ct, version, payload) = arbitrary_case(&mut rng);
        out.clear();
        write_record(ct, version, &payload, &mut out);

        let legacy: Vec<u8> = Record::fragment(ct, version, &payload)
            .iter()
            .flat_map(|r| r.encode())
            .collect();
        assert_eq!(out.as_slice(), &legacy[..], "iteration {iteration}");
    }
}

#[test]
fn multiple_records_share_one_session_buf() {
    // Several write_record calls append; the deframer pops them back
    // in order. This is the exact shape of a pump round that batches
    // ServerHello..Finished into one flight.
    let mut out = SessionBuf::new();
    let payloads: [&[u8]; 3] = [b"alpha", b"", b"gamma-delta"];
    for p in payloads {
        write_record(ContentType::Handshake, ProtocolVersion::Tls12, p, &mut out);
    }
    let mut deframer = Deframer::new();
    deframer.push(out.as_slice());
    for p in payloads {
        let rec = deframer.pop_ref().unwrap().expect("one record per write");
        assert_eq!(rec.payload, p);
    }
    assert!(deframer.pop_ref().unwrap().is_none());
}
