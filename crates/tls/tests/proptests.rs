//! Property-style tests for the TLS wire codecs and fingerprinting.
//!
//! Inputs come from the workspace's deterministic DRBG instead of an
//! external property-testing framework, so the suite builds with no
//! registry access and failures reproduce from the fixed seed.

use iotls_crypto::drbg::Drbg;
use iotls_tls::alert::{Alert, AlertDescription, AlertLevel};
use iotls_tls::extension::{decode_extensions, encode_extensions, Extension};
use iotls_tls::fingerprint::Fingerprint;
use iotls_tls::handshake::{ClientHello, HandshakeMessage, ServerHello, ServerKeyExchange};
use iotls_tls::record::{ContentType, Deframer, Record};
use iotls_tls::version::ProtocolVersion;

fn cases(n: u64, label: &str, mut body: impl FnMut(&mut Drbg)) {
    let root = Drbg::from_seed(0x715_7E57).fork(label);
    for i in 0..n {
        let mut rng = root.fork(&format!("case-{i}"));
        body(&mut rng);
    }
}

fn random_bytes(rng: &mut Drbg, max_len: u64) -> Vec<u8> {
    let len = rng.below(max_len + 1) as usize;
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

fn random_u16s(rng: &mut Drbg, min: u64, max_len: u64) -> Vec<u16> {
    let len = rng.range(min, max_len) as usize;
    (0..len).map(|_| rng.next_u32() as u16).collect()
}

fn random_version(rng: &mut Drbg) -> ProtocolVersion {
    *rng.choose(&[
        ProtocolVersion::Ssl30,
        ProtocolVersion::Tls10,
        ProtocolVersion::Tls11,
        ProtocolVersion::Tls12,
        ProtocolVersion::Tls13,
    ])
    .unwrap()
}

fn random_label(rng: &mut Drbg, min: u64, max: u64) -> String {
    let len = rng.range(min, max) as usize;
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

fn random_hostname(rng: &mut Drbg) -> String {
    let labels = rng.range(2, 5);
    let mut parts = vec![random_label(rng, 1, 13)];
    for _ in 1..labels {
        parts.push(random_label(rng, 1, 11));
    }
    parts.join(".")
}

/// Raw extensions whose type collides with a modeled extension decode
/// into the modeled variant, so exclude those types from roundtrips.
fn is_roundtrippable(e: &Extension) -> bool {
    match e {
        Extension::Raw { typ, .. } => {
            ![0u16, 5, 10, 11, 13, 16, 35, 43, 51, 0xff01].contains(typ)
        }
        _ => true,
    }
}

fn random_extension(rng: &mut Drbg) -> Extension {
    match rng.below(10) {
        0 => Extension::ServerName(random_hostname(rng)),
        1 => Extension::StatusRequest,
        2 => Extension::SupportedGroups(random_u16s(rng, 0, 8)),
        3 => Extension::EcPointFormats(random_bytes(rng, 3)),
        4 => Extension::SignatureAlgorithms(random_u16s(rng, 0, 8)),
        5 => {
            let n = rng.below(4);
            Extension::Alpn((0..n).map(|_| random_label(rng, 1, 12)).collect())
        }
        6 => Extension::SessionTicket,
        7 => {
            let n = rng.below(5);
            Extension::SupportedVersions((0..n).map(|_| random_version(rng)).collect())
        }
        8 => Extension::RenegotiationInfo,
        _ => Extension::Raw {
            typ: rng.next_u32() as u16,
            data: random_bytes(rng, 31),
        },
    }
}

fn random_client_hello(rng: &mut Drbg) -> ClientHello {
    let mut random = [0u8; 32];
    rng.fill_bytes(&mut random);
    let ext_count = rng.below(6);
    ClientHello {
        legacy_version: random_version(rng),
        random,
        session_id: random_bytes(rng, 15),
        cipher_suites: random_u16s(rng, 1, 40),
        compression_methods: vec![0],
        extensions: (0..ext_count)
            .map(|_| random_extension(rng))
            .filter(is_roundtrippable)
            .collect(),
    }
}

#[test]
fn client_hello_roundtrips() {
    cases(192, "client-hello", |rng| {
        let msg = HandshakeMessage::ClientHello(random_client_hello(rng));
        let bytes = msg.encode();
        let (decoded, used) = HandshakeMessage::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, msg);
    });
}

#[test]
fn server_hello_roundtrips() {
    cases(192, "server-hello", |rng| {
        let mut random = [0u8; 32];
        rng.fill_bytes(&mut random);
        let msg = HandshakeMessage::ServerHello(ServerHello {
            version: random_version(rng),
            random,
            session_id: random_bytes(rng, 7),
            cipher_suite: rng.next_u32() as u16,
            compression_method: 0,
            extensions: vec![],
        });
        let bytes = msg.encode();
        let (decoded, _) = HandshakeMessage::decode(&bytes).unwrap();
        assert_eq!(decoded, msg);
    });
}

#[test]
fn certificate_and_kx_roundtrip() {
    cases(192, "cert-kx", |rng| {
        let chain_len = rng.below(4);
        let chain: Vec<Vec<u8>> = (0..chain_len).map(|_| random_bytes(rng, 63)).collect();
        let dh = random_bytes(rng, 95);
        let sig = random_bytes(rng, 63);
        for msg in [
            HandshakeMessage::Certificate(chain.clone()),
            HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
                dh_public: dh.clone(),
                signature: sig.clone(),
            }),
            HandshakeMessage::ClientKeyExchange(dh.clone()),
            HandshakeMessage::Finished(sig.clone()),
        ] {
            let bytes = msg.encode();
            let (decoded, used) = HandshakeMessage::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, msg);
        }
    });
}

#[test]
fn extension_blocks_roundtrip() {
    cases(192, "ext-blocks", |rng| {
        let n = rng.below(8);
        let exts: Vec<Extension> = (0..n)
            .map(|_| random_extension(rng))
            .filter(is_roundtrippable)
            .collect();
        let mut buf = Vec::new();
        encode_extensions(&exts, &mut buf);
        let mut r = iotls_tls::codec::Reader::new(&buf);
        let decoded = decode_extensions(&mut r).unwrap();
        assert_eq!(decoded, exts);
    });
}

#[test]
fn truncated_hello_never_panics() {
    cases(192, "truncated", |rng| {
        let bytes = HandshakeMessage::ClientHello(random_client_hello(rng)).encode();
        let cut = (rng.below(100) as usize).min(bytes.len());
        // Must error or succeed, never panic.
        let _ = HandshakeMessage::decode(&bytes[..cut]);
    });
}

#[test]
fn garbage_bytes_never_panic_decoder() {
    cases(192, "garbage", |rng| {
        let data = random_bytes(rng, 199);
        let _ = HandshakeMessage::decode(&data);
        let mut d = Deframer::new();
        d.push(&data);
        while let Ok(Some(_)) = d.pop_ref() {}
    });
}

#[test]
fn records_roundtrip_under_any_chunking() {
    cases(96, "chunking", |rng| {
        let n = rng.range(1, 5);
        let records: Vec<Record> = (0..n)
            .map(|_| {
                Record::new(
                    ContentType::ApplicationData,
                    ProtocolVersion::Tls12,
                    random_bytes(rng, 299),
                )
            })
            .collect();
        let chunk = rng.range(1, 64) as usize;
        let mut wire = Vec::new();
        for r in &records {
            wire.extend_from_slice(&r.encode());
        }
        let mut d = Deframer::new();
        let mut out = Vec::new();
        for c in wire.chunks(chunk) {
            d.push(c);
            while let Some(r) = d.pop_ref().unwrap() {
                out.push(Record::new(r.content_type, r.version, r.payload.to_vec()));
            }
        }
        assert_eq!(out, records);
    });
}

#[test]
fn alerts_roundtrip() {
    cases(192, "alerts", |rng| {
        let alert = Alert {
            level: AlertLevel::from_wire(rng.range(1, 2) as u8).unwrap(),
            description: AlertDescription::from_wire(rng.next_u32() as u8),
        };
        assert_eq!(Alert::from_bytes(&alert.to_bytes()), Some(alert));
    });
}

#[test]
fn fingerprint_is_pure_function_of_features() {
    cases(192, "fingerprint", |rng| {
        let ch = random_client_hello(rng);
        let fp1 = Fingerprint::from_client_hello(&ch);
        let mut ch2 = ch.clone();
        ch2.random = [0xEE; 32];
        ch2.session_id = vec![9, 9, 9];
        let fp2 = Fingerprint::from_client_hello(&ch2);
        assert_eq!(fp1.id(), fp2.id(), "random/session must not affect fingerprints");
    });
}

#[test]
fn fragmentation_reassembles() {
    cases(32, "fragmentation", |rng| {
        let payload = random_bytes(rng, 40_000);
        let frags =
            Record::fragment(ContentType::ApplicationData, ProtocolVersion::Tls12, &payload);
        let total: Vec<u8> = frags.iter().flat_map(|f| f.payload.clone()).collect();
        assert_eq!(total, payload);
    });
}
