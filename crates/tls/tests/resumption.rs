//! RFC 5246 session-ID resumption: full handshake issues a session,
//! the abbreviated handshake reuses it — shorter, certificate-free,
//! and still authenticated by the shared master secret.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_tls::client::{CachedSession, ClientConfig, ClientConnection};
use iotls_tls::record::SessionBuf;
use iotls_tls::server::{ServerConfig, ServerConnection, SessionCache};
use iotls_tls::Status;
use iotls_x509::{CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp};

struct World {
    roots: RootStore,
    server_cfg: ServerConfig,
    cache: SessionCache,
}

fn world(seed: u64) -> World {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Resume Root", "Sim", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed + 1000));
    let leaf = root.issue(
        IssueParams::leaf("resume.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
        &leaf_key,
    );
    let cache = SessionCache::new();
    let mut server_cfg = ServerConfig::typical(vec![leaf], leaf_key);
    server_cfg.session_cache = Some(cache.clone());
    World {
        roots: RootStore::from_certs([root.cert.clone()]),
        server_cfg,
        cache,
    }
}

fn now() -> Timestamp {
    Timestamp::from_ymd(2021, 3, 1)
}

/// Starts the client and pumps to quiescence; returns the wire bytes
/// server→client.
fn pump(client: &mut ClientConnection, server: &mut ServerConnection) -> Vec<u8> {
    let mut s2c_total = Vec::new();
    let (mut c2s, mut s2c) = (SessionBuf::new(), SessionBuf::new());
    client.start_into(&mut c2s);
    for _ in 0..16 {
        let sent = !c2s.is_empty();
        if sent {
            server.process(c2s.as_slice(), &mut s2c);
            c2s.clear();
        }
        let answered = !s2c.is_empty();
        if answered {
            s2c_total.extend_from_slice(s2c.as_slice());
            client.process(s2c.as_slice(), &mut c2s);
            s2c.clear();
        }
        if !sent && !answered {
            break;
        }
    }
    s2c_total
}

/// [`pump`] against a fresh server; returns (client, wire bytes
/// server→client).
fn run(mut client: ClientConnection, server_cfg: ServerConfig, seed: u64) -> (ClientConnection, Vec<u8>) {
    let mut server = ServerConnection::new(server_cfg, Drbg::from_seed(seed));
    let s2c = pump(&mut client, &mut server);
    (client, s2c)
}

fn full_handshake(w: &World, seed: u64) -> (CachedSession, usize) {
    let client = ClientConnection::new(
        ClientConfig::modern(w.roots.clone()),
        "resume.example.com",
        now(),
        Drbg::from_seed(seed),
    );
    let (client, s2c) = run(client, w.server_cfg.clone(), seed + 1);
    assert!(client.is_established(), "{:?}", client.failure());
    assert!(!client.is_resumed());
    let cached = client.session_for_cache().expect("session issued");
    assert_eq!(cached.session_id.len(), 16);
    (cached, s2c.len())
}

#[test]
fn full_then_resumed_handshake() {
    let w = world(3000);
    let (cached, full_bytes) = full_handshake(&w, 1);
    assert_eq!(w.cache.len(), 1);

    // Second connection resumes.
    let mut client = ClientConnection::new(
        ClientConfig::modern(w.roots.clone()),
        "resume.example.com",
        now(),
        Drbg::from_seed(2),
    );
    client.resume(cached);
    let (client, s2c) = run(client, w.server_cfg.clone(), 3);
    assert!(client.is_established(), "{:?}", client.failure());
    assert!(client.is_resumed());
    // Abbreviated: far fewer server bytes (no Certificate flight).
    assert!(
        s2c.len() * 3 < full_bytes,
        "resumed {} vs full {full_bytes} bytes",
        s2c.len()
    );
    // No certificate crossed the wire.
    assert!(client.summary().server_chain.is_empty());
}

#[test]
fn resumed_session_carries_application_data() {
    let w = world(3010);
    let (cached, _) = full_handshake(&w, 10);
    let mut client = ClientConnection::new(
        ClientConfig::modern(w.roots.clone()),
        "resume.example.com",
        now(),
        Drbg::from_seed(11),
    );
    client.resume(cached);
    let mut server = ServerConnection::new(w.server_cfg.clone(), Drbg::from_seed(12));
    pump(&mut client, &mut server);
    assert!(client.is_established() && server.is_established());
    assert!(server.is_resumed());
    let mut wire = SessionBuf::new();
    client.send_application_data_into(b"resumed payload", &mut wire);
    assert!(
        !wire.as_slice().windows(7).any(|w| w == b"resumed"),
        "encrypted"
    );
    let status = server.process(wire.as_slice(), &mut SessionBuf::new());
    assert_eq!(status, Status::Established);
    assert_eq!(server.take_application_data(), b"resumed payload");
}

#[test]
fn unknown_session_id_falls_back_to_full_handshake() {
    let w = world(3020);
    let mut client = ClientConnection::new(
        ClientConfig::modern(w.roots.clone()),
        "resume.example.com",
        now(),
        Drbg::from_seed(20),
    );
    client.resume(CachedSession {
        session_id: vec![0xEE; 16],
        master: [7u8; 48],
    });
    let (client, _) = run(client, w.server_cfg.clone(), 21);
    assert!(client.is_established(), "{:?}", client.failure());
    assert!(!client.is_resumed(), "unknown id must do a full handshake");
    assert!(!client.summary().server_chain.is_empty());
}

#[test]
fn server_without_cache_never_issues_sessions() {
    let mut w = world(3030);
    w.server_cfg.session_cache = None;
    let client = ClientConnection::new(
        ClientConfig::modern(w.roots.clone()),
        "resume.example.com",
        now(),
        Drbg::from_seed(30),
    );
    let (client, _) = run(client, w.server_cfg.clone(), 31);
    assert!(client.is_established());
    assert!(client.session_for_cache().is_none());
}

#[test]
fn sessions_are_shared_across_server_connections_via_the_cache() {
    let w = world(3040);
    let (cached1, _) = full_handshake(&w, 40);
    let (cached2, _) = full_handshake(&w, 50);
    assert_ne!(cached1.session_id, cached2.session_id);
    assert_eq!(w.cache.len(), 2);
    // Either session resumes against a *fresh* server connection.
    for (i, cached) in [cached1, cached2].into_iter().enumerate() {
        let mut client = ClientConnection::new(
            ClientConfig::modern(w.roots.clone()),
            "resume.example.com",
            now(),
            Drbg::from_seed(60 + i as u64),
        );
        client.resume(cached);
        let (client, _) = run(client, w.server_cfg.clone(), 70 + i as u64);
        assert!(client.is_resumed(), "session {i}");
    }
}

#[test]
fn resumed_handshake_with_wrong_master_fails() {
    let w = world(3050);
    let (mut cached, _) = full_handshake(&w, 80);
    cached.master[0] ^= 0xff; // corrupted cache entry
    let mut client = ClientConnection::new(
        ClientConfig::modern(w.roots.clone()),
        "resume.example.com",
        now(),
        Drbg::from_seed(81),
    );
    client.resume(cached);
    let (client, _) = run(client, w.server_cfg.clone(), 82);
    assert!(!client.is_established());
}
