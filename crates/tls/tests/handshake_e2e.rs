//! End-to-end client↔server handshakes pumped through in-memory byte
//! exchange — the same lockstep the network simulator performs.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_tls::alert::AlertDescription;
use iotls_tls::client::{ClientConfig, ClientConnection, HandshakeFailure};
use iotls_tls::record::SessionBuf;
use iotls_tls::server::{ServerConfig, ServerConnection};
use iotls_tls::version::ProtocolVersion;
use iotls_tls::Status;
use iotls_x509::{
    CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp, ValidationError,
    ValidationPolicy,
};

struct TestPki {
    root: CertifiedKey,
    roots: RootStore,
}

fn pki(seed: u64) -> TestPki {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("E2E Root CA", "SimCA", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let roots = RootStore::from_certs([root.cert.clone()]);
    TestPki { root, roots }
}

fn server_for(pki: &TestPki, host: &str, seed: u64) -> ServerConfig {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed));
    let leaf = pki.root.issue(
        IssueParams::leaf(host, seed, Timestamp::from_ymd(2020, 6, 1), 500),
        &key,
    );
    ServerConfig::typical(vec![leaf], key)
}

const NOW: fn() -> Timestamp = || Timestamp::from_ymd(2021, 3, 1);

/// Starts the client, then pumps bytes both ways until neither side
/// produces output.
fn handshake(client: &mut ClientConnection, server: &mut ServerConnection) {
    let (mut c2s, mut s2c) = (SessionBuf::new(), SessionBuf::new());
    client.start_into(&mut c2s);
    for _ in 0..20 {
        let sent = !c2s.is_empty();
        if sent {
            server.process(c2s.as_slice(), &mut s2c);
            c2s.clear();
        }
        let answered = !s2c.is_empty();
        if answered {
            client.process(s2c.as_slice(), &mut c2s);
            s2c.clear();
        }
        if !sent && !answered {
            break;
        }
    }
}

fn run(
    client_config: ClientConfig,
    server_config: ServerConfig,
    host: &str,
) -> (ClientConnection, ServerConnection) {
    let mut client = ClientConnection::new(client_config, host, NOW(), Drbg::from_seed(0xC11E));
    let mut server = ServerConnection::new(server_config, Drbg::from_seed(0x5E44));
    handshake(&mut client, &mut server);
    (client, server)
}

/// Sends `data` from an established client to its server; returns the
/// wire bytes.
fn client_sends(
    client: &mut ClientConnection,
    server: &mut ServerConnection,
    data: &[u8],
) -> Vec<u8> {
    let mut wire = SessionBuf::new();
    client.send_application_data_into(data, &mut wire);
    let status = server.process(wire.as_slice(), &mut SessionBuf::new());
    assert_eq!(status, Status::Established);
    wire.take_vec()
}

#[test]
fn modern_handshake_establishes_tls13() {
    let p = pki(1000);
    let (client, server) = run(
        ClientConfig::modern(p.roots.clone()),
        server_for(&p, "cloud.example.com", 1001),
        "cloud.example.com",
    );
    assert!(client.is_established(), "client: {:?}", client.failure());
    assert!(server.is_established(), "server: {:?}", server.failure());
    let s = client.summary();
    assert_eq!(s.version, Some(ProtocolVersion::Tls13));
    assert_eq!(s.cipher_suite, Some(0x1301));
    assert!(s.failure.is_none());
}

#[test]
fn application_data_roundtrip_and_confidentiality() {
    let p = pki(1002);
    let (mut client, mut server) = run(
        ClientConfig::modern(p.roots.clone()),
        server_for(&p, "cloud.example.com", 1003),
        "cloud.example.com",
    );
    assert!(client.is_established() && server.is_established());

    let wire = client_sends(&mut client, &mut server, b"deviceSecret=abc123");
    // Payload is encrypted on the wire.
    assert!(!wire
        .windows(12)
        .any(|w| w == b"deviceSecret"));
    assert_eq!(server.take_application_data(), b"deviceSecret=abc123");

    let mut wire = SessionBuf::new();
    server.send_application_data_into(b"ok", &mut wire);
    let status = client.process(wire.as_slice(), &mut SessionBuf::new());
    assert_eq!(status, Status::Established);
    assert_eq!(client.take_application_data(), b"ok");
}

#[test]
fn tls12_only_client_negotiates_tls12() {
    let p = pki(1004);
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.versions = vec![ProtocolVersion::Tls12];
    cfg.cipher_suites = vec![0xc02f, 0x009c];
    let (client, _server) = run(cfg, server_for(&p, "h.example.com", 1005), "h.example.com");
    assert!(client.is_established());
    assert_eq!(client.summary().version, Some(ProtocolVersion::Tls12));
    assert_eq!(client.summary().cipher_suite, Some(0xc02f));
}

#[test]
fn rsa_key_transport_suite_works() {
    let p = pki(1006);
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.versions = vec![ProtocolVersion::Tls12];
    cfg.cipher_suites = vec![0x009c]; // TLS_RSA_WITH_AES_128_GCM_SHA256
    let (mut client, mut server) = run(cfg, server_for(&p, "h.example.com", 1007), "h.example.com");
    assert!(client.is_established(), "{:?}", client.failure());
    client_sends(&mut client, &mut server, b"ping");
    assert_eq!(server.take_application_data(), b"ping");
}

#[test]
fn rc4_suite_works_end_to_end() {
    // The Roku-TV fallback suite: TLS_RSA_WITH_RC4_128_SHA.
    let p = pki(1008);
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.versions = vec![ProtocolVersion::Tls10];
    cfg.cipher_suites = vec![0x0005];
    let (mut client, mut server) = run(cfg, server_for(&p, "h.example.com", 1009), "h.example.com");
    assert!(client.is_established(), "{:?}", client.failure());
    assert_eq!(client.summary().version, Some(ProtocolVersion::Tls10));
    let wire = client_sends(&mut client, &mut server, b"legacy payload");
    assert!(!wire.windows(6).any(|w| w == b"legacy"));
    assert_eq!(server.take_application_data(), b"legacy payload");
}

#[test]
fn self_signed_cert_rejected_with_unknown_ca() {
    let p = pki(1010);
    // Server presents a self-signed cert not in the client's store —
    // the NoValidation attack against a *correct* client.
    let attacker_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1011));
    let attacker = CertifiedKey::self_signed(
        IssueParams::leaf("cloud.example.com", 9, Timestamp::from_ymd(2020, 1, 1), 700),
        attacker_key,
    );
    let server_cfg = ServerConfig::typical(vec![attacker.cert.clone()], attacker.key.clone());
    let (client, server) = run(
        ClientConfig::modern(p.roots.clone()),
        server_cfg,
        "cloud.example.com",
    );
    assert!(!client.is_established());
    assert_eq!(
        client.failure(),
        Some(&HandshakeFailure::Validation(ValidationError::UnknownIssuer))
    );
    // OpenSSL profile: unknown_ca alert observable by the attacker.
    let alerts = server.alerts_received();
    assert!(
        alerts
            .iter()
            .any(|a| a.description == AlertDescription::UnknownCa),
        "alerts: {alerts:?}"
    );
}

#[test]
fn no_validation_client_accepts_self_signed() {
    let p = pki(1012);
    let attacker_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1013));
    let attacker = CertifiedKey::self_signed(
        IssueParams::leaf("anything.example.com", 9, Timestamp::from_ymd(2020, 1, 1), 700),
        attacker_key,
    );
    let server_cfg = ServerConfig::typical(vec![attacker.cert.clone()], attacker.key.clone());
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.validation_policy = ValidationPolicy::no_validation();
    let (mut client, mut server) = run(cfg, server_cfg, "cloud.example.com");
    assert!(client.is_established(), "{:?}", client.failure());
    // The vulnerable device then leaks its payload to the attacker.
    client_sends(&mut client, &mut server, b"encrypt_key=SECRET");
    assert_eq!(server.take_application_data(), b"encrypt_key=SECRET");
}

#[test]
fn wrong_hostname_rejected_only_with_hostname_check() {
    let p = pki(1014);
    // Legitimate chain for a domain the attacker controls.
    let server_cfg = server_for(&p, "attacker-owned.example.net", 1015);
    let (client, _s) = run(
        ClientConfig::modern(p.roots.clone()),
        server_cfg.clone(),
        "victim.example.com",
    );
    assert_eq!(
        client.failure(),
        Some(&HandshakeFailure::Validation(ValidationError::HostnameMismatch))
    );
    // The Amazon-family policy (no hostname check) accepts it.
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.validation_policy = ValidationPolicy::no_hostname_check();
    let (client, _s) = run(cfg, server_cfg, "victim.example.com");
    assert!(client.is_established());
}

#[test]
fn spoofed_ca_yields_decrypt_error_for_openssl_profile() {
    // The root-store probe's positive case: client recognizes the CA
    // name but the signature cannot verify → decrypt_error (OpenSSL).
    let p = pki(1016);
    let spoof_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1017));
    let spoof = CertifiedKey::self_signed(
        IssueParams::ca(
            p.root.cert.tbs.subject.clone(),
            p.root.cert.tbs.serial,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        spoof_key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1018));
    let leaf = spoof.issue(
        IssueParams::leaf("cloud.example.com", 77, Timestamp::from_ymd(2020, 6, 1), 500),
        &leaf_key,
    );
    let server_cfg = ServerConfig::typical(vec![leaf], leaf_key);
    let (client, server) = run(
        ClientConfig::modern(p.roots.clone()),
        server_cfg,
        "cloud.example.com",
    );
    assert_eq!(
        client.failure(),
        Some(&HandshakeFailure::Validation(ValidationError::BadSignature))
    );
    assert!(server
        .alerts_received()
        .iter()
        .any(|a| a.description == AlertDescription::DecryptError));
}

#[test]
fn mute_server_leaves_client_waiting() {
    // IncompleteHandshake: no ServerHello ever arrives.
    let p = pki(1019);
    let mut server_cfg = server_for(&p, "h.example.com", 1020);
    server_cfg.mute = true;
    let (client, _server) = run(
        ClientConfig::modern(p.roots.clone()),
        server_cfg,
        "h.example.com",
    );
    assert!(!client.is_established());
    assert!(client.failure().is_none(), "no failure — just silence");
}

#[test]
fn forced_old_version_negotiated_when_client_allows() {
    let p = pki(1021);
    let mut server_cfg = server_for(&p, "h.example.com", 1022);
    server_cfg.forced_version = Some(ProtocolVersion::Tls10);
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.versions = vec![
        ProtocolVersion::Tls10,
        ProtocolVersion::Tls11,
        ProtocolVersion::Tls12,
    ];
    cfg.cipher_suites = vec![0xc02f, 0x002f];
    let (client, _s) = run(cfg, server_cfg, "h.example.com");
    assert!(client.is_established(), "{:?}", client.failure());
    assert_eq!(client.summary().version, Some(ProtocolVersion::Tls10));
}

#[test]
fn forced_old_version_rejected_when_client_refuses() {
    let p = pki(1023);
    let mut server_cfg = server_for(&p, "h.example.com", 1024);
    server_cfg.forced_version = Some(ProtocolVersion::Tls10);
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.versions = vec![ProtocolVersion::Tls12, ProtocolVersion::Tls13];
    let (client, _s) = run(cfg, server_cfg, "h.example.com");
    assert!(!client.is_established());
    assert!(matches!(
        client.failure(),
        Some(HandshakeFailure::UnsupportedVersion(ProtocolVersion::Tls10))
            | Some(HandshakeFailure::PeerAlert(_))
    ));
}

#[test]
fn no_common_suite_fails_handshake() {
    let p = pki(1025);
    let mut server_cfg = server_for(&p, "h.example.com", 1026);
    server_cfg.cipher_suites = vec![0x0005]; // RC4 only
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.versions = vec![ProtocolVersion::Tls12];
    cfg.cipher_suites = vec![0xc02f]; // ECDHE only
    let (client, server) = run(cfg, server_cfg, "h.example.com");
    assert!(!client.is_established());
    assert!(!server.is_established());
}

#[test]
fn ocsp_staple_delivered_when_requested() {
    let p = pki(1027);
    let mut server_cfg = server_for(&p, "h.example.com", 1028);
    server_cfg.ocsp_staple = Some(vec![1, 2, 3, 4]);
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.request_ocsp = true;
    let (client, _s) = run(cfg.clone(), server_cfg.clone(), "h.example.com");
    assert!(client.is_established());
    assert!(client.summary().ocsp_stapled);
    // Not stapled when the client does not ask.
    cfg.request_ocsp = false;
    let (client, _s) = run(cfg, server_cfg, "h.example.com");
    assert!(client.is_established());
    assert!(!client.summary().ocsp_stapled);
}

#[test]
fn expired_certificate_rejected() {
    let p = pki(1029);
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1030));
    let leaf = p.root.issue(
        IssueParams::leaf("h.example.com", 5, Timestamp::from_ymd(2018, 1, 1), 90),
        &key,
    );
    let server_cfg = ServerConfig::typical(vec![leaf], key);
    let (client, _s) = run(
        ClientConfig::modern(p.roots.clone()),
        server_cfg,
        "h.example.com",
    );
    assert_eq!(
        client.failure(),
        Some(&HandshakeFailure::Validation(ValidationError::Expired))
    );
}

#[test]
fn handshake_is_deterministic_per_seed() {
    let p = pki(1031);
    let server_cfg = server_for(&p, "h.example.com", 1032);
    let mut out1 = Vec::new();
    let mut out2 = Vec::new();
    for out in [&mut out1, &mut out2] {
        let mut client = ClientConnection::new(
            ClientConfig::modern(p.roots.clone()),
            "h.example.com",
            NOW(),
            Drbg::from_seed(42),
        );
        let mut server = ServerConnection::new(server_cfg.clone(), Drbg::from_seed(43));
        handshake(&mut client, &mut server);
        assert!(client.is_established());
        out.extend(client_sends(&mut client, &mut server, b"x"));
    }
    assert_eq!(out1, out2);
}

#[test]
fn triple_des_suite_works_end_to_end() {
    // The Wink Hub 2 / LG TV scenario: a 3DES-preferring server
    // negotiates TLS_RSA_WITH_3DES_EDE_CBC_SHA, protected by the real
    // Triple-DES core.
    let p = pki(1033);
    let mut server_cfg = server_for(&p, "h.example.com", 1034);
    server_cfg.cipher_suites = vec![0x000a, 0x009c];
    let mut cfg = ClientConfig::modern(p.roots.clone());
    cfg.versions = vec![ProtocolVersion::Tls12];
    cfg.cipher_suites = vec![0xc02f, 0x009c, 0x000a];
    let (mut client, mut server) = run(cfg, server_cfg, "h.example.com");
    assert!(client.is_established(), "{:?}", client.failure());
    assert_eq!(client.summary().cipher_suite, Some(0x000a));
    let wire = client_sends(&mut client, &mut server, b"legacy 3des payload");
    assert!(!wire.windows(6).any(|w| w == b"legacy"));
    assert_eq!(server.take_application_data(), b"legacy 3des payload");
}
