//! §6 mitigation features: certificate pinning and OCSP staple
//! verification — including the paper's caveat that pinning the root
//! does not survive a compromised CA, while pinning the leaf does.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_tls::client::{ClientConfig, ClientConnection, HandshakeFailure, PinPolicy};
use iotls_tls::record::SessionBuf;
use iotls_tls::server::{ServerConfig, ServerConnection};
use iotls_x509::{
    CertifiedKey, DistinguishedName, IssueParams, OcspResponse, RevocationStatus, RootStore,
    Timestamp, ValidationPolicy,
};

struct World {
    root: CertifiedKey,
    roots: RootStore,
    leaf: iotls_x509::Certificate,
    leaf_key: RsaPrivateKey,
}

fn world(seed: u64) -> World {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Mitigation Root", "Sim", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed + 1));
    let leaf = root.issue(
        IssueParams::leaf("pinned.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
        &leaf_key,
    );
    let roots = RootStore::from_certs([root.cert.clone()]);
    World {
        root,
        roots,
        leaf,
        leaf_key,
    }
}

fn now() -> Timestamp {
    Timestamp::from_ymd(2021, 3, 1)
}

fn run(cfg: ClientConfig, server_cfg: ServerConfig) -> ClientConnection {
    let mut client = ClientConnection::new(cfg, "pinned.example.com", now(), Drbg::from_seed(7));
    let mut server = ServerConnection::new(server_cfg, Drbg::from_seed(8));
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
            client.process(s2c.as_slice(), &mut c2s);
            s2c.clear();
        }
        if !sent && !answered {
            break;
        }
    }
    client
}

#[test]
fn leaf_pin_accepts_the_pinned_server() {
    let w = world(100);
    let mut cfg = ClientConfig::modern(w.roots.clone());
    cfg.pin = PinPolicy::PinLeafKey(w.leaf.tbs.public_key.fingerprint());
    let client = run(cfg, ServerConfig::typical(vec![w.leaf.clone()], w.leaf_key.clone()));
    assert!(client.is_established(), "{:?}", client.failure());
}

#[test]
fn leaf_pin_defeats_interception_even_without_validation() {
    // A device with *no* certificate validation but a leaf pin still
    // rejects a MITM — §6's recommended defense-in-depth.
    let w = world(110);
    let attacker_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1111));
    let forged = CertifiedKey::self_signed(
        IssueParams::leaf("pinned.example.com", 9, Timestamp::from_ymd(2021, 1, 1), 365),
        attacker_key,
    );
    let mut cfg = ClientConfig::modern(w.roots.clone());
    cfg.validation_policy = ValidationPolicy::no_validation();
    cfg.pin = PinPolicy::PinLeafKey(w.leaf.tbs.public_key.fingerprint());
    let client = run(cfg, ServerConfig::typical(vec![forged.cert.clone()], forged.key));
    assert_eq!(client.failure(), Some(&HandshakeFailure::PinMismatch));
}

#[test]
fn root_pin_fails_against_a_compromised_ca_but_leaf_pin_holds() {
    // The paper's caveat: "pinning can help only in cases of
    // compromised root stores if the leaf certificate is pinned
    // (rather than the root)."
    let w = world(120);
    // The attacker somehow obtained the CA's key (the WoSign-style
    // incident) and mints a fresh, perfectly valid leaf.
    let mallory_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1211));
    let mallory_leaf = w.root.issue(
        IssueParams::leaf("pinned.example.com", 666, Timestamp::from_ymd(2021, 1, 1), 90),
        &mallory_key,
    );
    let mitm_server = ServerConfig::typical(vec![mallory_leaf], mallory_key);

    // Root pin: the chain anchors at the (compromised) pinned root —
    // the pin passes and the interception SUCCEEDS.
    let mut root_pinned = ClientConfig::modern(w.roots.clone());
    root_pinned.pin = PinPolicy::PinRootKey(w.root.cert.tbs.public_key.fingerprint());
    let client = run(root_pinned, mitm_server.clone());
    assert!(
        client.is_established(),
        "root pin should NOT stop a compromised-CA MITM: {:?}",
        client.failure()
    );

    // Leaf pin: the minted leaf's key differs — interception fails.
    let mut leaf_pinned = ClientConfig::modern(w.roots.clone());
    leaf_pinned.pin = PinPolicy::PinLeafKey(w.leaf.tbs.public_key.fingerprint());
    let client = run(leaf_pinned, mitm_server);
    assert_eq!(client.failure(), Some(&HandshakeFailure::PinMismatch));
}

#[test]
fn root_pin_accepts_the_honest_chain() {
    let w = world(130);
    let mut cfg = ClientConfig::modern(w.roots.clone());
    cfg.pin = PinPolicy::PinRootKey(w.root.cert.tbs.public_key.fingerprint());
    let client = run(cfg, ServerConfig::typical(vec![w.leaf.clone()], w.leaf_key.clone()));
    assert!(client.is_established(), "{:?}", client.failure());
}

fn staple_world(seed: u64, status: RevocationStatus, validity_secs: i64) -> (ClientConfig, ServerConfig) {
    let w = world(seed);
    let staple = OcspResponse::produce(
        &w.root,
        w.leaf.tbs.serial,
        status,
        Timestamp::from_ymd(2021, 2, 1),
        validity_secs,
    )
    .to_bytes();
    let mut server_cfg = ServerConfig::typical(vec![w.leaf.clone()], w.leaf_key.clone());
    server_cfg.ocsp_staple = Some(staple);
    let mut cfg = ClientConfig::modern(w.roots.clone());
    cfg.request_ocsp = true;
    cfg.verify_staple = true;
    (cfg, server_cfg)
}

#[test]
fn good_staple_accepted() {
    let (cfg, server_cfg) = staple_world(200, RevocationStatus::Good, 90 * 86_400);
    let client = run(cfg, server_cfg);
    assert!(client.is_established(), "{:?}", client.failure());
    assert!(client.summary().ocsp_stapled);
}

#[test]
fn revoked_staple_rejected() {
    let (cfg, server_cfg) = staple_world(210, RevocationStatus::Revoked, 90 * 86_400);
    let client = run(cfg, server_cfg);
    assert_eq!(client.failure(), Some(&HandshakeFailure::StapleFailure));
}

#[test]
fn stale_staple_rejected() {
    // Produced 2021-02-01, valid one day; handshake at 2021-03-01.
    let (cfg, server_cfg) = staple_world(220, RevocationStatus::Good, 86_400);
    let client = run(cfg, server_cfg);
    assert_eq!(client.failure(), Some(&HandshakeFailure::StapleFailure));
}

#[test]
fn forged_staple_rejected() {
    // The staple is signed by someone other than the issuer.
    let w = world(230);
    let mallory = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Mallory CA", "Evil", "XX"),
            9,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        RsaPrivateKey::generate(512, &mut Drbg::from_seed(231)),
    );
    let forged = OcspResponse::produce(
        &mallory,
        w.leaf.tbs.serial,
        RevocationStatus::Good,
        Timestamp::from_ymd(2021, 2, 1),
        90 * 86_400,
    )
    .to_bytes();
    let mut server_cfg = ServerConfig::typical(vec![w.leaf.clone()], w.leaf_key.clone());
    server_cfg.ocsp_staple = Some(forged);
    let mut cfg = ClientConfig::modern(w.roots.clone());
    cfg.request_ocsp = true;
    cfg.verify_staple = true;
    let client = run(cfg, server_cfg);
    assert_eq!(client.failure(), Some(&HandshakeFailure::StapleFailure));
}

#[test]
fn must_staple_leaf_without_staple_rejected() {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(240));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("MS Root", "Sim", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(241));
    let mut params = IssueParams::leaf("pinned.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500);
    params.extensions.must_staple = true;
    let leaf = root.issue(params, &leaf_key);
    let roots = RootStore::from_certs([root.cert.clone()]);
    // Server has no staple to send.
    let server_cfg = ServerConfig::typical(vec![leaf], leaf_key);
    let mut cfg = ClientConfig::modern(roots);
    cfg.request_ocsp = true;
    cfg.verify_staple = true;
    let client = run(cfg, server_cfg);
    assert_eq!(client.failure(), Some(&HandshakeFailure::StapleFailure));
}

#[test]
fn staple_verification_off_accepts_revoked_staple() {
    // Matching the ecosystem the paper measures: devices that request
    // staples but never *verify* them accept even a revoked one.
    let (mut cfg, server_cfg) = staple_world(250, RevocationStatus::Revoked, 90 * 86_400);
    cfg.verify_staple = false;
    let client = run(cfg, server_cfg);
    assert!(client.is_established());
}
