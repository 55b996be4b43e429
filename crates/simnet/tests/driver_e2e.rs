//! Driver + tap end-to-end: a full handshake through the simulated
//! gateway produces the observation the passive analyses consume.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_simnet::driver::{drive_session, DriveScratch, SessionParams, SessionResult};
use iotls_simnet::{GatewayTap, LinkConditioner, TlsObservation};
use iotls_tls::alert::AlertDescription;
use iotls_tls::client::{ClientConfig, ClientConnection};
use iotls_tls::middleware::Chain;
use iotls_tls::server::{ServerConfig, ServerConnection};
use iotls_tls::version::ProtocolVersion;
use iotls_x509::{CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp};

fn setup() -> (RootStore, ServerConfig) {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(9000));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Driver Root", "SimCA", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(9001));
    let leaf = root.issue(
        IssueParams::leaf("cloud.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
        &leaf_key,
    );
    (
        RootStore::from_certs([root.cert.clone()]),
        ServerConfig::typical(vec![leaf], leaf_key),
    )
}

fn now() -> Timestamp {
    Timestamp::from_ymd(2021, 3, 1)
}

/// Drives one session on a clean link with a gateway tap in the chain;
/// returns the result and the tap's observation of `device`.
fn drive_tapped(
    client: ClientConnection,
    server: ServerConnection,
    params: SessionParams<'_>,
    device: &str,
) -> (SessionResult, Option<TlsObservation>) {
    let mut chain = Chain::new().with(Box::new(GatewayTap::new()));
    let result = drive_session(
        client,
        server,
        params,
        &mut LinkConditioner::passthrough(),
        &mut chain,
        &mut DriveScratch::new(),
    );
    let tap = chain.middleware_mut::<GatewayTap>(0).unwrap();
    (
        result,
        tap.take_observation(now(), device, "cloud.example.com"),
    )
}

#[test]
fn tapped_session_produces_full_observation() {
    let (roots, server_cfg) = setup();
    let client = ClientConnection::new(
        ClientConfig::modern(roots),
        "cloud.example.com",
        now(),
        Drbg::from_seed(1),
    );
    let server = ServerConnection::new(server_cfg, Drbg::from_seed(2));
    let (result, obs) = drive_tapped(
        client,
        server,
        SessionParams {
            client_payload: Some(b"POST /telemetry bearer=tok123"),
            server_payload: Some(b"200 OK"),
        },
        "Test Device",
    );
    assert!(result.established);
    assert_eq!(result.server_received, b"POST /telemetry bearer=tok123");
    assert_eq!(result.client_received, b"200 OK");
    let obs = obs.expect("tap produced observation");
    assert!(obs.established);
    assert_eq!(obs.negotiated_version, Some(ProtocolVersion::Tls13));
    assert_eq!(obs.sni.as_deref(), Some("cloud.example.com"));
    assert_eq!(obs.device, "Test Device");
    assert!(result.bytes_c2s > 0 && result.bytes_s2c > 0);
}

#[test]
fn tap_does_not_see_plaintext_payload() {
    // The gateway is a *passive* observer: application data crosses it
    // encrypted, so nothing sensitive leaks into the capture.
    let (roots, server_cfg) = setup();
    let client = ClientConnection::new(
        ClientConfig::modern(roots),
        "cloud.example.com",
        now(),
        Drbg::from_seed(3),
    );
    let server = ServerConnection::new(server_cfg, Drbg::from_seed(4));
    let (result, _) = drive_tapped(
        client,
        server,
        SessionParams {
            client_payload: Some(b"deviceSecret=BEEF"),
            server_payload: None,
        },
        "d",
    );
    assert!(result.established);
    assert_eq!(result.server_received, b"deviceSecret=BEEF");
}

#[test]
fn failed_validation_session_observed_with_alert() {
    let (roots, _) = setup();
    // Server presents a self-signed certificate.
    let attacker_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(9002));
    let attacker = CertifiedKey::self_signed(
        IssueParams::leaf("cloud.example.com", 7, Timestamp::from_ymd(2020, 6, 1), 500),
        attacker_key,
    );
    let server_cfg = ServerConfig::typical(vec![attacker.cert.clone()], attacker.key.clone());
    let client = ClientConnection::new(
        ClientConfig::modern(roots),
        "cloud.example.com",
        now(),
        Drbg::from_seed(5),
    );
    let server = ServerConnection::new(server_cfg, Drbg::from_seed(6));
    let (result, obs) = drive_tapped(client, server, SessionParams::default(), "d");
    assert!(!result.established);
    let obs = obs.unwrap();
    assert!(!obs.established);
    assert!(obs
        .alerts_from_client
        .contains(&AlertDescription::UnknownCa));
}

#[test]
fn mute_server_session_terminates_without_observation_negotiation() {
    let (roots, mut server_cfg) = setup();
    server_cfg.mute = true;
    let client = ClientConnection::new(
        ClientConfig::modern(roots),
        "cloud.example.com",
        now(),
        Drbg::from_seed(7),
    );
    let server = ServerConnection::new(server_cfg, Drbg::from_seed(8));
    let (result, obs) = drive_tapped(client, server, SessionParams::default(), "d");
    assert!(!result.established);
    let obs = obs.unwrap();
    assert!(obs.negotiated_version.is_none());
    assert!(!obs.established);
}

#[test]
fn untapped_session_has_no_observation() {
    let (roots, server_cfg) = setup();
    let client = ClientConnection::new(
        ClientConfig::modern(roots),
        "cloud.example.com",
        now(),
        Drbg::from_seed(9),
    );
    let server = ServerConnection::new(server_cfg, Drbg::from_seed(10));
    let result = drive_session(
        client,
        server,
        SessionParams::default(),
        &mut LinkConditioner::passthrough(),
        &mut Chain::new(),
        &mut DriveScratch::new(),
    );
    assert!(result.established);
    assert!(result.observation.is_none());
}
