//! Adversarial robustness: an on-path attacker can corrupt, truncate,
//! reorder, or replay anything. The state machines must never panic
//! and must fail closed.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_tls::client::{ClientConfig, ClientConnection};
use iotls_tls::record::SessionBuf;
use iotls_tls::server::{ServerConfig, ServerConnection};
use iotls_tls::Status;
use iotls_x509::{CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp};

fn setup(seed: u64) -> (RootStore, ServerConfig) {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Adv Root", "Sim", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(seed + 999));
    let leaf = root.issue(
        IssueParams::leaf("adv.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
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

/// A client that has sent its ClientHello (discarded).
fn started_client(roots: &RootStore, seed: u64) -> ClientConnection {
    let mut client = ClientConnection::new(
        ClientConfig::modern(roots.clone()),
        "adv.example.com",
        now(),
        Drbg::from_seed(seed),
    );
    client.start_into(&mut SessionBuf::new());
    client
}

/// Captures the server's first flight for a fresh handshake.
fn first_flights(seed: u64) -> (Vec<u8>, Vec<u8>, RootStore, ServerConfig) {
    let (roots, server_cfg) = setup(seed);
    let mut client = ClientConnection::new(
        ClientConfig::modern(roots.clone()),
        "adv.example.com",
        now(),
        Drbg::from_seed(seed + 1),
    );
    let mut server = ServerConnection::new(server_cfg.clone(), Drbg::from_seed(seed + 2));
    let (mut hello, mut server_flight) = (SessionBuf::new(), SessionBuf::new());
    client.start_into(&mut hello);
    let status = server.process(hello.as_slice(), &mut server_flight);
    assert_eq!(status, Status::Handshaking);
    (
        hello.take_vec(),
        server_flight.take_vec(),
        roots,
        server_cfg,
    )
}

#[test]
fn client_survives_every_single_byte_flip_of_the_server_flight() {
    let (_, server_flight, roots, _) = first_flights(5000);
    for i in 0..server_flight.len() {
        let mut corrupted = server_flight.clone();
        corrupted[i] ^= 0xff;
        let mut client = started_client(&roots, 5001);
        // Must not panic; outcome may be error or failure state.
        client.process(&corrupted, &mut SessionBuf::new());
        assert!(
            !client.is_established(),
            "byte {i}: corrupted flight must never establish"
        );
    }
}

#[test]
fn client_survives_truncated_flights() {
    let (_, server_flight, roots, _) = first_flights(5010);
    for cut in (0..server_flight.len()).step_by(7) {
        let mut client = started_client(&roots, 5011);
        client.process(&server_flight[..cut], &mut SessionBuf::new());
        assert!(!client.is_established(), "cut at {cut}");
    }
}

#[test]
fn server_survives_every_single_byte_flip_of_the_client_hello() {
    let (hello, _, _, server_cfg) = first_flights(5020);
    for i in 0..hello.len() {
        let mut corrupted = hello.clone();
        corrupted[i] ^= 0xff;
        let mut server = ServerConnection::new(server_cfg.clone(), Drbg::from_seed(5021));
        server.process(&corrupted, &mut SessionBuf::new());
        assert!(!server.is_established(), "byte {i}");
    }
}

#[test]
fn replayed_server_flight_does_not_confuse_the_client() {
    let (_, server_flight, roots, _) = first_flights(5030);
    let mut client = started_client(&roots, 5031);
    let mut out = SessionBuf::new();
    client.process(&server_flight, &mut out);
    // A replay of the same flight arrives again: unexpected messages
    // in the current state must fail the connection, not panic.
    client.process(&server_flight, &mut out);
    assert!(!client.is_established());
}

#[test]
fn random_garbage_never_panics_either_endpoint() {
    let (roots, server_cfg) = setup(5040);
    let mut rng = Drbg::from_seed(5041);
    for round in 0..50 {
        let len = 1 + (rng.below(400) as usize);
        let mut junk = vec![0u8; len];
        rng.fill_bytes(&mut junk);

        let mut client = started_client(&roots, round);
        client.process(&junk, &mut SessionBuf::new());
        assert!(!client.is_established());

        let mut server = ServerConnection::new(server_cfg.clone(), Drbg::from_seed(round));
        server.process(&junk, &mut SessionBuf::new());
        assert!(!server.is_established());
    }
}

#[test]
fn injected_flight_before_hello_poisons_the_connection() {
    // Deliver the server flight *before* the client ever sent a hello
    // (attacker-injected): the connection fails closed and stays
    // terminal (a real device opens a new connection instead).
    let (_, server_flight, roots, _) = first_flights(5050);
    let mut client = ClientConnection::new(
        ClientConfig::modern(roots),
        "adv.example.com",
        now(),
        Drbg::from_seed(5051),
    );
    client.process(&server_flight, &mut SessionBuf::new());
    assert!(!client.is_established());
    assert!(client.is_terminal(), "unexpected message must fail closed");
    assert!(client.failure().is_some());
}

#[test]
fn cross_session_flight_splice_fails_the_finished_check() {
    // Splice: hello from session A answered with the (valid-looking)
    // flight of session B — randoms mismatch, so key exchange or
    // Finished must fail.
    let (_, flight_b, roots, server_cfg) = first_flights(5060);
    // Different randoms than session B's client.
    let mut client_a = started_client(&roots, 5061);
    let mut tail = SessionBuf::new();
    client_a.process(&flight_b, &mut tail);
    // Client A may even send its second flight, but the server of
    // session B is gone; at minimum it is not established now, and a
    // fresh honest server cannot complete it either.
    assert!(!client_a.is_established());
    let mut server = ServerConnection::new(server_cfg, Drbg::from_seed(5062));
    server.process(tail.as_slice(), &mut SessionBuf::new());
    assert!(!server.is_established(), "spliced session must not complete");
}
