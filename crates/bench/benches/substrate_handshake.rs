//! Substrate microbenchmarks: raw handshake, record protection, and
//! crypto primitive costs — the budget every experiment spends.

use criterion::Criterion;
use iotls_bench::criterion;
use iotls_crypto::{sha256, Drbg, RsaPrivateKey};
use iotls_simnet::{drive_session, DriveScratch, GatewayTap, LinkConditioner, SessionParams};
use iotls_tls::client::{ClientConfig, ClientConnection};
use iotls_tls::middleware::Chain;
use iotls_tls::server::{ServerConfig, ServerConnection};
use iotls_x509::{CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp};

fn bench(c: &mut Criterion) {
    // PKI setup.
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(1));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Bench Root", "Bench", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(2));
    let leaf = root.issue(
        IssueParams::leaf("bench.example", 2, Timestamp::from_ymd(2020, 6, 1), 500),
        &leaf_key,
    );
    let roots = RootStore::from_certs([root.cert.clone()]);
    let server_cfg = ServerConfig::typical(vec![leaf], leaf_key);

    c.bench_function("substrate/full_tls13_handshake", |b| {
        let mut chain = Chain::new().with(Box::new(GatewayTap::new()));
        let mut scratch = DriveScratch::new();
        b.iter(|| {
            let client = ClientConnection::new(
                ClientConfig::modern(roots.clone()),
                "bench.example",
                Timestamp::from_ymd(2021, 3, 1),
                Drbg::from_seed(3),
            );
            let server = ServerConnection::new(server_cfg.clone(), Drbg::from_seed(4));
            let tap = chain.middleware_mut::<GatewayTap>(0).unwrap();
            tap.reset();
            let r = drive_session(
                client,
                server,
                SessionParams {
                    client_payload: Some(b"ping"),
                    server_payload: Some(b"pong"),
                },
                &mut LinkConditioner::passthrough(),
                &mut chain,
                &mut scratch,
            );
            assert!(r.established);
            let tap = chain.middleware_mut::<GatewayTap>(0).unwrap();
            let obs = tap.take_observation(Timestamp::from_ymd(2021, 3, 1), "bench", "bench.example");
            std::hint::black_box(obs);
            std::hint::black_box(r)
        })
    });

    c.bench_function("substrate/rsa_keygen_512", |b| {
        let mut rng = Drbg::from_seed(5);
        b.iter(|| std::hint::black_box(RsaPrivateKey::generate(512, &mut rng)))
    });

    c.bench_function("substrate/sha256_16k", |b| {
        let data = vec![0xabu8; 16_384];
        b.iter(|| std::hint::black_box(sha256(&data)))
    });

    c.bench_function("substrate/rsa_sign_verify", |b| {
        let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(6));
        b.iter(|| {
            let sig = key.sign(b"bench message");
            key.public_key().verify(b"bench message", &sig).unwrap();
        })
    });
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
