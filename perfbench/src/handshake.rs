//! Handshakes pumped by hand, for the cost split of a TLS handshake
//! into endpoint time (the state machines' `process` calls), transport
//! time (the simulated link) and the crypto primitives the endpoints
//! call, which are timed on their own at the same call counts.
//!
//! The roster is the one the gateway records its tapes over (every
//! active device × its boot destinations), seeded exactly as
//! `Gateway::new` seeds its recordings, so the tapes rebuilt here are
//! the gateway's own.

use crate::trace::Trace;
use iotls_repro::crypto::dh::{DhGroup, DhKeyPair};
use iotls_repro::crypto::drbg::Drbg;
use iotls_repro::crypto::rsa::RsaPrivateKey;
use iotls_repro::crypto::sha256::sha256;
use iotls_repro::devices::spec::Destination;
use iotls_repro::devices::{client_config, DeviceSetup, Testbed};
use iotls_repro::simnet::fault::Direction;
use iotls_repro::simnet::{LinkConditioner, SessionFlow};
use iotls_repro::tls::client::{ClientConfig, ClientConnection};
use iotls_repro::tls::prf::{key_block, master_secret, verify_data};
use iotls_repro::tls::server::{ServerConfig, ServerConnection};
use iotls_repro::tls::{by_id, SessionBuf};
use iotls_repro::x509::{
    validate_chain, Certificate, CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp,
};
use std::time::Instant;

/// Pump rounds before a handshake counts as wedged (the budget of
/// `simnet::driver`).
const MAX_ROUNDS: usize = 64;

/// One roster handshake, ready to run.
pub struct Endpoints {
    pub device: String,
    pub host: String,
    pub client: ClientConnection,
    pub server: ServerConnection,
    client_config: ClientConfig,
    server_key: RsaPrivateKey,
    now: Timestamp,
    payload: Vec<u8>,
}

/// The gateway's roster for `seed`: one handshake per active device ×
/// boot destination, in roster order.
pub fn roster(tb: &Testbed, seed: u64) -> Vec<Endpoints> {
    let now = iotls_repro::rootstore::probe_time();
    let mut out = Vec::new();
    for device in tb.devices.iter().filter(|d| d.spec.in_active) {
        for dest in device.spec.boot_destinations() {
            out.push(endpoints(tb, device, dest, seed, now));
        }
    }
    out
}

fn endpoints(
    tb: &Testbed,
    device: &DeviceSetup,
    dest: &Destination,
    seed: u64,
    now: Timestamp,
) -> Endpoints {
    let instances = device.spec.instances_at(now.month());
    let instance = &instances[dest.instance.min(instances.len() - 1)];
    let cfg = client_config(instance, device.truth.store.clone());
    let key = format!("record/{}/{}", device.spec.name, dest.hostname);
    let client_rng = Drbg::from_seed(seed).fork("gateway").fork(&key);
    let server_rng = client_rng.fork("server");
    let server_cfg: ServerConfig = tb.server_config(dest);
    Endpoints {
        device: device.spec.name.clone(),
        host: dest.hostname.clone(),
        client: ClientConnection::new(cfg.clone(), &dest.hostname, now, client_rng),
        server_key: server_cfg.key.clone(),
        server: ServerConnection::new(server_cfg, server_rng),
        client_config: cfg,
        now,
        payload: dest
            .payload
            .clone()
            .unwrap_or_else(|| "ping".into())
            .into_bytes(),
    }
}

/// The wire tapes `Gateway::new` records for `seed`, as
/// `(device, endpoint, tape)`.
pub fn tapes(tb: &Testbed, seed: u64) -> Vec<(String, String, SessionFlow)> {
    roster(tb, seed)
        .into_iter()
        .map(|e| {
            let flow = SessionFlow::record(e.client, e.server, Some(&e.payload), Some(b"ok"));
            (e.device, e.host, flow)
        })
        .collect()
}

/// Handshake cost totals over a set of pumped handshakes.
#[derive(Debug, Default)]
pub struct Split {
    pub handshakes: u64,
    /// Inside `process` and the payload calls of both endpoints.
    pub endpoint_s: f64,
    /// Moving bytes across the link.
    pub transport_s: f64,
    /// The same crypto primitive calls, timed alone.
    pub crypto_s: f64,
    /// The client's chain validation, timed alone.
    pub validate_s: f64,
}

impl Split {
    /// Pumps `e` to quiescence like `SessionFlow::record` does, timing
    /// each endpoint call and each link transfer under one span, then
    /// times its crypto and chain validation on their own.
    pub fn add(&mut self, mut e: Endpoints, tr: &mut Trace) -> Result<(), String> {
        let span = tr.begin("tls.handshake");
        let (mut c2s, mut s2c) = (SessionBuf::new(), SessionBuf::new());
        let mut link = LinkConditioner::passthrough();
        let mut wire = Vec::new();
        let (mut endpoint, mut transport) = (0.0, 0.0);
        let (mut client_sent, mut server_sent) = (false, false);
        let mut handshake_bytes = 0usize;
        let t = Instant::now();
        e.client.start_into(&mut c2s);
        endpoint += t.elapsed().as_secs_f64();
        for round in 0..MAX_ROUNDS {
            let mut moved = false;
            link.begin_round(round);
            if !c2s.is_empty() {
                let t = Instant::now();
                link.transfer_into(Direction::C2s, c2s.as_slice(), round, &mut wire);
                c2s.clear();
                transport += t.elapsed().as_secs_f64();
                if !client_sent {
                    handshake_bytes += wire.len();
                }
                let t = Instant::now();
                e.server.process(&wire, &mut s2c);
                let _ = e.server.take_application_data();
                if e.server.is_established() && !server_sent {
                    e.server.send_application_data_into(b"ok", &mut s2c);
                    server_sent = true;
                }
                endpoint += t.elapsed().as_secs_f64();
                moved = true;
            }
            if !s2c.is_empty() {
                let t = Instant::now();
                link.transfer_into(Direction::S2c, s2c.as_slice(), round, &mut wire);
                s2c.clear();
                transport += t.elapsed().as_secs_f64();
                if !client_sent {
                    handshake_bytes += wire.len();
                }
                let t = Instant::now();
                e.client.process(&wire, &mut c2s);
                let _ = e.client.take_application_data();
                if e.client.is_established() && !client_sent {
                    e.client.send_application_data_into(&e.payload, &mut c2s);
                    client_sent = true;
                }
                endpoint += t.elapsed().as_secs_f64();
                moved = true;
            }
            if !moved {
                break;
            }
        }
        tr.end(span);
        if !(e.client.is_established() && e.server.is_established()) {
            return Err(format!(
                "handshake {} -> {} did not establish",
                e.device, e.host
            ));
        }
        let summary = e.client.summary();
        let suite = summary.cipher_suite.ok_or("established without a suite")?;
        let chain = summary.server_chain;
        let leaf = chain.first().ok_or("established without a chain")?;

        let span = tr.begin("crypto.handshake_primitives");
        let t = Instant::now();
        let mut rng = Drbg::from_seed(self.handshakes);
        let transcript = vec![0x16u8; handshake_bytes];
        if by_id(suite).is_some_and(|s| s.is_forward_secret()) {
            // Server: ephemeral key, signed; client: verify, own
            // ephemeral key; both: agree.
            let group = DhGroup::oakley_group1();
            let server_kp = DhKeyPair::generate(&group, &mut rng);
            let mut signed = transcript[..64.min(transcript.len())].to_vec();
            signed.extend_from_slice(&server_kp.public_bytes());
            let sig = e.server_key.sign(&signed);
            if e.client_config.validation_policy.check_signatures {
                leaf.tbs
                    .public_key
                    .verify(&signed, &sig)
                    .map_err(|e| format!("{e:?}"))?;
            }
            let client_kp = DhKeyPair::generate(&group, &mut rng);
            std::hint::black_box(client_kp.agree(&server_kp.public_bytes()));
            std::hint::black_box(server_kp.agree(&client_kp.public_bytes()));
        } else {
            let ct = leaf
                .tbs
                .public_key
                .encrypt(&[3u8; 48], &mut rng)
                .map_err(|e| format!("{e:?}"))?;
            std::hint::black_box(e.server_key.decrypt(&ct).map_err(|e| format!("{e:?}"))?);
        }
        // Each side: master secret, key block, two transcript hashes
        // and two Finished PRFs.
        let randoms = [7u8; 32];
        for _ in 0..2 {
            let master = master_secret(&[1u8; 48], &randoms, &randoms);
            std::hint::black_box(key_block(&master, &randoms, &randoms, 64));
            for label in ["client finished", "server finished"] {
                let hash = sha256(std::hint::black_box(&transcript));
                std::hint::black_box(verify_data(&master, label, &hash));
            }
        }
        self.crypto_s += t.elapsed().as_secs_f64();
        tr.end(span);

        let span = tr.begin("x509.validate_chain");
        let t = Instant::now();
        let cfg = &e.client_config;
        let verdict = validate_chain(
            &chain,
            &cfg.root_store,
            &e.host,
            e.now,
            &cfg.validation_policy,
        );
        self.validate_s += t.elapsed().as_secs_f64();
        tr.end(span);
        verdict.map_err(|v| format!("chain for {} no longer validates: {v:?}", e.host))?;

        self.handshakes += 1;
        self.endpoint_s += endpoint;
        self.transport_s += transport;
        Ok(())
    }

    pub fn endpoint_us(&self) -> f64 {
        self.endpoint_s * 1e6 / self.handshakes as f64
    }

    pub fn transport_us(&self) -> f64 {
        self.transport_s * 1e6 / self.handshakes as f64
    }

    pub fn crypto_share(&self) -> f64 {
        self.crypto_s / self.endpoint_s
    }

    pub fn validate_us(&self) -> f64 {
        self.validate_s * 1e6 / self.handshakes as f64
    }

    /// Endpoint time left once crypto and chain validation are taken
    /// out: message encoding, parsing and state-machine work.
    pub fn message_us(&self) -> f64 {
        (self.endpoint_s - self.crypto_s - self.validate_s) * 1e6 / self.handshakes as f64
    }
}

/// The minimal-PKI handshake the substrate benchmarks tape: one
/// 512-bit root, one leaf, a modern client.
pub struct Substrate {
    root: CertifiedKey,
    leaf: Certificate,
    leaf_key: RsaPrivateKey,
}

impl Substrate {
    pub fn new() -> Substrate {
        let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xA110C));
        let root = CertifiedKey::self_signed(
            IssueParams::ca(
                DistinguishedName::new("Bench Root", "SimCA", "US"),
                1,
                Timestamp::from_ymd(2015, 1, 1),
                7300,
            ),
            key,
        );
        let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xA110D));
        let leaf = root.issue(
            IssueParams::leaf("cloud.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
            &leaf_key,
        );
        Substrate {
            root,
            leaf,
            leaf_key,
        }
    }

    /// A fresh pair of endpoints for handshake number `n`.
    pub fn endpoints(&self, n: u64) -> Endpoints {
        let now = Timestamp::from_ymd(2021, 3, 1);
        let cfg = ClientConfig::modern(RootStore::from_certs([self.root.cert.clone()]));
        let server_cfg = ServerConfig::typical(vec![self.leaf.clone()], self.leaf_key.clone());
        Endpoints {
            device: "substrate".into(),
            host: "cloud.example.com".into(),
            client: ClientConnection::new(
                cfg.clone(),
                "cloud.example.com",
                now,
                Drbg::from_seed(2 * n + 1),
            ),
            server: ServerConnection::new(server_cfg, Drbg::from_seed(2 * n + 2)),
            client_config: cfg,
            server_key: self.leaf_key.clone(),
            now,
            payload: b"ping".to_vec(),
        }
    }
}
