//! The TLS server state machine (sans-IO).
//!
//! Used by the simulated cloud endpoints *and* by the MITM engine in
//! `iotls` (the attacker impersonates the server side of intercepted
//! connections, exactly as mitmproxy does in the paper). The
//! [`ServerConfig`] exposes the knobs the experiments need: the
//! certificate chain presented, supported versions/suites, an
//! optional forced (old) negotiated version for downgrade probing,
//! and a "mute" mode that never responds (IncompleteHandshake).
//!
//! Like [`crate::client::ClientConnection`], the connection is
//! unbuffered: [`ServerConnection::process`] consumes incoming bytes
//! and appends replies to a caller-owned
//! [`SessionBuf`], with per-session scratch
//! reusable across sessions via [`ServerConnection::with_scratch`].
//! A mute server performs all the same state transitions and
//! bookkeeping but writes no bytes.

use crate::alert::{Alert, AlertDescription, AlertLevel};
use crate::ciphersuite::by_id;
use crate::codec::CodecError;
use crate::handshake::{ClientHello, HandshakeMessage, ServerHello, ServerKeyExchange};
use crate::record::{write_record, ContentType, Deframer, SessionBuf};
use crate::session::{
    derive_master_secret, derive_write_keys, finished_verify_data, DirectionCipher,
    SessionScratch, Status, Transcript,
};
use crate::version::ProtocolVersion;
use iotls_crypto::dh::{DhGroup, DhKeyPair};
use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_x509::Certificate;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A shared session cache for RFC 5246 session-ID resumption:
/// session id → master secret. Clone the handle into every
/// [`ServerConfig`] that should share sessions.
#[derive(Debug, Clone, Default)]
pub struct SessionCache {
    inner: Arc<Mutex<HashMap<Vec<u8>, [u8; 48]>>>,
}

impl SessionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a session.
    pub fn insert(&self, session_id: Vec<u8>, master: [u8; 48]) {
        self.inner.lock().expect("session cache lock poisoned").insert(session_id, master);
    }

    /// Looks up a session's master secret.
    pub fn get(&self, session_id: &[u8]) -> Option<[u8; 48]> {
        self.inner.lock().expect("session cache lock poisoned").get(session_id).copied()
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("session cache lock poisoned").len()
    }

    /// True when no sessions are cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("session cache lock poisoned").is_empty()
    }
}

/// Server-side configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Certificate chain presented to clients, leaf first.
    pub chain: Vec<Certificate>,
    /// Private key matching the leaf.
    pub key: RsaPrivateKey,
    /// Versions the server accepts.
    pub versions: Vec<ProtocolVersion>,
    /// Suites in server preference order.
    pub cipher_suites: Vec<u16>,
    /// Staple to send when the client requests one.
    pub ocsp_staple: Option<Vec<u8>>,
    /// When set, negotiate exactly this version if the client
    /// advertises it (downgrade-negotiation experiments); otherwise
    /// alert `protocol_version`.
    pub forced_version: Option<ProtocolVersion>,
    /// Never respond to anything (IncompleteHandshake experiments).
    pub mute: bool,
    /// When set, the server issues session IDs and accepts
    /// abbreviated (resumed) handshakes against this cache.
    pub session_cache: Option<SessionCache>,
}

impl ServerConfig {
    /// A typical cloud endpoint: TLS 1.0–1.3 accepted, modern and
    /// legacy RSA suites offered, preferring forward secrecy.
    pub fn typical(chain: Vec<Certificate>, key: RsaPrivateKey) -> ServerConfig {
        ServerConfig {
            chain,
            key,
            versions: vec![
                ProtocolVersion::Tls10,
                ProtocolVersion::Tls11,
                ProtocolVersion::Tls12,
                ProtocolVersion::Tls13,
            ],
            cipher_suites: vec![
                0x1301, 0x1303, 0xc02f, 0xc030, 0xcca8, 0x009e, 0x009c, 0x002f, 0x0035, 0x000a,
                0x0005,
            ],
            ocsp_staple: None,
            forced_version: None,
            mute: false,
            session_cache: None,
        }
    }
}

/// Why the server side ended a handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFailure {
    /// No common protocol version.
    NoCommonVersion,
    /// No common ciphersuite.
    NoCommonSuite,
    /// ClientKeyExchange could not be processed.
    KeyExchange,
    /// Client Finished did not verify.
    BadFinished,
    /// Wire-format error.
    Codec,
    /// Peer sent a fatal alert.
    PeerAlert(Alert),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    AwaitClientHello,
    AwaitClientKeyExchange,
    AwaitClientFinished,
    Established,
    Failed(ServerFailure),
    Closed,
}

/// A sans-IO TLS server connection.
pub struct ServerConnection {
    config: ServerConfig,
    rng: Drbg,
    state: State,
    scratch: SessionScratch,
    transcript: Transcript,
    client_random: [u8; 32],
    server_random: [u8; 32],
    version: Option<ProtocolVersion>,
    suite: Option<u16>,
    dh_keypair: Option<DhKeyPair>,
    master: Option<[u8; 48]>,
    session_id: Vec<u8>,
    resumed: bool,
    alerts_sent: Vec<Alert>,
    alerts_received: Vec<Alert>,
    write_cipher: Option<DirectionCipher>,
    read_cipher: Option<DirectionCipher>,
}

impl ServerConnection {
    /// Creates a server connection.
    pub fn new(config: ServerConfig, rng: Drbg) -> Self {
        Self::with_scratch(config, rng, SessionScratch::new())
    }

    /// Like [`ServerConnection::new`], but reusing a caller-owned
    /// [`SessionScratch`] (reset first); reclaim it with
    /// [`ServerConnection::into_scratch`] when the session ends.
    pub fn with_scratch(config: ServerConfig, mut rng: Drbg, mut scratch: SessionScratch) -> Self {
        scratch.reset();
        let mut server_random = [0u8; 32];
        rng.fill_bytes(&mut server_random);
        ServerConnection {
            config,
            rng,
            state: State::AwaitClientHello,
            scratch,
            transcript: Transcript::new(),
            client_random: [0u8; 32],
            server_random,
            version: None,
            suite: None,
            dh_keypair: None,
            master: None,
            session_id: Vec::new(),
            resumed: false,
            alerts_sent: Vec::new(),
            alerts_received: Vec::new(),
            write_cipher: None,
            read_cipher: None,
        }
    }

    /// Consumes the connection, handing back its (warm) scratch for
    /// the next session in the lane.
    pub fn into_scratch(self) -> SessionScratch {
        self.scratch
    }

    /// The connection's coarse status.
    pub fn status(&self) -> Status {
        match &self.state {
            State::Established => Status::Established,
            State::Failed(_) => Status::Failed,
            State::Closed => Status::Closed,
            _ => Status::Handshaking,
        }
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// The terminal failure, if any.
    pub fn failure(&self) -> Option<&ServerFailure> {
        match &self.state {
            State::Failed(f) => Some(f),
            _ => None,
        }
    }

    /// Alerts received from the client — the root-store probe's
    /// observable.
    pub fn alerts_received(&self) -> &[Alert] {
        &self.alerts_received
    }

    /// Negotiated version, once chosen.
    pub fn negotiated_version(&self) -> Option<ProtocolVersion> {
        self.version
    }

    /// Negotiated suite, once chosen.
    pub fn negotiated_suite(&self) -> Option<u16> {
        self.suite
    }

    /// True when this connection resumed a cached session.
    pub fn is_resumed(&self) -> bool {
        self.resumed
    }

    /// Encodes application data into `out` (only valid once
    /// established). Protection is applied in the tx scratch before
    /// framing; the stream ciphers' keystream order is unaffected by
    /// fragment boundaries, so wire bytes match the legacy
    /// fragment-then-encrypt path.
    pub fn send_application_data_into(&mut self, data: &[u8], out: &mut SessionBuf) {
        assert!(self.is_established(), "connection not established");
        self.scratch.tx.clear();
        self.scratch.tx.extend_from_slice(data);
        if let Some(c) = &mut self.write_cipher {
            c.apply(&mut self.scratch.tx);
        }
        if !self.config.mute {
            write_record(
                ContentType::ApplicationData,
                self.version.unwrap_or(ProtocolVersion::Tls12),
                &self.scratch.tx,
                out,
            );
        }
    }

    /// Appends decrypted application data from the client to `sink`
    /// and clears the internal accumulator (keeping its allocation).
    pub fn drain_application_data_into(&mut self, sink: &mut Vec<u8>) {
        sink.extend_from_slice(&self.scratch.app);
        self.scratch.app.clear();
    }

    /// Drains decrypted application data from the client.
    pub fn take_application_data(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.scratch.app)
    }

    /// The sans-IO pump: consumes `incoming` transport bytes and
    /// appends every reply record to the caller-owned `out` (nothing,
    /// for a mute server).
    pub fn process(&mut self, incoming: &[u8], out: &mut SessionBuf) -> Status {
        self.scratch.deframer.push(incoming);
        // Disjoint-field dance mirroring the client: deframer and
        // record-payload scratch move out of `self` (Vec moves, no
        // allocation) so the loop can borrow both.
        let mut deframer = std::mem::take(&mut self.scratch.deframer);
        let mut rx = std::mem::take(&mut self.scratch.rx);
        let _ = self.process_deframed(&mut deframer, &mut rx, out);
        self.scratch.deframer = deframer;
        self.scratch.rx = rx;
        self.status()
    }

    /// Consumes every complete record; stops at the first codec
    /// error, leaving the rest queued behind it.
    fn process_deframed(
        &mut self,
        deframer: &mut Deframer,
        rx: &mut Vec<u8>,
        out: &mut SessionBuf,
    ) -> Result<(), CodecError> {
        while let Some(rec) = deframer.pop_ref()? {
            rx.clear();
            rx.extend_from_slice(rec.payload);
            self.process_record_ref(rec.content_type, rx, out)?;
        }
        Ok(())
    }

    fn send_handshake(&mut self, msg: &HandshakeMessage, out: &mut SessionBuf) {
        self.scratch.tx.clear();
        msg.encode_into(&mut self.scratch.tx);
        self.transcript.absorb(&self.scratch.tx);
        if !self.config.mute {
            let version = self.version.unwrap_or(ProtocolVersion::Tls12);
            write_record(ContentType::Handshake, version, &self.scratch.tx, out);
        }
    }

    fn send_alert(&mut self, alert: Alert, out: &mut SessionBuf) {
        self.alerts_sent.push(alert);
        if !self.config.mute {
            let version = self.version.unwrap_or(ProtocolVersion::Tls12);
            write_record(ContentType::Alert, version, &alert.to_bytes(), out);
        }
    }

    fn fail(&mut self, failure: ServerFailure, alert: Option<Alert>, out: &mut SessionBuf) {
        if let Some(a) = alert {
            self.send_alert(a, out);
        }
        self.state = State::Failed(failure);
    }

    fn process_record_ref(
        &mut self,
        content_type: ContentType,
        payload: &mut Vec<u8>,
        out: &mut SessionBuf,
    ) -> Result<(), CodecError> {
        match content_type {
            ContentType::Alert => {
                if let Some(alert) = Alert::from_bytes(payload) {
                    self.alerts_received.push(alert);
                    if alert.level == AlertLevel::Fatal {
                        self.state = State::Failed(ServerFailure::PeerAlert(alert));
                    } else if alert.description == AlertDescription::CloseNotify {
                        self.state = State::Closed;
                    }
                }
                Ok(())
            }
            ContentType::Handshake => {
                let mut buf: &[u8] = payload;
                while !buf.is_empty() {
                    let (msg, used) = match HandshakeMessage::decode(buf) {
                        Ok(ok) => ok,
                        Err(e) => {
                            self.fail(
                                ServerFailure::Codec,
                                Some(Alert::fatal(AlertDescription::UnexpectedMessage)),
                                out,
                            );
                            return Err(e);
                        }
                    };
                    let msg_bytes = &buf[..used];
                    buf = &buf[used..];
                    self.process_handshake(msg, msg_bytes, out);
                    if matches!(self.state, State::Failed(_)) {
                        break;
                    }
                }
                Ok(())
            }
            ContentType::ApplicationData => {
                if let Some(c) = &mut self.read_cipher {
                    c.apply(payload);
                }
                self.scratch.app.extend_from_slice(payload);
                Ok(())
            }
            ContentType::ChangeCipherSpec => Ok(()),
        }
    }

    fn process_handshake(&mut self, msg: HandshakeMessage, msg_bytes: &[u8], out: &mut SessionBuf) {
        match (&self.state, msg) {
            (State::AwaitClientHello, HandshakeMessage::ClientHello(ch)) => {
                self.transcript.absorb(msg_bytes);
                self.client_random = ch.random;
                if self.config.mute {
                    // Swallow everything; the client sees silence.
                    return;
                }
                self.negotiate(&ch, out);
            }
            (State::AwaitClientKeyExchange, HandshakeMessage::ClientKeyExchange(payload)) => {
                self.transcript.absorb(msg_bytes);
                let premaster = if let Some(kp) = &self.dh_keypair {
                    match kp.agree(&payload) {
                        Some(shared) => shared.to_vec(),
                        None => {
                            self.fail(
                                ServerFailure::KeyExchange,
                                Some(Alert::fatal(AlertDescription::IllegalParameter)),
                                out,
                            );
                            return;
                        }
                    }
                } else {
                    match self.config.key.decrypt(&payload) {
                        Ok(pm) => pm,
                        Err(_) => {
                            self.fail(
                                ServerFailure::KeyExchange,
                                Some(Alert::fatal(AlertDescription::DecryptError)),
                                out,
                            );
                            return;
                        }
                    }
                };
                let master =
                    derive_master_secret(&premaster, &self.client_random, &self.server_random);
                self.master = Some(master);
                self.state = State::AwaitClientFinished;
            }
            (State::AwaitClientFinished, HandshakeMessage::Finished(verify_data)) => {
                let master = self.master.expect("master set before client Finished");
                let expected =
                    finished_verify_data(&master, "client finished", &self.transcript.hash());
                self.transcript.absorb(msg_bytes);
                if verify_data != expected {
                    self.fail(
                        ServerFailure::BadFinished,
                        Some(Alert::fatal(AlertDescription::DecryptError)),
                        out,
                    );
                    return;
                }
                if self.resumed {
                    // Abbreviated handshake: the server already sent
                    // its Finished; the client's closes the exchange.
                    self.state = State::Established;
                    return;
                }
                let server_verify =
                    finished_verify_data(&master, "server finished", &self.transcript.hash());
                let finished = HandshakeMessage::Finished(server_verify);
                self.send_handshake(&finished, out);
                let suite_id = self.suite.expect("suite negotiated");
                let (client_key, server_key) =
                    derive_write_keys(&master, &self.client_random, &self.server_random);
                self.write_cipher = Some(DirectionCipher::for_suite(suite_id, &server_key));
                self.read_cipher = Some(DirectionCipher::for_suite(suite_id, &client_key));
                if let Some(cache) = &self.config.session_cache {
                    if !self.session_id.is_empty() {
                        cache.insert(self.session_id.clone(), master);
                    }
                }
                self.state = State::Established;
            }
            (_, _other) => {
                self.fail(
                    ServerFailure::Codec,
                    Some(Alert::fatal(AlertDescription::UnexpectedMessage)),
                    out,
                );
            }
        }
    }

    /// Picks version and suite, then emits the server's first flight.
    fn negotiate(&mut self, ch: &ClientHello, out: &mut SessionBuf) {
        let advertised = ch.advertised_versions();
        let version = match self.config.forced_version {
            Some(forced) => {
                if advertised.contains(&forced) {
                    Some(forced)
                } else {
                    None
                }
            }
            None => advertised
                .iter()
                .copied()
                .filter(|v| self.config.versions.contains(v))
                .max(),
        };
        let Some(version) = version else {
            self.fail(
                ServerFailure::NoCommonVersion,
                Some(Alert::fatal(AlertDescription::ProtocolVersion)),
                out,
            );
            return;
        };

        let suite = self
            .config
            .cipher_suites
            .iter()
            .copied()
            .find(|s| {
                ch.cipher_suites.contains(s)
                    && by_id(*s).is_some_and(|info| {
                        if version == ProtocolVersion::Tls13 {
                            info.is_tls13()
                        } else {
                            !info.is_tls13()
                        }
                    })
            });
        let Some(suite) = suite else {
            self.fail(
                ServerFailure::NoCommonSuite,
                Some(Alert::fatal(AlertDescription::HandshakeFailure)),
                out,
            );
            return;
        };

        self.version = Some(version);
        self.suite = Some(suite);

        // Session resumption: a known session id short-circuits to the
        // abbreviated handshake (RFC 5246 §7.3).
        if let Some(cache) = &self.config.session_cache {
            if !ch.session_id.is_empty() {
                if let Some(master) = cache.get(&ch.session_id) {
                    self.resumed = true;
                    self.session_id = ch.session_id.clone();
                    self.master = Some(master);
                    let hello = HandshakeMessage::ServerHello(ServerHello {
                        version,
                        random: self.server_random,
                        session_id: ch.session_id.clone(),
                        cipher_suite: suite,
                        compression_method: 0,
                        extensions: Vec::new(),
                    });
                    self.send_handshake(&hello, out);
                    let server_verify = finished_verify_data(
                        &master,
                        "server finished",
                        &self.transcript.hash(),
                    );
                    self.send_handshake(&HandshakeMessage::Finished(server_verify), out);
                    let (client_key, server_key) =
                        derive_write_keys(&master, &self.client_random, &self.server_random);
                    self.write_cipher = Some(DirectionCipher::for_suite(suite, &server_key));
                    self.read_cipher = Some(DirectionCipher::for_suite(suite, &client_key));
                    self.state = State::AwaitClientFinished;
                    return;
                }
            }
        }

        // Full handshake; issue a session id when resumption is on.
        if self.config.session_cache.is_some() {
            let mut id = [0u8; 16];
            self.rng.fill_bytes(&mut id);
            self.session_id = id.to_vec();
        }
        let hello = HandshakeMessage::ServerHello(ServerHello {
            version,
            random: self.server_random,
            session_id: self.session_id.clone(),
            cipher_suite: suite,
            compression_method: 0,
            extensions: Vec::new(),
        });
        self.send_handshake(&hello, out);

        let chain_bytes: Vec<Vec<u8>> =
            self.config.chain.iter().map(|c| c.to_bytes()).collect();
        let cert_msg = HandshakeMessage::Certificate(chain_bytes);
        self.send_handshake(&cert_msg, out);

        if ch.requests_ocsp() {
            if let Some(staple) = self.config.ocsp_staple.clone() {
                let status = HandshakeMessage::CertificateStatus(staple);
                self.send_handshake(&status, out);
            }
        }

        let forward_secret = by_id(suite).is_some_and(|s| {
            s.is_forward_secret() || matches!(s.kx, crate::ciphersuite::KeyExchange::DhAnon)
        });
        if forward_secret {
            let group = DhGroup::oakley_group1();
            let keypair = DhKeyPair::generate(&group, &mut self.rng);
            let mut signed = Vec::new();
            signed.extend_from_slice(&self.client_random);
            signed.extend_from_slice(&self.server_random);
            signed.extend_from_slice(&keypair.public_bytes());
            let signature = self.config.key.sign(&signed);
            let ske = HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
                dh_public: keypair.public_bytes(),
                signature,
            });
            self.dh_keypair = Some(keypair);
            self.send_handshake(&ske, out);
        }

        self.send_handshake(&HandshakeMessage::ServerHelloDone, out);
        self.state = State::AwaitClientKeyExchange;
    }
}
