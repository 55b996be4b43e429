//! The TLS client state machine (sans-IO).
//!
//! A [`ClientConnection`] is unbuffered in the smoltcp idiom: the
//! caller owns both sides of the byte exchange. Feed incoming
//! transport bytes and collect outgoing ones in a single call to
//! [`ClientConnection::process`], which appends every reply record to
//! a caller-owned [`SessionBuf`]; drive loops reuse one buffer per
//! direction (and one [`SessionScratch`] per lane, via
//! [`ClientConnection::with_scratch`]) so the steady state allocates
//! nothing per session.
//!
//! Device emulations configure the client through [`ClientConfig`],
//! which captures everything the paper measures about a *TLS
//! instance*: offered versions and suites, extension set, validation
//! policy, root store, and the library behavior profile that decides
//! which alert (if any) is sent on validation failure.
//!
//! Handshake-flow substitutions relative to real TLS (DESIGN.md §2):
//! TLS 1.3 connections reuse the 1.2 message sequence, there is no
//! ChangeCipherSpec, and only application-data records are encrypted.
//! All measured behavior — negotiation metadata, alerts, certificate
//! handling, payload secrecy against a passive observer — is
//! preserved.

use crate::alert::{Alert, AlertDescription, AlertLevel};
use crate::ciphersuite::by_id;
use crate::codec::CodecError;
use crate::extension::{sig_scheme, Extension};
use crate::fingerprint::Fingerprint;
use crate::handshake::{ClientHello, HandshakeMessage, ServerKeyExchange};
use crate::profile::LibraryProfile;
use crate::record::{write_record, ContentType, Deframer, SessionBuf};
use crate::session::{
    derive_master_secret, derive_write_keys, finished_verify_data, DirectionCipher,
    SessionScratch, Status, Transcript,
};
use crate::version::ProtocolVersion;
use iotls_crypto::dh::{DhGroup, DhKeyPair};
use iotls_crypto::drbg::Drbg;
use iotls_x509::{validate_chain, Certificate, RootStore, Timestamp, ValidationError, ValidationPolicy};
use std::sync::Arc;

/// Certificate pinning (§6 of the paper).
///
/// Pinning mandates particular key material in the server's chain.
/// The paper's caveat is reproduced faithfully: pinning the *root*
/// only helps while that root's key is honest — against a compromised
/// root CA, only a *leaf* pin protects the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinPolicy {
    /// No pinning (the default).
    None,
    /// The leaf's public-key fingerprint must equal this value.
    PinLeafKey([u8; 32]),
    /// The trust anchor's public-key fingerprint must equal this
    /// value.
    PinRootKey([u8; 32]),
}

impl PinPolicy {
    /// Checks the pin against a presented chain (leaf first). The
    /// root pin checks the top-most certificate's key (chain-building
    /// already anchored it for validated connections).
    pub fn check(&self, chain: &[iotls_x509::Certificate], anchor: Option<&iotls_x509::Certificate>) -> bool {
        match self {
            PinPolicy::None => true,
            PinPolicy::PinLeafKey(pin) => chain
                .first()
                .is_some_and(|c| &c.tbs.public_key.fingerprint() == pin),
            PinPolicy::PinRootKey(pin) => {
                let top = anchor.or_else(|| chain.last());
                top.is_some_and(|c| &c.tbs.public_key.fingerprint() == pin)
            }
        }
    }
}

/// A cached TLS session for RFC 5246 session-ID resumption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedSession {
    /// The server-issued session id.
    pub session_id: Vec<u8>,
    /// The session's master secret.
    pub master: [u8; 48],
}

/// Client-side configuration: one *TLS instance* in the paper's sense.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Protocol versions the client supports (any order).
    pub versions: Vec<ProtocolVersion>,
    /// Ciphersuites offered, in offer order.
    pub cipher_suites: Vec<u16>,
    /// Certificate validation behavior.
    pub validation_policy: ValidationPolicy,
    /// Trusted roots, shared by reference: many configs (one per
    /// connection attempt) point at one immutable store, so cloning a
    /// config never deep-copies the root set.
    pub root_store: Arc<RootStore>,
    /// Library emulation (controls failure alerts).
    pub library: LibraryProfile,
    /// Send the SNI extension.
    pub send_sni: bool,
    /// Send status_request (OCSP stapling).
    pub request_ocsp: bool,
    /// Send an empty session_ticket extension.
    pub session_ticket: bool,
    /// supported_groups values.
    pub groups: Vec<u16>,
    /// ec_point_formats values.
    pub point_formats: Vec<u8>,
    /// signature_algorithms values.
    pub signature_algorithms: Vec<u16>,
    /// ALPN protocols (empty = extension omitted).
    pub alpn: Vec<String>,
    /// Certificate pinning (checked independently of, and in addition
    /// to, the validation policy).
    pub pin: PinPolicy,
    /// Verify received OCSP staples and honor Must-Staple: reject
    /// revoked staples, stale staples, and missing staples for
    /// Must-Staple leaves. Requires `request_ocsp`.
    pub verify_staple: bool,
    /// Optional memoization of chain-validation verdicts, shared by
    /// every handshake within one experiment run. `None` validates
    /// from scratch each time (identical verdicts, more work).
    pub verify_cache: Option<std::sync::Arc<iotls_x509::cache::VerificationCache>>,
}

impl ClientConfig {
    /// A modern, strict client: TLS 1.2/1.3, strong suites, full
    /// validation, OpenSSL-style alerts.
    pub fn modern(root_store: impl Into<Arc<RootStore>>) -> ClientConfig {
        ClientConfig {
            versions: vec![ProtocolVersion::Tls12, ProtocolVersion::Tls13],
            cipher_suites: vec![0x1301, 0x1303, 0xc02f, 0xc030, 0xcca8, 0x009e],
            validation_policy: ValidationPolicy::strict(),
            root_store: root_store.into(),
            library: LibraryProfile::OpenSsl,
            send_sni: true,
            request_ocsp: false,
            session_ticket: true,
            groups: vec![29, 23, 24],
            point_formats: vec![0],
            signature_algorithms: vec![
                sig_scheme::RSA_PKCS1_SHA256,
                sig_scheme::RSA_PSS_RSAE_SHA256,
            ],
            alpn: Vec::new(),
            pin: PinPolicy::None,
            verify_staple: false,
            verify_cache: None,
        }
    }

    /// Highest supported version.
    pub fn max_version(&self) -> ProtocolVersion {
        self.versions
            .iter()
            .copied()
            .max()
            .expect("client must support at least one version")
    }

    /// True when `v` is supported.
    pub fn supports_version(&self, v: ProtocolVersion) -> bool {
        self.versions.contains(&v)
    }
}

/// Why a handshake failed, from the client's perspective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeFailure {
    /// Certificate validation failed.
    Validation(ValidationError),
    /// Server chose a version the client does not support.
    UnsupportedVersion(ProtocolVersion),
    /// Server chose a suite the client did not offer.
    UnsupportedSuite(u16),
    /// Peer sent a fatal alert.
    PeerAlert(Alert),
    /// Wire-format error.
    Codec,
    /// Key exchange failed (bad SKE signature, degenerate DH value,
    /// undecryptable premaster).
    KeyExchange,
    /// Finished verify-data mismatch.
    BadFinished,
    /// The presented chain violated the configured pin.
    PinMismatch,
    /// A verified OCSP staple said the certificate is revoked, the
    /// staple was stale/forged, or a Must-Staple leaf came without
    /// one.
    StapleFailure,
}

/// Client connection states.
#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    Start,
    AwaitServerHello,
    AwaitServerFlight,
    AwaitServerFinished,
    AwaitServerFinishedResumed,
    Established,
    Failed(HandshakeFailure),
    Closed,
}

/// Summary of a finished (or failed) handshake, the unit every IoTLS
/// analysis consumes.
#[derive(Debug, Clone)]
pub struct HandshakeSummary {
    /// The ClientHello sent (fingerprint source).
    pub client_hello: ClientHello,
    /// Negotiated version, when a ServerHello arrived.
    pub version: Option<ProtocolVersion>,
    /// Negotiated suite, when a ServerHello arrived.
    pub cipher_suite: Option<u16>,
    /// Whether the server stapled an OCSP response.
    pub ocsp_stapled: bool,
    /// The certificate chain the server presented.
    pub server_chain: Vec<Certificate>,
    /// Alerts this client sent.
    pub alerts_sent: Vec<Alert>,
    /// Alerts received from the peer.
    pub alerts_received: Vec<Alert>,
    /// Terminal failure, if the handshake did not complete.
    pub failure: Option<HandshakeFailure>,
}

/// A sans-IO TLS client connection.
pub struct ClientConnection {
    config: ClientConfig,
    hostname: String,
    now: Timestamp,
    rng: Drbg,
    state: State,
    scratch: SessionScratch,
    transcript: Transcript,
    hello: Option<ClientHello>,
    client_random: [u8; 32],
    server_random: [u8; 32],
    version: Option<ProtocolVersion>,
    suite: Option<u16>,
    server_chain: Vec<Certificate>,
    server_ske: Option<ServerKeyExchange>,
    ocsp_stapled: bool,
    alerts_sent: Vec<Alert>,
    alerts_received: Vec<Alert>,
    master: Option<[u8; 48]>,
    write_cipher: Option<DirectionCipher>,
    read_cipher: Option<DirectionCipher>,
    staple_bytes: Option<Vec<u8>>,
    resume: Option<CachedSession>,
    server_session_id: Vec<u8>,
    resumed: bool,
}

impl ClientConnection {
    /// Creates a connection to `hostname` at simulated time `now`.
    pub fn new(config: ClientConfig, hostname: &str, now: Timestamp, rng: Drbg) -> Self {
        Self::with_scratch(config, hostname, now, rng, SessionScratch::new())
    }

    /// Like [`ClientConnection::new`], but reusing a caller-owned
    /// [`SessionScratch`] (reset first) so steady-state session loops
    /// keep one warm set of buffers per lane instead of allocating per
    /// connection. Reclaim the scratch with
    /// [`ClientConnection::into_scratch`] when the session ends.
    pub fn with_scratch(
        config: ClientConfig,
        hostname: &str,
        now: Timestamp,
        mut rng: Drbg,
        mut scratch: SessionScratch,
    ) -> Self {
        scratch.reset();
        let mut client_random = [0u8; 32];
        rng.fill_bytes(&mut client_random);
        ClientConnection {
            config,
            hostname: hostname.to_string(),
            now,
            rng,
            state: State::Start,
            scratch,
            transcript: Transcript::new(),
            hello: None,
            client_random,
            server_random: [0u8; 32],
            version: None,
            suite: None,
            server_chain: Vec::new(),
            server_ske: None,
            ocsp_stapled: false,
            alerts_sent: Vec::new(),
            alerts_received: Vec::new(),
            master: None,
            write_cipher: None,
            read_cipher: None,
            staple_bytes: None,
            resume: None,
            server_session_id: Vec::new(),
            resumed: false,
        }
    }

    /// Consumes the connection, handing back its (warm) scratch for
    /// the next session in the lane.
    pub fn into_scratch(self) -> SessionScratch {
        self.scratch
    }

    /// Arms session resumption: the ClientHello that
    /// [`Self::start_into`] encodes offers the cached session id, and
    /// an echoing server short-circuits to the abbreviated handshake.
    /// Must be called before `start_into`.
    pub fn resume(&mut self, cached: CachedSession) {
        assert_eq!(self.state, State::Start, "resume() after start_into()");
        self.resume = Some(cached);
    }

    /// True when the handshake resumed a cached session.
    pub fn is_resumed(&self) -> bool {
        self.resumed
    }

    /// The session to cache for later resumption (full handshakes
    /// against resumption-enabled servers only).
    pub fn session_for_cache(&self) -> Option<CachedSession> {
        if self.is_established() && !self.resumed && !self.server_session_id.is_empty() {
            Some(CachedSession {
                session_id: self.server_session_id.clone(),
                master: self.master?,
            })
        } else {
            None
        }
    }

    /// Builds (but does not send) the ClientHello this configuration
    /// produces — also used standalone for fingerprint extraction.
    pub fn build_client_hello(&self) -> ClientHello {
        let max = self.config.max_version();
        let mut extensions = Vec::new();
        if self.config.send_sni {
            extensions.push(Extension::ServerName(self.hostname.clone()));
        }
        if self.config.request_ocsp {
            extensions.push(Extension::StatusRequest);
        }
        if !self.config.groups.is_empty() {
            extensions.push(Extension::SupportedGroups(self.config.groups.clone()));
        }
        if !self.config.point_formats.is_empty() {
            extensions.push(Extension::EcPointFormats(self.config.point_formats.clone()));
        }
        if !self.config.signature_algorithms.is_empty() {
            extensions.push(Extension::SignatureAlgorithms(
                self.config.signature_algorithms.clone(),
            ));
        }
        if !self.config.alpn.is_empty() {
            extensions.push(Extension::Alpn(self.config.alpn.clone()));
        }
        if self.config.session_ticket {
            extensions.push(Extension::SessionTicket);
        }
        if max >= ProtocolVersion::Tls13 {
            let mut versions: Vec<ProtocolVersion> = self.config.versions.clone();
            versions.sort();
            versions.reverse();
            extensions.push(Extension::SupportedVersions(versions));
        }
        ClientHello {
            // legacy_version caps at TLS 1.2 when 1.3 is offered via
            // the supported_versions extension, per RFC 8446.
            legacy_version: max.min(ProtocolVersion::Tls12),
            random: self.client_random,
            session_id: self
                .resume
                .as_ref()
                .map(|c| c.session_id.clone())
                .unwrap_or_default(),
            cipher_suites: self.config.cipher_suites.clone(),
            compression_methods: vec![0],
            extensions,
        }
    }

    /// Encodes the ClientHello into `out`. Must be called exactly
    /// once, first.
    pub fn start_into(&mut self, out: &mut SessionBuf) {
        assert_eq!(self.state, State::Start, "start_into() called twice");
        let hello = self.build_client_hello();
        let msg = HandshakeMessage::ClientHello(hello.clone());
        self.send_handshake(&msg, out);
        self.hello = Some(hello);
        self.state = State::AwaitServerHello;
    }

    /// The fingerprint of this connection's ClientHello.
    pub fn fingerprint(&self) -> Fingerprint {
        match &self.hello {
            Some(h) => Fingerprint::from_client_hello(h),
            None => Fingerprint::from_client_hello(&self.build_client_hello()),
        }
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

    /// True once the handshake completed successfully.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// The terminal failure, if any.
    pub fn failure(&self) -> Option<&HandshakeFailure> {
        match &self.state {
            State::Failed(f) => Some(f),
            _ => None,
        }
    }

    /// True when the connection reached a terminal state
    /// (established, failed, or closed).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self.state,
            State::Established | State::Failed(_) | State::Closed
        )
    }

    /// Post-handshake summary for analysis.
    pub fn summary(&self) -> HandshakeSummary {
        HandshakeSummary {
            client_hello: self
                .hello
                .clone()
                .unwrap_or_else(|| self.build_client_hello()),
            version: self.version,
            cipher_suite: self.suite,
            ocsp_stapled: self.ocsp_stapled,
            server_chain: self.server_chain.clone(),
            alerts_sent: self.alerts_sent.clone(),
            alerts_received: self.alerts_received.clone(),
            failure: self.failure().cloned(),
        }
    }

    /// The sans-IO pump: consumes `incoming` transport bytes (any
    /// chunking, possibly empty) and appends every reply record to the
    /// caller-owned `out`. Malformed input moves the connection to
    /// [`Status::Failed`]; the caller reads wire bytes from `out`
    /// regardless (a failing connection still sends its fatal alert).
    pub fn process(&mut self, incoming: &[u8], out: &mut SessionBuf) -> Status {
        self.scratch.deframer.push(incoming);
        // Disjoint-field dance: the deframer and the record-payload
        // scratch move out of `self` for the duration of the loop (a
        // Vec move, not an allocation) so records can borrow them
        // while the state machine borrows `self`.
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

    /// Encodes application data into `out` (only valid once
    /// established). Record protection is applied in the tx scratch
    /// before framing; fragment boundaries do not disturb the stream
    /// ciphers' keystream order, so the wire bytes are identical to
    /// the legacy fragment-then-encrypt path.
    pub fn send_application_data_into(&mut self, data: &[u8], out: &mut SessionBuf) {
        assert!(self.is_established(), "connection not established");
        self.scratch.tx.clear();
        self.scratch.tx.extend_from_slice(data);
        if let Some(c) = &mut self.write_cipher {
            c.apply(&mut self.scratch.tx);
        }
        write_record(
            ContentType::ApplicationData,
            self.version.unwrap_or(ProtocolVersion::Tls12),
            &self.scratch.tx,
            out,
        );
    }

    /// Appends decrypted application data received from the peer to
    /// `sink` and clears the internal accumulator (keeping its
    /// allocation).
    pub fn drain_application_data_into(&mut self, sink: &mut Vec<u8>) {
        sink.extend_from_slice(&self.scratch.app);
        self.scratch.app.clear();
    }

    /// Drains decrypted application data received from the peer.
    pub fn take_application_data(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.scratch.app)
    }

    fn send_handshake(&mut self, msg: &HandshakeMessage, out: &mut SessionBuf) {
        self.scratch.tx.clear();
        msg.encode_into(&mut self.scratch.tx);
        self.transcript.absorb(&self.scratch.tx);
        let version = self.version.unwrap_or_else(|| {
            self.config.max_version().min(ProtocolVersion::Tls12)
        });
        write_record(ContentType::Handshake, version, &self.scratch.tx, out);
    }

    fn send_alert(&mut self, alert: Alert, out: &mut SessionBuf) {
        self.alerts_sent.push(alert);
        let version = self.version.unwrap_or(ProtocolVersion::Tls12);
        write_record(ContentType::Alert, version, &alert.to_bytes(), out);
    }

    fn fail(&mut self, failure: HandshakeFailure, alert: Option<Alert>, out: &mut SessionBuf) {
        if let Some(a) = alert {
            self.send_alert(a, out);
        }
        self.state = State::Failed(failure);
    }

    /// Fails with the library-profile-specific alert for a validation
    /// error — the observable behavior Table 4 catalogs.
    fn fail_validation(&mut self, err: ValidationError, out: &mut SessionBuf) {
        let alert = self
            .config
            .library
            .alert_for(err)
            .map(Alert::fatal);
        self.fail(HandshakeFailure::Validation(err), alert, out);
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
                        self.state = State::Failed(HandshakeFailure::PeerAlert(alert));
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
                                HandshakeFailure::Codec,
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
            (State::AwaitServerHello, HandshakeMessage::ServerHello(sh)) => {
                self.transcript.absorb(msg_bytes);
                if !self.config.supports_version(sh.version) {
                    self.fail(
                        HandshakeFailure::UnsupportedVersion(sh.version),
                        Some(Alert::fatal(AlertDescription::ProtocolVersion)),
                        out,
                    );
                    return;
                }
                if !self.config.cipher_suites.contains(&sh.cipher_suite) {
                    self.fail(
                        HandshakeFailure::UnsupportedSuite(sh.cipher_suite),
                        Some(Alert::fatal(AlertDescription::HandshakeFailure)),
                        out,
                    );
                    return;
                }
                self.version = Some(sh.version);
                self.suite = Some(sh.cipher_suite);
                self.server_random = sh.random;
                self.server_session_id = sh.session_id.clone();
                // Resumption: the server echoing our cached session id
                // commits to the abbreviated handshake.
                if let Some(cached) = &self.resume {
                    if !cached.session_id.is_empty() && sh.session_id == cached.session_id {
                        let master = cached.master;
                        self.master = Some(master);
                        let (client_key, server_key) = crate::session::derive_write_keys(
                            &master,
                            &self.client_random,
                            &self.server_random,
                        );
                        self.write_cipher =
                            Some(DirectionCipher::for_suite(sh.cipher_suite, &client_key));
                        self.read_cipher =
                            Some(DirectionCipher::for_suite(sh.cipher_suite, &server_key));
                        self.resumed = true;
                        self.state = State::AwaitServerFinishedResumed;
                        return;
                    }
                }
                self.state = State::AwaitServerFlight;
            }
            (State::AwaitServerFlight, HandshakeMessage::Certificate(chain_bytes)) => {
                self.transcript.absorb(msg_bytes);
                let mut chain = Vec::with_capacity(chain_bytes.len());
                for cb in &chain_bytes {
                    match Certificate::from_bytes(cb) {
                        Ok(c) => chain.push(c),
                        Err(_) => {
                            self.fail(
                                HandshakeFailure::Codec,
                                Some(Alert::fatal(AlertDescription::BadCertificate)),
                                out,
                            );
                            return;
                        }
                    }
                }
                self.server_chain = chain;
            }
            (State::AwaitServerFlight, HandshakeMessage::CertificateStatus(staple)) => {
                self.transcript.absorb(msg_bytes);
                self.ocsp_stapled = true;
                self.staple_bytes = Some(staple);
            }
            (State::AwaitServerFlight, HandshakeMessage::ServerKeyExchange(ske)) => {
                self.transcript.absorb(msg_bytes);
                self.server_ske = Some(ske);
            }
            (State::AwaitServerFlight, HandshakeMessage::ServerHelloDone) => {
                self.transcript.absorb(msg_bytes);
                self.complete_client_flight(out);
            }
            (State::AwaitServerFinishedResumed, HandshakeMessage::Finished(verify_data)) => {
                let master = self.master.expect("resumed master set");
                let expected =
                    finished_verify_data(&master, "server finished", &self.transcript.hash());
                self.transcript.absorb(msg_bytes);
                if verify_data != expected {
                    self.fail(
                        HandshakeFailure::BadFinished,
                        Some(Alert::fatal(AlertDescription::DecryptError)),
                        out,
                    );
                    return;
                }
                let client_verify =
                    finished_verify_data(&master, "client finished", &self.transcript.hash());
                let finished = HandshakeMessage::Finished(client_verify);
                self.send_handshake(&finished, out);
                self.state = State::Established;
            }
            (State::AwaitServerFinished, HandshakeMessage::Finished(verify_data)) => {
                let master = self.master.expect("master set before server Finished");
                let expected =
                    finished_verify_data(&master, "server finished", &self.transcript.hash());
                self.transcript.absorb(msg_bytes);
                if verify_data == expected {
                    self.state = State::Established;
                } else {
                    self.fail(
                        HandshakeFailure::BadFinished,
                        Some(Alert::fatal(AlertDescription::DecryptError)),
                        out,
                    );
                }
            }
            (_, _other) => {
                self.fail(
                    HandshakeFailure::Codec,
                    Some(Alert::fatal(AlertDescription::UnexpectedMessage)),
                    out,
                );
            }
        }
    }

    /// Runs certificate validation and, on success, the key exchange
    /// and client's second flight.
    fn complete_client_flight(&mut self, out: &mut SessionBuf) {
        // Certificate validation — the decision Table 7 audits. With a
        // cache attached, repeat presentations of a chain within the
        // run skip straight to the memoized verdict.
        let result = match &self.config.verify_cache {
            Some(cache) => cache.validate(
                &self.server_chain,
                &self.config.root_store,
                &self.hostname,
                self.now,
                &self.config.validation_policy,
            ),
            None => validate_chain(
                &self.server_chain,
                &self.config.root_store,
                &self.hostname,
                self.now,
                &self.config.validation_policy,
            ),
        };
        if let Err(e) = result {
            self.fail_validation(e, out);
            return;
        }

        // Pinning runs independently of the validation policy: even a
        // broken validator with a leaf pin defeats interception (§6).
        let anchor = self
            .server_chain
            .last()
            .map(|top| self.config.root_store.find_issuer(&top.tbs.issuer))
            .unwrap_or(None)
            .cloned();
        if !self.config.pin.check(&self.server_chain, anchor.as_ref()) {
            self.fail(
                HandshakeFailure::PinMismatch,
                Some(Alert::fatal(AlertDescription::BadCertificate)),
                out,
            );
            return;
        }

        // OCSP staple verification and Must-Staple enforcement (§5.2's
        // revocation machinery, done right).
        if self.config.verify_staple {
            let leaf = self.server_chain.first();
            let must_staple =
                leaf.is_some_and(|l| l.tbs.extensions.must_staple);
            match (&self.staple_bytes, leaf) {
                (Some(bytes), Some(leaf_cert)) => {
                    let issuer = self
                        .server_chain
                        .get(1)
                        .cloned()
                        .or(anchor.clone());
                    let ok = match (iotls_x509::OcspResponse::from_bytes(bytes), issuer) {
                        (Ok(resp), Some(issuer_cert)) => {
                            resp.serial == leaf_cert.tbs.serial
                                && resp.verify(&issuer_cert, self.now)
                                && resp.status == iotls_x509::RevocationStatus::Good
                        }
                        _ => false,
                    };
                    if !ok {
                        self.fail(
                            HandshakeFailure::StapleFailure,
                            Some(Alert::fatal(AlertDescription::CertificateRevoked)),
                            out,
                        );
                        return;
                    }
                }
                (None, _) if must_staple => {
                    self.fail(
                        HandshakeFailure::StapleFailure,
                        Some(Alert::fatal(AlertDescription::BadCertificate)),
                        out,
                    );
                    return;
                }
                _ => {}
            }
        }

        let suite_id = self.suite.expect("suite negotiated");
        let forward_secret = by_id(suite_id).is_some_and(|s| s.is_forward_secret())
            || by_id(suite_id).is_some_and(|s| s.is_null_or_anon() && self.server_ske.is_some());

        let (premaster, cke_payload) = if forward_secret || self.server_ske.is_some() {
            // (EC)DHE-class: verify the SKE signature with the leaf
            // key (when validating), then run a real DH agreement.
            let Some(ske) = self.server_ske.clone() else {
                self.fail(
                    HandshakeFailure::KeyExchange,
                    Some(Alert::fatal(AlertDescription::HandshakeFailure)),
                    out,
                );
                return;
            };
            if self.config.validation_policy.check_signatures {
                let leaf = match self.server_chain.first() {
                    Some(l) => l,
                    None => {
                        self.fail(
                            HandshakeFailure::KeyExchange,
                            Some(Alert::fatal(AlertDescription::HandshakeFailure)),
                            out,
                        );
                        return;
                    }
                };
                let mut signed = Vec::new();
                signed.extend_from_slice(&self.client_random);
                signed.extend_from_slice(&self.server_random);
                signed.extend_from_slice(&ske.dh_public);
                if leaf.tbs.public_key.verify(&signed, &ske.signature).is_err() {
                    self.fail(
                        HandshakeFailure::KeyExchange,
                        Some(Alert::fatal(AlertDescription::DecryptError)),
                        out,
                    );
                    return;
                }
            }
            let group = DhGroup::oakley_group1();
            let keypair = DhKeyPair::generate(&group, &mut self.rng);
            let Some(shared) = keypair.agree(&ske.dh_public) else {
                self.fail(
                    HandshakeFailure::KeyExchange,
                    Some(Alert::fatal(AlertDescription::IllegalParameter)),
                    out,
                );
                return;
            };
            (shared.to_vec(), keypair.public_bytes())
        } else {
            // RSA key transport: encrypt a fresh premaster to the leaf.
            let leaf = match self.server_chain.first() {
                Some(l) => l,
                None => {
                    self.fail(
                        HandshakeFailure::KeyExchange,
                        Some(Alert::fatal(AlertDescription::HandshakeFailure)),
                        out,
                    );
                    return;
                }
            };
            let mut premaster = vec![0u8; 48];
            self.rng.fill_bytes(&mut premaster);
            match leaf.tbs.public_key.encrypt(&premaster, &mut self.rng) {
                Ok(ct) => (premaster, ct),
                Err(_) => {
                    self.fail(
                        HandshakeFailure::KeyExchange,
                        Some(Alert::fatal(AlertDescription::InternalError)),
                        out,
                    );
                    return;
                }
            }
        };

        let master = derive_master_secret(&premaster, &self.client_random, &self.server_random);
        self.master = Some(master);

        let cke = HandshakeMessage::ClientKeyExchange(cke_payload);
        self.send_handshake(&cke, out);
        let verify_data = finished_verify_data(&master, "client finished", &self.transcript.hash());
        let finished = HandshakeMessage::Finished(verify_data);
        self.send_handshake(&finished, out);

        // Directional record protection from the RFC 5246 key block.
        let (client_key, server_key) =
            derive_write_keys(&master, &self.client_random, &self.server_random);
        self.write_cipher = Some(DirectionCipher::for_suite(suite_id, &client_key));
        self.read_cipher = Some(DirectionCipher::for_suite(suite_id, &server_key));

        self.state = State::AwaitServerFinished;
    }
}
