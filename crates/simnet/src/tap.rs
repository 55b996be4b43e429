//! Passive gateway tap.
//!
//! The paper's passive experiments record traffic at the home gateway
//! and later extract handshake metadata from pcaps. [`GatewayTap`]
//! does the equivalent: a [`Middleware`] that rides the session's
//! [`Chain`] — fed the conditioned bytes of both link directions by
//! the session driver — and reads ClientHello / ServerHello /
//! Certificate / Alert records *without participating in the
//! connection*. Handshake messages go through the endpoints' own
//! parser, so what the tap records is what an endpoint accepts. The
//! result is a [`TlsObservation`] — the unit every longitudinal
//! analysis (Figures 1–3, Table 8) consumes.

use iotls_tls::alert::{Alert, AlertDescription};
use iotls_tls::fingerprint::{Fingerprint, FingerprintId};
use iotls_tls::handshake::{ClientHello, HandshakeMessage};
use iotls_tls::middleware::{Chain, Flow, Middleware, Verdict};
use iotls_tls::record::ContentType;
use iotls_tls::version::ProtocolVersion;
use iotls_x509::Timestamp;

/// Handshake metadata extracted by passively watching one connection.
#[derive(Debug, Clone, PartialEq)]
pub struct TlsObservation {
    /// When the connection started.
    pub time: Timestamp,
    /// Source device name.
    pub device: String,
    /// Destination hostname (DNS/SNI).
    pub destination: String,
    /// SNI hostname, when sent.
    pub sni: Option<String>,
    /// Every protocol version the ClientHello advertised.
    pub advertised_versions: Vec<ProtocolVersion>,
    /// The maximum advertised version.
    pub max_advertised: ProtocolVersion,
    /// Offered ciphersuite code points, in order.
    pub offered_suites: Vec<u16>,
    /// Whether the client requested an OCSP staple.
    pub requested_ocsp: bool,
    /// JA3-shaped fingerprint of the ClientHello.
    pub fingerprint: FingerprintId,
    /// Negotiated version (from ServerHello), if one arrived.
    pub negotiated_version: Option<ProtocolVersion>,
    /// Negotiated suite, if a ServerHello arrived.
    pub negotiated_suite: Option<u16>,
    /// Whether the server stapled an OCSP response.
    pub ocsp_stapled: bool,
    /// Issuer common name of the server's leaf certificate, when one
    /// crossed the wire (absent for abbreviated handshakes).
    pub leaf_issuer: Option<String>,
    /// Whether the connection reached the application-data phase.
    pub established: bool,
    /// Alert descriptions seen client→server.
    pub alerts_from_client: Vec<AlertDescription>,
    /// Alert descriptions seen server→client.
    pub alerts_from_server: Vec<AlertDescription>,
}

impl TlsObservation {
    /// True when any offered suite is in the insecure class.
    pub fn advertises_insecure_suite(&self) -> bool {
        self.offered_suites
            .iter()
            .any(|s| iotls_tls::ciphersuite::id_is_insecure(*s))
    }

    /// True when any offered suite provides forward secrecy.
    pub fn advertises_forward_secrecy(&self) -> bool {
        self.offered_suites
            .iter()
            .any(|s| iotls_tls::ciphersuite::id_is_forward_secret(*s))
    }

    /// True when the negotiated suite is insecure.
    pub fn negotiated_insecure_suite(&self) -> bool {
        self.negotiated_suite
            .is_some_and(iotls_tls::ciphersuite::id_is_insecure)
    }

    /// True when the negotiated suite provides forward secrecy.
    pub fn negotiated_forward_secrecy(&self) -> bool {
        self.negotiated_suite
            .is_some_and(iotls_tls::ciphersuite::id_is_forward_secret)
    }
}

/// A passive observer of one connection at a time: attach it to a
/// middleware [`Chain`], drive the session, then
/// [`GatewayTap::take_observation`]. Its observe-only `on_record`
/// hook reads every record the chain deframes.
#[derive(Default)]
pub struct GatewayTap {
    client_hello: Option<ClientHello>,
    negotiated_version: Option<ProtocolVersion>,
    negotiated_suite: Option<u16>,
    ocsp_stapled: bool,
    leaf_issuer: Option<String>,
    server_finished: bool,
    saw_app_data: bool,
    alerts_from_client: Vec<Alert>,
    alerts_from_server: Vec<Alert>,
    records_deframed: u64,
}

impl GatewayTap {
    /// A fresh tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tap of a tapped chain, the one built as
    /// `Chain::new().with(Box::new(GatewayTap::new()))`: slot 0.
    ///
    /// # Panics
    ///
    /// If slot 0 holds no `GatewayTap`.
    pub fn in_chain(chain: &mut Chain) -> &mut GatewayTap {
        chain
            .middleware_mut::<GatewayTap>(0)
            .expect("a tapped chain holds its tap at slot 0")
    }

    /// Reads one complete record. Handshake records are walked with
    /// the endpoints' own parser, [`HandshakeMessage::decode`], up to
    /// the first message it rejects, so the tap records exactly what
    /// an endpoint would have accepted.
    fn observe_record(&mut self, flow: Flow, content_type: ContentType, payload: &[u8]) {
        self.records_deframed += 1;
        match content_type {
            ContentType::Handshake => {
                let mut rest = payload;
                while let Ok((msg, used)) = HandshakeMessage::decode(rest) {
                    rest = &rest[used..];
                    match (flow, msg) {
                        (Flow::ClientToServer, HandshakeMessage::ClientHello(ch)) => {
                            self.client_hello = Some(ch);
                        }
                        (Flow::ServerToClient, HandshakeMessage::ServerHello(sh)) => {
                            self.negotiated_version = Some(sh.version);
                            self.negotiated_suite = Some(sh.cipher_suite);
                        }
                        (Flow::ServerToClient, HandshakeMessage::Certificate(chain)) => {
                            if let Some(Ok(cert)) = chain
                                .first()
                                .map(|leaf| iotls_x509::Certificate::from_bytes(leaf))
                            {
                                self.leaf_issuer = Some(cert.tbs.issuer.common_name);
                            }
                        }
                        (Flow::ServerToClient, HandshakeMessage::CertificateStatus(_)) => {
                            self.ocsp_stapled = true;
                        }
                        (Flow::ServerToClient, HandshakeMessage::Finished(_)) => {
                            self.server_finished = true;
                        }
                        _ => {}
                    }
                }
            }
            ContentType::Alert => {
                if let Some(a) = Alert::from_bytes(payload) {
                    match flow {
                        Flow::ClientToServer => self.alerts_from_client.push(a),
                        Flow::ServerToClient => self.alerts_from_server.push(a),
                    }
                }
            }
            ContentType::ApplicationData => self.saw_app_data = true,
            ContentType::ChangeCipherSpec => {}
        }
    }

    /// Clears all per-connection state, keeping buffer allocations, so
    /// one tap can observe many connections.
    pub fn reset(&mut self) {
        self.client_hello = None;
        self.negotiated_version = None;
        self.negotiated_suite = None;
        self.ocsp_stapled = false;
        self.leaf_issuer = None;
        self.server_finished = false;
        self.saw_app_data = false;
        self.alerts_from_client.clear();
        self.alerts_from_server.clear();
        self.records_deframed = 0;
    }

    /// Complete TLS records seen (both directions) since the last
    /// [`GatewayTap::reset`].
    pub fn records_deframed(&self) -> u64 {
        self.records_deframed
    }

    /// Takes the observation of the connection, stamped with the
    /// caller's metadata, leaving the per-connection state spent.
    /// Returns `None` when no ClientHello was observed (nothing TLS
    /// happened on the link). Call [`GatewayTap::reset`] before
    /// observing the next connection.
    pub fn take_observation(
        &mut self,
        time: Timestamp,
        device: &str,
        destination: &str,
    ) -> Option<TlsObservation> {
        let ch = self.client_hello.take()?;
        let fingerprint = Fingerprint::from_client_hello(&ch).id();
        let sni = ch.server_name().map(str::to_string);
        let advertised_versions = ch.advertised_versions();
        let max_advertised = ch.max_version();
        let requested_ocsp = ch.requests_ocsp();
        Some(TlsObservation {
            time,
            device: device.to_string(),
            destination: destination.to_string(),
            sni,
            advertised_versions,
            max_advertised,
            offered_suites: ch.cipher_suites,
            requested_ocsp,
            fingerprint,
            negotiated_version: self.negotiated_version.take(),
            negotiated_suite: self.negotiated_suite.take(),
            ocsp_stapled: std::mem::take(&mut self.ocsp_stapled),
            leaf_issuer: self.leaf_issuer.take(),
            established: self.server_finished || self.saw_app_data,
            alerts_from_client: self
                .alerts_from_client
                .drain(..)
                .map(|a| a.description)
                .collect(),
            alerts_from_server: self
                .alerts_from_server
                .drain(..)
                .map(|a| a.description)
                .collect(),
        })
    }
}

/// The tap's only hook: an observe-only read of every record.
impl Middleware for GatewayTap {
    fn on_record(&mut self, flow: Flow, content_type: ContentType, payload: &mut [u8]) -> Verdict {
        self.observe_record(flow, content_type, payload);
        Verdict::Continue
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes of `msgs` back to back, written by the endpoints'
    /// encoder.
    fn handshake_payload(msgs: &[HandshakeMessage]) -> Vec<u8> {
        let mut payload = Vec::new();
        for msg in msgs {
            msg.encode_into(&mut payload);
        }
        payload
    }

    /// `payload` framed as records by the endpoints' record writer.
    fn record(content_type: ContentType, payload: &[u8]) -> Vec<u8> {
        let mut out = iotls_tls::SessionBuf::new();
        iotls_tls::write_record(content_type, ProtocolVersion::Tls12, payload, &mut out);
        out.take_vec()
    }

    fn hello_bytes() -> Vec<u8> {
        let ch = ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [1u8; 32],
            session_id: vec![],
            cipher_suites: vec![0xc02f, 0x0005],
            compression_methods: vec![0],
            extensions: vec![iotls_tls::Extension::ServerName("dev.example.com".into())],
        };
        record(
            ContentType::Handshake,
            &handshake_payload(&[HandshakeMessage::ClientHello(ch)]),
        )
    }

    /// A session chain with a fresh tap at slot 0.
    fn tapped() -> Chain {
        let mut chain = Chain::new().with(Box::new(GatewayTap::new()));
        chain.begin_session();
        chain
    }

    #[test]
    fn tap_extracts_client_hello_metadata() {
        let mut chain = tapped();
        chain.feed(Flow::ClientToServer, &hello_bytes());
        let obs = GatewayTap::in_chain(&mut chain)
            .take_observation(Timestamp(0), "TestCam", "dev.example.com")
            .unwrap();
        assert_eq!(obs.sni.as_deref(), Some("dev.example.com"));
        assert_eq!(obs.max_advertised, ProtocolVersion::Tls12);
        assert!(obs.advertises_insecure_suite()); // 0x0005 RC4
        assert!(obs.advertises_forward_secrecy()); // 0xc02f ECDHE
        assert!(!obs.established);
        assert!(obs.negotiated_version.is_none());
    }

    #[test]
    fn tap_sees_alerts_and_server_hello() {
        let mut chain = tapped();
        chain.feed(Flow::ClientToServer, &hello_bytes());
        let sh = iotls_tls::ServerHello {
            version: ProtocolVersion::Tls12,
            random: [2u8; 32],
            session_id: vec![],
            cipher_suite: 0xc02f,
            extensions: vec![],
            compression_method: 0,
        };
        let sh_bytes = record(
            ContentType::Handshake,
            &handshake_payload(&[HandshakeMessage::ServerHello(sh)]),
        );
        chain.feed(Flow::ServerToClient, &sh_bytes);
        let alert = Alert::fatal(AlertDescription::UnknownCa);
        let alert_bytes = record(ContentType::Alert, &alert.to_bytes());
        chain.feed(Flow::ClientToServer, &alert_bytes);
        assert_eq!(GatewayTap::in_chain(&mut chain).records_deframed(), 3);
        let obs = GatewayTap::in_chain(&mut chain)
            .take_observation(Timestamp(5), "TestCam", "dev.example.com")
            .unwrap();
        assert_eq!(obs.negotiated_version, Some(ProtocolVersion::Tls12));
        assert_eq!(obs.negotiated_suite, Some(0xc02f));
        assert!(!obs.negotiated_insecure_suite());
        assert!(obs.negotiated_forward_secrecy());
        assert_eq!(obs.alerts_from_client, vec![AlertDescription::UnknownCa]);
        assert!(!obs.established);
    }

    #[test]
    fn no_client_hello_no_observation() {
        let mut tap = GatewayTap::new();
        assert!(tap.take_observation(Timestamp(0), "d", "h").is_none());
    }

    #[test]
    fn tap_tolerates_partial_delivery() {
        let bytes = hello_bytes();
        let mut chain = tapped();
        for chunk in bytes.chunks(3) {
            chain.feed(Flow::ClientToServer, chunk);
        }
        let obs = GatewayTap::in_chain(&mut chain).take_observation(Timestamp(0), "d", "h");
        assert_eq!(obs.unwrap().sni.as_deref(), Some("dev.example.com"));
    }

    #[test]
    fn app_data_marks_established() {
        let mut chain = tapped();
        chain.feed(Flow::ClientToServer, &hello_bytes());
        let app = record(ContentType::ApplicationData, &[0xaa; 16]);
        chain.feed(Flow::ServerToClient, &app);
        let obs = GatewayTap::in_chain(&mut chain)
            .take_observation(Timestamp(0), "d", "h")
            .unwrap();
        assert!(obs.established);
    }

    /// The observation the endpoints' parser reads from handshake
    /// record payloads: each walked with [`HandshakeMessage::decode`]
    /// up to its first error.
    fn decoded_observation(payloads: &[(Flow, &[u8])]) -> Option<TlsObservation> {
        let mut hello = None;
        let (mut version, mut suite, mut issuer) = (None, None, None);
        let (mut stapled, mut finished) = (false, false);
        for &(flow, payload) in payloads {
            let mut rest = payload;
            while let Ok((msg, used)) = HandshakeMessage::decode(rest) {
                match (flow, msg) {
                    (Flow::ClientToServer, HandshakeMessage::ClientHello(ch)) => hello = Some(ch),
                    (Flow::ServerToClient, HandshakeMessage::ServerHello(sh)) => {
                        version = Some(sh.version);
                        suite = Some(sh.cipher_suite);
                    }
                    (Flow::ServerToClient, HandshakeMessage::Certificate(chain)) => {
                        if let Some(Ok(cert)) = chain
                            .first()
                            .map(|leaf| iotls_x509::Certificate::from_bytes(leaf))
                        {
                            issuer = Some(cert.tbs.issuer.common_name);
                        }
                    }
                    (Flow::ServerToClient, HandshakeMessage::CertificateStatus(_)) => {
                        stapled = true;
                    }
                    (Flow::ServerToClient, HandshakeMessage::Finished(_)) => finished = true,
                    _ => {}
                }
                rest = &rest[used..];
            }
        }
        let ch = hello?;
        Some(TlsObservation {
            time: Timestamp(0),
            device: "d".into(),
            destination: "h".into(),
            sni: ch.server_name().map(str::to_string),
            advertised_versions: ch.advertised_versions(),
            max_advertised: ch.max_version(),
            requested_ocsp: ch.requests_ocsp(),
            fingerprint: Fingerprint::from_client_hello(&ch).id(),
            offered_suites: ch.cipher_suites,
            negotiated_version: version,
            negotiated_suite: suite,
            ocsp_stapled: stapled,
            leaf_issuer: issuer,
            established: finished,
            alerts_from_client: vec![],
            alerts_from_server: vec![],
        })
    }

    /// `payload` plus every single-byte corruption of it.
    fn with_corruptions(payload: &[u8]) -> Vec<Vec<u8>> {
        let mut cases = vec![payload.to_vec()];
        for i in 0..payload.len() {
            for delta in [1u8, 0x80] {
                let mut c = payload.to_vec();
                c[i] = c[i].wrapping_add(delta);
                cases.push(c);
            }
        }
        cases
    }

    #[test]
    fn tap_reads_what_the_endpoints_decode_reads() {
        use iotls_crypto::drbg::Drbg;
        use iotls_crypto::rsa::RsaPrivateKey;
        use iotls_x509::{CertifiedKey, DistinguishedName, IssueParams};

        let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(29));
        let root = CertifiedKey::self_signed(
            IssueParams::ca(
                DistinguishedName::new("Tap Root", "SimCA", "US"),
                1,
                Timestamp::from_ymd(2015, 1, 1),
                7300,
            ),
            key.clone(),
        );
        let leaf = root.issue(
            IssueParams::leaf("dev.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
            &key,
        );
        let hello = handshake_payload(&[HandshakeMessage::ClientHello(ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [1u8; 32],
            session_id: vec![7; 4],
            cipher_suites: vec![0xc02f, 0x0005],
            compression_methods: vec![0],
            extensions: vec![
                iotls_tls::Extension::ServerName("dev.example.com".into()),
                iotls_tls::Extension::StatusRequest,
                iotls_tls::Extension::SupportedGroups(vec![29, 23]),
                iotls_tls::Extension::SupportedVersions(vec![
                    ProtocolVersion::Tls12,
                    ProtocolVersion::Tls11,
                ]),
            ],
        })]);
        let flight = handshake_payload(&[
            HandshakeMessage::ServerHello(iotls_tls::ServerHello {
                version: ProtocolVersion::Tls12,
                random: [2u8; 32],
                session_id: vec![7; 4],
                cipher_suite: 0xc02f,
                compression_method: 0,
                extensions: vec![
                    iotls_tls::Extension::RenegotiationInfo,
                    iotls_tls::Extension::Alpn(vec!["h2".into()]),
                ],
            }),
            HandshakeMessage::Certificate(vec![leaf.to_bytes(), root.cert.to_bytes()]),
            HandshakeMessage::CertificateStatus(vec![0x5a; 24]),
            HandshakeMessage::ServerHelloDone,
        ]);
        let observe = |payloads: &[(Flow, &[u8])]| {
            let mut chain = tapped();
            for &(flow, payload) in payloads {
                chain.feed(flow, &record(ContentType::Handshake, payload));
            }
            GatewayTap::in_chain(&mut chain).take_observation(Timestamp(0), "d", "h")
        };
        let mut observed = 0;
        for case in with_corruptions(&hello) {
            let payloads = [(Flow::ClientToServer, &case[..])];
            let obs = observe(&payloads);
            assert_eq!(obs, decoded_observation(&payloads), "hello {case:02x?}");
            observed += usize::from(obs.is_some());
        }
        assert!(observed > 0);
        let mut issuers = 0;
        for case in with_corruptions(&flight) {
            let payloads = [
                (Flow::ClientToServer, &hello[..]),
                (Flow::ServerToClient, &case[..]),
            ];
            let obs = observe(&payloads).expect("the hello is intact");
            assert_eq!(
                Some(&obs),
                decoded_observation(&payloads).as_ref(),
                "flight {case:02x?}"
            );
            issuers += usize::from(obs.leaf_issuer.is_some());
        }
        assert!(issuers > 0);
    }

    #[test]
    fn reset_clears_the_previous_connection() {
        let mut chain = tapped();
        chain.feed(Flow::ClientToServer, &hello_bytes());
        GatewayTap::in_chain(&mut chain).reset();
        assert_eq!(GatewayTap::in_chain(&mut chain).records_deframed(), 0);
        assert!(GatewayTap::in_chain(&mut chain)
            .take_observation(Timestamp(0), "d", "h")
            .is_none());
    }
}
