//! Passive gateway tap.
//!
//! The paper's passive experiments record traffic at the home gateway
//! and later extract handshake metadata from pcaps. [`GatewayTap`]
//! does the equivalent: a [`Middleware`] that rides the session's
//! [`Chain`] — fed the conditioned bytes of both link directions by
//! the session driver — and parses ClientHello / ServerHello /
//! Certificate / Alert records *without participating in the
//! connection*. The result is a [`TlsObservation`] — the unit every
//! longitudinal analysis (Figures 1–3, Table 8) consumes.
//!
//! [`Chain`]: iotls_tls::middleware::Chain

use iotls_tls::alert::{Alert, AlertDescription};
use iotls_tls::fingerprint::{Fingerprint, FingerprintId};
use iotls_tls::handshake::{
    first_certificate, msg_type, next_raw_message, server_hello_fields, validate_body, ClientHello,
};
use iotls_tls::middleware::{Flow, Middleware, Verdict};
use iotls_tls::record::ContentType;
use iotls_tls::version::ProtocolVersion;
use iotls_x509::Timestamp;

/// Handshake metadata extracted by passively watching one connection.
#[derive(Debug, Clone)]
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
/// hook skims every record the chain deframes.
///
/// [`Chain`]: iotls_tls::middleware::Chain
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

    /// Skims one complete record: handshake bodies are scanned as
    /// borrowed slices; the only allocation is the ClientHello itself
    /// (and the leaf issuer name), which the observation keeps.
    fn observe_record(&mut self, flow: Flow, content_type: ContentType, payload: &[u8]) {
        self.records_deframed += 1;
        match content_type {
            ContentType::Handshake => {
                let mut buf = payload;
                while let Ok((typ, body, used)) = next_raw_message(buf) {
                    let valid = match (flow, typ) {
                        (Flow::ClientToServer, msg_type::CLIENT_HELLO) => {
                            match ClientHello::decode_body(body) {
                                Ok(ch) => {
                                    self.client_hello = Some(ch);
                                    true
                                }
                                Err(_) => false,
                            }
                        }
                        (Flow::ServerToClient, msg_type::SERVER_HELLO) => {
                            match server_hello_fields(body) {
                                Ok((version, suite)) => {
                                    self.negotiated_version = Some(version);
                                    self.negotiated_suite = Some(suite);
                                    true
                                }
                                Err(_) => false,
                            }
                        }
                        (Flow::ServerToClient, msg_type::CERTIFICATE) => {
                            match first_certificate(body) {
                                Ok(leaf) => {
                                    if let Some(leaf_bytes) = leaf {
                                        if let Ok(cert) =
                                            iotls_x509::Certificate::from_bytes(leaf_bytes)
                                        {
                                            self.leaf_issuer =
                                                Some(cert.tbs.issuer.common_name.clone());
                                        }
                                    }
                                    true
                                }
                                Err(_) => false,
                            }
                        }
                        (Flow::ServerToClient, msg_type::CERTIFICATE_STATUS) => {
                            let ok = validate_body(typ, body).is_ok();
                            if ok {
                                self.ocsp_stapled = true;
                            }
                            ok
                        }
                        (Flow::ServerToClient, msg_type::FINISHED) => {
                            self.server_finished = true;
                            true
                        }
                        _ => validate_body(typ, body).is_ok(),
                    };
                    if !valid {
                        break;
                    }
                    buf = &buf[used..];
                    if buf.is_empty() {
                        break;
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

/// The tap's only hook: an observe-only skim of every record.
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
    use iotls_tls::middleware::Chain;
    use iotls_tls::record::Record;
    use iotls_tls::HandshakeMessage;

    fn hello_bytes() -> Vec<u8> {
        let ch = ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [1u8; 32],
            session_id: vec![],
            cipher_suites: vec![0xc02f, 0x0005],
            compression_methods: vec![0],
            extensions: vec![iotls_tls::Extension::ServerName("dev.example.com".into())],
        };
        let msg = HandshakeMessage::ClientHello(ch).encode();
        Record::new(ContentType::Handshake, ProtocolVersion::Tls12, msg).encode()
    }

    /// A session chain with a fresh tap at slot 0.
    fn tapped() -> Chain {
        let mut chain = Chain::new().with(Box::new(GatewayTap::new()));
        chain.begin_session();
        chain
    }

    fn tap(chain: &mut Chain) -> &mut GatewayTap {
        chain.middleware_mut::<GatewayTap>(0).unwrap()
    }

    #[test]
    fn tap_extracts_client_hello_metadata() {
        let mut chain = tapped();
        chain.feed(Flow::ClientToServer, &hello_bytes());
        let obs = tap(&mut chain)
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
        let sh_bytes = Record::new(
            ContentType::Handshake,
            ProtocolVersion::Tls12,
            HandshakeMessage::ServerHello(sh).encode(),
        )
        .encode();
        chain.feed(Flow::ServerToClient, &sh_bytes);
        let alert = Alert::fatal(AlertDescription::UnknownCa);
        let alert_bytes = Record::new(
            ContentType::Alert,
            ProtocolVersion::Tls12,
            alert.to_bytes().to_vec(),
        )
        .encode();
        chain.feed(Flow::ClientToServer, &alert_bytes);
        assert_eq!(tap(&mut chain).records_deframed(), 3);
        let obs = tap(&mut chain)
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
        let obs = tap(&mut chain).take_observation(Timestamp(0), "d", "h");
        assert_eq!(obs.unwrap().sni.as_deref(), Some("dev.example.com"));
    }

    #[test]
    fn app_data_marks_established() {
        let mut chain = tapped();
        chain.feed(Flow::ClientToServer, &hello_bytes());
        let app = Record::new(
            ContentType::ApplicationData,
            ProtocolVersion::Tls12,
            vec![0xaa; 16],
        )
        .encode();
        chain.feed(Flow::ServerToClient, &app);
        let obs = tap(&mut chain)
            .take_observation(Timestamp(0), "d", "h")
            .unwrap();
        assert!(obs.established);
    }

    #[test]
    fn reset_clears_the_previous_connection() {
        let mut chain = tapped();
        chain.feed(Flow::ClientToServer, &hello_bytes());
        tap(&mut chain).reset();
        assert_eq!(tap(&mut chain).records_deframed(), 0);
        assert!(tap(&mut chain)
            .take_observation(Timestamp(0), "d", "h")
            .is_none());
    }
}
