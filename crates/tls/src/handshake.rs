//! Handshake message structures and wire codec (RFC 5246 §7.4 shape).
//!
//! The grammar is written once per direction:
//! [`HandshakeMessage::encode_into`] writes a message and
//! [`HandshakeMessage::decode`] reads one. The endpoints and the
//! gateway tap both read through `decode`, so the tap records exactly
//! the messages an endpoint accepts; the middleware chain's dispatch
//! uses only its header split to find the bodies its staged hooks
//! see.

use crate::codec::{mark_u16, mark_u24, patch_u16, patch_u24, CodecError, Reader, WriteExt};
use crate::extension::{decode_extensions, encode_extensions_into, Extension};
use crate::version::ProtocolVersion;

/// Handshake message type code points.
pub mod msg_type {
    /// client_hello (1).
    pub const CLIENT_HELLO: u8 = 1;
    /// server_hello (2).
    pub const SERVER_HELLO: u8 = 2;
    /// certificate (11).
    pub const CERTIFICATE: u8 = 11;
    /// server_key_exchange (12).
    pub const SERVER_KEY_EXCHANGE: u8 = 12;
    /// server_hello_done (14).
    pub const SERVER_HELLO_DONE: u8 = 14;
    /// certificate_status (22).
    pub const CERTIFICATE_STATUS: u8 = 22;
    /// client_key_exchange (16).
    pub const CLIENT_KEY_EXCHANGE: u8 = 16;
    /// finished (20).
    pub const FINISHED: u8 = 20;
}

/// A ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// legacy_version field (maximum version for pre-1.3 stacks).
    pub legacy_version: ProtocolVersion,
    /// 32-byte client random.
    pub random: [u8; 32],
    /// Session id (unused by the simulator but carried on the wire).
    pub session_id: Vec<u8>,
    /// Offered ciphersuite code points, in preference order.
    pub cipher_suites: Vec<u16>,
    /// Compression methods (always `[0]` here).
    pub compression_methods: Vec<u8>,
    /// Extensions, in order.
    pub extensions: Vec<Extension>,
}

impl ClientHello {
    /// Decodes a ClientHello *body* (the bytes after the 4-byte
    /// handshake header).
    fn decode_body(body: &[u8]) -> Result<ClientHello, CodecError> {
        let mut b = Reader::new(body);
        let legacy_version = ProtocolVersion::from_wire(b.u16()?)
            .ok_or(CodecError::IllegalValue("client version"))?;
        let mut random = [0u8; 32];
        random.copy_from_slice(b.take(32)?);
        let session_id = b.vec8()?.to_vec();
        let mut suites_reader = Reader::new(b.vec16()?);
        let mut cipher_suites = Vec::new();
        while !suites_reader.is_empty() {
            cipher_suites.push(suites_reader.u16()?);
        }
        let compression_methods = b.vec8()?.to_vec();
        let extensions = decode_extensions(&mut b)?;
        b.finish()?;
        Ok(ClientHello {
            legacy_version,
            random,
            session_id,
            cipher_suites,
            compression_methods,
            extensions,
        })
    }

    /// The SNI hostname, if present.
    pub fn server_name(&self) -> Option<&str> {
        self.extensions.iter().find_map(|e| match e {
            Extension::ServerName(h) => Some(h.as_str()),
            _ => None,
        })
    }

    /// All protocol versions this hello advertises: the
    /// supported_versions extension when present (TLS 1.3 style),
    /// otherwise every version up to `legacy_version`.
    pub fn advertised_versions(&self) -> Vec<ProtocolVersion> {
        for e in &self.extensions {
            if let Extension::SupportedVersions(vs) = e {
                return vs.clone();
            }
        }
        ProtocolVersion::ALL
            .into_iter()
            .filter(|v| *v <= self.legacy_version)
            .collect()
    }

    /// The maximum version advertised.
    pub fn max_version(&self) -> ProtocolVersion {
        self.advertised_versions()
            .into_iter()
            .max()
            .unwrap_or(self.legacy_version)
    }

    /// True when the hello requests an OCSP staple.
    pub fn requests_ocsp(&self) -> bool {
        self.extensions
            .iter()
            .any(|e| matches!(e, Extension::StatusRequest))
    }
}

/// A ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Negotiated protocol version.
    pub version: ProtocolVersion,
    /// 32-byte server random.
    pub random: [u8; 32],
    /// Echoed session id.
    pub session_id: Vec<u8>,
    /// Selected ciphersuite.
    pub cipher_suite: u16,
    /// Selected compression (always 0).
    pub compression_method: u8,
    /// Extensions.
    pub extensions: Vec<Extension>,
}

/// Server key exchange (DHE parameters, signed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerKeyExchange {
    /// Ephemeral DH public value.
    pub dh_public: Vec<u8>,
    /// Signature over (client_random || server_random || dh_public).
    pub signature: Vec<u8>,
}

/// A handshake-layer message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMessage {
    /// Client's opening flight.
    ClientHello(ClientHello),
    /// Server's parameter selection.
    ServerHello(ServerHello),
    /// Certificate chain, leaf first; entries are encoded certs.
    Certificate(Vec<Vec<u8>>),
    /// Signed ephemeral DH parameters.
    ServerKeyExchange(ServerKeyExchange),
    /// Stapled OCSP response bytes.
    CertificateStatus(Vec<u8>),
    /// End of the server's first flight.
    ServerHelloDone,
    /// RSA-encrypted premaster secret or client DH public.
    ClientKeyExchange(Vec<u8>),
    /// Verify data.
    Finished(Vec<u8>),
}

impl HandshakeMessage {
    fn type_code(&self) -> u8 {
        match self {
            HandshakeMessage::ClientHello(_) => msg_type::CLIENT_HELLO,
            HandshakeMessage::ServerHello(_) => msg_type::SERVER_HELLO,
            HandshakeMessage::Certificate(_) => msg_type::CERTIFICATE,
            HandshakeMessage::ServerKeyExchange(_) => msg_type::SERVER_KEY_EXCHANGE,
            HandshakeMessage::CertificateStatus(_) => msg_type::CERTIFICATE_STATUS,
            HandshakeMessage::ServerHelloDone => msg_type::SERVER_HELLO_DONE,
            HandshakeMessage::ClientKeyExchange(_) => msg_type::CLIENT_KEY_EXCHANGE,
            HandshakeMessage::Finished(_) => msg_type::FINISHED,
        }
    }

    /// Appends the message, with its 4-byte handshake header, to a
    /// caller-owned buffer with no intermediate body vector: every
    /// length prefix (the u24 header and the nested list lengths) is
    /// reserved and backpatched once its content has been written in
    /// place. The one handshake encoder; the endpoints write every
    /// message through it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u8(self.type_code());
        let body_mark = mark_u24(out);
        match self {
            HandshakeMessage::ClientHello(ch) => {
                out.put_u16(ch.legacy_version.wire());
                out.put_slice(&ch.random);
                out.put_vec8(&ch.session_id);
                let suites_mark = mark_u16(out);
                for s in &ch.cipher_suites {
                    out.put_u16(*s);
                }
                patch_u16(out, suites_mark);
                out.put_vec8(&ch.compression_methods);
                encode_extensions_into(&ch.extensions, out);
            }
            HandshakeMessage::ServerHello(sh) => {
                out.put_u16(sh.version.wire());
                out.put_slice(&sh.random);
                out.put_vec8(&sh.session_id);
                out.put_u16(sh.cipher_suite);
                out.put_u8(sh.compression_method);
                encode_extensions_into(&sh.extensions, out);
            }
            HandshakeMessage::Certificate(chain) => {
                let list_mark = mark_u24(out);
                for cert in chain {
                    out.put_vec24(cert);
                }
                patch_u24(out, list_mark);
            }
            HandshakeMessage::ServerKeyExchange(ske) => {
                out.put_vec16(&ske.dh_public);
                out.put_vec16(&ske.signature);
            }
            HandshakeMessage::CertificateStatus(staple) => {
                out.put_u8(1); // status_type = ocsp
                out.put_vec24(staple);
            }
            HandshakeMessage::ServerHelloDone => {}
            HandshakeMessage::ClientKeyExchange(payload) => {
                out.put_vec16(payload);
            }
            HandshakeMessage::Finished(verify_data) => {
                out.put_slice(verify_data);
            }
        }
        patch_u24(out, body_mark);
    }

    /// Decodes one handshake message; returns the message and the
    /// number of bytes consumed. The one handshake parser: the
    /// endpoints and the gateway tap both read messages through it.
    pub fn decode(data: &[u8]) -> Result<(HandshakeMessage, usize), CodecError> {
        let (typ, body, consumed) = next_raw_message(data)?;
        let mut b = Reader::new(body);
        let msg = match typ {
            msg_type::CLIENT_HELLO => {
                HandshakeMessage::ClientHello(ClientHello::decode_body(body)?)
            }
            msg_type::SERVER_HELLO => {
                let version = ProtocolVersion::from_wire(b.u16()?)
                    .ok_or(CodecError::IllegalValue("server version"))?;
                let mut random = [0u8; 32];
                random.copy_from_slice(b.take(32)?);
                let session_id = b.vec8()?.to_vec();
                let cipher_suite = b.u16()?;
                let compression_method = b.u8()?;
                let extensions = decode_extensions(&mut b)?;
                b.finish()?;
                HandshakeMessage::ServerHello(ServerHello {
                    version,
                    random,
                    session_id,
                    cipher_suite,
                    compression_method,
                    extensions,
                })
            }
            msg_type::CERTIFICATE => {
                let mut list = Reader::new(b.vec24()?);
                let mut chain = Vec::new();
                while !list.is_empty() {
                    chain.push(list.vec24()?.to_vec());
                }
                b.finish()?;
                HandshakeMessage::Certificate(chain)
            }
            msg_type::SERVER_KEY_EXCHANGE => {
                let dh_public = b.vec16()?.to_vec();
                let signature = b.vec16()?.to_vec();
                b.finish()?;
                HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
                    dh_public,
                    signature,
                })
            }
            msg_type::CERTIFICATE_STATUS => {
                let status_type = b.u8()?;
                if status_type != 1 {
                    return Err(CodecError::IllegalValue("status_type"));
                }
                let staple = b.vec24()?.to_vec();
                b.finish()?;
                HandshakeMessage::CertificateStatus(staple)
            }
            msg_type::SERVER_HELLO_DONE => {
                b.finish()?;
                HandshakeMessage::ServerHelloDone
            }
            msg_type::CLIENT_KEY_EXCHANGE => {
                let payload = b.vec16()?.to_vec();
                b.finish()?;
                HandshakeMessage::ClientKeyExchange(payload)
            }
            msg_type::FINISHED => HandshakeMessage::Finished(body.to_vec()),
            _ => return Err(CodecError::IllegalValue("handshake type")),
        };
        Ok((msg, consumed))
    }
}

/// Splits the next handshake message off `data` without copying,
/// returning `(type code, borrowed body, bytes consumed)`: the header
/// parse of [`HandshakeMessage::decode`], which the middleware chain's
/// dispatch also uses to find the message bodies its staged hooks
/// see.
pub(crate) fn next_raw_message(data: &[u8]) -> Result<(u8, &[u8], usize), CodecError> {
    let mut r = Reader::new(data);
    let typ = r.u8()?;
    let body = r.vec24()?;
    Ok((typ, body, data.len() - r.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::sig_scheme;
    use crate::extension::tests::legacy_extension_block;

    /// `msg` written by the production encoder.
    fn encoded(msg: &HandshakeMessage) -> Vec<u8> {
        let mut out = Vec::new();
        msg.encode_into(&mut out);
        out
    }

    /// The encoder's byte-identity oracle, written independently of
    /// it: the body built in a vector of its own, every list in a
    /// temporary, then framed with the 4-byte header.
    fn legacy_encode(msg: &HandshakeMessage) -> Vec<u8> {
        let mut body = Vec::new();
        match msg {
            HandshakeMessage::ClientHello(ch) => {
                body.put_u16(ch.legacy_version.wire());
                body.put_slice(&ch.random);
                body.put_vec8(&ch.session_id);
                let mut suites = Vec::new();
                for s in &ch.cipher_suites {
                    suites.put_u16(*s);
                }
                body.put_vec16(&suites);
                body.put_vec8(&ch.compression_methods);
                legacy_extension_block(&ch.extensions, &mut body);
            }
            HandshakeMessage::ServerHello(sh) => {
                body.put_u16(sh.version.wire());
                body.put_slice(&sh.random);
                body.put_vec8(&sh.session_id);
                body.put_u16(sh.cipher_suite);
                body.put_u8(sh.compression_method);
                legacy_extension_block(&sh.extensions, &mut body);
            }
            HandshakeMessage::Certificate(chain) => {
                let mut list = Vec::new();
                for cert in chain {
                    list.put_vec24(cert);
                }
                body.put_vec24(&list);
            }
            HandshakeMessage::ServerKeyExchange(ske) => {
                body.put_vec16(&ske.dh_public);
                body.put_vec16(&ske.signature);
            }
            HandshakeMessage::CertificateStatus(staple) => {
                body.put_u8(1); // status_type = ocsp
                body.put_vec24(staple);
            }
            HandshakeMessage::ServerHelloDone => {}
            HandshakeMessage::ClientKeyExchange(kx) => body.put_vec16(kx),
            HandshakeMessage::Finished(verify_data) => body.put_slice(verify_data),
        }
        let mut out = Vec::with_capacity(body.len() + 4);
        out.put_u8(msg.type_code());
        out.put_vec24(&body);
        out
    }

    fn sample_client_hello() -> ClientHello {
        ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [7u8; 32],
            session_id: vec![],
            cipher_suites: vec![0xc02f, 0xc030, 0x009c, 0x0005],
            compression_methods: vec![0],
            extensions: vec![
                Extension::ServerName("iot.example.com".into()),
                Extension::SupportedGroups(vec![29, 23, 24]),
                Extension::SignatureAlgorithms(vec![sig_scheme::RSA_PKCS1_SHA256]),
            ],
        }
    }

    fn roundtrip(msg: HandshakeMessage) -> HandshakeMessage {
        let encoded = encoded(&msg);
        let (decoded, consumed) = HandshakeMessage::decode(&encoded).unwrap();
        assert_eq!(consumed, encoded.len());
        assert_eq!(decoded, msg);
        decoded
    }

    #[test]
    fn client_hello_roundtrip() {
        roundtrip(HandshakeMessage::ClientHello(sample_client_hello()));
    }

    #[test]
    fn server_hello_roundtrip() {
        roundtrip(HandshakeMessage::ServerHello(ServerHello {
            version: ProtocolVersion::Tls12,
            random: [9u8; 32],
            session_id: vec![1, 2, 3],
            cipher_suite: 0xc02f,
            compression_method: 0,
            extensions: vec![Extension::RenegotiationInfo],
        }));
    }

    #[test]
    fn certificate_chain_roundtrip() {
        roundtrip(HandshakeMessage::Certificate(vec![
            vec![1; 100],
            vec![2; 200],
        ]));
        roundtrip(HandshakeMessage::Certificate(vec![]));
    }

    #[test]
    fn other_messages_roundtrip() {
        roundtrip(HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
            dh_public: vec![5; 96],
            signature: vec![6; 64],
        }));
        roundtrip(HandshakeMessage::CertificateStatus(vec![8; 50]));
        roundtrip(HandshakeMessage::ServerHelloDone);
        roundtrip(HandshakeMessage::ClientKeyExchange(vec![3; 64]));
        roundtrip(HandshakeMessage::Finished(vec![4; 12]));
    }

    #[test]
    fn decode_reports_consumed_for_concatenated_messages() {
        let mut buf = encoded(&HandshakeMessage::ServerHelloDone);
        HandshakeMessage::Finished(vec![1, 2, 3]).encode_into(&mut buf);
        let (msg1, used1) = HandshakeMessage::decode(&buf).unwrap();
        assert_eq!(msg1, HandshakeMessage::ServerHelloDone);
        let (msg2, used2) = HandshakeMessage::decode(&buf[used1..]).unwrap();
        assert_eq!(msg2, HandshakeMessage::Finished(vec![1, 2, 3]));
        assert_eq!(used1 + used2, buf.len());
    }

    #[test]
    fn truncated_messages_rejected() {
        let encoded = encoded(&HandshakeMessage::ClientHello(sample_client_hello()));
        for cut in 1..encoded.len().min(40) {
            assert!(HandshakeMessage::decode(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = vec![99u8];
        buf.put_vec24(&[]);
        assert!(HandshakeMessage::decode(&buf).is_err());
    }

    fn sample_messages() -> Vec<HandshakeMessage> {
        vec![
            HandshakeMessage::ClientHello(sample_client_hello()),
            HandshakeMessage::ServerHello(ServerHello {
                version: ProtocolVersion::Tls12,
                random: [9u8; 32],
                session_id: vec![1, 2, 3],
                cipher_suite: 0xc02f,
                compression_method: 0,
                extensions: vec![Extension::RenegotiationInfo],
            }),
            HandshakeMessage::Certificate(vec![vec![1; 40], vec![2; 60]]),
            HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
                dh_public: vec![5; 96],
                signature: vec![6; 64],
            }),
            HandshakeMessage::CertificateStatus(vec![8; 50]),
            HandshakeMessage::ServerHelloDone,
            HandshakeMessage::ClientKeyExchange(vec![3; 64]),
            HandshakeMessage::Finished(vec![4; 12]),
        ]
    }

    #[test]
    fn encode_into_matches_legacy_encode() {
        for msg in sample_messages() {
            let mut inplace = Vec::new();
            msg.encode_into(&mut inplace);
            assert_eq!(inplace, legacy_encode(&msg), "{msg:?}");
        }
        // Degenerate shapes the samples miss: empty chain, empty
        // session id with no extensions.
        for msg in [
            HandshakeMessage::Certificate(vec![]),
            HandshakeMessage::ClientHello(ClientHello {
                legacy_version: ProtocolVersion::Tls10,
                random: [0u8; 32],
                session_id: vec![],
                cipher_suites: vec![],
                compression_methods: vec![0],
                extensions: vec![],
            }),
        ] {
            let mut inplace = Vec::new();
            msg.encode_into(&mut inplace);
            assert_eq!(inplace, legacy_encode(&msg), "{msg:?}");
        }
    }

    #[test]
    fn raw_skim_agrees_with_decode() {
        // The chain's dispatch splits messages with next_raw_message
        // and the endpoints read them with decode: on the valid
        // encoding and every single-byte corruption, a split decode
        // accepts consumes what the split consumed, and a header the
        // split rejects, decode rejects with the same error.
        for msg in sample_messages() {
            let encoded = encoded(&msg);
            let mut cases = vec![encoded.clone()];
            for i in 0..encoded.len() {
                for delta in [1u8, 0x80] {
                    let mut c = encoded.clone();
                    c[i] = c[i].wrapping_add(delta);
                    cases.push(c);
                }
            }
            for case in cases {
                let split = next_raw_message(&case);
                let decoded = HandshakeMessage::decode(&case);
                match (&split, &decoded) {
                    (Ok((_, body, used_s)), Ok((_, used_d))) => {
                        assert_eq!(used_s, used_d);
                        assert_eq!(*used_s, 4 + body.len());
                    }
                    (Err(se), Err(de)) => assert_eq!(se, de, "error mismatch on {case:02x?}"),
                    // The header splits; decode rejects the body.
                    (Ok(_), Err(_)) => {}
                    (Err(_), Ok(_)) => {
                        panic!("decode/split diverge on {case:02x?}: {decoded:?} vs {split:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn advertised_versions_without_extension() {
        let ch = sample_client_hello();
        assert_eq!(
            ch.advertised_versions(),
            vec![
                ProtocolVersion::Ssl30,
                ProtocolVersion::Tls10,
                ProtocolVersion::Tls11,
                ProtocolVersion::Tls12
            ]
        );
        assert_eq!(ch.max_version(), ProtocolVersion::Tls12);
    }

    #[test]
    fn advertised_versions_with_extension() {
        let mut ch = sample_client_hello();
        ch.extensions.push(Extension::SupportedVersions(vec![
            ProtocolVersion::Tls13,
            ProtocolVersion::Tls12,
        ]));
        assert_eq!(
            ch.advertised_versions(),
            vec![ProtocolVersion::Tls13, ProtocolVersion::Tls12]
        );
        assert_eq!(ch.max_version(), ProtocolVersion::Tls13);
    }

    #[test]
    fn sni_and_ocsp_accessors() {
        let mut ch = sample_client_hello();
        assert_eq!(ch.server_name(), Some("iot.example.com"));
        assert!(!ch.requests_ocsp());
        ch.extensions.push(Extension::StatusRequest);
        assert!(ch.requests_ocsp());
    }
}
