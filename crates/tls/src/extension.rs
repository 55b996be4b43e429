//! TLS hello extensions (subset the reproduction needs).
//!
//! The extension *set and order* in a ClientHello is a core input to
//! TLS fingerprinting (§5.3 of the paper), so the codec preserves
//! both; unknown extensions survive as [`Extension::Raw`].
//! [`Extension::encode_into`] and [`encode_extensions_into`] write
//! extensions in place; [`Extension::decode`] and
//! [`decode_extensions`] read them, inside
//! [`HandshakeMessage::decode`](crate::handshake::HandshakeMessage::decode).

use crate::codec::{mark_u16, patch_u16, CodecError, Reader, WriteExt};
use crate::version::ProtocolVersion;

/// Extension type code points (IANA).
pub mod ext_type {
    /// server_name (SNI).
    pub const SERVER_NAME: u16 = 0;
    /// status_request (OCSP stapling).
    pub const STATUS_REQUEST: u16 = 5;
    /// supported_groups (named curves / FFDHE groups).
    pub const SUPPORTED_GROUPS: u16 = 10;
    /// ec_point_formats.
    pub const EC_POINT_FORMATS: u16 = 11;
    /// signature_algorithms.
    pub const SIGNATURE_ALGORITHMS: u16 = 13;
    /// application_layer_protocol_negotiation.
    pub const ALPN: u16 = 16;
    /// session_ticket.
    pub const SESSION_TICKET: u16 = 35;
    /// supported_versions (TLS 1.3).
    pub const SUPPORTED_VERSIONS: u16 = 43;
    /// key_share (TLS 1.3).
    pub const KEY_SHARE: u16 = 51;
    /// renegotiation_info.
    pub const RENEGOTIATION_INFO: u16 = 0xff01;
}

/// Signature scheme code points (subset).
pub mod sig_scheme {
    /// rsa_pkcs1_sha1 — deprecated.
    pub const RSA_PKCS1_SHA1: u16 = 0x0201;
    /// rsa_pkcs1_sha256.
    pub const RSA_PKCS1_SHA256: u16 = 0x0401;
    /// rsa_pss_rsae_sha256.
    pub const RSA_PSS_RSAE_SHA256: u16 = 0x0804;
    /// ecdsa_secp256r1_sha256.
    pub const ECDSA_SECP256R1_SHA256: u16 = 0x0403;
}

/// A decoded hello extension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Extension {
    /// SNI with a single DNS hostname.
    ServerName(String),
    /// OCSP stapling request (empty ocsp payload).
    StatusRequest,
    /// Named groups the client supports.
    SupportedGroups(Vec<u16>),
    /// EC point formats.
    EcPointFormats(Vec<u8>),
    /// Signature schemes the client accepts.
    SignatureAlgorithms(Vec<u16>),
    /// ALPN protocol names.
    Alpn(Vec<String>),
    /// Empty session ticket.
    SessionTicket,
    /// supported_versions list (client form).
    SupportedVersions(Vec<ProtocolVersion>),
    /// key_share (opaque in this reproduction).
    KeyShare(Vec<u8>),
    /// Empty renegotiation_info.
    RenegotiationInfo,
    /// Any extension the codec does not model.
    Raw {
        /// Extension type code point.
        typ: u16,
        /// Raw payload.
        data: Vec<u8>,
    },
}

impl Extension {
    /// The extension's type code point.
    pub fn typ(&self) -> u16 {
        match self {
            Extension::ServerName(_) => ext_type::SERVER_NAME,
            Extension::StatusRequest => ext_type::STATUS_REQUEST,
            Extension::SupportedGroups(_) => ext_type::SUPPORTED_GROUPS,
            Extension::EcPointFormats(_) => ext_type::EC_POINT_FORMATS,
            Extension::SignatureAlgorithms(_) => ext_type::SIGNATURE_ALGORITHMS,
            Extension::Alpn(_) => ext_type::ALPN,
            Extension::SessionTicket => ext_type::SESSION_TICKET,
            Extension::SupportedVersions(_) => ext_type::SUPPORTED_VERSIONS,
            Extension::KeyShare(_) => ext_type::KEY_SHARE,
            Extension::RenegotiationInfo => ext_type::RENEGOTIATION_INFO,
            Extension::Raw { typ, .. } => *typ,
        }
    }

    /// Appends the extension with its `type(u16) length(u16)` header,
    /// without materializing the payload in a temporary vector: length
    /// prefixes are reserved and backpatched after the content lands
    /// in place.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u16(self.typ());
        let ext_mark = mark_u16(out);
        match self {
            Extension::ServerName(host) => {
                let list_mark = mark_u16(out);
                out.put_u8(0); // name_type = host_name
                out.put_vec16(host.as_bytes());
                patch_u16(out, list_mark);
            }
            Extension::StatusRequest => {
                out.put_u8(1); // status_type = ocsp
                out.put_u16(0); // responder_id_list
                out.put_u16(0); // request_extensions
            }
            Extension::SupportedGroups(groups) => {
                let list_mark = mark_u16(out);
                for g in groups {
                    out.put_u16(*g);
                }
                patch_u16(out, list_mark);
            }
            Extension::EcPointFormats(formats) => {
                out.put_vec8(formats);
            }
            Extension::SignatureAlgorithms(schemes) => {
                let list_mark = mark_u16(out);
                for s in schemes {
                    out.put_u16(*s);
                }
                patch_u16(out, list_mark);
            }
            Extension::Alpn(protocols) => {
                let list_mark = mark_u16(out);
                for p in protocols {
                    out.put_vec8(p.as_bytes());
                }
                patch_u16(out, list_mark);
            }
            Extension::SessionTicket => {}
            Extension::SupportedVersions(versions) => {
                out.put_u8((versions.len() * 2) as u8);
                for v in versions {
                    out.put_u16(v.wire());
                }
            }
            Extension::KeyShare(data) => out.put_slice(data),
            Extension::RenegotiationInfo => out.put_u8(0),
            Extension::Raw { data, .. } => out.put_slice(data),
        }
        patch_u16(out, ext_mark);
    }

    /// Decodes one extension from `(typ, payload)`.
    pub fn decode(typ: u16, payload: &[u8]) -> Result<Extension, CodecError> {
        let mut r = Reader::new(payload);
        let ext = match typ {
            ext_type::SERVER_NAME => {
                let mut list = Reader::new(r.vec16()?);
                let name_type = list.u8()?;
                if name_type != 0 {
                    return Err(CodecError::IllegalValue("sni name_type"));
                }
                let host = list.vec16()?;
                list.finish()?;
                Extension::ServerName(
                    String::from_utf8(host.to_vec())
                        .map_err(|_| CodecError::IllegalValue("sni utf-8"))?,
                )
            }
            ext_type::STATUS_REQUEST => {
                let status_type = r.u8()?;
                if status_type != 1 {
                    return Err(CodecError::IllegalValue("status_type"));
                }
                r.vec16()?;
                r.vec16()?;
                Extension::StatusRequest
            }
            ext_type::SUPPORTED_GROUPS => {
                let mut list = Reader::new(r.vec16()?);
                let mut groups = Vec::new();
                while !list.is_empty() {
                    groups.push(list.u16()?);
                }
                Extension::SupportedGroups(groups)
            }
            ext_type::EC_POINT_FORMATS => Extension::EcPointFormats(r.vec8()?.to_vec()),
            ext_type::SIGNATURE_ALGORITHMS => {
                let mut list = Reader::new(r.vec16()?);
                let mut schemes = Vec::new();
                while !list.is_empty() {
                    schemes.push(list.u16()?);
                }
                Extension::SignatureAlgorithms(schemes)
            }
            ext_type::ALPN => {
                let mut list = Reader::new(r.vec16()?);
                let mut protocols = Vec::new();
                while !list.is_empty() {
                    protocols.push(
                        String::from_utf8(list.vec8()?.to_vec())
                            .map_err(|_| CodecError::IllegalValue("alpn utf-8"))?,
                    );
                }
                Extension::Alpn(protocols)
            }
            ext_type::SESSION_TICKET if payload.is_empty() => Extension::SessionTicket,
            ext_type::SUPPORTED_VERSIONS => {
                let mut list = Reader::new(r.vec8()?);
                let mut versions = Vec::new();
                while !list.is_empty() {
                    if let Some(v) = ProtocolVersion::from_wire(list.u16()?) {
                        versions.push(v);
                    }
                    // GREASE / unknown values are skipped, as real
                    // parsers do.
                }
                Extension::SupportedVersions(versions)
            }
            ext_type::KEY_SHARE => Extension::KeyShare(payload.to_vec()),
            ext_type::RENEGOTIATION_INFO if payload == [0] => Extension::RenegotiationInfo,
            _ => Extension::Raw {
                typ,
                data: payload.to_vec(),
            },
        };
        Ok(ext)
    }
}

/// Appends an extension block (u16 total length + entries), omitted
/// entirely when `exts` is empty. The u16 total length is reserved up
/// front and backpatched once every extension has been written in
/// place.
pub fn encode_extensions_into(exts: &[Extension], out: &mut Vec<u8>) {
    if exts.is_empty() {
        return; // extensions block omitted entirely, as old stacks do
    }
    let block_mark = mark_u16(out);
    for e in exts {
        e.encode_into(out);
    }
    patch_u16(out, block_mark);
}

/// Decodes an extension block; `r` may be empty (no extensions).
pub fn decode_extensions(r: &mut Reader) -> Result<Vec<Extension>, CodecError> {
    if r.is_empty() {
        return Ok(Vec::new());
    }
    let mut block = Reader::new(r.vec16()?);
    let mut out = Vec::new();
    while !block.is_empty() {
        let typ = block.u16()?;
        let payload = block.vec16()?;
        out.push(Extension::decode(typ, payload)?);
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The extension encoder's byte-identity oracle, written
    /// independently of it: the payload built in a vector of its own,
    /// every list in a temporary.
    fn legacy_extension_body(ext: &Extension) -> Vec<u8> {
        let mut out = Vec::new();
        match ext {
            Extension::ServerName(host) => {
                // server_name_list: one host_name entry.
                let mut entry = Vec::new();
                entry.put_u8(0); // name_type = host_name
                entry.put_vec16(host.as_bytes());
                out.put_vec16(&entry);
            }
            Extension::StatusRequest => {
                out.put_u8(1); // status_type = ocsp
                out.put_u16(0); // responder_id_list
                out.put_u16(0); // request_extensions
            }
            Extension::SupportedGroups(list) | Extension::SignatureAlgorithms(list) => {
                let mut codes = Vec::new();
                for c in list {
                    codes.put_u16(*c);
                }
                out.put_vec16(&codes);
            }
            Extension::EcPointFormats(formats) => out.put_vec8(formats),
            Extension::Alpn(protocols) => {
                let mut list = Vec::new();
                for p in protocols {
                    list.put_vec8(p.as_bytes());
                }
                out.put_vec16(&list);
            }
            Extension::SessionTicket => {}
            Extension::SupportedVersions(versions) => {
                let mut list = Vec::new();
                for v in versions {
                    list.put_u16(v.wire());
                }
                out.put_vec8(&list);
            }
            Extension::KeyShare(data) | Extension::Raw { data, .. } => out.put_slice(data),
            Extension::RenegotiationInfo => out.put_u8(0),
        }
        out
    }

    /// [`legacy_extension_body`] with the `type length` header.
    fn legacy_extension(ext: &Extension, out: &mut Vec<u8>) {
        out.put_u16(ext.typ());
        out.put_vec16(&legacy_extension_body(ext));
    }

    /// The extension block's oracle: every entry in a temporary block,
    /// omitted entirely when `exts` is empty.
    pub(crate) fn legacy_extension_block(exts: &[Extension], out: &mut Vec<u8>) {
        if exts.is_empty() {
            return;
        }
        let mut block = Vec::new();
        for e in exts {
            legacy_extension(e, &mut block);
        }
        out.put_vec16(&block);
    }

    fn roundtrip(ext: Extension) {
        let mut buf = Vec::new();
        ext.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let typ = r.u16().unwrap();
        let payload = r.vec16().unwrap();
        let decoded = Extension::decode(typ, payload).unwrap();
        assert_eq!(decoded, ext);
    }

    #[test]
    fn sni_roundtrip() {
        roundtrip(Extension::ServerName("device.cloud.example.com".into()));
    }

    #[test]
    fn status_request_roundtrip() {
        roundtrip(Extension::StatusRequest);
    }

    #[test]
    fn groups_and_formats_roundtrip() {
        roundtrip(Extension::SupportedGroups(vec![0x001d, 0x0017, 0x0018]));
        roundtrip(Extension::EcPointFormats(vec![0]));
    }

    #[test]
    fn signature_algorithms_roundtrip() {
        roundtrip(Extension::SignatureAlgorithms(vec![
            sig_scheme::RSA_PKCS1_SHA256,
            sig_scheme::RSA_PKCS1_SHA1,
        ]));
    }

    #[test]
    fn alpn_roundtrip() {
        roundtrip(Extension::Alpn(vec!["h2".into(), "http/1.1".into()]));
    }

    #[test]
    fn supported_versions_roundtrip() {
        roundtrip(Extension::SupportedVersions(vec![
            ProtocolVersion::Tls13,
            ProtocolVersion::Tls12,
        ]));
    }

    #[test]
    fn session_ticket_and_reneg_roundtrip() {
        roundtrip(Extension::SessionTicket);
        roundtrip(Extension::RenegotiationInfo);
    }

    #[test]
    fn raw_extension_preserved() {
        roundtrip(Extension::Raw {
            typ: 0x4a4a,
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn extension_block_roundtrip_preserves_order() {
        let exts = vec![
            Extension::ServerName("a.example.com".into()),
            Extension::SupportedGroups(vec![29, 23]),
            Extension::SignatureAlgorithms(vec![0x0401]),
            Extension::SupportedVersions(vec![ProtocolVersion::Tls12]),
        ];
        let mut buf = Vec::new();
        encode_extensions_into(&exts, &mut buf);
        let mut r = Reader::new(&buf);
        let decoded = decode_extensions(&mut r).unwrap();
        assert_eq!(decoded, exts);
    }

    #[test]
    fn empty_extension_block_roundtrip() {
        let mut buf = Vec::new();
        encode_extensions_into(&[], &mut buf);
        assert!(buf.is_empty());
        let mut r = Reader::new(&buf);
        assert!(decode_extensions(&mut r).unwrap().is_empty());
    }

    #[test]
    fn malformed_sni_rejected() {
        // name_type = 7 is illegal.
        let mut payload = Vec::new();
        let mut entry = Vec::new();
        entry.put_u8(7);
        entry.put_vec16(b"x");
        payload.put_vec16(&entry);
        assert!(Extension::decode(ext_type::SERVER_NAME, &payload).is_err());
    }

    #[test]
    fn encode_into_matches_legacy_encode() {
        let exts = vec![
            Extension::ServerName("a.example.com".into()),
            Extension::StatusRequest,
            Extension::SupportedGroups(vec![29, 23, 24]),
            Extension::EcPointFormats(vec![0]),
            Extension::SignatureAlgorithms(vec![0x0401, 0x0201]),
            Extension::Alpn(vec!["h2".into(), "http/1.1".into()]),
            Extension::SessionTicket,
            Extension::SupportedVersions(vec![
                ProtocolVersion::Tls13,
                ProtocolVersion::Tls12,
            ]),
            Extension::KeyShare(vec![1, 2, 3]),
            Extension::RenegotiationInfo,
            Extension::Raw {
                typ: 0x4a4a,
                data: vec![9, 8],
            },
        ];
        for e in &exts {
            let mut legacy = Vec::new();
            legacy_extension(e, &mut legacy);
            let mut inplace = Vec::new();
            e.encode_into(&mut inplace);
            assert_eq!(inplace, legacy, "{e:?}");
        }
        let mut legacy = Vec::new();
        legacy_extension_block(&exts, &mut legacy);
        let mut inplace = Vec::new();
        encode_extensions_into(&exts, &mut inplace);
        assert_eq!(inplace, legacy);
    }

    #[test]
    fn unknown_supported_version_values_skipped() {
        // GREASE value 0x0a0a then TLS 1.2.
        let mut payload = Vec::new();
        payload.put_vec8(&{
            let mut l = Vec::new();
            l.put_u16(0x0a0a);
            l.put_u16(0x0303);
            l
        });
        let decoded = Extension::decode(ext_type::SUPPORTED_VERSIONS, &payload).unwrap();
        assert_eq!(
            decoded,
            Extension::SupportedVersions(vec![ProtocolVersion::Tls12])
        );
    }
}
