//! Dataset (de)serialization — the "publicly available longitudinal
//! TLS handshake data" deliverable, in JSON (via the crate's own
//! dependency-free [`crate::json`] codec).
//!
//! One writer, [`to_json_columnar`], walks the chunks and resolves
//! symbols at the edge. [`from_json`] parses each record into a
//! [`TlsObservation`] and pushes it through a [`DatasetBuilder`], so a
//! parsed document re-exports byte for byte.

use crate::columnar::{ColumnarDataset, DatasetBuilder};
use crate::dataset::{RevocationFlow, RevocationKind};
use crate::json::Json;
use iotls_simnet::TlsObservation;
use iotls_tls::alert::AlertDescription;
use iotls_tls::fingerprint::FingerprintId;
use iotls_tls::version::ProtocolVersion;
use iotls_x509::Timestamp;

/// Exactly 32 ASCII hex digits, as `FingerprintId`'s `Display` writes
/// them; anything else (a sign, a multi-byte character) is `None`.
fn fp_from_hex(s: &str) -> Option<FingerprintId> {
    let hex = s.as_bytes();
    if hex.len() != 32 {
        return None;
    }
    let nibble = |b: u8| char::from(b).to_digit(16);
    let mut out = [0u8; 16];
    for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        *byte = (nibble(pair[0])? << 4 | nibble(pair[1])?) as u8;
    }
    Some(FingerprintId(out))
}

fn opt_str(v: &Json) -> Option<Option<String>> {
    match v {
        Json::Null => Some(None),
        Json::Str(s) => Some(Some(s.clone())),
        _ => None,
    }
}

fn opt_u16(v: &Json) -> Option<Option<u16>> {
    match v {
        Json::Null => Some(None),
        other => other.as_u16().map(Some),
    }
}

/// An array of `item`s. A row's lists are spans of at most `u16::MAX`
/// entries in the columns, so a longer one is malformed.
fn list<T>(v: &Json, item: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
    let items = v.as_arr()?;
    if items.len() > usize::from(u16::MAX) {
        return None;
    }
    items.iter().map(item).collect()
}

fn version(v: &Json) -> Option<ProtocolVersion> {
    ProtocolVersion::from_wire(v.as_u16()?)
}

fn alert(v: &Json) -> Option<AlertDescription> {
    v.as_u8().map(AlertDescription::from_wire)
}

/// One observation record and its connection count. `None` for a
/// missing or mistyped field, an unknown version, an empty advertised
/// list or a malformed fingerprint.
fn observation(v: &Json) -> Option<(TlsObservation, u64)> {
    let advertised_versions = list(v.get("advertised_versions")?, version)?;
    let max_advertised = advertised_versions.iter().copied().max()?;
    let observation = TlsObservation {
        time: Timestamp(v.get("time")?.as_i64()?),
        device: v.get("device")?.as_str()?.to_string(),
        destination: v.get("destination")?.as_str()?.to_string(),
        sni: opt_str(v.get("sni")?)?,
        advertised_versions,
        max_advertised,
        offered_suites: list(v.get("offered_suites")?, Json::as_u16)?,
        requested_ocsp: v.get("requested_ocsp")?.as_bool()?,
        fingerprint: fp_from_hex(v.get("fingerprint")?.as_str()?)?,
        negotiated_version: match opt_u16(v.get("negotiated_version")?)? {
            Some(w) => Some(ProtocolVersion::from_wire(w)?),
            None => None,
        },
        negotiated_suite: opt_u16(v.get("negotiated_suite")?)?,
        ocsp_stapled: v.get("ocsp_stapled")?.as_bool()?,
        leaf_issuer: opt_str(v.get("leaf_issuer")?)?,
        established: v.get("established")?.as_bool()?,
        alerts_from_client: list(v.get("alerts_from_client")?, alert)?,
        alerts_from_server: list(v.get("alerts_from_server")?, alert)?,
    };
    Some((observation, v.get("count")?.as_u64()?))
}

fn flow(v: &Json) -> Option<RevocationFlow> {
    Some(RevocationFlow {
        time: Timestamp(v.get("time")?.as_i64()?),
        device: v.get("device")?.as_str()?.to_string(),
        kind: match v.get("kind")?.as_str()? {
            "crl" => RevocationKind::CrlFetch,
            "ocsp" => RevocationKind::OcspQuery,
            _ => return None,
        },
        url: v.get("url")?.as_str()?.to_string(),
        count: v.get("count")?.as_u64()?,
    })
}

/// Serializes the dataset to JSON straight off the chunks: one object
/// per row in chunk order, then the revocation flows and the
/// truncation tally. [`from_json`] reads it back.
pub fn to_json_columnar(ds: &ColumnarDataset) -> String {
    let observations: Vec<Json> = ds
        .rows()
        .map(|r| {
            Json::Obj(vec![
                ("time".into(), r.raw.time().into()),
                ("device".into(), r.device_name().into()),
                ("destination".into(), r.destination().into()),
                ("sni".into(), r.sni().into()),
                (
                    "advertised_versions".into(),
                    r.raw.advertised_wire().iter().copied().collect(),
                ),
                (
                    "offered_suites".into(),
                    r.raw.suites().iter().copied().collect(),
                ),
                ("requested_ocsp".into(), r.raw.requested_ocsp().into()),
                ("fingerprint".into(), r.fingerprint().to_string().as_str().into()),
                (
                    "negotiated_version".into(),
                    r.raw.negotiated_version_wire().into(),
                ),
                ("negotiated_suite".into(), r.raw.negotiated_suite().into()),
                ("ocsp_stapled".into(), r.raw.ocsp_stapled().into()),
                ("leaf_issuer".into(), r.leaf_issuer().into()),
                ("established".into(), r.raw.established().into()),
                (
                    "alerts_from_client".into(),
                    r.raw.alerts_c2s().iter().copied().collect(),
                ),
                (
                    "alerts_from_server".into(),
                    r.raw.alerts_s2c().iter().copied().collect(),
                ),
                ("count".into(), r.raw.count().into()),
            ])
        })
        .collect();
    let revocation_flows: Vec<Json> = ds
        .revocation_flows
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("time".into(), f.time.into()),
                ("device".into(), ds.strings.resolve(f.device).into()),
                (
                    "kind".into(),
                    match f.kind {
                        RevocationKind::CrlFetch => "crl".into(),
                        RevocationKind::OcspQuery => "ocsp".into(),
                    },
                ),
                ("url".into(), ds.strings.resolve(f.url).into()),
                ("count".into(), f.count.into()),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("observations".into(), observations.into_iter().collect()),
        (
            "revocation_flows".into(),
            revocation_flows.into_iter().collect(),
        ),
        ("truncated".into(), ds.truncated.into()),
    ])
    .encode()
}

/// Parses a dataset from JSON, pushing each record through a
/// [`DatasetBuilder`] in document order. Returns `None` on malformed
/// input.
pub fn from_json(json: &str) -> Option<ColumnarDataset> {
    let root = Json::parse(json)?;
    let mut b = DatasetBuilder::new();
    let mut chunks = Vec::new();
    // Every connection total the analyses take is at most the sum of
    // all counts, so that sum must fit in a `u64`.
    let mut connections: u64 = 0;
    for v in root.get("observations")?.as_arr()? {
        let (obs, count) = observation(v)?;
        connections = connections.checked_add(count)?;
        b.push_obs(&obs, count, &mut |c| chunks.push(c));
    }
    for v in root.get("revocation_flows")?.as_arr()? {
        b.push_flow(&flow(v)?);
    }
    // Older files predate the truncated counter; treat absent as 0.
    b.truncated = match root.get("truncated") {
        Some(v) => v.as_u64()?,
        None => 0,
    };
    b.flush(&mut |c| chunks.push(c));
    Some(b.into_dataset(chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_tls::fingerprint::Fingerprint;

    fn sample() -> ColumnarDataset {
        let fp = Fingerprint {
            version: 0x0303,
            ciphers: vec![0xc02f, 0x0005],
            extensions: vec![0, 10],
            groups: vec![29],
            point_formats: vec![0],
        };
        let observation = TlsObservation {
            time: Timestamp(1_546_300_800),
            device: "Test Device".into(),
            destination: "x.example".into(),
            sni: Some("x.example".into()),
            advertised_versions: vec![ProtocolVersion::Tls11, ProtocolVersion::Tls12],
            max_advertised: ProtocolVersion::Tls12,
            offered_suites: vec![0xc02f, 0x0005],
            requested_ocsp: true,
            fingerprint: fp.id(),
            negotiated_version: Some(ProtocolVersion::Tls12),
            negotiated_suite: Some(0xc02f),
            ocsp_stapled: true,
            leaf_issuer: Some("SimTrust Global Root CA 001".into()),
            established: true,
            alerts_from_client: vec![AlertDescription::UnknownCa],
            alerts_from_server: vec![],
        };
        let mut b = DatasetBuilder::new();
        let mut chunks = Vec::new();
        b.push_obs(&observation, 1234, &mut |c| chunks.push(c));
        b.push_flow(&RevocationFlow {
            time: Timestamp(1_546_387_200),
            device: "Test Device".into(),
            kind: RevocationKind::OcspQuery,
            url: "http://ocsp.exämple".into(),
            count: 7,
        });
        b.truncated = 3;
        b.flush(&mut |c| chunks.push(c));
        b.into_dataset(chunks)
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let ds = sample();
        let json = to_json_columnar(&ds);
        let back = from_json(&json).unwrap();
        assert_eq!(back.total_rows(), 1);
        let a = ds.rows().next().unwrap();
        let b = back.rows().next().unwrap();
        assert_eq!(a.raw.count(), b.raw.count());
        let (a, b) = (a.observation(), b.observation());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.advertised_versions, b.advertised_versions);
        assert_eq!(a.alerts_from_client, b.alerts_from_client);
        assert_eq!(a.negotiated_version, b.negotiated_version);
        assert_eq!(back.revocation_flows.len(), 1);
        assert_eq!(back.revocation_flows[0].kind, RevocationKind::OcspQuery);
        assert_eq!(back.truncated, 3);
    }

    #[test]
    fn columnar_export_is_byte_identical() {
        // A parsed export re-exports the same bytes.
        let json = to_json_columnar(&sample());
        assert_eq!(to_json_columnar(&from_json(&json).unwrap()), json);
        // And at seed scale, on the canonical dataset.
        let json = to_json_columnar(crate::global_columnar());
        assert_eq!(to_json_columnar(&from_json(&json).unwrap()), json);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(from_json("not json").is_none());
        assert!(from_json("{\"observations\": [{\"bad\": true}]}").is_none());
        // Every cut of a valid export, at every character boundary.
        let json = to_json_columnar(&sample());
        for end in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
            assert!(
                from_json(&json[..end]).is_none(),
                "accepted a {end}-byte prefix"
            );
        }
        // Well-formed JSON carrying values the dataset cannot hold.
        let hostile = [
            (
                "\"advertised_versions\":[770,771]",
                "\"advertised_versions\":[770,39321]",
            ),
            ("\"negotiated_version\":771", "\"negotiated_version\":39321"),
            (
                "\"advertised_versions\":[770,771]",
                "\"advertised_versions\":[]",
            ),
            ("\"count\":1234", "\"count\":-1"),
            ("\"ocsp\"", "\"carrier-pigeon\""),
            ("\"truncated\":3", "\"truncated\":\"3\""),
        ];
        for (from, to) in hostile {
            assert!(json.contains(from), "{from}");
            assert!(
                from_json(&json.replace(from, to)).is_none(),
                "accepted {to}"
            );
        }
        // Two rows whose counts sum past `u64::MAX`; one such row is fine.
        let twice = |doc: &str| {
            let (_, rest) = doc.split_once("\"observations\":[").expect("rows");
            let (row, _) = rest.split_once("],\"revocation_flows\"").expect("one row");
            doc.replace(row, &format!("{row},{row}"))
        };
        let max = json.replace("\"count\":1234", &format!("\"count\":{}", u64::MAX));
        assert!(from_json(&twice(&json)).is_some());
        assert!(from_json(&max).is_some());
        assert!(from_json(&twice(&max)).is_none());
        // A list longer than a column span can hold.
        let long = format!("\"offered_suites\":[{}]", vec!["5"; 65_536].join(","));
        let json = json.replace("\"offered_suites\":[49199,5]", &long);
        assert!(json.contains(&long));
        assert!(from_json(&json).is_none());
    }

    #[test]
    fn missing_truncated_defaults_to_zero() {
        let ds = ColumnarDataset::default();
        let json = to_json_columnar(&ds).replace(",\"truncated\":0", "");
        let back = from_json(&json).unwrap();
        assert_eq!(back.truncated, 0);
    }

    #[test]
    fn bad_fingerprint_hex_rejected() {
        let ds = sample();
        let fp = ds.rows().next().unwrap().fingerprint().to_string();
        let json = to_json_columnar(&ds);
        // Too short; 32 bytes of which 30 are multi-byte characters;
        // a `+`-signed pair, which `u8::from_str_radix` would accept.
        let multibyte = format!("{}ab", "日".repeat(10));
        let signed = format!("+a{}", &fp[2..]);
        for bad in ["zz", multibyte.as_str(), signed.as_str()] {
            assert!(
                from_json(&json.replace(&fp, bad)).is_none(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn unknown_revocation_kind_rejected() {
        let json = to_json_columnar(&sample()).replace("\"ocsp\"", "\"carrier-pigeon\"");
        assert!(from_json(&json).is_none());
    }
}
