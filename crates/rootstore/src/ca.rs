//! The CA universe: every root certificate the reproduction knows
//! about, with distrust metadata for the CAs the paper names.
//!
//! Substitution (DESIGN.md §2): the paper harvests real historical
//! root stores from Ubuntu/Android/Mozilla/Microsoft; we synthesize a
//! universe *shaped* to the published aggregates — 122 currently
//! unexpired certificates common to all four platforms, 87
//! deprecated-yet-unexpired certificates, and the four explicitly
//! distrusted CAs (TurkTrust 2013, CNNIC 2015, WoSign 2016,
//! Certinomis 2019). The set-construction algorithms in
//! [`crate::sets`] are implemented exactly as §4.2 describes and run
//! against this data.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_x509::{Certificate, CertifiedKey, DistinguishedName, IssueParams, Timestamp};

/// Index of a CA in the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CaId(pub u32);

/// Why and when a CA was explicitly distrusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distrust {
    /// Year of the distrust action.
    pub year: i32,
    /// Who acted ("Mozilla", "Google blocklist").
    pub authority: &'static str,
    /// Short reason, as reported in the paper.
    pub reason: &'static str,
}

/// Lifecycle class of a CA in the synthetic history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaFate {
    /// Present in the latest version of every platform store.
    Common,
    /// Removed from platform stores in `year`, never re-added, still
    /// unexpired — the paper's "deprecated-yet-unexpired" class.
    Deprecated {
        /// Year of removal (latest across platforms).
        removal_year: i32,
    },
    /// Removed and also expired by probe time — must be filtered out
    /// by the unexpired check of the set construction.
    DeprecatedExpired {
        /// Year of removal.
        removal_year: i32,
    },
    /// Removed at some point but present again in the latest version
    /// of at least one platform — excluded by §4.2's re-add rule.
    Readded {
        /// Year of the temporary removal.
        removal_year: i32,
    },
}

/// One CA in the universe.
pub struct CaRecord {
    /// Universe index.
    pub id: CaId,
    /// Subject (== issuer) distinguished name.
    pub name: DistinguishedName,
    /// The real root certificate (self-signed with a real key).
    pub cert: Certificate,
    /// Synthetic lifecycle.
    pub fate: CaFate,
    /// Distrust metadata for the named bad actors.
    pub distrust: Option<Distrust>,
}

/// The four explicitly distrusted CAs the paper names, with their
/// distrust year, authority, and reason.
pub const DISTRUSTED: [(&str, &str, i32, &str, &str); 4] = [
    (
        "TurkTrust Elektronik Sertifika Hizmet Saglayicisi",
        "TR",
        2013,
        "Mozilla",
        "unauthorized google.com certificate",
    ),
    (
        "CNNIC ROOT",
        "CN",
        2015,
        "Google blocklist",
        "failure to comply with CA guidelines",
    ),
    (
        "WoSign CA Limited",
        "CN",
        2016,
        "Google blocklist",
        "backdated SHA-1 certificates and undisclosed acquisition",
    ),
    (
        "Certinomis - Root CA",
        "FR",
        2019,
        "Mozilla",
        "repeated misissuance",
    ),
];

/// Number of common (trusted-everywhere) CAs, per Table 9.
pub const COMMON_COUNT: u32 = 122;
/// Number of deprecated-yet-unexpired CAs, per Table 9.
pub const DEPRECATED_COUNT: u32 = 87;
/// Extra expired-and-removed CAs (exercise the unexpired filter).
pub const DEPRECATED_EXPIRED_COUNT: u32 = 12;
/// Extra removed-then-re-added CAs (exercise the re-add exclusion).
pub const READDED_COUNT: u32 = 5;

/// Removal-year histogram for the 87 deprecated CAs. The shape
/// follows §5.2: the majority removed in 2018–2019, a tail back to
/// 2013 (the LG TV's oldest stale roots).
pub const REMOVAL_YEARS: [(i32, u32); 8] = [
    (2013, 4),
    (2014, 5),
    (2015, 8),
    (2016, 10),
    (2017, 12),
    (2018, 24),
    (2019, 18),
    (2020, 6),
];

/// The full CA universe with issuing keys held privately.
pub struct CaUniverse {
    records: Vec<CaRecord>,
    // Keys stay inside the universe: legitimate infrastructure asks
    // for them via `issuing_key`; attacker code never sees them.
    keys: Vec<RsaPrivateKey>,
}

impl CaUniverse {
    /// Builds the universe deterministically from a seed.
    ///
    /// The seed's `ca-universe` stream feeds only key generation, one
    /// key per CA in id order, so all the keys come from one batch
    /// (see [`RsaPrivateKey::generate_batch`]) before any record is
    /// built.
    pub fn build(seed: u64) -> CaUniverse {
        // (name, fate, distrust, not_after) per CA, in id order.
        let mut specs = Vec::new();

        // 122 common CAs.
        for i in 0..COMMON_COUNT {
            let name = DistinguishedName::new(
                &format!("SimTrust Global Root CA {:03}", i + 1),
                "SimTrust Networks",
                "US",
            );
            specs.push((name, CaFate::Common, None, Timestamp::from_ymd(2031, 1, 1)));
        }

        // 87 deprecated CAs; the four distrusted ones take the first
        // slot of their removal-year bucket.
        let mut serial = 0u32;
        for (year, count) in REMOVAL_YEARS {
            for k in 0..count {
                let matching_distrust = if k == 0 {
                    DISTRUSTED.iter().find(|(_, _, dy, _, _)| *dy == year)
                } else {
                    None
                };
                let (name, distrust) = match matching_distrust {
                    Some(&(cn, country, dy, authority, reason)) => (
                        DistinguishedName::new(cn, cn, country),
                        Some(Distrust {
                            year: dy,
                            authority,
                            reason,
                        }),
                    ),
                    None => {
                        serial += 1;
                        (
                            DistinguishedName::new(
                                &format!("Legacy Assurance CA R{:03}", serial),
                                "Legacy PKI Holdings",
                                "US",
                            ),
                            None,
                        )
                    }
                };
                specs.push((
                    name,
                    CaFate::Deprecated { removal_year: year },
                    distrust,
                    Timestamp::from_ymd(2030, 6, 1),
                ));
            }
        }

        // Expired-and-removed CAs (filtered by the unexpired check).
        for i in 0..DEPRECATED_EXPIRED_COUNT {
            let name = DistinguishedName::new(
                &format!("Retired Expired CA {:02}", i + 1),
                "Legacy PKI Holdings",
                "US",
            );
            specs.push((
                name,
                CaFate::DeprecatedExpired {
                    removal_year: 2014 + (i as i32 % 5),
                },
                None,
                Timestamp::from_ymd(2019, 1, 1), // expired before probe time
            ));
        }

        // Removed-then-re-added CAs (excluded by the re-add rule).
        for i in 0..READDED_COUNT {
            let name = DistinguishedName::new(
                &format!("Rotated Root CA {:02}", i + 1),
                "SimTrust Networks",
                "US",
            );
            specs.push((
                name,
                CaFate::Readded {
                    removal_year: 2016 + i as i32 % 3,
                },
                None,
                Timestamp::from_ymd(2031, 1, 1),
            ));
        }

        let mut rng = Drbg::from_seed(seed).fork("ca-universe");
        let keys = RsaPrivateKey::generate_batch(512, specs.len(), std::slice::from_mut(&mut rng));
        let mut records = Vec::with_capacity(specs.len());
        let mut issuing = Vec::with_capacity(specs.len());
        for (i, ((name, fate, distrust, not_after), key)) in specs.into_iter().zip(keys).enumerate()
        {
            let id = CaId(i as u32);
            let mut params = IssueParams::ca(
                name.clone(),
                1_000 + id.0 as u64,
                Timestamp::from_ymd(2008, 1, 1),
                0,
            );
            params.not_after = not_after;
            let ck = CertifiedKey::self_signed(params, key);
            records.push(CaRecord {
                id,
                name,
                cert: ck.cert,
                fate,
                distrust,
            });
            issuing.push(ck.key);
        }
        CaUniverse {
            records,
            keys: issuing,
        }
    }

    /// All CA records.
    pub fn records(&self) -> &[CaRecord] {
        &self.records
    }

    /// Record by id.
    pub fn get(&self, id: CaId) -> &CaRecord {
        &self.records[id.0 as usize]
    }

    /// Total number of CAs (all fates).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The *legitimate infrastructure's* issuing key for a CA. MITM /
    /// probe code must never call this — that discipline is what makes
    /// the signature side channel real.
    pub fn issuing_key(&self, id: CaId) -> CertifiedKey {
        CertifiedKey {
            cert: self.records[id.0 as usize].cert.clone(),
            key: self.keys[id.0 as usize].clone(),
        }
    }

    /// Ids with a given fate class.
    pub fn ids_where(&self, pred: impl Fn(&CaFate) -> bool) -> Vec<CaId> {
        self.records
            .iter()
            .filter(|r| pred(&r.fate))
            .map(|r| r.id)
            .collect()
    }

    /// The four distrusted CAs present in the universe.
    pub fn distrusted_ids(&self) -> Vec<CaId> {
        self.records
            .iter()
            .filter(|r| r.distrust.is_some())
            .map(|r| r.id)
            .collect()
    }

    /// Looks up a CA by subject name.
    pub fn find_by_name(&self, name: &DistinguishedName) -> Option<&CaRecord> {
        self.records.iter().find(|r| &r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn universe() -> &'static CaUniverse {
        &crate::SimPki::global().universe
    }

    #[test]
    fn universe_has_expected_population() {
        let u = universe();
        assert_eq!(
            u.len() as u32,
            COMMON_COUNT + DEPRECATED_COUNT + DEPRECATED_EXPIRED_COUNT + READDED_COUNT
        );
        assert_eq!(
            u.ids_where(|f| matches!(f, CaFate::Common)).len() as u32,
            COMMON_COUNT
        );
        assert_eq!(
            u.ids_where(|f| matches!(f, CaFate::Deprecated { .. })).len() as u32,
            DEPRECATED_COUNT
        );
    }

    #[test]
    fn removal_year_histogram_sums_to_deprecated_count() {
        let total: u32 = REMOVAL_YEARS.iter().map(|(_, c)| c).sum();
        assert_eq!(total, DEPRECATED_COUNT);
    }

    #[test]
    fn distrusted_cas_present_with_metadata() {
        let u = universe();
        let ids = u.distrusted_ids();
        assert_eq!(ids.len(), 4);
        let years: Vec<i32> = ids
            .iter()
            .map(|id| u.get(*id).distrust.as_ref().unwrap().year)
            .collect();
        assert_eq!(years, vec![2013, 2015, 2016, 2019]);
        // Distrusted CAs are all in the deprecated class, removed in
        // their distrust year.
        for id in ids {
            let rec = u.get(id);
            match rec.fate {
                CaFate::Deprecated { removal_year } => {
                    assert_eq!(removal_year, rec.distrust.as_ref().unwrap().year)
                }
                _ => panic!("distrusted CA not in deprecated class"),
            }
        }
    }

    #[test]
    fn certificates_are_self_signed_with_distinct_keys() {
        let u = universe();
        let a = &u.records()[0];
        let b = &u.records()[1];
        assert!(a.cert.is_self_signed());
        assert!(b.cert.is_self_signed());
        assert_ne!(a.cert.tbs.public_key, b.cert.tbs.public_key);
        assert_ne!(a.name, b.name);
    }

    #[test]
    fn issuing_key_matches_certificate() {
        let u = universe();
        let id = CaId(0);
        let ck = u.issuing_key(id);
        assert_eq!(ck.cert, u.get(id).cert);
        assert_eq!(&ck.cert.tbs.public_key, ck.key.public_key());
    }

    #[test]
    fn expired_class_actually_expired_at_probe_time() {
        let u = universe();
        let probe_time = Timestamp::from_ymd(2021, 3, 1);
        for rec in u.records() {
            let expired_class = matches!(rec.fate, CaFate::DeprecatedExpired { .. });
            assert_eq!(
                !rec.cert.is_time_valid(probe_time),
                expired_class,
                "CA {} validity disagrees with fate",
                rec.name.common_name
            );
        }
    }

    #[test]
    fn every_universe_key_is_pinned() {
        // Every CA public key in id order, all four fates: the whole
        // key stream of the universe, pinned through the prime search.
        let u = universe();
        let mut keys = Vec::new();
        for rec in u.records() {
            keys.extend(rec.cert.tbs.public_key.to_bytes());
        }
        let digest = iotls_crypto::sha256::sha256(&keys);
        assert_eq!(iotls_crypto::sha256::hex(&digest[..8]), "8bbadebbce9d0e62");
    }

    #[test]
    fn build_is_deterministic() {
        let a = CaUniverse::build(7);
        let b = CaUniverse::build(7);
        assert_eq!(a.records()[5].cert, b.records()[5].cert);
        let c = CaUniverse::build(8);
        assert_ne!(a.records()[5].cert, c.records()[5].cert);
    }

    #[test]
    fn find_by_name() {
        let u = universe();
        let rec = &u.records()[3];
        assert_eq!(u.find_by_name(&rec.name).unwrap().id, rec.id);
        assert!(u
            .find_by_name(&DistinguishedName::cn("No Such CA"))
            .is_none());
    }
}
