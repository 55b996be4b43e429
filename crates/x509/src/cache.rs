//! Per-lab memoization of chain-validation verdicts.
//!
//! A sweep re-presents the same few certificate chains to the same
//! client configurations thousands of times; the verdict only depends
//! on the chain bytes, the root store, the hostname, the validation
//! policy, and (at day granularity) the validation time. A
//! [`VerificationCache`] keys on exactly that tuple and memoizes the
//! full [`validate_chain`] result, including the error variant — the
//! alert side channel (§4.2) depends on *which* error comes back, so
//! the cache must preserve it bit-for-bit.
//!
//! Each lab owns one cache; there is no shared or global one. Hit/miss
//! counters are part of the experiment's reported output and must be
//! identical at any worker count, which holds exactly because each
//! per-device lab counts only its own lookups.

use crate::cert::Certificate;
use crate::store::RootStore;
use crate::time::Timestamp;
use crate::verify::{validate_chain, ValidationError, ValidationPolicy};
use iotls_crypto::sha256::sha256;
use iotls_obs::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// (chain digest, store id, day bucket, hostname, policy bits).
type Key = ([u8; 32], [u8; 32], i64, String, u8);

/// Counter names [`CacheStats::export`] writes and
/// [`CacheStats::from_counters`] reads.
const HITS: &str = "x509.cache.hits";
const MISSES: &str = "x509.cache.misses";

/// Hit/miss counters, reported next to `FaultStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verdicts served from the cache.
    pub hits: u64,
    /// Verdicts computed by a full validation.
    pub misses: u64,
}

impl CacheStats {
    /// Folds the counters into a metrics registry as its two
    /// `x509.cache.*` counters. Zero counters create no key.
    pub fn export(&self, reg: &mut Registry) {
        reg.add(HITS, self.hits);
        reg.add(MISSES, self.misses);
    }

    /// Reads the counters back from `reg` (the sum of every
    /// [`Self::export`] merged into it).
    pub fn from_counters(reg: &Registry) -> CacheStats {
        CacheStats {
            hits: reg.counter(HITS),
            misses: reg.counter(MISSES),
        }
    }
}

/// A memoizing front for [`validate_chain`].
#[derive(Debug, Default)]
pub struct VerificationCache {
    entries: Mutex<HashMap<Key, Result<(), ValidationError>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerificationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`validate_chain`] with memoization. The first call for a key
    /// computes and stores the verdict; subsequent calls return it
    /// without touching the chain's signatures.
    pub fn validate(
        &self,
        chain: &[Certificate],
        roots: &RootStore,
        hostname: &str,
        now: Timestamp,
        policy: &ValidationPolicy,
    ) -> Result<(), ValidationError> {
        let key = (
            chain_digest(chain),
            roots.id(),
            now.0.div_euclid(86_400),
            hostname.to_string(),
            policy_bits(policy),
        );
        if let Some(hit) = self.entries.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        let verdict = validate_chain(chain, roots, hostname, now, policy);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().unwrap().insert(key, verdict);
        verdict
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Digest of the chain as presented (order-sensitive).
fn chain_digest(chain: &[Certificate]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(chain.len() * 32);
    for cert in chain {
        buf.extend_from_slice(&cert.fingerprint());
    }
    sha256(&buf)
}

/// Packs the five policy toggles into one byte.
fn policy_bits(p: &ValidationPolicy) -> u8 {
    (p.check_signatures as u8)
        | (p.check_validity as u8) << 1
        | (p.check_hostname as u8) << 2
        | (p.check_basic_constraints as u8) << 3
        | (p.check_key_usage as u8) << 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertifiedKey, DistinguishedName, IssueParams};
    use iotls_crypto::drbg::Drbg;
    use iotls_crypto::rsa::RsaPrivateKey;

    fn ca_and_leaf() -> (CertifiedKey, Certificate) {
        let ca_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xCA));
        let ca = CertifiedKey::self_signed(
            IssueParams::ca(
                DistinguishedName::new("Test Root", "Org", "US"),
                1,
                Timestamp::from_ymd(2015, 1, 1),
                3650,
            ),
            ca_key,
        );
        let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0x1EAF));
        let leaf = ca.issue(
            IssueParams::leaf("host.example", 2, Timestamp::from_ymd(2020, 1, 1), 825),
            &leaf_key,
        );
        (ca, leaf)
    }

    #[test]
    fn cached_verdict_matches_direct_validation_for_ok_and_err() {
        let (ca, leaf) = ca_and_leaf();
        let store = RootStore::from_certs([ca.cert.clone()]);
        let empty = RootStore::new();
        let now = Timestamp::from_ymd(2021, 3, 1);
        let policy = ValidationPolicy::strict();
        let cache = VerificationCache::new();
        let chain = vec![leaf.clone()];

        for _ in 0..3 {
            assert_eq!(
                cache.validate(&chain, &store, "host.example", now, &policy),
                validate_chain(&chain, &store, "host.example", now, &policy),
            );
            // Unknown-CA error variant must be preserved exactly.
            assert_eq!(
                cache.validate(&chain, &empty, "host.example", now, &policy),
                Err(ValidationError::UnknownIssuer),
            );
            // Hostname is part of the key, not collapsed.
            assert_eq!(
                cache.validate(&chain, &store, "other.example", now, &policy),
                Err(ValidationError::HostnameMismatch),
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 6);
    }

    #[test]
    fn policy_and_day_bucket_discriminate() {
        let (ca, leaf) = ca_and_leaf();
        let store = RootStore::from_certs([ca.cert.clone()]);
        let cache = VerificationCache::new();
        let chain = vec![leaf];
        let noon = Timestamp::from_ymd_hms(2021, 3, 1, 12, 0, 0);
        let later_same_day = Timestamp::from_ymd_hms(2021, 3, 1, 18, 0, 0);
        let next_day = Timestamp::from_ymd(2021, 3, 2);

        let strict = ValidationPolicy::strict();
        let lax = ValidationPolicy::no_hostname_check();
        cache.validate(&chain, &store, "host.example", noon, &strict).unwrap();
        // Same day bucket → hit; different policy or day → miss.
        cache
            .validate(&chain, &store, "host.example", later_same_day, &strict)
            .unwrap();
        cache.validate(&chain, &store, "host.example", noon, &lax).unwrap();
        cache.validate(&chain, &store, "host.example", next_day, &strict).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
    }

    #[test]
    fn cache_stats_survive_export_and_read_back() {
        let stats = CacheStats { hits: 7, misses: 3 };
        let mut reg = Registry::new();
        stats.export(&mut reg);
        assert_eq!(CacheStats::from_counters(&reg), stats);
    }

    #[test]
    fn two_cache_exports_read_back_as_their_sum() {
        let mut reg = Registry::new();
        CacheStats { hits: 7, misses: 3 }.export(&mut reg);
        CacheStats {
            hits: 1,
            misses: 20,
        }
        .export(&mut reg);
        assert_eq!(
            CacheStats::from_counters(&reg),
            CacheStats {
                hits: 8,
                misses: 23
            }
        );
    }

    #[test]
    fn zero_cache_stats_export_no_key() {
        let mut reg = Registry::new();
        CacheStats::default().export(&mut reg);
        assert!(reg.is_empty());
        assert_eq!(CacheStats::from_counters(&reg), CacheStats::default());
    }

    #[test]
    fn store_id_distinguishes_stores() {
        let (ca, _) = ca_and_leaf();
        let other_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0x0B));
        let other = CertifiedKey::self_signed(
            IssueParams::ca(
                DistinguishedName::new("Other Root", "Org", "US"),
                3,
                Timestamp::from_ymd(2015, 1, 1),
                3650,
            ),
            other_key,
        );
        let a = RootStore::from_certs([ca.cert.clone()]);
        let b = RootStore::from_certs([ca.cert.clone(), other.cert.clone()]);
        assert_ne!(a.id(), b.id());
        // Removing the extra root restores the original id.
        let mut b2 = b.clone();
        b2.remove(&other.cert.tbs.subject);
        assert_eq!(a.id(), b2.id());
        assert_eq!(RootStore::new().id(), [0u8; 32]);
    }
}
