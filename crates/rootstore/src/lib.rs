//! # iotls-rootstore
//!
//! Root-store data substrate for the IoTLS reproduction: the CA
//! universe, four platform store histories shaped to Table 3, the
//! §4.2 common/deprecated probe-set construction, and the Figure 4
//! staleness metric.
//!
//! The shared [`SimPki`] bundles everything the rest of the workspace
//! needs and is built once per process behind [`SimPki::global`] (CA
//! key generation is the expensive part).

pub mod ca;
pub mod platforms;
pub mod sets;

pub use ca::{CaFate, CaId, CaRecord, CaUniverse, Distrust, COMMON_COUNT, DEPRECATED_COUNT};
pub use platforms::{build_histories, Platform, PlatformHistory, StoreVersion};
pub use sets::{
    common_certs, deprecated_certs, latest_removal_year, removal_year_on, staleness_histogram,
};

use iotls_x509::Timestamp;
use std::sync::OnceLock;

/// The default universe seed; every experiment and bench uses it so
/// results reproduce byte-for-byte.
pub const DEFAULT_SEED: u64 = 0x1075;

/// The canonical probe time — "the bulk of our experiments were
/// performed in March 2021."
pub fn probe_time() -> Timestamp {
    Timestamp::from_ymd(2021, 3, 1)
}

/// The assembled PKI world: universe + histories + probe sets.
pub struct SimPki {
    /// Every CA.
    pub universe: CaUniverse,
    /// The four platform histories.
    pub histories: Vec<PlatformHistory>,
    /// §4.2 common probe set (122 certs).
    pub common: Vec<CaId>,
    /// §4.2 deprecated probe set (87 certs).
    pub deprecated: Vec<CaId>,
}

impl SimPki {
    /// Builds the full PKI world from a seed.
    pub fn build(seed: u64) -> SimPki {
        let universe = CaUniverse::build(seed);
        let histories = build_histories(&universe);
        let now = probe_time();
        let common = common_certs(&universe, &histories, now);
        let deprecated = deprecated_certs(&universe, &histories, now);
        SimPki {
            universe,
            histories,
            common,
            deprecated,
        }
    }

    /// The process-wide shared instance (default seed).
    pub fn global() -> &'static SimPki {
        static PKI: OnceLock<SimPki> = OnceLock::new();
        PKI.get_or_init(|| SimPki::build(DEFAULT_SEED))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pki_matches_paper_counts() {
        let pki = SimPki::global();
        assert_eq!(pki.common.len(), 122);
        assert_eq!(pki.deprecated.len(), 87);
        assert_eq!(pki.histories.len(), 4);
    }

    #[test]
    fn probe_set_keys_are_pinned() {
        // Every probe-set CA key, common then deprecated: the keys the
        // root-store probe spoofs, pinned through the prime search.
        let pki = SimPki::global();
        let mut keys = Vec::new();
        for id in pki.common.iter().chain(&pki.deprecated) {
            keys.extend(pki.universe.get(*id).cert.tbs.public_key.to_bytes());
        }
        let digest = iotls_crypto::sha256::sha256(&keys);
        assert_eq!(iotls_crypto::sha256::hex(&digest[..8]), "4ef92c7711c38477");
    }

    #[test]
    fn global_is_shared() {
        let a = SimPki::global() as *const SimPki;
        let b = SimPki::global() as *const SimPki;
        assert_eq!(a, b);
    }
}
