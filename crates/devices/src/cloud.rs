//! Simulated cloud infrastructure: one TLS server per destination.
//!
//! Each destination's leaf certificate is issued by a *common* CA the
//! contacting device trusts (vendors pick CAs that work with their
//! fleet), with validity covering the whole study window plus probe
//! time. Servers for revocation-checking devices carry CRL/OCSP URLs
//! and a long-lived staple.
//!
//! [`CloudRegistry::build`] provisions every endpoint of the testbed
//! at once: a hostname is served as its first occurrence in the roster
//! describes it, each endpoint's key comes from its own stream seeded
//! from the hostname's digest, and all the keys come from one batch
//! (see [`RsaPrivateKey::generate_batch`]), so the set-up's prime
//! searches share its helper thread.

use crate::rootsel::DeviceRootTruth;
use crate::spec::Destination;
use crate::testbed::DeviceSetup;
use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_crypto::sha256::sha256;
use iotls_rootstore::{CaId, SimPki};
use iotls_tls::server::ServerConfig;
use iotls_x509::{Certificate, IssueParams, OcspResponse, RevocationStatus, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// A provisioned cloud endpoint.
pub struct CloudEndpoint {
    /// Hostname served.
    pub hostname: String,
    /// Leaf certificate chain (leaf only; roots are in stores).
    pub chain: Vec<Certificate>,
    /// Leaf private key.
    pub key: RsaPrivateKey,
    /// Issuing CA.
    pub issuer: CaId,
    /// Encoded OCSP staple, when provisioned.
    pub staple: Option<Vec<u8>>,
}

impl CloudEndpoint {
    /// The endpoint for `dest` with `key`, its leaf issued by a common
    /// CA from `truth` that the hostname's digest picks.
    fn issue(
        pki: &SimPki,
        dest: &Destination,
        truth: &DeviceRootTruth,
        key: RsaPrivateKey,
    ) -> CloudEndpoint {
        // Deterministic issuer choice among CAs the device trusts.
        let trusted: Vec<CaId> = truth.common_present.iter().copied().collect();
        assert!(
            !trusted.is_empty(),
            "device trusts no common CAs; cannot provision {}",
            dest.hostname
        );
        let digest = sha256(dest.hostname.as_bytes());
        let pick = u64::from_be_bytes(digest[..8].try_into().unwrap()) as usize % trusted.len();
        let issuer_id = trusted[pick];
        let issuer = pki.universe.issuing_key(issuer_id);

        let serial = u64::from_be_bytes(digest[16..24].try_into().unwrap());
        let mut params = IssueParams::leaf(
            &dest.hostname,
            serial,
            Timestamp::from_ymd(2017, 6, 1),
            6 * 365, // valid through the study and the 2021 probes
        );
        params.extensions.crl_url = Some("http://crl.simtrust.example/latest.crl".into());
        params.extensions.ocsp_url = Some("http://ocsp.simtrust.example".into());
        let cert = issuer.issue(params, &key);

        let staple = dest.server.staples_ocsp.then(|| {
            OcspResponse::produce(
                &issuer,
                serial,
                RevocationStatus::Good,
                Timestamp::from_ymd(2017, 6, 1),
                6 * 365 * 86_400,
            )
            .to_bytes()
        });

        CloudEndpoint {
            hostname: dest.hostname.clone(),
            chain: vec![cert],
            key,
            issuer: issuer_id,
            staple,
        }
    }
}

/// Registry of provisioned endpoints, keyed by hostname.
pub struct CloudRegistry {
    endpoints: BTreeMap<String, CloudEndpoint>,
}

impl CloudRegistry {
    /// Provisions an endpoint for every destination of `devices`, each
    /// issued by a common CA its device trusts so legitimate
    /// connections validate. A hostname several devices contact is
    /// provisioned once, for the first of them in roster order.
    pub fn build(pki: &SimPki, devices: &[DeviceSetup]) -> CloudRegistry {
        let mut seen = BTreeSet::new();
        let dests: Vec<(&Destination, &DeviceRootTruth)> = devices
            .iter()
            .flat_map(|d| d.spec.destinations.iter().map(move |dest| (dest, &d.truth)))
            .filter(|(dest, _)| seen.insert(dest.hostname.as_str()))
            .collect();
        // One key stream per hostname, seeded from its digest.
        let mut streams: Vec<Drbg> = dests
            .iter()
            .map(|(dest, _)| {
                let digest = sha256(dest.hostname.as_bytes());
                Drbg::from_seed(u64::from_be_bytes(digest[8..16].try_into().unwrap()))
            })
            .collect();
        let keys = RsaPrivateKey::generate_batch(512, 1, &mut streams);
        let endpoints = dests
            .into_iter()
            .zip(keys)
            .map(|((dest, truth), key)| {
                (
                    dest.hostname.clone(),
                    CloudEndpoint::issue(pki, dest, truth, key),
                )
            })
            .collect();
        CloudRegistry { endpoints }
    }

    /// The endpoint for a hostname.
    pub fn endpoint(&self, hostname: &str) -> Option<&CloudEndpoint> {
        self.endpoints.get(hostname)
    }

    /// Builds the legitimate server configuration for `dest`.
    pub fn server_config(&self, dest: &Destination) -> ServerConfig {
        let ep = self
            .endpoint(&dest.hostname)
            .unwrap_or_else(|| panic!("endpoint {} not provisioned", dest.hostname));
        ServerConfig {
            chain: ep.chain.clone(),
            key: ep.key.clone(),
            versions: dest.server.versions.clone(),
            cipher_suites: dest.server.suites.clone(),
            ocsp_staple: ep.staple.clone(),
            forced_version: None,
            mute: false,
            // Cloud endpoints do not resume sessions in the testbed:
            // the paper's per-connection analyses assume full
            // handshakes (abbreviated ones carry no Certificate).
            session_cache: None,
        }
    }

    /// Number of provisioned endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when nothing is provisioned.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rootsel::build_root_truth;
    use crate::roster::roster;
    use crate::spec::DeviceSpec;

    fn setup(pki: &SimPki, spec: DeviceSpec) -> DeviceSetup {
        let truth = build_root_truth(pki, &spec.name, &spec.root_store);
        DeviceSetup { spec, truth }
    }

    #[test]
    fn a_shared_hostname_is_provisioned_for_its_first_device() {
        // Device `a` keeps its first destination only; device `b`, which
        // trusts a different number of common CAs, contacts the same
        // hostname with the opposite stapling.
        let pki = SimPki::global();
        let specs = roster();
        let mut a = specs[0].clone();
        a.destinations.truncate(1);
        let mut b = specs
            .iter()
            .find(|s| s.root_store.common_present != a.root_store.common_present)
            .expect("devices trusting different common sets")
            .clone();
        let mut shared = a.destinations[0].clone();
        shared.server.staples_ocsp = !shared.server.staples_ocsp;
        b.destinations = vec![shared];
        let host = a.destinations[0].hostname.clone();
        let served = |devices: &[DeviceSetup]| {
            let cloud = CloudRegistry::build(pki, devices);
            assert_eq!(cloud.len(), 1);
            let ep = cloud.endpoint(&host).expect("provisioned");
            (ep.issuer, ep.staple.is_some(), ep.chain[0].to_bytes())
        };
        let for_a = served(&[setup(pki, a.clone())]);
        let for_b = served(&[setup(pki, b.clone())]);
        assert_ne!(for_a.0, for_b.0, "the two trust sets pick one issuer");
        assert_ne!(for_a.1, for_b.1);
        assert_eq!(
            served(&[setup(pki, a.clone()), setup(pki, b.clone())]),
            for_a
        );
        assert_eq!(served(&[setup(pki, b), setup(pki, a)]), for_b);
    }
}
