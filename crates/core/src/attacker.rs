//! The on-path attacker (the reproduction's mitmproxy).
//!
//! The attacker owns exactly what the paper's adversary owns: its own
//! key material, a *legitimate* certificate for a domain it controls
//! (the paper used a free ZeroSSL certificate), and public knowledge —
//! platform root-store histories and the certificates in them. It has
//! **no CA private keys**: every forged chain really fails signature
//! validation against a victim's trust anchors, which is what makes
//! the alert side channel observable rather than simulated.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_rootstore::SimPki;
use iotls_tls::server::ServerConfig;
use iotls_tls::version::ProtocolVersion;
use iotls_x509::{Certificate, CertifiedKey, IssueParams, Timestamp};

/// The attacker's own domain (for the WrongHostname attack).
pub const ATTACKER_DOMAIN: &str = "attacker-owned.example.net";

/// The interception policies of Table 2, plus the §5.1 failure modes
/// and the §4.2 spoofed-CA probe.
#[derive(Debug, Clone)]
pub enum InterceptPolicy {
    /// Present a self-signed certificate (NoValidation attack).
    SelfSigned,
    /// Present the attacker's legitimate certificate for its own
    /// domain (WrongHostname attack).
    WrongHostname,
    /// Use the attacker's legitimate *leaf* as a CA to sign a
    /// certificate for the victim hostname (InvalidBasicConstraints).
    InvalidBasicConstraints,
    /// Spoof a root CA (matching subject/issuer/serial, attacker key)
    /// and present a chain it signed — the root-store probe.
    SpoofedCa(Box<Certificate>),
    /// Never respond (IncompleteHandshake failure).
    Mute,
    /// Negotiate exactly this version (old-version negotiation scan),
    /// presenting a self-signed certificate.
    ForcedVersion(ProtocolVersion),
}

/// The attacker's materials. Immutable once provisioned, so the labs
/// of one engine run share one attacker per lab seed
/// ([`crate::lab::LabSeed`]).
pub struct Attacker {
    /// Key used for every forged certificate.
    key: RsaPrivateKey,
    /// Legitimate certificate for [`ATTACKER_DOMAIN`] (chain of one),
    /// with its private key.
    own_domain: CertifiedKey,
}

impl Attacker {
    /// Provisions the attacker: generates two RSA-512 keys, one for
    /// every forged certificate and one for its own domain, and obtains
    /// a legitimate certificate for that domain from the popular web CA
    /// (`pki.common[0]`), exactly as anyone can. A pure function of
    /// `pki` and `seed`.
    pub fn new(pki: &SimPki, seed: u64) -> Attacker {
        #[cfg(test)]
        DERIVED.with(|n| n.set(n.get() + 1));
        let mut rng = Drbg::from_seed(seed).fork("attacker");
        let key = RsaPrivateKey::generate(512, &mut rng);
        let own_key = RsaPrivateKey::generate(512, &mut rng);
        let issuer = pki.universe.issuing_key(pki.common[0]);
        let cert = issuer.issue(
            IssueParams::leaf(
                ATTACKER_DOMAIN,
                0xA77AC4E4,
                Timestamp::from_ymd(2021, 1, 1),
                90, // ZeroSSL-style short-lived cert
            ),
            &own_key,
        );
        Attacker {
            key,
            own_domain: CertifiedKey {
                cert,
                key: own_key,
            },
        }
    }

    /// Builds the certificate chain (leaf first) the attacker presents
    /// when intercepting a connection to `victim_hostname`.
    pub fn chain_for(&self, policy: &InterceptPolicy, victim_hostname: &str) -> Vec<Certificate> {
        match policy {
            InterceptPolicy::SelfSigned
            | InterceptPolicy::Mute
            | InterceptPolicy::ForcedVersion(_) => {
                let ck = CertifiedKey::self_signed(
                    IssueParams::leaf(
                        victim_hostname,
                        1,
                        Timestamp::from_ymd(2021, 1, 1),
                        365,
                    ),
                    self.key.clone(),
                );
                vec![ck.cert]
            }
            InterceptPolicy::WrongHostname => vec![self.own_domain.cert.clone()],
            InterceptPolicy::InvalidBasicConstraints => {
                // The attacker's legitimate leaf "signs" a certificate
                // for the victim hostname; a correct validator rejects
                // the chain because the leaf is not a CA.
                let forged = self.own_domain.issue_for_public_key(
                    IssueParams::leaf(
                        victim_hostname,
                        2,
                        Timestamp::from_ymd(2021, 1, 1),
                        365,
                    ),
                    self.key.public_key().clone(),
                );
                vec![forged, self.own_domain.cert.clone()]
            }
            InterceptPolicy::SpoofedCa(target) => {
                // Same subject, issuer, serial, and validity as the
                // real root — but the attacker's key.
                let spoofed = CertifiedKey::self_signed(
                    IssueParams {
                        subject: target.tbs.subject.clone(),
                        serial: target.tbs.serial,
                        not_before: target.tbs.not_before,
                        not_after: target.tbs.not_after,
                        extensions: target.tbs.extensions.clone(),
                        signature_algorithm: target.signature_algorithm,
                    },
                    self.key.clone(),
                );
                let leaf = spoofed.issue_for_public_key(
                    IssueParams::leaf(
                        victim_hostname,
                        3,
                        Timestamp::from_ymd(2021, 1, 1),
                        365,
                    ),
                    self.key.public_key().clone(),
                );
                vec![leaf, spoofed.cert]
            }
        }
    }

    /// Builds the attacker's server configuration for one intercepted
    /// connection.
    pub fn server_config(&self, policy: &InterceptPolicy, victim_hostname: &str) -> ServerConfig {
        let chain = self.chain_for(policy, victim_hostname);
        // The attacker's TLS endpoint accepts everything (mitmproxy
        // maximizes compatibility with victims).
        let mut cfg = ServerConfig {
            chain,
            key: self.signing_key_for(policy),
            versions: vec![
                ProtocolVersion::Ssl30,
                ProtocolVersion::Tls10,
                ProtocolVersion::Tls11,
                ProtocolVersion::Tls12,
                ProtocolVersion::Tls13,
            ],
            cipher_suites: vec![
                0x1301, 0x1303, 0xc02f, 0xc030, 0xcca8, 0x009e, 0x009c, 0x003c, 0x002f, 0x0035,
                0x000a, 0x0005, 0x0004,
            ],
            ocsp_staple: None,
            forced_version: None,
            mute: false,
            session_cache: None,
        };
        match policy {
            InterceptPolicy::Mute => cfg.mute = true,
            InterceptPolicy::ForcedVersion(v) => cfg.forced_version = Some(*v),
            _ => {}
        }
        cfg
    }

    /// The private key matching the leaf presented under `policy`.
    fn signing_key_for(&self, policy: &InterceptPolicy) -> RsaPrivateKey {
        match policy {
            InterceptPolicy::WrongHostname => self.own_domain.key.clone(),
            _ => self.key.clone(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// [`Attacker::new`] calls made on this thread.
    static DERIVED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many attackers this thread has derived so far.
#[cfg(test)]
pub(crate) fn derived_on_this_thread() -> u64 {
    DERIVED.with(|n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_x509::{validate_chain, RootStore, ValidationError, ValidationPolicy};

    fn setup() -> (&'static SimPki, Attacker, RootStore) {
        let pki = SimPki::global();
        let attacker = Attacker::new(pki, 42);
        // A victim store trusting every common CA.
        let store = RootStore::from_certs(
            pki.common
                .iter()
                .map(|id| pki.universe.get(*id).cert.clone()),
        );
        (pki, attacker, store)
    }

    fn now() -> Timestamp {
        iotls_rootstore::probe_time()
    }

    #[test]
    fn self_signed_chain_fails_with_unknown_issuer() {
        let (_, attacker, store) = setup();
        let chain = attacker.chain_for(&InterceptPolicy::SelfSigned, "victim.example");
        assert_eq!(
            validate_chain(&chain, &store, "victim.example", now(), &ValidationPolicy::strict()),
            Err(ValidationError::UnknownIssuer)
        );
    }

    #[test]
    fn wrong_hostname_chain_is_valid_except_hostname() {
        let (_, attacker, store) = setup();
        let chain = attacker.chain_for(&InterceptPolicy::WrongHostname, "victim.example");
        assert_eq!(
            validate_chain(&chain, &store, "victim.example", now(), &ValidationPolicy::strict()),
            Err(ValidationError::HostnameMismatch)
        );
        assert_eq!(
            validate_chain(&chain, &store, "victim.example", now(), &ValidationPolicy::no_hostname_check()),
            Ok(())
        );
        // And it is genuinely valid for the attacker's own domain.
        assert_eq!(
            validate_chain(&chain, &store, ATTACKER_DOMAIN, now(), &ValidationPolicy::strict()),
            Ok(())
        );
    }

    #[test]
    fn invalid_bc_chain_fails_only_the_bc_check() {
        let (_, attacker, store) = setup();
        let chain =
            attacker.chain_for(&InterceptPolicy::InvalidBasicConstraints, "victim.example");
        assert_eq!(
            validate_chain(&chain, &store, "victim.example", now(), &ValidationPolicy::strict()),
            Err(ValidationError::InvalidBasicConstraints)
        );
        assert_eq!(
            validate_chain(&chain, &store, "victim.example", now(), &ValidationPolicy::no_basic_constraints()),
            Ok(())
        );
    }

    #[test]
    fn spoofed_ca_chain_fails_with_bad_signature_when_target_trusted() {
        let (pki, attacker, store) = setup();
        let target = pki.universe.get(pki.common[5]).cert.clone();
        let chain = attacker.chain_for(&InterceptPolicy::SpoofedCa(Box::new(target)), "victim.example");
        assert_eq!(
            validate_chain(&chain, &store, "victim.example", now(), &ValidationPolicy::strict()),
            Err(ValidationError::BadSignature)
        );
    }

    #[test]
    fn spoofed_ca_chain_fails_with_unknown_issuer_when_target_untrusted() {
        let (pki, attacker, _) = setup();
        // Victim trusts everything except the spoof target.
        let target_id = pki.common[5];
        let store = RootStore::from_certs(
            pki.common
                .iter()
                .filter(|id| **id != target_id)
                .map(|id| pki.universe.get(*id).cert.clone()),
        );
        let target = pki.universe.get(target_id).cert.clone();
        let chain = attacker.chain_for(&InterceptPolicy::SpoofedCa(Box::new(target)), "victim.example");
        assert_eq!(
            validate_chain(&chain, &store, "victim.example", now(), &ValidationPolicy::strict()),
            Err(ValidationError::UnknownIssuer)
        );
    }

    #[test]
    fn attacker_is_deterministic_per_seed() {
        // Sharing one attacker across labs relies on this: deriving it
        // twice from the same seed yields the same chains and keys under
        // every policy shape.
        let pki = SimPki::global();
        let (a, b) = (Attacker::new(pki, 1), Attacker::new(pki, 1));
        let target = pki.universe.get(pki.common[3]).cert.clone();
        let policies = [
            InterceptPolicy::SelfSigned,
            InterceptPolicy::WrongHostname,
            InterceptPolicy::InvalidBasicConstraints,
            InterceptPolicy::SpoofedCa(Box::new(target)),
            InterceptPolicy::Mute,
            InterceptPolicy::ForcedVersion(ProtocolVersion::Tls10),
        ];
        let chain = |cfg: &ServerConfig| -> Vec<Vec<u8>> {
            cfg.chain.iter().map(Certificate::to_bytes).collect()
        };
        for policy in &policies {
            let (x, y) = (a.server_config(policy, "h"), b.server_config(policy, "h"));
            assert_eq!(chain(&x), chain(&y), "{policy:?}");
            assert_eq!(x.key.public_key(), y.key.public_key(), "{policy:?}");
            assert_eq!(x.key.sign(b"shared"), y.key.sign(b"shared"), "{policy:?}");
            assert_eq!(x.versions, y.versions);
            assert_eq!(x.cipher_suites, y.cipher_suites);
            assert_eq!((x.forced_version, x.mute), (y.forced_version, y.mute));
        }
    }
}
