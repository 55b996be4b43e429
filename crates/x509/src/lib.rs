//! # iotls-x509
//!
//! X.509-shaped PKI substrate for the IoTLS reproduction.
//!
//! Provides everything the TLS layer and the measurement core need
//! from a public-key infrastructure:
//!
//! * [`cert`] — certificates with the RFC 5280 fields the paper's
//!   attacks exercise, canonical TLV encoding, real RSA signatures,
//!   and issuing helpers (including spoofed-CA construction for the
//!   root-store probe);
//! * [`verify`] — chain/path validation with a granular
//!   [`verify::ValidationPolicy`] that models the broken validators of
//!   Table 7;
//! * [`hostname`] — RFC 6125 hostname matching (SAN precedence,
//!   single-label wildcards);
//! * [`store`] — root stores with subject-name lookup (the property
//!   the TLS-alert side channel exploits);
//! * [`cache`] — per-lab memoization of validation verdicts keyed by
//!   (chain digest, store id, day bucket, hostname, policy), with
//!   hit/miss counters for the measurement reports;
//! * [`revocation`] — signed CRL and OCSP models for the Table 8
//!   analysis;
//! * [`time`] — civil time and the `(year, month)` buckets used by the
//!   longitudinal figures;
//! * [`tlv`] — the deterministic tag-length-value codec
//!   (DER stand-in; see DESIGN.md §2 for the substitution rationale).

pub mod cache;
pub mod cert;
pub mod hostname;
pub mod revocation;
pub mod store;
pub mod time;
pub mod tlv;
pub mod verify;

pub use cache::{CacheStats, VerificationCache};
pub use cert::{
    BasicConstraints, Certificate, CertifiedKey, DistinguishedName, Extensions, IssueParams,
    KeyUsage, SignatureAlgorithm, TbsCertificate,
};
pub use hostname::{cert_matches_hostname, matches_pattern};
pub use revocation::{Crl, OcspResponse, RevocationStatus};
pub use store::RootStore;
pub use time::{Month, Timestamp};
pub use verify::{validate_chain, ValidationError, ValidationPolicy};
