//! # iotls-crypto
//!
//! From-scratch cryptographic substrate for the IoTLS reproduction.
//!
//! The IoTLS methodology (Paracha et al., IMC 2021) distinguishes a
//! client that *recognizes an issuer but sees an invalid signature*
//! from one that *does not recognize the issuer at all* — so the
//! simulation needs real, unforgeable signatures, not boolean flags.
//! This crate provides everything the PKI and TLS substrates build on:
//!
//! * [`bigint::Uint`] — arbitrary-precision unsigned arithmetic
//!   (Knuth Algorithm D division, modular exponentiation/inverse);
//! * [`mont::MontCtx`] — Montgomery-form multiplication, squaring and
//!   windowed exponentiation, the hot path behind `Uint::modpow` for
//!   odd moduli: fixed-width kernels for the 4-, 8- and 12-limb moduli
//!   the simulator uses, a slice path for every other size, and a
//!   fixed-base table that DH key generation raises its generator
//!   with;
//! * [`mod@sha256`] — FIPS 180-4 SHA-256;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104);
//! * [`rsa`] — RSA keygen / PKCS#1 v1.5-shaped signatures and key
//!   transport;
//! * [`dh`] — classic finite-field Diffie–Hellman (forward secrecy for
//!   the (EC)DHE-class simulated ciphersuites);
//! * [`rc4`], [`des`], [`chacha20`], and [`aes`] — bulk ciphers
//!   across the security spectrum the paper measures (real RC4 and
//!   DES/3DES for the legacy suites, AES-128-CTR and ChaCha20 for
//!   the modern ones);
//! * [`mod@md5`] — broken, but it is what JA3 fingerprints hash with;
//! * [`drbg`] — a fork-able deterministic random generator so every
//!   experiment reproduces byte-for-byte from a single seed.
//!
//! Nothing here is intended for production cryptographic use; key
//! sizes are deliberately small so thousands of simulated handshakes
//! run quickly.

pub mod aes;
pub mod bigint;
pub mod chacha20;
pub mod des;
pub mod dh;
pub mod drbg;
pub mod hmac;
pub mod md5;
pub mod mont;
pub mod prime;
pub mod rc4;
pub mod rsa;
pub mod sha256;

pub use aes::{Aes128, Aes128Ctr};
pub use des::{Des, TripleDes, TripleDesOfb};
pub use bigint::Uint;
pub use chacha20::ChaCha20;
pub use dh::{DhGroup, DhKeyPair};
pub use drbg::Drbg;
pub use hmac::hmac_sha256;
pub use md5::md5;
pub use rc4::Rc4;
pub use rsa::{RsaError, RsaPrivateKey, RsaPublicKey};
pub use sha256::{sha256, Sha256};
