//! RSA key generation, signatures, and key transport, from scratch.
//!
//! Signatures follow the shape of RSASSA-PKCS1-v1_5 with SHA-256:
//! `EM = 0x00 || 0x01 || 0xFF.. || 0x00 || prefix || H(m)`, then
//! `s = EM^d mod n`. Encryption follows RSAES-PKCS1-v1_5 (type 2
//! padding) and is used for the simulated TLS RSA key exchange.
//!
//! Key sizes in the simulator default to 512-bit moduli — small by
//! modern standards but sound for the reproduction: the property the
//! IoTLS methodology depends on is that *forging a signature without
//! the private key is infeasible for the simulated attacker*, which
//! holds because the MITM code never has access to CA private keys.

use crate::bigint::Uint;
use crate::drbg::Drbg;
use crate::prime::generate_prime;
use crate::sha256::sha256;

/// ASN.1-style DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
    0x05, 0x00, 0x04, 0x20,
];

/// Errors from RSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// The message (plus padding) does not fit in the modulus.
    MessageTooLong,
    /// A ciphertext or signature failed structural/padding checks.
    InvalidPadding,
    /// Signature did not verify.
    BadSignature,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::InvalidPadding => write!(f, "invalid RSA padding"),
            RsaError::BadSignature => write!(f, "RSA signature verification failed"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: Uint,
    e: Uint,
}

/// An RSA private key (keeps the public half alongside `d`).
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: Uint,
    /// CRT acceleration parameters; present for keys produced by
    /// [`RsaPrivateKey::generate`], absent only for keys whose factors
    /// are unknown.
    crt: Option<CrtParams>,
}

/// Precomputed Chinese-remainder parameters for the private operation:
/// two half-size exponentiations plus a Garner recombination instead of
/// one full-size exponentiation (~4× at any key size).
#[derive(Clone)]
struct CrtParams {
    p: Uint,
    q: Uint,
    /// `d mod (p-1)`.
    dp: Uint,
    /// `d mod (q-1)`.
    dq: Uint,
    /// `q^{-1} mod p`.
    qinv: Uint,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never render the private exponent.
        write!(f, "RsaPrivateKey(n={}...)", &self.public.n.to_hex()[..16.min(self.public.n.to_hex().len())])
    }
}

impl RsaPublicKey {
    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Stable serialized form (`n || e`, length-prefixed) used for key
    /// identifiers and certificate embedding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_be_bytes();
        let e = self.e.to_be_bytes();
        let mut out = Vec::with_capacity(n.len() + e.len() + 8);
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the serialized form produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let n_len = u32::from_be_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
        let n = Uint::from_be_bytes(bytes.get(4..4 + n_len)?);
        let rest = &bytes[4 + n_len..];
        let e_len = u32::from_be_bytes(rest.get(0..4)?.try_into().ok()?) as usize;
        let e = Uint::from_be_bytes(rest.get(4..4 + e_len)?);
        if rest.len() != 4 + e_len {
            return None;
        }
        Some(RsaPublicKey { n, e })
    }

    /// SHA-256 fingerprint of the public key (a stable key identifier).
    pub fn fingerprint(&self) -> [u8; 32] {
        sha256(&self.to_bytes())
    }

    /// Verifies an RSASSA-PKCS1-v1_5/SHA-256-shaped signature on `msg`.
    pub fn verify(&self, msg: &[u8], sig: &[u8]) -> Result<(), RsaError> {
        let k = self.modulus_len();
        if sig.len() != k {
            return Err(RsaError::BadSignature);
        }
        let s = Uint::from_be_bytes(sig);
        if s.cmp_val(&self.n) != std::cmp::Ordering::Less {
            return Err(RsaError::BadSignature);
        }
        let em = s
            .modpow(&self.e, &self.n)
            .to_be_bytes_padded(k)
            .ok_or(RsaError::BadSignature)?;
        let expected = emsa_pkcs1(msg, k)?;
        if em == expected {
            Ok(())
        } else {
            Err(RsaError::BadSignature)
        }
    }

    /// RSAES-PKCS1-v1_5 (type 2) encryption, used for the simulated TLS
    /// RSA key exchange.
    pub fn encrypt(&self, msg: &[u8], rng: &mut Drbg) -> Result<Vec<u8>, RsaError> {
        let k = self.modulus_len();
        if msg.len() + 11 > k {
            return Err(RsaError::MessageTooLong);
        }
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        for _ in 0..k - msg.len() - 3 {
            // Nonzero random padding bytes.
            loop {
                let mut b = [0u8; 1];
                rng.fill_bytes(&mut b);
                if b[0] != 0 {
                    em.push(b[0]);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(msg);
        let m = Uint::from_be_bytes(&em);
        Ok(m
            .modpow(&self.e, &self.n)
            .to_be_bytes_padded(k)
            .expect("ciphertext fits modulus"))
    }
}

impl RsaPrivateKey {
    /// Generates a fresh keypair with a modulus of `bits` bits
    /// (`bits` must be even and ≥ 128 in this simulator).
    pub fn generate(bits: usize, rng: &mut Drbg) -> Self {
        assert!(bits >= 128 && bits.is_multiple_of(2), "unsupported RSA size");
        let e = Uint::from_u64(65537);
        loop {
            let p = generate_prime(bits / 2, rng);
            let q = generate_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&Uint::one()).mul(&q.sub(&Uint::one()));
            if let Some(d) = e.modinv(&phi) {
                let crt = Uint::modinv(&q, &p).map(|qinv| CrtParams {
                    dp: d.rem(&p.sub(&Uint::one())),
                    dq: d.rem(&q.sub(&Uint::one())),
                    p,
                    q,
                    qinv,
                });
                return RsaPrivateKey {
                    public: RsaPublicKey { n, e },
                    d,
                    crt,
                };
            }
        }
    }

    /// The private operation `c^d mod n`, via CRT halves with Garner
    /// recombination when the factorization is available.
    fn private_op(&self, c: &Uint) -> Uint {
        match &self.crt {
            Some(crt) => {
                let m1 = c.modpow(&crt.dp, &crt.p);
                let m2 = c.modpow(&crt.dq, &crt.q);
                // Garner: h = qinv * (m1 - m2) mod p; m = m2 + q * h.
                let m2p = m2.rem(&crt.p);
                let diff = if m1.cmp_val(&m2p) != std::cmp::Ordering::Less {
                    m1.sub(&m2p)
                } else {
                    m1.add(&crt.p).sub(&m2p)
                };
                let h = crt.qinv.modmul(&diff, &crt.p);
                m2.add(&crt.q.mul(&h))
            }
            None => c.modpow(&self.d, &self.public.n),
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// This key without its CRT parameters, as if loaded from a bare
    /// `(n, d)` pair. Every private operation then takes the full-size
    /// exponentiation path — useful for modeling factorization-less
    /// keys and for differential tests against the CRT path.
    pub fn without_crt(&self) -> RsaPrivateKey {
        RsaPrivateKey {
            public: self.public.clone(),
            d: self.d.clone(),
            crt: None,
        }
    }

    /// Signs `msg` (RSASSA-PKCS1-v1_5/SHA-256 shape).
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1(msg, k).expect("modulus large enough for SHA-256 signatures");
        let m = Uint::from_be_bytes(&em);
        self.private_op(&m)
            .to_be_bytes_padded(k)
            .expect("signature fits modulus")
    }

    /// RSAES-PKCS1-v1_5 decryption.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(RsaError::InvalidPadding);
        }
        let c = Uint::from_be_bytes(ciphertext);
        if c.cmp_val(&self.public.n) != std::cmp::Ordering::Less {
            return Err(RsaError::InvalidPadding);
        }
        let em = self
            .private_op(&c)
            .to_be_bytes_padded(k)
            .ok_or(RsaError::InvalidPadding)?;
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::InvalidPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::InvalidPadding)?;
        if sep < 8 {
            // Require at least 8 padding bytes, per PKCS#1.
            return Err(RsaError::InvalidPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(msg) into `k` bytes.
fn emsa_pkcs1(msg: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let digest = sha256(msg);
    let t_len = SHA256_PREFIX.len() + digest.len();
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_PREFIX);
    em.extend_from_slice(&digest);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> RsaPrivateKey {
        RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xBEEF))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = keypair();
        let sig = key.sign(b"hello world");
        assert!(key.public_key().verify(b"hello world", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = keypair();
        let sig = key.sign(b"hello world");
        assert_eq!(
            key.public_key().verify(b"hello worle", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = keypair();
        let mut sig = key.sign(b"msg");
        sig[10] ^= 0xff;
        assert!(key.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key = keypair();
        let other = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xCAFE));
        let sig = key.sign(b"msg");
        assert!(other.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let key = keypair();
        let sig = key.sign(b"msg");
        assert!(key.public_key().verify(b"msg", &sig[1..]).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = keypair();
        let mut rng = Drbg::from_seed(1);
        let pt = b"premaster-secret-48-bytes-simulated-0123456789ab";
        let ct = key.public_key().encrypt(pt, &mut rng).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), pt);
    }

    #[test]
    fn decrypt_rejects_garbage() {
        let key = keypair();
        let junk = vec![0xaa; key.public_key().modulus_len()];
        assert!(key.decrypt(&junk).is_err());
    }

    #[test]
    fn encrypt_rejects_oversized_message() {
        let key = keypair();
        let mut rng = Drbg::from_seed(2);
        let big = vec![1u8; key.public_key().modulus_len()];
        assert_eq!(
            key.public_key().encrypt(&big, &mut rng),
            Err(RsaError::MessageTooLong)
        );
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let key = keypair();
        let bytes = key.public_key().to_bytes();
        assert_eq!(
            RsaPublicKey::from_bytes(&bytes).unwrap(),
            *key.public_key()
        );
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(RsaPublicKey::from_bytes(&[]).is_none());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = keypair();
        let b = RsaPrivateKey::generate(512, &mut Drbg::from_seed(99));
        assert_eq!(a.public_key().fingerprint(), a.public_key().fingerprint());
        assert_ne!(a.public_key().fingerprint(), b.public_key().fingerprint());
    }

    #[test]
    fn crt_matches_direct_exponentiation() {
        let key = keypair();
        assert!(key.crt.is_some());
        let m = Uint::from_be_bytes(&[0x37; 60]);
        let direct = m.modpow(&key.d, &key.public.n);
        assert_eq!(key.private_op(&m), direct);
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = RsaPrivateKey::generate(256, &mut Drbg::from_seed(5));
        let b = RsaPrivateKey::generate(256, &mut Drbg::from_seed(5));
        assert_eq!(a.public_key(), b.public_key());
    }

    #[test]
    fn keygen_is_pinned() {
        let mut rng = Drbg::from_seed(0xBEEF);
        let key = RsaPrivateKey::generate(512, &mut rng);
        let digest = sha256(&key.public_key().to_bytes());
        assert_eq!(crate::sha256::hex(&digest[..8]), "81e2194a421dd0e7");
        assert_eq!(rng.next_u64(), 0x6d63b9c9ecbb1210);
    }

    #[test]
    fn crt_signature_is_pinned() {
        let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xBEEF));
        let digest = sha256(&key.sign(b"iotls-pin"));
        assert_eq!(crate::sha256::hex(&digest[..8]), "88e96e36ff17be87");
    }
}
