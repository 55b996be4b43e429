//! Property-style tests for the crypto substrate.
//!
//! Inputs are generated from the crate's own deterministic DRBG
//! rather than an external property-testing framework, so the suite
//! builds and runs with no registry access and every failure
//! reproduces from the fixed seed.

use iotls_crypto::bigint::Uint;
use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_crypto::sha256::sha256;
use iotls_crypto::{ChaCha20, Rc4};

/// Runs `body` for `n` generated cases, each with its own fork of a
/// fixed-seed DRBG (case index in the label keeps cases independent).
fn cases(n: u64, label: &str, mut body: impl FnMut(&mut Drbg)) {
    let root = Drbg::from_seed(0xC4_5E5).fork(label);
    for i in 0..n {
        let mut rng = root.fork(&format!("case-{i}"));
        body(&mut rng);
    }
}

fn random_bytes(rng: &mut Drbg, max_len: u64) -> Vec<u8> {
    let len = rng.below(max_len + 1) as usize;
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

fn random_uint(rng: &mut Drbg) -> Uint {
    Uint::from_be_bytes(&random_bytes(rng, 39))
}

#[test]
fn add_commutes() {
    cases(128, "add-commutes", |rng| {
        let (a, b) = (random_uint(rng), random_uint(rng));
        assert_eq!(a.add(&b), b.add(&a));
    });
}

#[test]
fn add_sub_roundtrip() {
    cases(128, "add-sub", |rng| {
        let (a, b) = (random_uint(rng), random_uint(rng));
        assert_eq!(a.add(&b).sub(&b), a);
    });
}

#[test]
fn mul_commutes_and_distributes() {
    cases(128, "mul", |rng| {
        let (a, b, c) = (random_uint(rng), random_uint(rng), random_uint(rng));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    });
}

#[test]
fn divrem_identity() {
    cases(128, "divrem", |rng| {
        let a = random_uint(rng);
        let b = random_uint(rng);
        if b.is_zero() {
            return;
        }
        let (q, r) = a.divrem(&b);
        assert!(r < b.clone());
        assert_eq!(q.mul(&b).add(&r), a);
    });
}

#[test]
fn shift_roundtrip() {
    cases(128, "shift", |rng| {
        let a = random_uint(rng);
        let s = rng.below(200) as usize;
        assert_eq!(a.shl(s).shr(s), a);
    });
}

#[test]
fn bytes_roundtrip() {
    cases(128, "bytes", |rng| {
        let a = random_uint(rng);
        assert_eq!(Uint::from_be_bytes(&a.to_be_bytes()), a);
    });
}

#[test]
fn hex_roundtrip() {
    cases(128, "hex", |rng| {
        let a = random_uint(rng);
        assert_eq!(Uint::from_hex(&a.to_hex()).unwrap(), a);
    });
}

#[test]
fn modpow_multiplicative() {
    cases(64, "modpow", |rng| {
        let (a, b, m) = (random_uint(rng), random_uint(rng), random_uint(rng));
        if m.is_zero() {
            return;
        }
        // (a*b)^e mod m == a^e * b^e mod m
        let e = Uint::from_u64(rng.below(50));
        let lhs = a.mul(&b).modpow(&e, &m);
        let rhs = a.modpow(&e, &m).modmul(&b.modpow(&e, &m), &m);
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn modinv_inverts() {
    cases(128, "modinv", |rng| {
        let (a, m) = (random_uint(rng), random_uint(rng));
        if m.cmp_val(&Uint::from_u64(2)) != std::cmp::Ordering::Greater {
            return;
        }
        if let Some(inv) = a.modinv(&m) {
            assert!(a.modmul(&inv, &m).is_one());
        } else {
            assert!(!a.gcd(&m).is_one() || a.rem(&m).is_zero());
        }
    });
}

/// Limb counts the Montgomery dispatch serves with fixed-width kernels
/// (4, 8, 12), plus one it sends to the generic slice path (6).
const DISPATCH_LIMBS: [usize; 4] = [4, 6, 8, 12];

/// Odd moduli of exactly `k` limbs: a random one, the all-ones value
/// and `2^(64k−1) + 1`.
fn edge_moduli(rng: &mut Drbg, k: usize) -> [Uint; 3] {
    let mut bytes = vec![0u8; 8 * k];
    rng.fill_bytes(&mut bytes);
    bytes[0] |= 0x80;
    bytes[8 * k - 1] |= 1;
    let top = Uint::one().shl(64 * k - 1);
    [
        Uint::from_be_bytes(&bytes),
        top.shl(1).sub(&Uint::one()),
        top.add(&Uint::one()),
    ]
}

/// Bases 0, 1, `m − 1`, one at or above `m`, and a random one.
fn edge_bases(rng: &mut Drbg, m: &Uint) -> [Uint; 5] {
    [
        Uint::zero(),
        Uint::one(),
        m.sub(&Uint::one()),
        m.add(&random_uint(rng)),
        random_uint(rng).rem(m),
    ]
}

/// A random exponent of exactly `bits` bits.
fn exponent_of_bits(rng: &mut Drbg, bits: usize) -> Uint {
    let mut bytes = vec![0u8; bits.div_ceil(8)];
    rng.fill_bytes(&mut bytes);
    let e = Uint::from_be_bytes(&bytes).rem(&Uint::one().shl(bits - 1));
    e.add(&Uint::one().shl(bits - 1))
}

/// Exponents 0, 1, 15, 16, 17, 255, 65537 and 2^64 − 1, and random
/// ones of 256, 257 and 512 bits: every window width the ladder picks
/// (1 to 5), and the lengths of the simulator's RSA and DH exponents.
fn edge_exponents(rng: &mut Drbg) -> Vec<Uint> {
    let mut out: Vec<Uint> = [0, 1, 15, 16, 17, 255, 65537, u64::MAX]
        .into_iter()
        .map(Uint::from_u64)
        .collect();
    for bits in [256, 257, 512] {
        out.push(exponent_of_bits(rng, bits));
    }
    out
}

#[test]
fn montgomery_modpow_matches_generic_oracle() {
    // `Uint::modpow` dispatches to the Montgomery fast path for odd
    // moduli and to the schoolbook ladder otherwise; both must agree
    // with the ladder everywhere, including the dispatch boundary.
    cases(48, "mont-vs-generic", |rng| {
        let (a, e) = (random_uint(rng), random_uint(rng));
        let mut m = random_uint(rng);
        if m.is_zero() {
            return;
        }
        // Half the cases force an odd modulus (Montgomery path), the
        // other half keep whatever parity came out (even moduli take
        // the generic path and must stay bit-identical too).
        if rng.below(2) == 0 && m.is_even() {
            m = m.add(&Uint::one());
        }
        assert_eq!(a.modpow(&e, &m), a.modpow_generic(&e, &m), "m={}", m.to_hex());
    });
    // Every limb count the dispatch serves, and one it does not, over
    // edge moduli, bases and exponents.
    cases(6, "mont-vs-generic-limbs", |rng| {
        for k in DISPATCH_LIMBS {
            for m in edge_moduli(rng, k) {
                for a in edge_bases(rng, &m) {
                    for e in edge_exponents(rng) {
                        assert_eq!(
                            a.modpow(&e, &m),
                            a.modpow_generic(&e, &m),
                            "k={k} m={} a={} e={}",
                            m.to_hex(),
                            a.to_hex(),
                            e.to_hex()
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn montgomery_context_mul_matches_modmul() {
    use iotls_crypto::mont::MontCtx;
    let check = |m: &Uint, a: &Uint, b: &Uint| {
        let ctx = MontCtx::new(m).expect("odd modulus > 1 must build a context");
        let (am, bm) = (ctx.to_mont(a), ctx.to_mont(b));
        let product = ctx.from_mont(&ctx.mont_mul(&am, &bm));
        assert_eq!(product, a.modmul(b, m), "m={} a={} b={}", m.to_hex(), a.to_hex(), b.to_hex());
        // The squaring kernel against the multiply kernel, same operand.
        assert_eq!(ctx.mont_sqr(&am), ctx.mont_mul(&am, &am), "m={} a={}", m.to_hex(), a.to_hex());
    };
    cases(48, "mont-mul", |rng| {
        let mut m = random_uint(rng);
        if m.is_even() {
            m = m.add(&Uint::one());
        }
        if m.is_one() {
            return;
        }
        let (a, b) = (random_uint(rng).rem(&m), random_uint(rng).rem(&m));
        check(&m, &a, &b);
    });
    // Operands 0, 1, m − 1 and random ones below every edge modulus of
    // every limb count the dispatch serves, and one it does not.
    cases(8, "mont-mul-limbs", |rng| {
        for k in DISPATCH_LIMBS {
            for m in edge_moduli(rng, k) {
                let operands: Vec<Uint> = edge_bases(rng, &m)
                    .into_iter()
                    .map(|x| x.rem(&m))
                    .collect();
                for a in &operands {
                    for b in &operands {
                        check(&m, a, b);
                    }
                }
            }
        }
    });
}

#[test]
fn montgomery_rejects_even_moduli() {
    use iotls_crypto::mont::MontCtx;
    cases(48, "mont-even", |rng| {
        let mut m = random_uint(rng);
        if !m.is_even() {
            m = m.add(&Uint::one());
        }
        assert!(MontCtx::new(&m).is_none());
    });
}

#[test]
fn sha256_deterministic_and_sensitive() {
    cases(128, "sha256", |rng| {
        let data = random_bytes(rng, 299);
        let d1 = sha256(&data);
        assert_eq!(d1, sha256(&data));
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            assert_ne!(d1, sha256(&flipped));
        }
    });
}

#[test]
fn rc4_roundtrip() {
    cases(128, "rc4", |rng| {
        let mut key = vec![0u8; rng.range(1, 64) as usize];
        rng.fill_bytes(&mut key);
        let msg = random_bytes(rng, 199);
        let mut buf = msg.clone();
        Rc4::new(&key).apply(&mut buf);
        Rc4::new(&key).apply(&mut buf);
        assert_eq!(buf, msg);
    });
}

#[test]
fn chacha20_roundtrip() {
    cases(128, "chacha20", |rng| {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let msg = random_bytes(rng, 199);
        let mut buf = msg.clone();
        ChaCha20::new(&key, &nonce, 0).apply(&mut buf);
        ChaCha20::new(&key, &nonce, 0).apply(&mut buf);
        assert_eq!(buf, msg);
    });
}

#[test]
fn drbg_below_in_bounds() {
    cases(128, "below", |rng| {
        let bound = rng.range(1, 10_000);
        let mut d = Drbg::from_seed(rng.next_u64());
        for _ in 0..20 {
            assert!(d.below(bound) < bound);
        }
    });
}

// RSA keygen is too slow to regenerate per case; use one key and vary
// the message instead.
fn shared_key() -> &'static RsaPrivateKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xA11CE)))
}

#[test]
fn rsa_sign_verify_any_message() {
    cases(24, "rsa-sign", |rng| {
        let msg = random_bytes(rng, 199);
        let key = shared_key();
        let sig = key.sign(&msg);
        assert!(key.public_key().verify(&msg, &sig).is_ok());
        let mut other = msg.clone();
        other.push(0);
        assert!(key.public_key().verify(&other, &sig).is_err());
    });
}

#[test]
fn rsa_crt_signatures_match_full_exponentiation() {
    // The CRT fast path must be byte-identical to the plain c^d mod n
    // computation — certificate bytes across the whole testbed depend
    // on it.
    let crt_key = shared_key();
    let plain_key = crt_key.without_crt();
    cases(16, "rsa-crt", |rng| {
        let msg = random_bytes(rng, 199);
        assert_eq!(crt_key.sign(&msg), plain_key.sign(&msg));
    });
}

#[test]
fn rsa_encrypt_decrypt_any_message() {
    cases(24, "rsa-encrypt", |rng| {
        let msg = random_bytes(rng, 48);
        let key = shared_key();
        let ct = key.public_key().encrypt(&msg, rng).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), msg);
    });
}
