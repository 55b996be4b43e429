//! Probabilistic primality testing and random prime generation.

use crate::bigint::Uint;
use crate::drbg::Drbg;
use crate::mont::MontCtx;

/// Small primes used for fast trial-division filtering of candidates.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Miller–Rabin primality test with `rounds` random bases.
///
/// Returns `true` when `n` is (probably) prime. Deterministically
/// correct for all `n < 2^64` regardless of `rounds` is *not*
/// guaranteed here — this is the standard probabilistic variant; with
/// 24 rounds the error probability is below 2^-48.
///
/// Trial division folds each small-prime remainder over the limbs
/// without allocating, and every round runs on one [`MontCtx`] built
/// for this candidate: a throwaway candidate never enters the
/// process-wide context cache that the handshakes' moduli live in.
pub fn is_probably_prime(n: &Uint, rounds: u32, rng: &mut Drbg) -> bool {
    // Only a one-limb `n` can equal or undercut a small prime.
    let word = match n.limbs.as_slice() {
        [] => Some(0),
        [w] => Some(*w),
        _ => None,
    };
    if word.is_some_and(|w| w < 2) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        match word {
            Some(w) if w == p => return true,
            Some(w) if w < p => return false,
            _ if rem_small(n, p) == 0 => return false,
            _ => {}
        }
    }
    // Write n-1 = d * 2^r with d odd (n is odd here, so r >= 1).
    let n_minus_1 = n.sub(&Uint::one());
    let r = (0..).find(|&i| n_minus_1.bit(i)).expect("n - 1 is nonzero");
    let d = n_minus_1.shr(r);
    let n_minus_3 = n.sub(&Uint::from_u64(3));
    let ctx = MontCtx::new(n).expect("odd candidate above the small primes");
    // Squarings stay in Montgomery form, where x == n-1 exactly when
    // x·R == (n-1)·R (mod n).
    let minus_one = ctx.to_mont(&n_minus_1);
    'witness: for _ in 0..rounds {
        // Random base a in [2, n-2].
        let a = random_below(&n_minus_3, rng).add(&Uint::from_u64(2));
        let x = ctx.modpow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        let mut x = ctx.to_mont(&x);
        for _ in 1..r {
            x = ctx.mont_mul(&x, &x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `n mod p` for a one-word divisor, folded over the limbs from the
/// most significant down.
fn rem_small(n: &Uint, p: u64) -> u64 {
    n.limbs.iter().rev().fold(0, |r, &limb| {
        ((u128::from(r) << 64 | u128::from(limb)) % u128::from(p)) as u64
    })
}

/// Uniform random `Uint` in `[0, bound)` via rejection sampling.
pub fn random_below(bound: &Uint, rng: &mut Drbg) -> Uint {
    assert!(!bound.is_zero());
    let bits = bound.bit_len();
    let bytes = bits.div_ceil(8);
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        // Mask excess high bits so rejection is efficient.
        let excess = bytes * 8 - bits;
        if excess > 0 {
            buf[0] &= 0xff >> excess;
        }
        let v = Uint::from_be_bytes(&buf);
        if v.cmp_val(bound) == std::cmp::Ordering::Less {
            return v;
        }
    }
}

/// Generates a random prime with exactly `bits` significant bits.
///
/// The top two bits are forced to 1 (so RSA moduli built from two
/// such primes have exactly `2*bits` bits) and the low bit is forced
/// to 1 (odd).
pub fn generate_prime(bits: usize, rng: &mut Drbg) -> Uint {
    assert!(bits >= 16, "prime size too small for RSA simulation");
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes];
    loop {
        rng.fill_bytes(&mut buf);
        let excess = bytes * 8 - bits;
        buf[0] &= 0xff >> excess;
        // Force the top two bits of the requested width.
        buf[0] |= 0xc0u8.checked_shr(excess as u32).unwrap_or(0);
        if excess >= 7 {
            // Width boundary falls inside the second byte.
            buf[1] |= 0x80;
        }
        *buf.last_mut().unwrap() |= 1;
        let candidate = Uint::from_be_bytes(&buf);
        debug_assert_eq!(candidate.bit_len(), bits);
        if is_probably_prime(&candidate, 24, rng) {
            return candidate;
        }
    }
}

/// The reference prime search: every small-prime remainder through
/// `Uint::rem`, every round through the cached `Uint::modpow`, `d` by
/// repeated halving, squarings by `Uint::modmul`. The fast path must
/// match it draw for draw.
#[cfg(test)]
mod oracle {
    use super::{random_below, SMALL_PRIMES};
    use crate::bigint::Uint;
    use crate::drbg::Drbg;

    pub fn is_probably_prime(n: &Uint, rounds: u32, rng: &mut Drbg) -> bool {
        if n.cmp_val(&Uint::from_u64(2)) == std::cmp::Ordering::Less {
            return false;
        }
        for &p in &SMALL_PRIMES {
            let pu = Uint::from_u64(p);
            match n.cmp_val(&pu) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => {
                    if n.rem(&pu).is_zero() {
                        return false;
                    }
                }
            }
        }
        let one = Uint::one();
        let n_minus_1 = n.sub(&one);
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while d.is_even() {
            d = d.shr(1);
            r += 1;
        }
        let n_minus_3 = n.sub(&Uint::from_u64(3));
        'witness: for _ in 0..rounds {
            let a = random_below(&n_minus_3, rng).add(&Uint::from_u64(2));
            let mut x = a.modpow(&d, n);
            if x.is_one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..r.saturating_sub(1) {
                x = x.modmul(&x, n);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    pub fn generate_prime(bits: usize, rng: &mut Drbg) -> Uint {
        let bytes = bits.div_ceil(8);
        loop {
            let mut buf = vec![0u8; bytes];
            rng.fill_bytes(&mut buf);
            let excess = bytes * 8 - bits;
            buf[0] &= 0xff >> excess;
            buf[0] |= 0xc0u8.checked_shr(excess as u32).unwrap_or(0);
            if excess >= 7 {
                buf[1] |= 0x80;
            }
            *buf.last_mut().unwrap() |= 1;
            let candidate = Uint::from_be_bytes(&buf);
            if is_probably_prime(&candidate, 24, rng) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Drbg {
        Drbg::from_seed(0xD1CE)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 251, 257, 65537, 1_000_000_007] {
            assert!(
                is_probably_prime(&Uint::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn composites_rejected() {
        let mut r = rng();
        for c in [1u64, 4, 9, 15, 91, 561, 41041, 825265, 1_000_000_008] {
            assert!(
                !is_probably_prime(&Uint::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_probably_prime(&Uint::from_u64(c), 16, &mut r));
        }
    }

    #[test]
    fn generated_prime_has_exact_bit_length() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(is_probably_prime(&p, 16, &mut r));
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut r = rng();
        let bound = Uint::from_u64(1000);
        for _ in 0..200 {
            assert!(random_below(&bound, &mut r) < bound);
        }
    }

    #[test]
    fn prime_generation_is_deterministic() {
        let mut a = rng();
        let mut b = rng();
        assert_eq!(generate_prime(96, &mut a), generate_prime(96, &mut b));
    }

    #[test]
    fn prime_search_matches_the_oracle_draw_for_draw() {
        // Equal primes and an equal next draw mean the same candidates,
        // the same verdicts and the same Miller–Rabin bases.
        for seed in 0..320u64 {
            let mut fast = Drbg::from_seed(seed);
            let mut slow = Drbg::from_seed(seed);
            assert_eq!(
                generate_prime(256, &mut fast),
                oracle::generate_prime(256, &mut slow),
                "seed {seed}"
            );
            assert_eq!(fast.next_u64(), slow.next_u64(), "seed {seed}");
        }
        // Small and edge inputs, one shared stream per path.
        let mut fast = rng();
        let mut slow = rng();
        for v in (0u64..2_000).chain([65_537, 1_000_000_007, 1_000_000_008, u64::MAX]) {
            let n = Uint::from_u64(v);
            assert_eq!(
                is_probably_prime(&n, 8, &mut fast),
                oracle::is_probably_prime(&n, 8, &mut slow),
                "{v}"
            );
        }
        assert_eq!(fast.next_u64(), slow.next_u64());
    }

    #[test]
    fn generated_prime_is_pinned() {
        let mut r = Drbg::from_seed(0xD1CE);
        let p = generate_prime(256, &mut r);
        assert_eq!(
            p.to_hex(),
            "fc745aa6823d102361f58775ac35d4da418a6acc7857fffe0d86c2395f1dae65"
        );
        assert_eq!(r.next_u64(), 0xcbfba8cf5c9c9ea8);
    }

    #[test]
    fn prime_search_leaves_the_context_cache_alone() {
        // A seed no other test draws from, so nothing else in this
        // process can have cached the prime it yields.
        let p = generate_prime(256, &mut Drbg::from_seed(0x0CAC_4E0F_F5EA_4C40));
        assert!(!MontCtx::is_cached(&p));
    }
}
