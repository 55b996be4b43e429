//! Deterministic random bit generator.
//!
//! Every stochastic decision in the reproduction — RSA key generation,
//! workload scheduling, handshake nonces — flows through this ChaCha20
//! based DRBG so that a single `u64` seed regenerates every table and
//! figure byte-for-byte. The seed is expanded to a 256-bit key with
//! SHA-256, and independent streams can be forked by label so that
//! adding randomness consumption in one subsystem does not perturb
//! another.

use crate::chacha20::ChaCha20;
use crate::sha256::Sha256;

/// Seeded deterministic random generator.
#[derive(Clone)]
pub struct Drbg {
    cipher: ChaCha20,
    seed_key: [u8; 32],
}

impl Drbg {
    /// Creates a DRBG from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"iotls-drbg-v1");
        h.update(&seed.to_be_bytes());
        let key = h.finalize();
        Drbg {
            cipher: ChaCha20::new(&key, &[0u8; 12], 0),
            seed_key: key,
        }
    }

    /// Forks an independent stream identified by `label`. Draws from
    /// the fork never affect the parent.
    pub fn fork(&self, label: &str) -> Drbg {
        let mut h = Sha256::new();
        h.update(b"iotls-drbg-fork");
        h.update(&self.seed_key);
        h.update(label.as_bytes());
        let key = h.finalize();
        Drbg {
            cipher: ChaCha20::new(&key, &[0u8; 12], 0),
            seed_key: key,
        }
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.cipher.keystream(buf);
    }

    /// Draws a uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    /// Draws a uniform `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draws a uniform integer in `[0, bound)` using rejection
    /// sampling (unbiased). `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Drbg::below zero bound");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Draws a uniform integer in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Drbg::range inverted bounds");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Uniform draw in `[0.0, 1.0)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Picks a uniformly random element of `slice`; `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Drbg::from_seed(42);
        let mut b = Drbg::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Drbg::from_seed(43);
        assert_ne!(Drbg::from_seed(42).next_u64(), c.next_u64());
    }

    #[test]
    fn forks_are_independent() {
        let base = Drbg::from_seed(7);
        let mut f1 = base.fork("alpha");
        let mut f2 = base.fork("beta");
        let mut f1_again = base.fork("alpha");
        assert_ne!(f1.next_u64(), f2.next_u64());
        let _ = f2.next_u64(); // consuming beta must not perturb alpha
        assert_eq!(f1.next_u64(), {
            let _ = f1_again.next_u64();
            f1_again.next_u64()
        });
    }

    /// The stream behind one gateway fault draw, pinned so a change to
    /// SHA-256, ChaCha20 or the fork derivation fails here first.
    #[test]
    fn fault_plan_fork_stream_is_pinned() {
        let mut d = Drbg::from_seed(0x6A7E)
            .fork("fault-plan")
            .fork("gw/Zmodo Doorbell/api.zmodo.example/7/try0");
        let drawn: Vec<u64> = (0..4).map(|_| d.next_u64()).collect();
        assert_eq!(
            drawn,
            [
                0x584c_0b6c_970e_a75e,
                0x03f8_36da_e65f_4fdb,
                0x3131_b708_b502_3ef2,
                0x8030_59ac_7e5b_6683,
            ]
        );
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut d = Drbg::from_seed(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = d.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut d = Drbg::from_seed(2);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2000 {
            let v = d.range(5, 8);
            assert!((5..=8).contains(&v));
            hit_lo |= v == 5;
            hit_hi |= v == 8;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut d = Drbg::from_seed(3);
        for _ in 0..50 {
            assert!(!d.chance(0.0));
            assert!(d.chance(1.0));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut d = Drbg::from_seed(4);
        let hits = (0..10_000).filter(|_| d.chance(0.3)).count();
        assert!((2600..=3400).contains(&hits), "got {hits}");
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut d = Drbg::from_seed(9);
        for _ in 0..1000 {
            let v = d.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut d = Drbg::from_seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        d.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffled order changed");
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut d = Drbg::from_seed(6);
        let empty: [u8; 0] = [];
        assert!(d.choose(&empty).is_none());
        assert!(d.choose(&[1, 2, 3]).is_some());
    }
}
