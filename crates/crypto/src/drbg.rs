//! Deterministic random bit generator.
//!
//! Every stochastic decision in the reproduction — RSA key generation,
//! workload scheduling, handshake nonces — flows through this ChaCha20
//! based DRBG so that a single `u64` seed regenerates every table and
//! figure byte-for-byte. The seed is expanded to a 256-bit key with
//! SHA-256, and independent streams can be forked by label so that
//! adding randomness consumption in one subsystem does not perturb
//! another.
//!
//! Callers that fork many labels sharing one prefix (the gateway's
//! per-session fault draws) absorb the prefix once with
//! [`Drbg::fork_prefix`] and hash only each label's rest; the forked
//! stream is the one [`Drbg::fork`] derives from the whole label. The
//! draws (`next_u64`, `below`, `range`, `chance`) are `#[inline]` so
//! callers in other crates can fold constant bounds.

use crate::chacha20::ChaCha20;
use crate::sha256::Sha256;

/// Seeded deterministic random generator.
#[derive(Clone)]
pub struct Drbg {
    cipher: ChaCha20,
    seed_key: [u8; 32],
}

/// The hash state of a fork label's fixed prefix, absorbed once by
/// [`Drbg::fork_prefix`]: `fork_prefix(p).fork(r)` is `fork(p + r)`,
/// at the cost of hashing only `r`.
#[derive(Clone)]
pub struct ForkPrefix {
    absorbed: Sha256,
}

impl ForkPrefix {
    /// Forks the stream labelled by the absorbed prefix followed by
    /// `rest`.
    pub fn fork(&self, rest: &str) -> Drbg {
        let mut h = self.absorbed.clone();
        h.update(rest.as_bytes());
        Drbg::from_key(h.finalize())
    }
}

impl Drbg {
    /// Creates a DRBG from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"iotls-drbg-v1");
        h.update(&seed.to_be_bytes());
        Drbg::from_key(h.finalize())
    }

    fn from_key(key: [u8; 32]) -> Drbg {
        Drbg {
            cipher: ChaCha20::new(&key, &[0u8; 12], 0),
            seed_key: key,
        }
    }

    /// Forks an independent stream identified by `label`. Draws from
    /// the fork never affect the parent.
    pub fn fork(&self, label: &str) -> Drbg {
        self.fork_prefix(label).fork("")
    }

    /// Absorbs `prefix`, the fixed start of a family of fork labels,
    /// so each fork of the family hashes only the rest of its label.
    pub fn fork_prefix(&self, prefix: &str) -> ForkPrefix {
        let mut h = Sha256::new();
        h.update(b"iotls-drbg-fork");
        h.update(&self.seed_key);
        h.update(prefix.as_bytes());
        ForkPrefix { absorbed: h }
    }

    /// Fills `buf` with random bytes.
    #[inline]
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.cipher.keystream(buf);
    }

    /// Draws a uniform `u64`.
    #[inline]
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
    #[inline]
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
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Drbg::range inverted bounds");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    #[inline]
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

    /// A prefix absorbed once forks what the whole label forks, at
    /// every split point (empty prefix and empty rest included) of the
    /// empty label, labels that end inside the first hash block (whose
    /// first 47 bytes are the fork's domain and seed key), a gateway
    /// fault key that crosses it, and a label that spans three blocks.
    #[test]
    fn fork_prefix_forks_what_the_joined_label_forks() {
        let base = Drbg::from_seed(0x6A7E).fork("fault-plan");
        let long = "gw/Zmodo Doorbell/api.zmodo.example/".repeat(4) + "917/try5";
        let labels = [
            "",
            "a",
            "0123456789abcdef",
            "gw/Zmodo Doorbell/api.zmodo.example/7/try0",
        ];
        for label in labels.into_iter().chain([long.as_str()]) {
            let mut want = base.fork(label);
            let want: Vec<u64> = (0..20).map(|_| want.next_u64()).collect();
            for split in 0..=label.len() {
                let (prefix, rest) = label.split_at(split);
                let absorbed = base.fork_prefix(prefix);
                let mut got = absorbed.fork(rest);
                let got: Vec<u64> = (0..20).map(|_| got.next_u64()).collect();
                assert_eq!(got, want, "{label:?} split at {split}");
                // The prefix is reusable: a second fork draws the same.
                assert_eq!(
                    absorbed.fork(rest).next_u64(),
                    want[0],
                    "{label:?} at {split}"
                );
            }
        }
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
