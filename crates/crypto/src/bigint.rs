//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`Uint`] stores little-endian `u64` limbs and implements the
//! operations the PKI substrate needs: add, sub, mul, division with
//! remainder (Knuth Algorithm D), modular exponentiation, modular
//! inverse, and GCD. The implementation favors clarity and robustness
//! over raw speed; all sizes used by the simulator (≤ 2048 bits) are
//! comfortably fast.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` never has trailing zero limbs; zero is the empty
/// limb vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Uint {
    pub(crate) limbs: Vec<u64>,
}

impl Uint {
    /// The value zero.
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Builds a `Uint` from a single machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Uint::zero()
        } else {
            Uint { limbs: vec![v] }
        }
    }

    /// Builds a `Uint` from big-endian bytes (leading zeros allowed).
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut word = [0u8; 8];
            word[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(word));
        }
        let mut out = Uint { limbs };
        out.normalize();
        out
    }

    /// Serializes to big-endian bytes with no leading zeros (zero
    /// serializes to an empty vector).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with
    /// zeros. Returns `None` if the value does not fit.
    pub fn to_be_bytes_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_be_bytes();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True if the lowest bit is clear (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian indexing).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, rhs: &Uint) -> Uint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = Uint { limbs: out };
        r.normalize();
        r
    }

    /// Subtraction; panics if `rhs > self` (the substrate never needs
    /// signed arithmetic).
    pub fn sub(&self, rhs: &Uint) -> Uint {
        assert!(
            self.cmp_val(rhs) != Ordering::Less,
            "Uint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = Uint { limbs: out };
        r.normalize();
        r
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, rhs: &Uint) -> Uint {
        if self.is_zero() || rhs.is_zero() {
            return Uint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = Uint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Uint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let (words, rem) = (bits / 64, bits % 64);
        let mut out = vec![0u64; words];
        if rem == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << rem) | carry);
                carry = l >> (64 - rem);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = Uint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Uint {
        let (words, rem) = (bits / 64, bits % 64);
        if words >= self.limbs.len() {
            return Uint::zero();
        }
        let mut out: Vec<u64> = self.limbs[words..].to_vec();
        if rem > 0 {
            for i in 0..out.len() {
                let high = out.get(i + 1).copied().unwrap_or(0);
                out[i] = (out[i] >> rem) | (high << (64 - rem));
            }
        }
        let mut r = Uint { limbs: out };
        r.normalize();
        r
    }

    /// Three-way comparison (named to avoid clashing with `Ord::cmp`).
    pub fn cmp_val(&self, rhs: &Uint) -> Ordering {
        if self.limbs.len() != rhs.limbs.len() {
            return self.limbs.len().cmp(&rhs.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&rhs.limbs[i]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Division with remainder: returns `(quotient, remainder)`.
    ///
    /// Uses Knuth Algorithm D with base 2^64 and `u128` intermediates.
    /// Panics on division by zero.
    pub fn divrem(&self, divisor: &Uint) -> (Uint, Uint) {
        assert!(!divisor.is_zero(), "Uint::divrem division by zero");
        match self.cmp_val(divisor) {
            Ordering::Less => return (Uint::zero(), self.clone()),
            Ordering::Equal => return (Uint::one(), Uint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            let mut quot = Uint { limbs: q };
            quot.normalize();
            return (quot, Uint::from_u64(rem as u64));
        }

        // Knuth Algorithm D. Normalize so the divisor's top bit is set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        let n = v.len();
        let m = u.len() - n;
        u.push(0); // u has m + n + 1 limbs

        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_next = v[n - 2];

        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current
            // window against the top limb of v.
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut q_hat = num / v_top as u128;
            let mut r_hat = num % v_top as u128;
            // Correct q_hat (at most twice per Knuth).
            while q_hat >> 64 != 0
                || q_hat * v_next as u128 > ((r_hat << 64) | u[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >> 64 != 0 {
                    break;
                }
            }
            // Multiply and subtract: u[j..j+n+1] -= q_hat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let prod = q_hat * v[i] as u128 + carry;
                carry = prod >> 64;
                let sub = u[j + i] as i128 - (prod as u64) as i128 + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = sub as u64;
            borrow = sub >> 64;

            if borrow < 0 {
                // q_hat was one too large; add v back.
                q_hat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let sum = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = sum as u64;
                    carry = sum >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = q_hat as u64;
        }

        let mut quot = Uint { limbs: q };
        quot.normalize();
        let mut rem = Uint {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        (quot, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Uint) -> Uint {
        self.divrem(m).1
    }

    /// Modular multiplication `(self * rhs) mod m`.
    pub fn modmul(&self, rhs: &Uint, m: &Uint) -> Uint {
        self.mul(rhs).rem(m)
    }

    /// Modular exponentiation `self^exp mod m`, one-shot: an odd
    /// modulus gets a fresh [`crate::mont::MontCtx`] (one R² division)
    /// and its windowed ladder, an even one [`Self::modpow_generic`].
    /// Nothing is cached; an object that exponentiates on one modulus
    /// again and again holds that modulus's context instead. Panics if
    /// `m` is zero.
    pub fn modpow(&self, exp: &Uint, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "Uint::modpow zero modulus");
        match crate::mont::MontCtx::new(m) {
            Some(ctx) => ctx.modpow(self, exp),
            None => self.modpow_generic(exp, m),
        }
    }

    /// Reference modular exponentiation via left-to-right
    /// square-and-multiply, with a full division per step. Kept as the
    /// even-modulus fallback and as the cross-check oracle for the
    /// Montgomery path's property tests. Panics if `m` is zero.
    pub fn modpow_generic(&self, exp: &Uint, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "Uint::modpow zero modulus");
        if m.is_one() {
            return Uint::zero();
        }
        let mut result = Uint::one();
        let base = self.rem(m);
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            result = result.modmul(&result, m);
            if exp.bit(i) {
                result = result.modmul(&base, m);
            }
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid; divrem is fast
    /// enough at our sizes).
    pub fn gcd(&self, rhs: &Uint) -> Uint {
        let (mut a, mut b) = (self.clone(), rhs.clone());
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `m` via the extended Euclidean
    /// algorithm. Returns `None` when `gcd(self, m) != 1`.
    pub fn modinv(&self, m: &Uint) -> Option<Uint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Track coefficients with an explicit sign to stay unsigned.
        let (mut old_r, mut r) = (self.rem(m), m.clone());
        let (mut old_s, mut s) = ((Uint::one(), false), (Uint::zero(), false));
        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let qs = q.mul(&s.0);
            // new_s = old_s - q * s, with sign bookkeeping.
            let new_s = signed_sub(&old_s, &(qs, s.1));
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None;
        }
        let (mag, neg) = old_s;
        Some(if neg { m.sub(&mag.rem(m)).rem(m) } else { mag.rem(m) })
    }

    /// Parses a hexadecimal string (no prefix). Returns `None` on any
    /// non-hex character.
    pub fn from_hex(s: &str) -> Option<Uint> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut idx = 0;
        if chars.len() % 2 == 1 {
            bytes.push(hex_val(chars[0])?);
            idx = 1;
        }
        while idx < chars.len() {
            bytes.push(hex_val(chars[idx])? << 4 | hex_val(chars[idx + 1])?);
            idx += 2;
        }
        Some(Uint::from_be_bytes(&bytes))
    }

    /// Lowercase hexadecimal rendering ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let bytes = self.to_be_bytes();
        let mut out = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{:x}", b));
            } else {
                out.push_str(&format!("{:02x}", b));
            }
        }
        out
    }
}

/// Signed subtraction over (magnitude, is_negative) pairs.
fn signed_sub(a: &(Uint, bool), b: &(Uint, bool)) -> (Uint, bool) {
    match (a.1, b.1) {
        // a - b with equal signs: magnitude subtraction.
        (false, false) => {
            if a.0.cmp_val(&b.0) != Ordering::Less {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        (true, true) => {
            if b.0.cmp_val(&a.0) != Ordering::Less {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
        // Opposite signs: magnitudes add.
        (false, true) => (a.0.add(&b.0), false),
        (true, false) => (a.0.add(&b.0), true),
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{})", self.to_hex())
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_val(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Uint {
        Uint::from_u64(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(Uint::zero().is_zero());
        assert!(Uint::one().is_one());
        assert!(!Uint::one().is_zero());
        assert_eq!(Uint::zero().bit_len(), 0);
        assert_eq!(Uint::one().bit_len(), 1);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = Uint::from_hex("ffffffffffffffff").unwrap();
        let b = u(1);
        assert_eq!(a.add(&b).to_hex(), "10000000000000000");
    }

    #[test]
    fn sub_with_borrow_across_limbs() {
        let a = Uint::from_hex("10000000000000000").unwrap();
        assert_eq!(a.sub(&u(1)).to_hex(), "ffffffffffffffff");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        u(1).sub(&u(2));
    }

    #[test]
    fn mul_known_values() {
        let a = Uint::from_hex("ffffffffffffffff").unwrap();
        assert_eq!(a.mul(&a).to_hex(), "fffffffffffffffe0000000000000001");
        assert!(a.mul(&Uint::zero()).is_zero());
    }

    #[test]
    fn shifts_roundtrip() {
        let a = Uint::from_hex("deadbeefcafebabe1234").unwrap();
        assert_eq!(a.shl(77).shr(77), a);
        assert_eq!(a.shr(200), Uint::zero());
    }

    #[test]
    fn divrem_single_limb() {
        let a = Uint::from_hex("123456789abcdef0123456789").unwrap();
        let (q, r) = a.divrem(&u(0x1000));
        assert_eq!(q.to_hex(), "123456789abcdef0123456");
        assert_eq!(r.to_hex(), "789");
    }

    #[test]
    fn divrem_multi_limb_identity() {
        let a = Uint::from_hex(
            "b4c1f9e0d8a7265341908fedcba9876543210fedcba98765432100123456789",
        )
        .unwrap();
        let b = Uint::from_hex("fedcba98765432100fedcba987654321").unwrap();
        let (q, r) = a.divrem(&b);
        assert!(r.cmp_val(&b) == Ordering::Less);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn divrem_requires_qhat_correction() {
        // Crafted case where the initial q_hat estimate is too large.
        let a = Uint::from_hex("7fffffffffffffff8000000000000000").unwrap();
        let b = Uint::from_hex("80000000000000000000000000000001").unwrap();
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // 2^(p-1) mod p == 1 for prime p.
        let p = Uint::from_u64(1_000_000_007);
        let exp = p.sub(&Uint::one());
        assert!(u(2).modpow(&exp, &p).is_one());
    }

    #[test]
    fn modpow_large_known() {
        // 3^200 mod 1007 computed independently = 559? Verify via
        // repeated squaring in u128-safe chunks instead: trust identity
        // 3^200 = (3^100)^2.
        let m = u(1007);
        let a100 = u(3).modpow(&u(100), &m);
        let a200 = u(3).modpow(&u(200), &m);
        assert_eq!(a100.modmul(&a100, &m), a200);
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(u(48).gcd(&u(18)), u(6));
        let inv = u(3).modinv(&u(7)).unwrap();
        assert_eq!(inv, u(5)); // 3*5 = 15 ≡ 1 mod 7
        assert!(u(2).modinv(&u(4)).is_none());
    }

    #[test]
    fn modinv_large() {
        let m = Uint::from_hex("fedcba98765432100fedcba987654321").unwrap();
        let a = Uint::from_hex("123456789abcdf0").unwrap();
        let inv = a.modinv(&m).unwrap();
        assert!(a.modmul(&inv, &m).is_one());
        // And a pair sharing a factor (gcd = 15) has no inverse.
        let not_coprime = Uint::from_hex("123456789abcdef").unwrap();
        assert!(not_coprime.modinv(&m).is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Uint::from_hex("00ff00deadbeef").unwrap();
        let bytes = a.to_be_bytes();
        assert_eq!(Uint::from_be_bytes(&bytes), a);
        assert_eq!(bytes[0], 0xff); // leading zero stripped
    }

    #[test]
    fn padded_bytes() {
        let a = u(0xabcd);
        assert_eq!(a.to_be_bytes_padded(4).unwrap(), vec![0, 0, 0xab, 0xcd]);
        assert!(a.to_be_bytes_padded(1).is_none());
    }

    #[test]
    fn hex_roundtrip_odd_length() {
        let a = Uint::from_hex("abc").unwrap();
        assert_eq!(a, u(0xabc));
        assert_eq!(a.to_hex(), "abc");
        assert!(Uint::from_hex("xyz").is_none());
        assert!(Uint::from_hex("").is_none());
    }

    #[test]
    fn bit_indexing() {
        let a = Uint::from_hex("8000000000000001").unwrap();
        assert!(a.bit(0));
        assert!(a.bit(63));
        assert!(!a.bit(32));
        assert!(!a.bit(640));
    }
}
