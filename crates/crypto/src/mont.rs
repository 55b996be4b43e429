//! Montgomery-form modular arithmetic.
//!
//! [`MontCtx`] precomputes the constants for a fixed *odd* modulus and
//! then multiplies residues with CIOS (coarsely integrated operand
//! scanning) Montgomery reduction — no multi-limb division anywhere in
//! the loop, unlike the schoolbook `mul` + `divrem` path. On top of it
//! sits a fixed 4-bit-window exponentiation ladder, which is what
//! every RSA operation in the simulator bottoms out in.
//!
//! Residues are plain `k`-limb little-endian vectors (`k` = modulus
//! limb count); conversion in and out of Montgomery form goes through
//! [`MontCtx::to_mont`] / [`MontCtx::from_mont`]. Even moduli are not
//! representable here — callers fall back to the generic path.

use crate::bigint::Uint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Window width (bits) of the exponentiation ladder.
const WINDOW: usize = 4;

/// Process-wide context cache keyed by modulus limbs. Building a
/// context costs a multi-limb division (R² mod m); the simulator
/// exercises a small, fixed set of moduli (the Oakley prime plus each
/// endpoint key's `n`/`p`/`q`), so memoizing the contexts removes that
/// division from every handshake's hot path. Capped so adversarial
/// test inputs (proptests over random moduli) cannot grow it without
/// bound.
const CTX_CACHE_CAP: usize = 256;

type CtxCache = Mutex<HashMap<Vec<u64>, Option<Arc<MontCtx>>>>;

fn ctx_cache() -> &'static CtxCache {
    static CACHE: OnceLock<CtxCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Precomputed Montgomery context for one odd modulus.
pub struct MontCtx {
    /// Modulus limbs, little-endian, length `k`.
    m: Vec<u64>,
    /// The modulus as a `Uint` (spares a rebuild per modpow).
    m_uint: Uint,
    /// `-m^{-1} mod 2^64`.
    n0: u64,
    /// `R^2 mod m` where `R = 2^(64k)`, as a `k`-limb residue.
    r2: Vec<u64>,
}

impl MontCtx {
    /// Builds the context. Returns `None` for even (or zero/one)
    /// moduli, which Montgomery reduction cannot handle.
    pub fn new(m: &Uint) -> Option<MontCtx> {
        if m.is_even() || m.is_one() || m.is_zero() {
            return None;
        }
        let limbs = m.limbs.clone();
        let k = limbs.len();
        // Newton–Hensel inversion of m[0] modulo 2^64: each step
        // doubles the number of correct low bits, so six steps from a
        // 5-bit-correct start cover all 64.
        let m0 = limbs[0];
        let mut inv = m0; // correct mod 2^5 for odd m0
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();
        // R^2 mod m via one (context-lifetime) division.
        let r2_uint = Uint::one().shl(128 * k).rem(m);
        let mut r2 = r2_uint.limbs.clone();
        r2.resize(k, 0);
        Some(MontCtx {
            m: limbs,
            m_uint: m.clone(),
            n0,
            r2,
        })
    }

    /// The context for `m`, memoized process-wide. `None` for moduli
    /// Montgomery reduction cannot handle (even, zero, one) — the
    /// negative answer is cached too.
    pub fn cached(m: &Uint) -> Option<Arc<MontCtx>> {
        let mut cache = ctx_cache().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = cache.get(m.limbs.as_slice()) {
            return hit.clone();
        }
        if cache.len() >= CTX_CACHE_CAP {
            cache.clear();
        }
        let built = MontCtx::new(m).map(Arc::new);
        cache.insert(m.limbs.clone(), built.clone());
        built
    }

    /// Whether the process-wide cache holds a context for `m`.
    #[cfg(test)]
    pub(crate) fn is_cached(m: &Uint) -> bool {
        let cache = ctx_cache().lock().unwrap_or_else(|e| e.into_inner());
        cache.contains_key(m.limbs.as_slice())
    }

    /// Modulus limb count.
    fn k(&self) -> usize {
        self.m.len()
    }

    /// CIOS Montgomery multiplication into a caller-owned scratch:
    /// computes `a * b * R^{-1} mod m` and leaves it in `t[..k]`.
    /// `t` must be `k + 2` limbs; its previous contents are ignored.
    /// This is the allocation-free core every public entry point
    /// bottoms out in. The limb counts the simulator actually uses
    /// (4 = RSA-CRT half, 8 = RSA-512 modulus, 12 = the 768-bit
    /// Oakley prime) dispatch to a monomorphized kernel whose loops
    /// the compiler fully unrolls; anything else takes the generic
    /// loop.
    fn mul_cios(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k();
        debug_assert!(a.len() == k && b.len() == k);
        debug_assert!(t.len() == k + 2);
        match k {
            4 => mul_cios_fixed::<4>(&self.m, self.n0, a, b, t),
            8 => mul_cios_fixed::<8>(&self.m, self.n0, a, b, t),
            12 => mul_cios_fixed::<12>(&self.m, self.n0, a, b, t),
            _ => mul_cios_generic(&self.m, self.n0, a, b, t),
        }
        // One conditional subtraction brings the result below m.
        if t[k] != 0 || !limbs_lt(&t[..k], &self.m) {
            sub_in_place(t, &self.m);
        }
    }

    /// CIOS Montgomery multiplication: returns `a * b * R^{-1} mod m`.
    pub fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.k();
        let mut t = vec![0u64; k + 2];
        self.mul_cios(a, b, &mut t);
        t.truncate(k);
        t
    }

    /// Converts `x` (must be `< m`) into Montgomery form.
    pub fn to_mont(&self, x: &Uint) -> Vec<u64> {
        let mut limbs = x.limbs.clone();
        limbs.resize(self.k(), 0);
        self.mont_mul(&limbs, &self.r2)
    }

    /// Converts a Montgomery residue back to a plain integer.
    pub fn from_mont(&self, x: &[u64]) -> Uint {
        let mut one = vec![0u64; self.k()];
        one[0] = 1;
        let mut out = Uint { limbs: self.mont_mul(x, &one) };
        out.normalize();
        out
    }

    /// `base^exp mod m` via a fixed 4-bit-window ladder over
    /// Montgomery residues.
    ///
    /// The ladder runs entirely inside one flat scratch allocation
    /// (window table + accumulator + CIOS temporary): a 256-bit
    /// exponent over a 768-bit modulus used to allocate ~340 result
    /// vectors, one per [`Self::mont_mul`]; it now allocates a
    /// constant handful regardless of operand size.
    pub fn modpow(&self, base: &Uint, exp: &Uint) -> Uint {
        let k = self.k();
        // Scratch layout: [window table: 16·k][accumulator: k][CIOS t: k+2].
        let mut buf = vec![0u64; (1 << WINDOW) * k + k + k + 2];
        let (table, rest) = buf.split_at_mut((1 << WINDOW) * k);
        let (acc, t) = rest.split_at_mut(k);

        // base in Montgomery form.
        let mut base_m = base.rem(&self.m_uint).limbs;
        base_m.resize(k, 0);
        self.mul_cios(&base_m, &self.r2, t);
        base_m.copy_from_slice(&t[..k]);

        // table[0] = one in Montgomery form = R mod m = mont_mul(1, R²).
        acc.fill(0);
        acc[0] = 1;
        self.mul_cios(acc, &self.r2, t);
        table[..k].copy_from_slice(&t[..k]);
        // table[j] = base^j in Montgomery form.
        for j in 1..1 << WINDOW {
            let (lo, hi) = table.split_at_mut(j * k);
            self.mul_cios(&lo[(j - 1) * k..], &base_m, t);
            hi[..k].copy_from_slice(&t[..k]);
        }

        let bits = exp.bit_len();
        let windows = bits.div_ceil(WINDOW);
        acc.copy_from_slice(&table[..k]);
        let mut started = false;
        for w in (0..windows).rev() {
            if started {
                for _ in 0..WINDOW {
                    self.mul_cios(acc, acc, t);
                    acc.copy_from_slice(&t[..k]);
                }
            }
            let mut idx = 0usize;
            for b in 0..WINDOW {
                let bit = w * WINDOW + b;
                if exp.bit(bit) {
                    idx |= 1 << b;
                }
            }
            if idx != 0 {
                self.mul_cios(acc, &table[idx * k..(idx + 1) * k], t);
                acc.copy_from_slice(&t[..k]);
                started = true;
            }
        }
        // from_mont: multiply by plain 1 (reuse base_m as the scratch).
        base_m.fill(0);
        base_m[0] = 1;
        self.mul_cios(acc, &base_m, t);
        let mut out = Uint {
            limbs: t[..k].to_vec(),
        };
        out.normalize();
        out
    }
}

/// CIOS inner loop over a compile-time limb count: operands land in
/// fixed arrays so every index is statically bounded (no bounds
/// checks) and both scan loops unroll. Leaves the (possibly
/// not-yet-reduced) result in `t[..=K]`, with `t[K + 1] == 0`.
fn mul_cios_fixed<const K: usize>(m: &[u64], n0: u64, a: &[u64], b: &[u64], t: &mut [u64]) {
    // K ≤ 16: one oversized stack scratch serves every kernel.
    let mut w = [0u64; 18];
    let a: &[u64; K] = a.try_into().expect("operand limb count");
    let b: &[u64; K] = b.try_into().expect("operand limb count");
    let m: &[u64; K] = m.try_into().expect("modulus limb count");
    for &ai in a.iter() {
        // w += ai * b
        let mut carry = 0u64;
        for j in 0..K {
            let v = w[j] as u128 + ai as u128 * b[j] as u128 + carry as u128;
            w[j] = v as u64;
            carry = (v >> 64) as u64;
        }
        let v = w[K] as u128 + carry as u128;
        w[K] = v as u64;
        w[K + 1] = (v >> 64) as u64;
        // w = (w + mi * m) / 2^64 — mi chosen so the low limb cancels.
        let mi = w[0].wrapping_mul(n0);
        let v = w[0] as u128 + mi as u128 * m[0] as u128;
        let mut carry = (v >> 64) as u64;
        for j in 1..K {
            let v = w[j] as u128 + mi as u128 * m[j] as u128 + carry as u128;
            w[j - 1] = v as u64;
            carry = (v >> 64) as u64;
        }
        let v = w[K] as u128 + carry as u128;
        w[K - 1] = v as u64;
        w[K] = w[K + 1] + ((v >> 64) as u64);
        w[K + 1] = 0;
    }
    t[..K + 2].copy_from_slice(&w[..K + 2]);
}

/// The same CIOS scan for arbitrary limb counts (moduli outside the
/// simulator's key sizes, e.g. property-test inputs).
fn mul_cios_generic(m: &[u64], n0: u64, a: &[u64], b: &[u64], t: &mut [u64]) {
    let k = m.len();
    t.fill(0);
    for &ai in a {
        // t += ai * b
        let mut carry = 0u64;
        for j in 0..k {
            let v = t[j] as u128 + ai as u128 * b[j] as u128 + carry as u128;
            t[j] = v as u64;
            carry = (v >> 64) as u64;
        }
        let v = t[k] as u128 + carry as u128;
        t[k] = v as u64;
        t[k + 1] = (v >> 64) as u64;
        // t = (t + mi * m) / 2^64 — mi chosen so the low limb cancels
        // exactly.
        let mi = t[0].wrapping_mul(n0);
        let v = t[0] as u128 + mi as u128 * m[0] as u128;
        let mut carry = (v >> 64) as u64;
        for j in 1..k {
            let v = t[j] as u128 + mi as u128 * m[j] as u128 + carry as u128;
            t[j - 1] = v as u64;
            carry = (v >> 64) as u64;
        }
        let v = t[k] as u128 + carry as u128;
        t[k - 1] = v as u64;
        t[k] = t[k + 1] + ((v >> 64) as u64);
        t[k + 1] = 0;
    }
}

/// `a < b` over equal-length limb slices.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `t -= m` in place (`t` has at least `m.len()` limbs; borrow beyond
/// `m.len()` propagates into the spill limb).
fn sub_in_place(t: &mut [u64], m: &[u64]) {
    let mut borrow = 0u64;
    for (i, &mi) in m.iter().enumerate() {
        let (d1, b1) = t[i].overflowing_sub(mi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        t[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    if borrow > 0 {
        t[m.len()] = t[m.len()].wrapping_sub(borrow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Uint {
        Uint::from_u64(v)
    }

    #[test]
    fn even_modulus_rejected() {
        assert!(MontCtx::new(&u(100)).is_none());
        assert!(MontCtx::new(&Uint::one()).is_none());
        assert!(MontCtx::new(&Uint::zero()).is_none());
        assert!(MontCtx::new(&u(101)).is_some());
    }

    #[test]
    fn roundtrip_through_mont_form() {
        let m = Uint::from_hex("fedcba98765432100fedcba987654321").unwrap();
        let ctx = MontCtx::new(&m).unwrap();
        let x = Uint::from_hex("123456789abcdef0fedcba9876543210").unwrap().rem(&m);
        assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
    }

    #[test]
    fn mont_mul_matches_modmul() {
        let m = Uint::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let ctx = MontCtx::new(&m).unwrap();
        let a = Uint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap().rem(&m);
        let b = Uint::from_hex("aaaabbbbccccddddeeeeffff00001111").unwrap().rem(&m);
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let prod = ctx.from_mont(&ctx.mont_mul(&am, &bm));
        assert_eq!(prod, a.modmul(&b, &m));
    }

    #[test]
    fn modpow_matches_generic() {
        let m = Uint::from_hex("c000000000000000000000000000024f").unwrap();
        let ctx = MontCtx::new(&m).unwrap();
        let base = Uint::from_hex("3243f6a8885a308d313198a2e0370734").unwrap();
        let exp = Uint::from_hex("10001").unwrap();
        assert_eq!(ctx.modpow(&base, &exp), base.modpow_generic(&exp, &m));
    }

    #[test]
    fn modpow_edge_exponents() {
        let m = u(1_000_003); // odd
        let ctx = MontCtx::new(&m).unwrap();
        assert!(ctx.modpow(&u(7), &Uint::zero()).is_one());
        assert_eq!(ctx.modpow(&u(7), &Uint::one()), u(7));
        assert_eq!(ctx.modpow(&Uint::zero(), &u(5)), Uint::zero());
        // Fermat: 2^(p-1) ≡ 1 mod p for prime p.
        assert!(ctx.modpow(&u(2), &u(1_000_002)).is_one());
    }

    #[test]
    fn single_limb_modulus() {
        let m = u(0xffffffff_ffffffc5); // odd
        let ctx = MontCtx::new(&m).unwrap();
        let got = ctx.modpow(&u(123456789), &u(987654321));
        assert_eq!(got, u(123456789).modpow_generic(&u(987654321), &m));
    }
}
