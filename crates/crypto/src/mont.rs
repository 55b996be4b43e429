//! Montgomery-form modular arithmetic.
//!
//! [`MontCtx`] precomputes the constants for a fixed *odd* modulus and
//! then multiplies residues with Montgomery reduction — no multi-limb
//! division anywhere in the loop, unlike the schoolbook `mul` +
//! `divrem` path. On top of it sits the exponentiation ladder,
//! [`MontCtx::modpow`], which every RSA operation, Miller–Rabin round
//! and DH agreement in the simulator bottoms out in.
//!
//! A context is built once by the object that owns its modulus and
//! lives as long as that owner: each half of an RSA key's CRT
//! parameters (shared by the key's clones), a DH group's fixed-base
//! table, and a prime-search candidate's Miller–Rabin rounds.
//! Everything else goes through `Uint::modpow`, which builds a
//! throwaway context per call; no context is cached beyond its owner.
//!
//! The limb counts the simulator uses (4 = an RSA-CRT half, 8 = an
//! RSA-512 modulus, 12 = the 768-bit Oakley prime) run on fixed-width
//! `[u64; K]` kernels, whose compile-time bounds let the compiler drop
//! the bounds checks and unroll the scans: a CIOS (coarsely integrated
//! operand scanning) multiply, and a squaring kernel that forms each
//! cross product once, doubles them, adds the diagonal squares and then
//! reduces — `K(K+1)/2 + K²` word products instead of `2K²`. The ladder
//! over them keeps its window table on the stack, reads its windows
//! straight from the exponent's limbs, and sizes the window from the
//! exponent (square-and-multiply for `e = 65537`, 4-bit windows at 256
//! bits). Any other limb count (small test moduli, odd-sized keys
//! arriving off the wire) takes the generic slice ladder over the same
//! CIOS scan. Every kernel returns a fully reduced residue, so both
//! paths produce the same value bit for bit.
//!
//! `FixedBase` is the fixed-base variant for a base known in advance
//! (a DH group's generator, see `crate::dh`): it precomputes the base's
//! power for every 4-bit digit at every digit position, so `g^x` costs
//! one multiplication per nonzero digit of `x` and no squarings.
//!
//! Residues are plain `k`-limb little-endian vectors (`k` = modulus
//! limb count); conversion in and out of Montgomery form goes through
//! [`MontCtx::to_mont`] / [`MontCtx::from_mont`]. Even moduli are not
//! representable here — callers fall back to the generic path.

use crate::bigint::Uint;
use std::cmp::Ordering;

/// Widest window of the exponentiation ladder, in bits (a 32-entry
/// table).
const MAX_WINDOW: usize = 5;

/// Widest modulus the fixed-width kernels serve, in limbs.
const MAX_LIMBS: usize = 12;

/// Digit width of a [`FixedBase`] table, in bits.
const DIGIT: usize = 4;

/// Entries per [`FixedBase`] row: one per nonzero digit.
const ROW: usize = (1 << DIGIT) - 1;

/// Precomputed Montgomery context for one odd modulus.
pub struct MontCtx {
    /// The modulus; the kernels scan its `k` little-endian limbs.
    m: Uint,
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
        let k = m.limbs.len();
        // Newton–Hensel inversion of m[0] modulo 2^64: `inv = m0` is
        // already correct mod 2^3 (every odd square is 1 mod 8), and
        // each step doubles the number of correct low bits, so five
        // steps reach 96 bits and six cover all 64 with room to spare.
        let m0 = m.limbs[0];
        let mut inv = m0;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();
        // R^2 mod m via one (context-lifetime) division.
        let r2_uint = Uint::one().shl(128 * k).rem(m);
        let mut r2 = r2_uint.limbs;
        r2.resize(k, 0);
        Some(MontCtx {
            m: m.clone(),
            n0,
            r2,
        })
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &Uint {
        &self.m
    }

    /// Modulus limb count.
    fn k(&self) -> usize {
        self.m.limbs.len()
    }

    /// The modulus as a fixed-width array (`K` must equal `k`).
    fn m_arr<const K: usize>(&self) -> &[u64; K] {
        self.m.limbs[..].try_into().expect("modulus limb count")
    }

    /// `R^2 mod m` as a fixed-width array (`K` must equal `k`).
    fn r2_arr<const K: usize>(&self) -> &[u64; K] {
        self.r2.as_slice().try_into().expect("modulus limb count")
    }

    /// `x mod m` as `K` limbs; skips the division when `x < m`.
    fn load<const K: usize>(&self, x: &Uint) -> [u64; K] {
        let mut out = [0u64; K];
        if x.cmp_val(&self.m) == Ordering::Less {
            out[..x.limbs.len()].copy_from_slice(&x.limbs);
        } else {
            let r = x.rem(&self.m);
            out[..r.limbs.len()].copy_from_slice(&r.limbs);
        }
        out
    }

    /// Montgomery multiplication: returns `a * b * R^{-1} mod m`.
    pub fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        fn fixed<const K: usize>(ctx: &MontCtx, a: &[u64], b: &[u64]) -> Vec<u64> {
            let a = a.try_into().expect("operand limb count");
            let b = b.try_into().expect("operand limb count");
            mul::<K>(a, b, ctx.m_arr(), ctx.n0).to_vec()
        }
        let k = self.k();
        match k {
            4 => fixed::<4>(self, a, b),
            8 => fixed::<8>(self, a, b),
            12 => fixed::<12>(self, a, b),
            _ => {
                let mut t = vec![0u64; k + 2];
                self.mul_generic(a, b, &mut t);
                t.truncate(k);
                t
            }
        }
    }

    /// Montgomery squaring: returns `a * a * R^{-1} mod m`, the same
    /// value as `mont_mul(a, a)`, through the squaring kernel where
    /// the limb count has one.
    pub fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        fn fixed<const K: usize>(ctx: &MontCtx, a: &[u64]) -> Vec<u64> {
            sqr::<K>(a.try_into().expect("operand limb count"), ctx.m_arr(), ctx.n0).to_vec()
        }
        match self.k() {
            4 => fixed::<4>(self, a),
            8 => fixed::<8>(self, a),
            12 => fixed::<12>(self, a),
            _ => self.mont_mul(a, a),
        }
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

    /// `base^exp mod m` via a windowed ladder over Montgomery residues,
    /// its width chosen from `exp` (see `window_width`). The 4-, 8- and
    /// 12-limb moduli run it over fixed-width arrays with no heap
    /// scratch; other limb counts take the slice ladder.
    pub fn modpow(&self, base: &Uint, exp: &Uint) -> Uint {
        let limbs = match self.k() {
            4 => self.modpow_fixed::<4>(base, exp).to_vec(),
            8 => self.modpow_fixed::<8>(base, exp).to_vec(),
            12 => self.modpow_fixed::<12>(base, exp).to_vec(),
            _ => self.modpow_slices(base, exp),
        };
        let mut out = Uint { limbs };
        out.normalize();
        out
    }

    /// The ladder over `[u64; K]` residues: the window table, the
    /// accumulator and every kernel temporary live on the stack.
    fn modpow_fixed<const K: usize>(&self, base: &Uint, exp: &Uint) -> [u64; K] {
        let (m, n0) = (self.m_arr::<K>(), self.n0);
        let mut one = [0u64; K];
        one[0] = 1;
        let bits = exp.bit_len();
        if bits == 0 {
            return one;
        }
        let w = window_width(&exp.limbs, bits);
        let b = mul(&self.load::<K>(base), self.r2_arr(), m, n0);
        // table[j] = base^j in Montgomery form (table[0] is never read).
        let mut table = [[0u64; K]; 1 << MAX_WINDOW];
        table[1] = b;
        for j in 2..1 << w {
            table[j] = if j % 2 == 0 {
                sqr(&table[j / 2], m, n0)
            } else {
                mul(&table[j - 1], &b, m, n0)
            };
        }
        // The top window holds the top bit, so it is never zero.
        let mut pos = (bits - 1) / w * w;
        let mut acc = table[window(&exp.limbs, pos, w)];
        while pos > 0 {
            pos -= w;
            for _ in 0..w {
                acc = sqr(&acc, m, n0);
            }
            let j = window(&exp.limbs, pos, w);
            if j != 0 {
                acc = mul(&acc, &table[j], m, n0);
            }
        }
        mul(&acc, &one, m, n0)
    }

    /// The same ladder over `k`-limb slices, for limb counts without a
    /// fixed-width kernel. It runs inside one flat scratch allocation
    /// (window table + accumulator + CIOS temporary).
    fn modpow_slices(&self, base: &Uint, exp: &Uint) -> Vec<u64> {
        let k = self.k();
        let mut one = vec![0u64; k];
        one[0] = 1;
        let bits = exp.bit_len();
        if bits == 0 {
            return one;
        }
        let w = window_width(&exp.limbs, bits);
        // Scratch layout: [window table: 2^w·k][accumulator: k][CIOS t: k+2].
        let mut buf = vec![0u64; (1 << w) * k + k + k + 2];
        let (table, rest) = buf.split_at_mut((1 << w) * k);
        let (acc, t) = rest.split_at_mut(k);

        // table[j] = base^j in Montgomery form (table[0] is never read).
        let mut b = base.rem(&self.m).limbs;
        b.resize(k, 0);
        self.mul_generic(&b, &self.r2, t);
        table[k..2 * k].copy_from_slice(&t[..k]);
        for j in 2..1 << w {
            let (lo, hi) = table.split_at_mut(j * k);
            self.mul_generic(&lo[(j - 1) * k..], &lo[k..2 * k], t);
            hi[..k].copy_from_slice(&t[..k]);
        }
        let mut pos = (bits - 1) / w * w;
        let j = window(&exp.limbs, pos, w);
        acc.copy_from_slice(&table[j * k..(j + 1) * k]);
        while pos > 0 {
            pos -= w;
            for _ in 0..w {
                self.mul_generic(acc, acc, t);
                acc.copy_from_slice(&t[..k]);
            }
            let j = window(&exp.limbs, pos, w);
            if j != 0 {
                self.mul_generic(acc, &table[j * k..(j + 1) * k], t);
                acc.copy_from_slice(&t[..k]);
            }
        }
        self.mul_generic(acc, &one, t);
        t[..k].to_vec()
    }

    /// The generic CIOS multiply into a caller-owned scratch: leaves
    /// `a * b * R^{-1} mod m`, fully reduced, in `t[..k]`. `t` must be
    /// `k + 2` limbs; its previous contents are ignored.
    fn mul_generic(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k();
        debug_assert!(a.len() == k && b.len() == k);
        debug_assert!(t.len() == k + 2);
        let m = &self.m.limbs;
        mul_cios_generic(m, self.n0, a, b, t);
        // One conditional subtraction brings the result below m.
        if t[k] != 0 || !limbs_lt(&t[..k], m) {
            sub_in_place(t, m);
        }
    }
}

/// Fixed-base exponentiation: every power `base^(j·16^i)` for a 4-bit
/// digit `j` in `1..16` and a digit position `i` below the table's
/// row count, in Montgomery form and in one allocation. `base^x` is
/// then the product of one entry per nonzero digit of `x`: at most one
/// multiplication per digit and no squarings. Exponents longer than
/// the table take the variable-base ladder.
pub(crate) struct FixedBase {
    ctx: MontCtx,
    base: Uint,
    /// Digit positions covered; the table serves exponents of up to
    /// `4 · rows` bits.
    rows: usize,
    /// Entry `(i, j)` at index `i · ROW + j − 1`, `k` limbs each.
    table: Vec<u64>,
}

impl FixedBase {
    /// Precomputes the powers of `base` modulo `m` for exponents of up
    /// to `bits` bits (rounded up to whole digits). `None` unless `m`
    /// is odd and takes a fixed-width kernel (4, 8 or 12 limbs): other
    /// moduli stay on the variable-base ladder.
    pub(crate) fn new(base: &Uint, m: &Uint, bits: usize) -> Option<FixedBase> {
        let ctx = MontCtx::new(m)?;
        let rows = bits.div_ceil(DIGIT);
        let table = match ctx.k() {
            4 => Self::build::<4>(&ctx, base, rows),
            8 => Self::build::<8>(&ctx, base, rows),
            12 => Self::build::<12>(&ctx, base, rows),
            _ => return None,
        };
        Some(FixedBase {
            ctx,
            base: base.clone(),
            rows,
            table,
        })
    }

    /// Row `i` holds `base^(j·16^i)` for `j` in `1..16`; the row's last
    /// entry times `base^(16^i)` starts the next row, so each row costs
    /// 15 multiplications.
    fn build<const K: usize>(ctx: &MontCtx, base: &Uint, rows: usize) -> Vec<u64> {
        let (m, n0) = (ctx.m_arr::<K>(), ctx.n0);
        let mut table = Vec::with_capacity(rows * ROW * K);
        let mut g = mul(&ctx.load::<K>(base), ctx.r2_arr(), m, n0);
        for _ in 0..rows {
            let mut e = g;
            table.extend_from_slice(&e);
            for _ in 1..ROW {
                e = mul(&e, &g, m, n0);
                table.extend_from_slice(&e);
            }
            g = mul(&e, &g, m, n0);
        }
        table
    }

    /// The context of the table's modulus.
    pub(crate) fn ctx(&self) -> &MontCtx {
        &self.ctx
    }

    /// The longest exponent the table serves, in bits.
    pub(crate) fn capacity(&self) -> usize {
        self.rows * DIGIT
    }

    /// `base^exp mod m`, equal to [`MontCtx::modpow`] for every `exp`.
    pub(crate) fn pow(&self, exp: &Uint) -> Uint {
        if exp.bit_len() > self.capacity() {
            return self.ctx.modpow(&self.base, exp);
        }
        let limbs = match self.ctx.k() {
            4 => self.pow_fixed::<4>(exp).to_vec(),
            8 => self.pow_fixed::<8>(exp).to_vec(),
            12 => self.pow_fixed::<12>(exp).to_vec(),
            k => unreachable!("no fixed-base table at {k} limbs"),
        };
        let mut out = Uint { limbs };
        out.normalize();
        out
    }

    fn pow_fixed<const K: usize>(&self, exp: &Uint) -> [u64; K] {
        let (m, n0) = (self.ctx.m_arr::<K>(), self.ctx.n0);
        let (entries, _) = self.table.as_chunks::<K>();
        let mut one = [0u64; K];
        one[0] = 1;
        let mut acc: Option<[u64; K]> = None;
        for i in 0..exp.bit_len().div_ceil(DIGIT) {
            let j = window(&exp.limbs, i * DIGIT, DIGIT);
            if j != 0 {
                let entry = &entries[i * ROW + j - 1];
                acc = Some(acc.map_or(*entry, |a| mul(&a, entry, m, n0)));
            }
        }
        acc.map_or(one, |a| mul(&a, &one, m, n0))
    }
}

/// Window width for a nonzero exponent of `bits` bits: the width in
/// `1..=MAX_WINDOW` with the fewest multiplications. A `w`-bit window
/// costs `2^w − 2` multiplications to fill its table plus at most one
/// per window; square-and-multiply (`w = 1`) needs no table and one
/// multiplication per set bit. The squarings are the same for every
/// width. Ties go to the narrower window.
fn window_width(exp: &[u64], bits: usize) -> usize {
    let ones = exp.iter().map(|l| l.count_ones() as usize).sum::<usize>();
    let cost = |w: usize| match w {
        1 => ones,
        _ => (1 << w) - 2 + bits.div_ceil(w),
    };
    (1..=MAX_WINDOW).min_by_key(|&w| cost(w)).expect("nonempty range")
}

/// The `w`-bit digit of `exp` that starts at bit `pos` (`pos` below
/// the exponent's bit length; bits past the top limb read as zero).
fn window(exp: &[u64], pos: usize, w: usize) -> usize {
    let (i, s) = (pos / 64, pos % 64);
    let mut v = exp[i] >> s;
    if s + w > 64 {
        if let Some(&next) = exp.get(i + 1) {
            v |= next << (64 - s);
        }
    }
    (v & ((1 << w) - 1)) as usize
}

/// CIOS Montgomery multiplication over a compile-time limb count:
/// `a * b * R^{-1} mod m`, fully reduced, for `a, b < m`. Every index
/// is statically bounded (no bounds checks) and both scan loops unroll.
#[inline(always)]
fn mul<const K: usize>(a: &[u64; K], b: &[u64; K], m: &[u64; K], n0: u64) -> [u64; K] {
    let mut t = [0u64; K];
    let mut top = 0u64;
    for &ai in a {
        // t += ai * b
        let mut carry = 0u64;
        for j in 0..K {
            let v = t[j] as u128 + ai as u128 * b[j] as u128 + carry as u128;
            t[j] = v as u64;
            carry = (v >> 64) as u64;
        }
        let v = top as u128 + carry as u128;
        let (tk, tk1) = (v as u64, (v >> 64) as u64);
        // t = (t + mi * m) / 2^64 — mi chosen so the low limb cancels.
        let mi = t[0].wrapping_mul(n0);
        let v = t[0] as u128 + mi as u128 * m[0] as u128;
        let mut carry = (v >> 64) as u64;
        for j in 1..K {
            let v = t[j] as u128 + mi as u128 * m[j] as u128 + carry as u128;
            t[j - 1] = v as u64;
            carry = (v >> 64) as u64;
        }
        let v = tk as u128 + carry as u128;
        t[K - 1] = v as u64;
        top = tk1 + (v >> 64) as u64;
    }
    sub_if_ge(t, top, m)
}

/// Montgomery squaring over a compile-time limb count: `a * a * R^{-1}
/// mod m`, fully reduced, for `a < m` — the same value as
/// `mul(a, a)`. The `K(K−1)/2` cross products are formed once and
/// doubled and the `K` diagonal squares added, which gives the `2K`-limb
/// square `T = T_lo + T_hi·R`; then `T·R^{-1} ≡ (T_lo + M·m)/R + T_hi`,
/// with the low half reduced by `K` CIOS steps. That is `K(K+1)/2 + K²`
/// word products against CIOS's `2K²`.
#[inline(always)]
fn sqr<const K: usize>(a: &[u64; K], m: &[u64; K], n0: u64) -> [u64; K] {
    const { assert!(K <= MAX_LIMBS) };
    let mut t = [0u64; 2 * MAX_LIMBS];
    // Cross products a[i]·a[j], i < j.
    for i in 0..K {
        let mut carry = 0u64;
        for j in i + 1..K {
            let v = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
            t[i + j] = v as u64;
            carry = (v >> 64) as u64;
        }
        t[i + K] = carry;
    }
    // Double them and add the squares a[i]², two limbs at a time; the
    // square fits in 2K limbs, so nothing carries out of the top.
    let (mut shifted, mut carry) = (0u64, 0u64);
    for i in 0..K {
        let sq = a[i] as u128 * a[i] as u128;
        let (lo, hi) = (t[2 * i], t[2 * i + 1]);
        let v = (((lo << 1) | shifted) as u128) + (sq as u64) as u128 + carry as u128;
        t[2 * i] = v as u64;
        let v = (((hi << 1) | (lo >> 63)) as u128) + (sq >> 64) + (v >> 64);
        t[2 * i + 1] = v as u64;
        carry = (v >> 64) as u64;
        shifted = hi >> 63;
    }
    // u = (T_lo + M·m) / R, one limb per step — mi chosen so the low
    // limb cancels. u stays below R, since (u + mi·m) / 2^64 < R for
    // u < R, so nothing carries past limb K − 1.
    let mut u = [0u64; K];
    u.copy_from_slice(&t[..K]);
    for _ in 0..K {
        let mi = u[0].wrapping_mul(n0);
        let v = u[0] as u128 + mi as u128 * m[0] as u128;
        let mut carry = (v >> 64) as u64;
        for j in 1..K {
            let v = u[j] as u128 + mi as u128 * m[j] as u128 + carry as u128;
            u[j - 1] = v as u64;
            carry = (v >> 64) as u64;
        }
        u[K - 1] = carry;
    }
    // Add T_hi: u ≤ m and T_hi < m, so the sum is below 2m; its top
    // carry joins the final subtraction.
    let mut carry = 0u64;
    for j in 0..K {
        let v = u[j] as u128 + t[K + j] as u128 + carry as u128;
        u[j] = v as u64;
        carry = (v >> 64) as u64;
    }
    sub_if_ge(u, carry, m)
}

/// Brings `top·2^(64K) + t`, which is below `2m`, under `m` with one
/// conditional subtraction.
#[inline(always)]
fn sub_if_ge<const K: usize>(t: [u64; K], top: u64, m: &[u64; K]) -> [u64; K] {
    let mut d = [0u64; K];
    let mut borrow = false;
    for j in 0..K {
        let (x, b1) = t[j].overflowing_sub(m[j]);
        let (x, b2) = x.overflowing_sub(borrow as u64);
        d[j] = x;
        borrow = b1 | b2;
    }
    if top != 0 || !borrow {
        d
    } else {
        t
    }
}

/// The CIOS scan for arbitrary limb counts (moduli outside the
/// simulator's key sizes, e.g. property-test inputs). Leaves the
/// not-yet-reduced result in `t[..=k]`, with `t[k + 1] == 0`.
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
    use crate::drbg::Drbg;

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

    /// A random odd modulus of exactly `limbs` limbs.
    fn random_odd(rng: &mut Drbg, limbs: usize) -> Uint {
        let mut bytes = vec![0u8; 8 * limbs];
        rng.fill_bytes(&mut bytes);
        bytes[0] |= 0x80;
        bytes[8 * limbs - 1] |= 1;
        Uint::from_be_bytes(&bytes)
    }

    /// A random exponent of exactly `bits` bits (zero for `bits = 0`).
    fn random_exponent(rng: &mut Drbg, bits: usize) -> Uint {
        if bits == 0 {
            return Uint::zero();
        }
        let mut bytes = vec![0u8; bits.div_ceil(8)];
        rng.fill_bytes(&mut bytes);
        let top = Uint::one().shl(bits - 1);
        Uint::from_be_bytes(&bytes).rem(&top).add(&top)
    }

    #[test]
    fn fixed_base_matches_the_ladder_at_every_exponent_length() {
        let mut rng = Drbg::from_seed(0xF1BA5E);
        let oakley = crate::dh::DhGroup::oakley_group1().prime().clone();
        let moduli = [
            (oakley, u(2), 257),
            (random_odd(&mut rng, 4), u(3), 256),
            (random_odd(&mut rng, 8), u(0xABCD), 40),
        ];
        for (m, g, bits) in moduli {
            let table = FixedBase::new(&g, &m, bits).expect("fixed-width modulus");
            assert!(table.capacity() >= bits && table.capacity() < bits + DIGIT);
            let ladder = MontCtx::new(&m).unwrap();
            // Every length up to the capacity and one bit past it (the
            // fallback): a random exponent and the all-ones one.
            for n in 0..=table.capacity() + 1 {
                let ones = Uint::one().shl(n).sub(&Uint::one());
                for e in [ones, random_exponent(&mut rng, n)] {
                    assert_eq!(table.pow(&e), ladder.modpow(&g, &e), "m={} n={n}", m.to_hex());
                }
            }
        }
        // Moduli without a fixed-width kernel get no table.
        assert!(FixedBase::new(&u(5), &u(0xFFFF_FFFF_FFFF_FFC5), 64).is_none());
        assert!(FixedBase::new(&u(5), &random_odd(&mut rng, 6), 64).is_none());
    }

    #[test]
    fn window_width_follows_exponent_length() {
        let width = |e: &Uint| window_width(&e.limbs, e.bit_len());
        assert_eq!(width(&u(65537)), 1);
        assert_eq!(width(&u(3)), 1);
        assert_eq!(width(&u(255)), 2);
        assert_eq!(width(&u(u64::MAX)), 3);
        assert_eq!(width(&Uint::one().shl(256).sub(&Uint::one())), 4);
        assert_eq!(width(&Uint::one().shl(256)), 1);
        assert_eq!(width(&Uint::from_hex(&"9e".repeat(32)).unwrap()), 4);
        assert_eq!(width(&Uint::from_hex(&"9e".repeat(64)).unwrap()), 5);
    }

    #[test]
    fn windows_straddle_limbs() {
        let e = [0xF000_0000_0000_0000, 0b1011];
        assert_eq!(window(&e, 60, 4), 0xF);
        assert_eq!(window(&e, 62, 4), 0b1111);
        assert_eq!(window(&e, 63, 5), 0b10111);
        assert_eq!(window(&e, 64, 5), 0b1011);
        assert_eq!(window(&e[..1], 62, 4), 0b11);
    }
}
