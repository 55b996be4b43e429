//! ChaCha20 stream cipher (RFC 7539 block function), from scratch.
//!
//! Serves two purposes: the "modern AEAD-class" cipher stand-in for
//! TLS record protection in the simulator, and the core of the
//! deterministic DRBG ([`crate::drbg`]).
//!
//! Keystream is produced in refills: on x86_64 CPUs with AVX2, one
//! refill computes blocks `n` and `n + 1` side by side in the two
//! 128-bit lanes of four 256-bit registers (128 bytes); everywhere
//! else the scalar block function produces one block (64 bytes). Both
//! advance the block counter with the same `u32` wrap, so the bytes
//! are identical either way, and the scalar block is the oracle the
//! AVX2 path is tested against.

/// ChaCha20 keystream generator / stream cipher.
#[derive(Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
    keystream: [u8; 128],
    /// Bytes of `keystream` the last refill produced: 64 or 128.
    filled: usize,
    used: usize,
}

/// A keystream refill: writes the next block or blocks of `state` to
/// the front of `out`, advances the block counter past them and
/// returns the number of bytes written.
type Refill = fn(&mut [u32; 16], &mut [u8; 128]) -> usize;

impl ChaCha20 {
    /// Creates a cipher with a 256-bit key, 96-bit nonce, and initial
    /// block counter.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x61707865;
        state[1] = 0x3320646e;
        state[2] = 0x79622d32;
        state[3] = 0x6b206574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes([
                key[i * 4],
                key[i * 4 + 1],
                key[i * 4 + 2],
                key[i * 4 + 3],
            ]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 {
            state,
            keystream: [0; 128],
            filled: 0,
            used: 0,
        }
    }

    /// XORs the keystream into `buf` in place (encrypt == decrypt).
    #[inline]
    pub fn apply(&mut self, buf: &mut [u8]) {
        self.apply_with(buf, refill);
    }

    /// Fills `buf` with raw keystream bytes (for the DRBG).
    #[inline]
    pub fn keystream(&mut self, buf: &mut [u8]) {
        self.keystream_with(buf, refill);
    }

    /// [`ChaCha20::apply`] over an explicit refill, so the tests can
    /// drive the scalar and AVX2 paths through the same buffering.
    #[inline]
    fn apply_with(&mut self, buf: &mut [u8], refill: Refill) {
        self.segments(buf, refill, |out, ks| {
            for (b, k) in out.iter_mut().zip(ks) {
                *b ^= k;
            }
        });
    }

    /// [`ChaCha20::keystream`] over an explicit refill.
    #[inline]
    fn keystream_with(&mut self, buf: &mut [u8], refill: Refill) {
        self.segments(buf, refill, <[u8]>::copy_from_slice);
    }

    /// Walks `buf` in runs that each fit in the unused tail of the
    /// current refill, handing each run and its keystream bytes to
    /// `op`.
    #[inline]
    fn segments(
        &mut self,
        mut buf: &mut [u8],
        refill: Refill,
        mut op: impl FnMut(&mut [u8], &[u8]),
    ) {
        while !buf.is_empty() {
            if self.used == self.filled {
                self.filled = refill(&mut self.state, &mut self.keystream);
                self.used = 0;
            }
            let n = buf.len().min(self.filled - self.used);
            let (run, rest) = std::mem::take(&mut buf).split_at_mut(n);
            op(run, &self.keystream[self.used..self.used + n]);
            self.used += n;
            buf = rest;
        }
    }
}

/// The next keystream: two blocks with AVX2 on x86_64 CPUs that have
/// it, one scalar block everywhere else.
fn refill(state: &mut [u32; 16], out: &mut [u8; 128]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 detection above.
        return unsafe { refill_avx2(state, out) };
    }
    refill_scalar(state, out)
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One block of the RFC 7539 rounds in scalar code: the fallback, and
/// the oracle the AVX2 path is tested against.
fn refill_scalar(state: &mut [u32; 16], out: &mut [u8; 128]) -> usize {
    let mut working = *state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for ((chunk, w), s) in out.chunks_exact_mut(4).zip(working).zip(*state) {
        chunk.copy_from_slice(&w.wrapping_add(s).to_le_bytes());
    }
    state[12] = state[12].wrapping_add(1);
    64
}

/// Blocks `n` and `n + 1` at once: rows a, b, c and d of block `n` sit
/// in the low 128-bit lane of four registers and those of block
/// `n + 1` in the high lane, whose counter word is one more (with the
/// `u32` wrap). A column round is four quarter rounds at once; the
/// diagonal round first rotates rows b, c and d by one, two and three
/// words within each lane, and rotates them back after. Rotations by
/// 16 and 8 bits are byte shuffles, those by 12 and 7 shift/or pairs.
///
/// # Safety
///
/// The CPU must support the `avx2` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn refill_avx2(state: &mut [u32; 16], out: &mut [u8; 128]) -> usize {
    use std::arch::x86_64::*;

    /// One quarter round on all four columns of both blocks.
    macro_rules! quarter_rounds {
        ($a:ident, $b:ident, $c:ident, $d:ident, $rot16:ident, $rot8:ident) => {{
            $a = _mm256_add_epi32($a, $b);
            $d = _mm256_shuffle_epi8(_mm256_xor_si256($d, $a), $rot16);
            $c = _mm256_add_epi32($c, $d);
            let x = _mm256_xor_si256($b, $c);
            $b = _mm256_or_si256(_mm256_slli_epi32(x, 12), _mm256_srli_epi32(x, 20));
            $a = _mm256_add_epi32($a, $b);
            $d = _mm256_shuffle_epi8(_mm256_xor_si256($d, $a), $rot8);
            $c = _mm256_add_epi32($c, $d);
            let x = _mm256_xor_si256($b, $c);
            $b = _mm256_or_si256(_mm256_slli_epi32(x, 7), _mm256_srli_epi32(x, 25));
        }};
    }

    // Byte shuffles rotating every 32-bit word left by 16 and by 8.
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );
    // SAFETY: `state` is 64 bytes; unaligned loads of its four rows.
    let [a0, b0, c0, d0] = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        [
            _mm_loadu_si128(p),
            _mm_loadu_si128(p.add(1)),
            _mm_loadu_si128(p.add(2)),
            _mm_loadu_si128(p.add(3)),
        ]
    };
    let a0 = _mm256_broadcastsi128_si256(a0);
    let b0 = _mm256_broadcastsi128_si256(b0);
    let c0 = _mm256_broadcastsi128_si256(c0);
    let d0 = _mm256_add_epi32(
        _mm256_broadcastsi128_si256(d0),
        _mm256_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0),
    );
    let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
    for _ in 0..10 {
        quarter_rounds!(a, b, c, d, rot16, rot8);
        b = _mm256_shuffle_epi32(b, 0x39);
        c = _mm256_shuffle_epi32(c, 0x4E);
        d = _mm256_shuffle_epi32(d, 0x93);
        quarter_rounds!(a, b, c, d, rot16, rot8);
        b = _mm256_shuffle_epi32(b, 0x93);
        c = _mm256_shuffle_epi32(c, 0x4E);
        d = _mm256_shuffle_epi32(d, 0x39);
    }
    let a = _mm256_add_epi32(a, a0);
    let b = _mm256_add_epi32(b, b0);
    let c = _mm256_add_epi32(c, c0);
    let d = _mm256_add_epi32(d, d0);
    // SAFETY: `out` is 128 bytes; unaligned stores of block n (the low
    // lanes) then block n + 1 (the high lanes).
    unsafe {
        let p = out.as_mut_ptr().cast::<__m256i>();
        _mm256_storeu_si256(p, _mm256_permute2x128_si256(a, b, 0x20));
        _mm256_storeu_si256(p.add(1), _mm256_permute2x128_si256(c, d, 0x20));
        _mm256_storeu_si256(p.add(2), _mm256_permute2x128_si256(a, b, 0x31));
        _mm256_storeu_si256(p.add(3), _mm256_permute2x128_si256(c, d, 0x31));
    }
    state[12] = state[12].wrapping_add(2);
    128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;
    use crate::sha256::hex;

    /// Every refill path this CPU runs: the scalar block, the runtime
    /// dispatch, and AVX2 itself when the CPU has it.
    fn paths() -> Vec<(&'static str, Refill)> {
        let mut paths: Vec<(&'static str, Refill)> =
            vec![("scalar", refill_scalar), ("dispatch", refill)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 detection above.
            paths.push(("avx2", |state, out| unsafe { refill_avx2(state, out) }));
        }
        paths
    }

    /// RFC 7539 §2.3.2 block test vector.
    #[test]
    fn rfc7539_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&key, &nonce, 1);
        let mut block = [0u8; 64];
        c.keystream(&mut block);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// RFC 7539 §2.4.2 encryption test vector.
    #[test]
    fn rfc7539_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut buf = plaintext.to_vec();
        let mut c = ChaCha20::new(&key, &nonce, 1);
        c.apply(&mut buf);
        assert_eq!(
            hex(&buf[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        // Decrypt restores plaintext.
        let mut d = ChaCha20::new(&key, &nonce, 1);
        d.apply(&mut buf);
        assert_eq!(buf, plaintext);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut oneshot = vec![0u8; 300];
        ChaCha20::new(&key, &nonce, 0).apply(&mut oneshot);
        let mut streamed = vec![0u8; 300];
        let mut c = ChaCha20::new(&key, &nonce, 0);
        for chunk in streamed.chunks_mut(17) {
            c.apply(chunk);
        }
        assert_eq!(oneshot, streamed);
    }

    #[test]
    fn keystream_chunking_matches_oneshot() {
        let key = [9u8; 32];
        let nonce = [5u8; 12];
        let mut oneshot = vec![0u8; 1000];
        ChaCha20::new(&key, &nonce, 0).keystream(&mut oneshot);
        for chunk in 1..=130 {
            let mut streamed = vec![0xAAu8; 1000];
            let mut c = ChaCha20::new(&key, &nonce, 0);
            for part in streamed.chunks_mut(chunk) {
                c.keystream(part);
            }
            assert_eq!(oneshot, streamed, "chunk {chunk}");
        }
    }

    /// Every refill path against the scalar block, through the
    /// buffering `keystream` and `apply` use: random keys and nonces,
    /// starting counters at which the block counter (and, from
    /// `u32::MAX`, the second AVX2 lane's) wraps, and every chunking
    /// from 1 to 130 bytes.
    #[test]
    fn refill_paths_match_the_scalar_block() {
        let mut rng = Drbg::from_seed(0xC4AC_4A20);
        for counter in [0, 1, u32::MAX - 1, u32::MAX] {
            for _ in 0..3 {
                let mut key = [0u8; 32];
                let mut nonce = [0u8; 12];
                rng.fill_bytes(&mut key);
                rng.fill_bytes(&mut nonce);
                let mut plain = vec![0u8; 520];
                rng.fill_bytes(&mut plain);
                let mut want = vec![0u8; plain.len()];
                ChaCha20::new(&key, &nonce, counter).keystream_with(&mut want, refill_scalar);
                let sealed: Vec<u8> = plain.iter().zip(&want).map(|(p, k)| p ^ k).collect();
                for (name, refill) in paths() {
                    for chunk in 1..=130 {
                        let mut c = ChaCha20::new(&key, &nonce, counter);
                        let mut ks = vec![0xAAu8; plain.len()];
                        for part in ks.chunks_mut(chunk) {
                            c.keystream_with(part, refill);
                        }
                        assert_eq!(ks, want, "{name}: counter {counter}, chunk {chunk}");
                        let mut c = ChaCha20::new(&key, &nonce, counter);
                        let mut buf = plain.clone();
                        for part in buf.chunks_mut(chunk) {
                            c.apply_with(part, refill);
                        }
                        assert_eq!(buf, sealed, "{name}: counter {counter}, chunk {chunk}");
                    }
                }
            }
        }
    }
}
