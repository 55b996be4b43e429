//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used throughout the workspace for certificate digests, key
//! identifiers, TLS fingerprint hashing, and HMAC.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] over an explicit compression function, so the
    /// tests can drive the scalar and SHA-NI paths through the same
    /// buffering.
    fn update_with(&mut self, data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
        }
        let tail = &data[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Pads in whole blocks: the buffered tail, the `0x80` marker,
    /// zeros, and the bit length in the last eight bytes — one block,
    /// or two when fewer than nine bytes of the buffered block are free.
    fn finalize_with(mut self, compress: Compress) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buffered;
        let mut block = [0u8; 128];
        block[..n].copy_from_slice(&self.buffer[..n]);
        block[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        block[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block[..len]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// A compression function over whole 64-byte blocks.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Compresses `blocks` (a multiple of 64 bytes) into `state`: SHA-NI on
/// x86_64 CPUs that have it, the scalar rounds everywhere else.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1") {
        // SAFETY: guarded by the runtime SHA and SSE4.1 detection above.
        return unsafe { compress_shani(state, blocks) };
    }
    compress_scalar(state, blocks)
}

/// The FIPS 180-4 rounds in scalar code: the fallback, and the oracle
/// the SHA-NI path is tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The same compression with the x86 SHA extensions: `sha256rnds2`
/// runs two rounds on the state held as the `ABEF`/`CDGH` register
/// pair, `sha256msg1`/`sha256msg2` extend the message schedule four
/// words at a time.
///
/// # Safety
///
/// The CPU must support the `sha` and `sse4.1` target features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse4.1")]
unsafe fn compress_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    /// Four rounds on `w` (message words `4i..4i+4`).
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = &K[4 * $i..4 * $i + 4];
            // SAFETY: `k` is four words (16 bytes); unaligned load.
            let k = unsafe { _mm_loadu_si128(k.as_ptr().cast()) };
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }
    /// Message words `4i..4i+4` from the sixteen before them, then four
    /// rounds on them.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
            let sigma0 = _mm_sha256msg1_epu32($w0, $w1);
            let sum = _mm_add_epi32(sigma0, _mm_alignr_epi8($w3, $w2, 4));
            $w0 = _mm_sha256msg2_epu32(sum, $w3);
            rounds4!($abef, $cdgh, $w0, $i);
        }};
    }

    debug_assert_eq!(blocks.len() % 64, 0);
    // Big-endian words within each 16-byte lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is 32 bytes; unaligned loads.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is 64 bytes; unaligned loads.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        for w in [&mut w0, &mut w1, &mut w2, &mut w3] {
            *w = _mm_shuffle_epi8(*w, bswap);
        }
        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        for i in 1..4 {
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4 * i);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 4 * i + 1);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 4 * i + 2);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 4 * i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    // SAFETY: `state` is 32 bytes; unaligned stores.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(p.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// One-shot SHA-256 digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hex rendering of a digest (lowercase).
pub fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{:02x}", b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    /// Digest of `parts`, fed in order through `compress`.
    fn digest_with(compress: Compress, parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(part, compress);
        }
        h.finalize_with(compress)
    }

    /// Every compression path this CPU runs: the scalar rounds, the
    /// runtime dispatch, and SHA-NI itself when the CPU has it.
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> =
            vec![("scalar", compress_scalar), ("dispatch", compress)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: guarded by the runtime SHA and SSE4.1 detection above.
            paths.push(("sha-ni", |state, blocks| unsafe {
                compress_shani(state, blocks)
            }));
        }
        paths
    }

    #[test]
    fn scalar_and_shani_paths_agree() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, compress) in paths() {
            for (msg, want) in vectors {
                assert_eq!(hex(&digest_with(compress, &[msg])), want, "{name}");
            }
        }

        // Padding edges ten times each, then random lengths; every
        // input split at two random points.
        let mut rng = Drbg::from_seed(0x5A25_6001);
        let mut lengths: Vec<usize> = [55, 56, 63, 64, 119, 120]
            .iter()
            .flat_map(|&len| [len; 10])
            .collect();
        lengths.extend((0..1_000).map(|_| rng.below(1_101) as usize));
        for len in lengths {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let a = rng.below(len as u64 + 1) as usize;
            let b = a + rng.below((len - a) as u64 + 1) as usize;
            let parts = [&data[..a], &data[a..b], &data[b..]];
            let want = digest_with(compress_scalar, &[&data]);
            for (name, compress) in paths() {
                assert_eq!(
                    digest_with(compress, &parts),
                    want,
                    "{name}: len {len}, split at {a} and {b}"
                );
            }
        }
    }

    // NIST / well-known vectors.
    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(data), "split at {split}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Lengths that land exactly on padding edge cases: 55, 56, 63, 64.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }
}
