//! ChaCha20 stream cipher (RFC 7539 block function), from scratch.
//!
//! Serves two purposes: the "modern AEAD-class" cipher stand-in for
//! TLS record protection in the simulator, and the core of the
//! deterministic DRBG ([`crate::drbg`]).

/// ChaCha20 keystream generator / stream cipher.
#[derive(Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
    keystream: [u8; 64],
    used: usize,
}

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
            keystream: [0; 64],
            used: 64,
        }
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

    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..10 {
            Self::quarter_round(&mut working, 0, 4, 8, 12);
            Self::quarter_round(&mut working, 1, 5, 9, 13);
            Self::quarter_round(&mut working, 2, 6, 10, 14);
            Self::quarter_round(&mut working, 3, 7, 11, 15);
            Self::quarter_round(&mut working, 0, 5, 10, 15);
            Self::quarter_round(&mut working, 1, 6, 11, 12);
            Self::quarter_round(&mut working, 2, 7, 8, 13);
            Self::quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (i, w) in working.iter().enumerate() {
            let word = w.wrapping_add(self.state[i]);
            self.keystream[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.state[12] = self.state[12].wrapping_add(1);
        self.used = 0;
    }

    /// XORs the keystream into `buf` in place (encrypt == decrypt).
    pub fn apply(&mut self, buf: &mut [u8]) {
        self.segments(buf, |out, ks| {
            for (b, k) in out.iter_mut().zip(ks) {
                *b ^= k;
            }
        });
    }

    /// Fills `buf` with raw keystream bytes (for the DRBG).
    pub fn keystream(&mut self, buf: &mut [u8]) {
        self.segments(buf, <[u8]>::copy_from_slice);
    }

    /// Walks `buf` in runs that each fit in the unused tail of the
    /// current keystream block, handing each run and its keystream
    /// bytes to `op`.
    fn segments(&mut self, mut buf: &mut [u8], mut op: impl FnMut(&mut [u8], &[u8])) {
        while !buf.is_empty() {
            if self.used == 64 {
                self.refill();
            }
            let n = buf.len().min(64 - self.used);
            let (run, rest) = std::mem::take(&mut buf).split_at_mut(n);
            op(run, &self.keystream[self.used..self.used + n]);
            self.used += n;
            buf = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

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
}
