//! Shared session-level machinery for the client and server state
//! machines: key derivation, record protection, and handshake
//! transcript hashing.
//!
//! Key derivation is the real TLS 1.2 schedule (RFC 5246 PRF with
//! P_SHA256 — see [`crate::prf`]): a 48-byte master secret, a key
//! block seeded with server_random || client_random, and 12-byte
//! Finished verify data. Record protection uses the suite's real
//! cipher core — RC4, 3DES (OFB), AES-128 (CTR), or ChaCha20 — with
//! one documented substitution (DESIGN.md §2): stream/OFB/CTR modes
//! stand in for CBC padding and GCM tags, whose internals the
//! measurement methodology never observes.

use crate::ciphersuite::{by_id, BulkCipher};
use crate::prf;
use crate::record::Deframer;
use iotls_crypto::aes::Aes128Ctr;
use iotls_crypto::chacha20::ChaCha20;
use iotls_crypto::des::TripleDesOfb;
use iotls_crypto::rc4::Rc4;
use iotls_crypto::sha256::Sha256;

/// RFC 5246 master-secret derivation (48 bytes).
pub fn derive_master_secret(
    premaster: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> [u8; 48] {
    prf::master_secret(premaster, client_random, server_random)
}

/// Directional write keys from the RFC 5246 key block: 32 bytes for
/// the client direction, 32 for the server.
pub fn derive_write_keys(
    master: &[u8; 48],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> ([u8; 32], [u8; 32]) {
    let block = prf::key_block(master, client_random, server_random, 64);
    (
        block[..32].try_into().expect("key block"),
        block[32..64].try_into().expect("key block"),
    )
}

/// RFC 5246 Finished verify-data over the transcript hash.
pub fn finished_verify_data(master: &[u8; 48], label: &str, transcript_hash: &[u8; 32]) -> Vec<u8> {
    prf::verify_data(master, label, transcript_hash)
}

/// Running hash of every handshake message exchanged.
#[derive(Clone)]
pub struct Transcript {
    hasher: Sha256,
}

impl Default for Transcript {
    fn default() -> Self {
        Self::new()
    }
}

impl Transcript {
    /// Empty transcript.
    pub fn new() -> Self {
        Transcript {
            hasher: Sha256::new(),
        }
    }

    /// Absorbs an encoded handshake message.
    pub fn absorb(&mut self, message_bytes: &[u8]) {
        self.hasher.update(message_bytes);
    }

    /// Current transcript hash (non-destructive).
    pub fn hash(&self) -> [u8; 32] {
        self.hasher.clone().finalize()
    }
}

/// Coarse connection status returned by the sans-IO
/// `process` loop on both state machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The handshake is still in flight; keep pumping bytes.
    Handshaking,
    /// The handshake completed; application data may flow.
    Established,
    /// The connection failed terminally (see the connection's
    /// `failure()` accessor for the cause).
    Failed,
    /// The peer closed the connection cleanly.
    Closed,
}

/// Per-session scratch memory for the sans-IO state machines: the
/// incoming deframer, the message-encode and record-payload buffers,
/// and the decrypted application-data accumulator.
///
/// A scratch outlives any one connection: construct connections with
/// `with_scratch`, and reclaim the (warm) scratch via `into_scratch`
/// when the session ends. Steady-state session loops therefore reuse
/// one set of allocations across every session in a lane instead of
/// allocating per connection.
#[derive(Debug, Default)]
pub struct SessionScratch {
    /// Incremental record parser over incoming transport bytes.
    pub(crate) deframer: Deframer,
    /// Outgoing message/payload encode buffer (cleared per message).
    pub(crate) tx: Vec<u8>,
    /// Incoming record-payload buffer (cleared per record; decrypted
    /// in place).
    pub(crate) rx: Vec<u8>,
    /// Decrypted application data awaiting the caller.
    pub(crate) app: Vec<u8>,
}

impl SessionScratch {
    /// A fresh (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties every buffer, keeping the allocations for reuse.
    pub(crate) fn reset(&mut self) {
        self.deframer.clear();
        self.tx.clear();
        self.rx.clear();
        self.app.clear();
    }
}

/// A directional record cipher.
pub enum DirectionCipher {
    /// NULL cipher — plaintext records.
    Null,
    /// RC4 keystream (insecure suites).
    Rc4(Box<Rc4>),
    /// AES-128-CTR keystream (AES-class suites).
    Aes(Box<Aes128Ctr>),
    /// Triple-DES-OFB keystream (DES/3DES-class suites; single-DES
    /// suites run 3DES with a repeated key, which degenerates to DES).
    TripleDes(Box<TripleDesOfb>),
    /// ChaCha20 keystream (ChaCha20 suites).
    ChaCha(Box<ChaCha20>),
}

impl DirectionCipher {
    /// Instantiates the cipher a suite calls for, keyed with `key`.
    pub fn for_suite(suite_id: u16, key: &[u8; 32]) -> DirectionCipher {
        let Some(suite) = by_id(suite_id) else {
            return DirectionCipher::ChaCha(Box::new(ChaCha20::new(key, &[0u8; 12], 0)));
        };
        match suite.cipher {
            BulkCipher::Null => DirectionCipher::Null,
            BulkCipher::Rc4_40 | BulkCipher::Rc4_128 => {
                DirectionCipher::Rc4(Box::new(Rc4::new(key)))
            }
            BulkCipher::Aes128Cbc
            | BulkCipher::Aes256Cbc
            | BulkCipher::Aes128Gcm
            | BulkCipher::Aes256Gcm => {
                let k: [u8; 16] = key[..16].try_into().expect("32-byte key");
                let iv: [u8; 16] = key[16..32].try_into().expect("32-byte key");
                DirectionCipher::Aes(Box::new(Aes128Ctr::new(&k, &iv)))
            }
            BulkCipher::DesCbc | BulkCipher::Des40Cbc | BulkCipher::TripleDesCbc => {
                let mut bundle = [0u8; 24];
                bundle.copy_from_slice(&key[..24]);
                if matches!(suite.cipher, BulkCipher::DesCbc | BulkCipher::Des40Cbc) {
                    // Single-DES suites: repeat K1 so EDE degenerates
                    // to one DES pass, as the suite specifies.
                    let k1: [u8; 8] = key[..8].try_into().expect("32-byte key");
                    bundle[8..16].copy_from_slice(&k1);
                    bundle[16..24].copy_from_slice(&k1);
                }
                let iv: [u8; 8] = key[24..32].try_into().expect("32-byte key");
                DirectionCipher::TripleDes(Box::new(TripleDesOfb::new(&bundle, &iv)))
            }
            _ => DirectionCipher::ChaCha(Box::new(ChaCha20::new(key, &[0u8; 12], 0))),
        }
    }

    /// Applies the keystream in place (encrypt == decrypt for the
    /// stream ciphers used here).
    pub fn apply(&mut self, buf: &mut [u8]) {
        match self {
            DirectionCipher::Null => {}
            DirectionCipher::Rc4(c) => c.apply(buf),
            DirectionCipher::Aes(c) => c.apply(buf),
            DirectionCipher::TripleDes(c) => c.apply(buf),
            DirectionCipher::ChaCha(c) => c.apply(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_secret_depends_on_all_inputs() {
        let pm = [1u8; 48];
        let cr = [2u8; 32];
        let sr = [3u8; 32];
        let m1 = derive_master_secret(&pm, &cr, &sr);
        assert_eq!(m1, derive_master_secret(&pm, &cr, &sr));
        assert_ne!(m1, derive_master_secret(&[9u8; 48], &cr, &sr));
        assert_ne!(m1, derive_master_secret(&pm, &[9u8; 32], &sr));
        assert_ne!(m1, derive_master_secret(&pm, &cr, &[9u8; 32]));
    }

    #[test]
    fn write_keys_are_directional() {
        let master = [5u8; 48];
        let (c, s) = derive_write_keys(&master, &[1u8; 32], &[2u8; 32]);
        assert_ne!(c, s);
        // Deterministic.
        assert_eq!((c, s), derive_write_keys(&master, &[1u8; 32], &[2u8; 32]));
    }

    #[test]
    fn finished_depends_on_transcript_and_role() {
        let master = [7u8; 48];
        let th1 = [1u8; 32];
        let th2 = [2u8; 32];
        let c = finished_verify_data(&master, "client finished", &th1);
        assert_eq!(c.len(), 12);
        assert_ne!(c, finished_verify_data(&master, "server finished", &th1));
        assert_ne!(c, finished_verify_data(&master, "client finished", &th2));
    }

    #[test]
    fn transcript_accumulates() {
        let mut t = Transcript::new();
        let h0 = t.hash();
        t.absorb(b"client hello bytes");
        let h1 = t.hash();
        assert_ne!(h0, h1);
        t.absorb(b"server hello bytes");
        assert_ne!(h1, t.hash());
        // Same sequence reproduces the same hash.
        let mut t2 = Transcript::new();
        t2.absorb(b"client hello bytes");
        t2.absorb(b"server hello bytes");
        assert_eq!(t.hash(), t2.hash());
    }

    #[test]
    fn direction_cipher_matches_suite_class() {
        let key = [3u8; 32];
        assert!(matches!(
            DirectionCipher::for_suite(0x0005, &key), // RC4_128_SHA
            DirectionCipher::Rc4(_)
        ));
        assert!(matches!(
            DirectionCipher::for_suite(0x0001, &key), // NULL_MD5
            DirectionCipher::Null
        ));
        assert!(matches!(
            DirectionCipher::for_suite(0xc02f, &key), // AES-GCM
            DirectionCipher::Aes(_)
        ));
        assert!(matches!(
            DirectionCipher::for_suite(0xcca8, &key), // ChaCha20
            DirectionCipher::ChaCha(_)
        ));
        assert!(matches!(
            DirectionCipher::for_suite(0x000a, &key), // 3DES
            DirectionCipher::TripleDes(_)
        ));
        assert!(matches!(
            DirectionCipher::for_suite(0x0009, &key), // single DES
            DirectionCipher::TripleDes(_)
        ));
    }

    #[test]
    fn stream_roundtrip_across_records() {
        let key = [4u8; 32];
        let mut enc = DirectionCipher::for_suite(0x0005, &key);
        let mut dec = DirectionCipher::for_suite(0x0005, &key);
        for msg in [b"first".as_slice(), b"second record", b"third"] {
            let mut buf = msg.to_vec();
            enc.apply(&mut buf);
            dec.apply(&mut buf);
            assert_eq!(buf, msg);
        }
    }
}
