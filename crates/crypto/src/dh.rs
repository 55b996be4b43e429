//! Classic finite-field Diffie–Hellman, used by the simulated
//! (EC)DHE-class ciphersuites to provide real forward secrecy in the
//! testbed: ephemeral keys are generated per handshake and discarded.
//!
//! The group is the 768-bit Oakley Group 1 prime (RFC 2409 §6.1) with
//! generator 2 — small by modern standards, but the simulator only
//! needs the protocol shape, not 128-bit security.
//!
//! Key generation raises the group's fixed generator to a fresh
//! secret, so each group carries a fixed-base table of its generator's
//! powers (`mont::FixedBase`), built on first use and shared by every
//! clone of the group: `g^x` then costs at most one multiplication per
//! 4-bit digit of the secret and no squarings. The table is a constant
//! of the group, the same in every run. Agreement raises the peer's
//! value, a new base every time, on the variable-base ladder of the
//! Montgomery context that the table holds for the group's prime.

use crate::bigint::Uint;
use crate::drbg::Drbg;
use crate::mont::FixedBase;
use crate::prime::random_below;
use crate::sha256::sha256;
use std::sync::{Arc, OnceLock};

/// RFC 2409 Oakley Group 1: 2^768 - 2^704 - 1 + 2^64 * (floor(2^638 π) + 149686).
const GROUP1_PRIME_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
                                020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
                                4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF";

/// A Diffie–Hellman group (prime modulus and generator).
#[derive(Clone)]
pub struct DhGroup {
    p: Uint,
    g: Uint,
    /// The generator's fixed-base table, built on first use and shared
    /// by clones; `None` inside when `p` takes no fixed-width kernel.
    table: Arc<OnceLock<Option<FixedBase>>>,
}

impl DhGroup {
    /// The built-in Oakley Group 1. Parsed once per process, and every
    /// call hands out a clone of that one group, so its fixed-base
    /// table is built once per process too.
    pub fn oakley_group1() -> Self {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP
            .get_or_init(|| {
                DhGroup::new(
                    Uint::from_hex(GROUP1_PRIME_HEX).expect("valid embedded prime"),
                    Uint::from_u64(2),
                )
            })
            .clone()
    }

    /// Constructs a custom group (for tests).
    pub fn new(p: Uint, g: Uint) -> Self {
        DhGroup {
            p,
            g,
            table: Arc::default(),
        }
    }

    /// The prime modulus.
    pub fn prime(&self) -> &Uint {
        &self.p
    }

    /// The generator's fixed-base table, built on first use; `None`
    /// when `p` takes no fixed-width kernel.
    fn table(&self) -> Option<&FixedBase> {
        self.table
            .get_or_init(|| {
                let longest_secret = secret_bound(&self.p).add(&Uint::one()).bit_len();
                FixedBase::new(&self.g, &self.p, longest_secret)
            })
            .as_ref()
    }

    /// `g^x mod p`: through the fixed-base table, which covers every
    /// secret [`DhKeyPair::generate`] draws, where the group has one.
    fn pow_g(&self, x: &Uint) -> Uint {
        match self.table() {
            Some(table) => table.pow(x),
            None => self.g.modpow(x, &self.p),
        }
    }
}

impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.g == other.g
    }
}

impl Eq for DhGroup {}

impl std::fmt::Debug for DhGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DhGroup")
            .field("p", &self.p)
            .field("g", &self.g)
            .finish()
    }
}

/// An ephemeral DH keypair bound to a group.
pub struct DhKeyPair {
    group: DhGroup,
    secret: Uint,
    public: Uint,
}

/// Secret-exponent length, in bits. Real implementations use short
/// exponents (OpenSSL sizes them at twice the group's security
/// strength, cf. RFC 7919 §5.2): Oakley Group 1 offers well under
/// 128 bits of strength, so 256-bit secrets keep the full security of
/// the group while making each modexp ~3× cheaper than full-width
/// exponents — the measurement engine's single hottest operation.
const SECRET_BITS: usize = 256;

/// The secret is drawn below this bound, then offset by 2: `2^256`
/// for groups wider than 258 bits, `p − 3` (full-width secrets) for
/// smaller test groups.
fn secret_bound(p: &Uint) -> Uint {
    if p.bit_len() > SECRET_BITS + 2 {
        Uint::one().shl(SECRET_BITS)
    } else {
        p.sub(&Uint::from_u64(3))
    }
}

impl DhKeyPair {
    /// Generates an ephemeral keypair: a short-exponent secret in
    /// `[2, 2^256 + 1]` (see `SECRET_BITS`), public = g^secret mod p.
    pub fn generate(group: &DhGroup, rng: &mut Drbg) -> Self {
        let secret = random_below(&secret_bound(&group.p), rng).add(&Uint::from_u64(2));
        let public = group.pow_g(&secret);
        DhKeyPair {
            group: group.clone(),
            secret,
            public,
        }
    }

    /// The public value to transmit.
    pub fn public_bytes(&self) -> Vec<u8> {
        self.public.to_be_bytes()
    }

    /// Computes the shared secret against a peer public value and
    /// hashes it to a 32-byte key. Returns `None` for degenerate peer
    /// values (0, 1, p-1, or ≥ p), which a robust implementation must
    /// reject.
    pub fn agree(&self, peer_public: &[u8]) -> Option<[u8; 32]> {
        let peer = Uint::from_be_bytes(peer_public);
        let p_minus_1 = self.group.p.sub(&Uint::one());
        if peer.cmp_val(&Uint::from_u64(2)) == std::cmp::Ordering::Less
            || peer.cmp_val(&p_minus_1) != std::cmp::Ordering::Less
        {
            return None;
        }
        let shared = match self.group.table() {
            Some(table) => table.ctx().modpow(&peer, &self.secret),
            None => peer.modpow(&self.secret, &self.group.p),
        };
        Some(sha256(&shared.to_be_bytes()))
    }
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DhKeyPair(public={}...)", &self.public.to_hex()[..16])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    fn small_group() -> DhGroup {
        // p = 2^61 - 1 is not prime; use a known 64-bit prime instead.
        DhGroup::new(Uint::from_u64(0xFFFFFFFFFFFFFFC5), Uint::from_u64(5))
    }

    #[test]
    fn agreement_matches_small_group() {
        let g = small_group();
        let mut rng = Drbg::from_seed(11);
        let alice = DhKeyPair::generate(&g, &mut rng);
        let bob = DhKeyPair::generate(&g, &mut rng);
        let s1 = alice.agree(&bob.public_bytes()).unwrap();
        let s2 = bob.agree(&alice.public_bytes()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn agreement_matches_oakley_group() {
        let g = DhGroup::oakley_group1();
        assert_eq!(g.prime().bit_len(), 768);
        let mut rng = Drbg::from_seed(12);
        let alice = DhKeyPair::generate(&g, &mut rng);
        let bob = DhKeyPair::generate(&g, &mut rng);
        assert_eq!(
            alice.agree(&bob.public_bytes()).unwrap(),
            bob.agree(&alice.public_bytes()).unwrap()
        );
    }

    #[test]
    fn distinct_peers_distinct_secrets() {
        let g = small_group();
        let mut rng = Drbg::from_seed(13);
        let alice = DhKeyPair::generate(&g, &mut rng);
        let bob = DhKeyPair::generate(&g, &mut rng);
        let carol = DhKeyPair::generate(&g, &mut rng);
        assert_ne!(
            alice.agree(&bob.public_bytes()).unwrap(),
            alice.agree(&carol.public_bytes()).unwrap()
        );
    }

    #[test]
    fn degenerate_peer_values_rejected() {
        let g = small_group();
        let mut rng = Drbg::from_seed(14);
        let alice = DhKeyPair::generate(&g, &mut rng);
        assert!(alice.agree(&[]).is_none()); // zero
        assert!(alice.agree(&[1]).is_none()); // one
        let p_minus_1 = g.prime().sub(&Uint::one());
        assert!(alice.agree(&p_minus_1.to_be_bytes()).is_none());
        assert!(alice.agree(&g.prime().to_be_bytes()).is_none());
    }

    #[test]
    fn oakley_table_covers_every_secret_and_is_shared() {
        let group = DhGroup::oakley_group1();
        let mut rng = Drbg::from_seed(15);
        let pair = DhKeyPair::generate(&group, &mut rng);
        assert_eq!(pair.public, group.g.modpow(&pair.secret, &group.p));
        let table = group.table.get().expect("built by generate");
        let table = table.as_ref().expect("Oakley Group 1 has 12 limbs");
        assert!(table.capacity() >= 257);
        // Every hand-out of the group shares the one table.
        assert!(Arc::ptr_eq(&group.table, &DhGroup::oakley_group1().table));
        // A custom group gets its own; a one-limb prime gets none.
        let small = small_group();
        assert!(!Arc::ptr_eq(&small.table, &small_group().table));
        DhKeyPair::generate(&small, &mut rng);
        assert!(small.table.get().expect("built by generate").is_none());
    }

    #[test]
    fn oakley_keypairs_are_pinned() {
        // Captured before the fixed-base table and the fixed-width
        // ladder: public values, shared secret and the next draw.
        let pins = [
            (0xD4E1, "6d187a685daa56b6", "8852bf4730557db0", "a6b8e307d435ab9f", 0x0299_2e15_0881_c858),
            (0xD4E2, "7820c2725f71c9e0", "c02a0a134ab0dcf0", "767bf9aa49fba403", 0x7776_cec1_5e36_b49f),
            (0xD4E3, "cf32b53db8c51b5f", "22905a34c3ad4c04", "f8ed6b8a64cb1f8e", 0x0090_5007_dead_7eaa),
        ];
        for (seed, a_public, b_public, shared, next) in pins {
            let mut rng = Drbg::from_seed(seed);
            let a = DhKeyPair::generate(&DhGroup::oakley_group1(), &mut rng);
            let b = DhKeyPair::generate(&DhGroup::oakley_group1(), &mut rng);
            assert_eq!(hex(&sha256(&a.public_bytes())[..8]), a_public, "seed {seed:#x}");
            assert_eq!(hex(&sha256(&b.public_bytes())[..8]), b_public, "seed {seed:#x}");
            assert_eq!(hex(&a.agree(&b.public_bytes()).unwrap()[..8]), shared, "seed {seed:#x}");
            assert_eq!(rng.next_u64(), next, "seed {seed:#x}");
        }
    }
}
