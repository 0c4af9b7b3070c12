//! Schnorr-style signatures over the multiplicative group mod `2^61 - 1`.
//!
//! The SNP paper assumes (§5.2, assumption 3) that "the signature of a
//! correct node cannot be forged".  The prototype used 1024-bit RSA; this
//! reproduction implements a Schnorr identification-style signature over the
//! multiplicative group modulo the Mersenne prime `P = 2^61 - 1`.
//!
//! **This is simulation-grade cryptography.**  A 61-bit discrete-log group is
//! trivially breakable in the real world.  Within the simulator, however,
//! Byzantine behaviour is modelled by explicit fault-injection hooks rather
//! than by brute-forcing keys, so the scheme's role is purely structural: it
//! binds evidence to node identities, makes sign/verify costs measurable
//! (Figure 7), and keeps authenticator/ack byte counts in the same ballpark
//! as the paper's RSA-1024 numbers (Figures 5 and 6).  The substitution is
//! recorded in DESIGN.md.
//!
//! Every signature and verification sits on the commitment protocol's hot
//! path (§5.4 signs each message and each ack), so the arithmetic is shaped
//! for speed without changing a single output:
//!
//! * `mul_mod` reduces the 122-bit product by the Mersenne identity
//!   `2^61 ≡ 1 (mod P)` — a mask, a shift, an add and one conditional
//!   subtraction — instead of a 128-bit `%`, which is a library call;
//! * `g^k` (signing, public keys, the `g^s` half of verification) reads a
//!   compile-time fixed-base table, one multiplication per nonzero nibble of
//!   `k`; `y^e` in verification stays square-and-multiply.
//!
//! Exponentiation is exact either way, so keys and every `(e, s)` pair are
//! bit-identical to the textbook formulation.

use crate::counters;
use crate::digest::Digest;
use crate::hash_concat;
use std::fmt;

/// The Mersenne prime `2^61 - 1`.
pub const P: u64 = (1u64 << 61) - 1;
/// Order of the multiplicative group, `P - 1`.
pub const GROUP_ORDER: u64 = P - 1;
/// Generator of (a large subgroup of) the multiplicative group.
pub const G: u64 = 3;

/// Padded wire size of a signature, in bytes.
///
/// The actual Schnorr pair `(e, s)` is 16 bytes; we account for signatures on
/// the wire as if they were RSA-1024 signatures (128 bytes) so that the
/// traffic-overhead experiments (Figure 5) reproduce the paper's byte
/// accounting.
pub const SIGNATURE_WIRE_BYTES: usize = 128;

/// Multiply two residues modulo `P`.
///
/// Mersenne reduction: `2^61 ≡ 1 (mod P)`, so `x = hi·2^61 + lo ≡ hi + lo`.
/// For `a, b < P` the product is below `2^122`, so `hi < 2^61 - 3` and
/// `lo <= P`, their sum is below `2P`, and one conditional subtraction yields
/// the canonical residue — the same value `x % P` would.  A `const fn` so
/// that [`G_TABLE`] is built with the same arithmetic at compile time.
const fn mul_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let x = a as u128 * b as u128;
    // Lossless: `x < 2^122`, so both halves fit in 61 bits.
    #[allow(clippy::cast_possible_truncation)]
    let r = (x as u64 & P) + (x >> 61) as u64;
    if r >= P {
        r - P
    } else {
        r
    }
}

/// Modular exponentiation `base^exp mod P` by square-and-multiply.
fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    base %= P;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Fixed-base table for the generator: `G_TABLE[i][j] = G^(j·16^i) mod P`.
/// Row `i` serves nibble `i` of a 64-bit exponent (16 × 16 `u64`, 2 KiB,
/// built by const evaluation).
const G_TABLE: [[u64; 16]; 16] = {
    let mut table = [[1u64; 16]; 16];
    // `G^(16^i)`, the step along row `i`.
    let mut step = G;
    let mut i = 0;
    while i < 16 {
        let mut j = 1;
        while j < 16 {
            table[i][j] = mul_mod(table[i][j - 1], step);
            j += 1;
        }
        step = mul_mod(table[i][15], step);
        i += 1;
    }
    table
};

/// `G^exp mod P` from [`G_TABLE`]: one multiplication per nonzero nibble of
/// `exp`, at most 16, where square-and-multiply needs about 91.
fn pow_g(exp: u64) -> u64 {
    let mut acc = 1u64;
    for (rows, byte) in G_TABLE.chunks_exact(2).zip(exp.to_le_bytes()) {
        for (row, nibble) in rows.iter().zip([byte & 15, byte >> 4]) {
            if nibble != 0 {
                acc = mul_mod(acc, row[usize::from(nibble)]);
            }
        }
    }
    acc
}

/// A node's private signing key.
#[derive(Clone)]
pub struct SecretKey {
    /// Secret exponent `x` with `1 <= x < GROUP_ORDER`.
    x: u64,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(…)")
    }
}

/// A node's public verification key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// `y = g^x mod P`.
    pub y: u64,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:#x})", self.y)
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge `e = H(r || m) mod (P-1)`.
    pub e: u64,
    /// Response `s = k - x*e mod (P-1)`.
    pub s: u64,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig(e={:#x},s={:#x})", self.e, self.s)
    }
}

impl Signature {
    /// Wire size used in traffic accounting (see [`SIGNATURE_WIRE_BYTES`]).
    pub fn wire_size(&self) -> usize {
        SIGNATURE_WIRE_BYTES
    }
}

impl SecretKey {
    /// Derive a secret key deterministically from seed material.
    ///
    /// Determinism matters: SNooPy's microquery module re-executes node logic
    /// during replay (§5.5), and the simulator relies on runs being exactly
    /// reproducible.
    pub fn from_seed(seed: &[u8]) -> SecretKey {
        let d = hash_concat(&[b"snp-secret-key", seed]);
        let x = d.to_u64() % (GROUP_ORDER - 1) + 1;
        SecretKey { x }
    }

    /// The matching public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey { y: pow_g(self.x) }
    }

    /// Sign a message digest.
    ///
    /// The nonce `k` is derived deterministically from the key and message
    /// (RFC-6979 style) so that signing is a pure function.
    pub fn sign(&self, message: &Digest) -> Signature {
        counters::record_signature();
        let k_digest = hash_concat(&[b"snp-nonce", &self.x.to_be_bytes(), message.as_bytes()]);
        let k = k_digest.to_u64() % (GROUP_ORDER - 1) + 1;
        let r = pow_g(k);
        let e_digest = hash_concat(&[b"snp-challenge", &r.to_be_bytes(), message.as_bytes()]);
        let e = e_digest.to_u64() % GROUP_ORDER;
        // s = k - x*e  (mod GROUP_ORDER)
        // Lossless: the remainder of `% GROUP_ORDER` fits back in a u64.
        #[allow(clippy::cast_possible_truncation)]
        let xe = ((self.x as u128 * e as u128) % GROUP_ORDER as u128) as u64;
        let s = (k + GROUP_ORDER - xe) % GROUP_ORDER;
        Signature { e, s }
    }

    /// Sign raw bytes (hashes them first).
    pub fn sign_bytes(&self, message: &[u8]) -> Signature {
        self.sign(&crate::hash(message))
    }
}

impl PublicKey {
    /// Verify a signature over a message digest.
    pub fn verify(&self, message: &Digest, sig: &Signature) -> bool {
        counters::record_verification();
        if self.y == 0 || sig.e >= GROUP_ORDER || sig.s >= GROUP_ORDER {
            return false;
        }
        // r' = g^s * y^e mod P
        let r = mul_mod(pow_g(sig.s), pow_mod(self.y, sig.e));
        let e_digest = hash_concat(&[b"snp-challenge", &r.to_be_bytes(), message.as_bytes()]);
        let e = e_digest.to_u64() % GROUP_ORDER;
        e == sig.e
    }

    /// Verify a signature over raw bytes.
    pub fn verify_bytes(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify(&crate::hash(message), sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash;
    use crate::test_rng::SplitMix;

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SecretKey::from_seed(b"node-1");
        let pk = sk.public_key();
        let msg = hash(b"a message");
        let sig = sk.sign(&msg);
        assert!(pk.verify(&msg, &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let sk = SecretKey::from_seed(b"node-1");
        let pk = sk.public_key();
        let sig = sk.sign(&hash(b"message A"));
        assert!(!pk.verify(&hash(b"message B"), &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let sk1 = SecretKey::from_seed(b"node-1");
        let sk2 = SecretKey::from_seed(b"node-2");
        let msg = hash(b"message");
        let sig = sk1.sign(&msg);
        assert!(!sk2.public_key().verify(&msg, &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let sk = SecretKey::from_seed(b"node-1");
        let pk = sk.public_key();
        let msg = hash(b"message");
        let mut sig = sk.sign(&msg);
        sig.s ^= 1;
        assert!(!pk.verify(&msg, &sig));
    }

    #[test]
    fn signing_is_deterministic() {
        let sk = SecretKey::from_seed(b"node-1");
        let msg = hash(b"message");
        assert_eq!(sk.sign(&msg), sk.sign(&msg));
    }

    #[test]
    fn different_seeds_give_different_keys() {
        let a = SecretKey::from_seed(b"a").public_key();
        let b = SecretKey::from_seed(b"b").public_key();
        assert_ne!(a, b);
    }

    #[test]
    fn verify_rejects_out_of_range_signature() {
        let sk = SecretKey::from_seed(b"node-1");
        let pk = sk.public_key();
        let msg = hash(b"message");
        let sig = Signature { e: GROUP_ORDER, s: 0 };
        assert!(!pk.verify(&msg, &sig));
        let _ = sk; // silence unused in release cfg
    }

    /// Deterministic pseudorandom message derived from the crate's own hash
    /// function (proptest is unavailable offline).
    fn random_message(seed: u64, max_len: usize) -> Vec<u8> {
        let bytes = hash(&seed.to_be_bytes());
        let len = (bytes.to_u64() as usize) % (max_len + 1);
        bytes.as_bytes().iter().cycle().take(len).copied().collect()
    }

    #[test]
    fn prop_roundtrip_any_message() {
        for seed in 0..16u64 {
            let msg = random_message(seed, 256);
            let sk = SecretKey::from_seed(&seed.to_be_bytes());
            let pk = sk.public_key();
            let sig = sk.sign_bytes(&msg);
            assert!(pk.verify_bytes(&msg, &sig), "seed={seed}");
        }
    }

    #[test]
    fn prop_cross_key_rejection() {
        for seed in 0..16u64 {
            let msg = random_message(seed, 64);
            let sk1 = SecretKey::from_seed(&seed.to_be_bytes());
            let pk2 = SecretKey::from_seed(&(seed + 1).to_be_bytes()).public_key();
            let sig = sk1.sign_bytes(&msg);
            assert!(!pk2.verify_bytes(&msg, &sig), "seed={seed}");
        }
    }

    #[test]
    fn mul_mod_matches_wide_remainder() {
        let reference = |a: u64, b: u64| ((a as u128 * b as u128) % P as u128) as u64;
        let edges = [0, 1, 2, 1 << 60, P - 2, P - 1];
        for a in edges {
            for b in edges {
                assert_eq!(mul_mod(a, b), reference(a, b), "a={a:#x} b={b:#x}");
            }
        }
        let pairs = if cfg!(debug_assertions) { 100_000 } else { 1_000_000 };
        let mut rng = SplitMix(0x6d75);
        for _ in 0..pairs {
            let (a, b) = (rng.next() % P, rng.next() % P);
            assert_eq!(mul_mod(a, b), reference(a, b), "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn fixed_base_table_matches_square_and_multiply() {
        let mut rng = SplitMix(0x7067);
        let random = (0..2_000).map(|_| rng.next());
        for k in [0, 1, 15, 16, GROUP_ORDER - 1, GROUP_ORDER, u64::MAX]
            .into_iter()
            .chain(random)
        {
            assert_eq!(pow_g(k), pow_mod(G, k), "k={k:#x}");
        }
    }

    #[test]
    fn signatures_are_pinned() {
        // `(seed, message, y, e, s)` captured from the textbook `u128 %`
        // arithmetic: keys and signatures must never move, or every chain
        // head and fingerprint moves too.
        #[rustfmt::skip]
        let pinned = [
            (&b"node-1"[..], &b"a message"[..], 0x184e8f05aec6fd51, 0x029bfa91f996104c, 0x0d2890fe4ebbea05),
            (b"node-1", b"", 0x184e8f05aec6fd51, 0x15228e371ab59efa, 0x1d99f86c44917fde),
            (b"node-2", b"a message", 0x10e2f8b889b9658d, 0x01defe75454c5234, 0x0f57e8eaee6b8290),
            (b"node-2", b"secure network provenance", 0x10e2f8b889b9658d, 0x000825243f09730a, 0x0b2393fca85f31c5),
            (b"seed-pin", b"a message", 0x14fa8387f4e2c7ad, 0x1730b2dadc0b6532, 0x1fe672f3d6587454),
            (b"seed-pin", b"secure network provenance", 0x14fa8387f4e2c7ad, 0x17f6a391ada46e9d, 0x0e180433e7c68949),
        ];
        for (seed, message, y, e, s) in pinned {
            let sk = SecretKey::from_seed(seed);
            let pk = sk.public_key();
            let sig = sk.sign_bytes(message);
            assert_eq!((pk.y, sig.e, sig.s), (y, e, s), "seed {seed:?}, message {message:?}");
            assert!(pk.verify_bytes(message, &sig));
        }
    }
}
