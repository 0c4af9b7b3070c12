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

/// Multiply two group elements modulo `P` without overflow.
fn mul_mod(a: u64, b: u64) -> u64 {
    // Lossless: the remainder of `% P` always fits back in a u64.
    #[allow(clippy::cast_possible_truncation)]
    {
        ((a as u128 * b as u128) % P as u128) as u64
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
        PublicKey { y: pow_mod(G, self.x) }
    }

    /// Sign a message digest.
    ///
    /// The nonce `k` is derived deterministically from the key and message
    /// (RFC-6979 style) so that signing is a pure function.
    pub fn sign(&self, message: &Digest) -> Signature {
        counters::record_signature();
        let k_digest = hash_concat(&[b"snp-nonce", &self.x.to_be_bytes(), message.as_bytes()]);
        let k = k_digest.to_u64() % (GROUP_ORDER - 1) + 1;
        let r = pow_mod(G, k);
        let e_digest = hash_concat(&[b"snp-challenge", &r.to_be_bytes(), message.as_bytes()]);
        let e = e_digest.to_u64() % GROUP_ORDER;
        // s = k - x*e  (mod GROUP_ORDER)
        // Lossless: the remainder of `% GROUP_ORDER` fits back in a u64.
        #[allow(clippy::cast_possible_truncation)]
        let xe = ((self.x as u128 * e as u128) % GROUP_ORDER as u128) as u64;
        let s = (k + GROUP_ORDER - xe % GROUP_ORDER) % GROUP_ORDER;
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
        let r = mul_mod(pow_mod(G, sig.s), pow_mod(self.y, sig.e));
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
}
