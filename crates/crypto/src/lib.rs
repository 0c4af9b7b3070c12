//! # snp-crypto — cryptographic substrate for Secure Network Provenance
//!
//! The SNP paper (Section 5.2) assumes a cryptographic hash function and
//! unforgeable per-node signatures (the prototype used SHA-1 and 1024-bit
//! RSA).  Because this reproduction must be self-contained, the primitives
//! are implemented here from scratch:
//!
//! * [`sha256`](mod@sha256) — a from-scratch SHA-256 implementation (FIPS 180-4),
//!   checked against the standard test vectors.
//! * [`digest`] — the 32-byte [`digest::Digest`] type with hex helpers.
//! * [`sign`] — Schnorr-style discrete-log signatures over the multiplicative
//!   group modulo the Mersenne prime `2^61 - 1`.  **Simulation-grade only**:
//!   the group is far too small for real security, but the scheme is
//!   structurally faithful (per-node keypairs, unforgeable under the
//!   simulator's threat model, measurable sign/verify cost) which is all the
//!   SNP protocols require.
//! * [`keys`] — node keypairs, an offline certificate authority and a key
//!   registry binding node identities to public keys (assumption 2 of §5.2).
//! * [`chain`] — hash chains, the backbone of the tamper-evident log (§5.4).
//! * [`merkle`] — Merkle hash trees used to authenticate partial checkpoints
//!   (§7.7 mentions Merkle-verified partial checkpoints).
//! * [`counters`] — global operation counters used by the Figure 7
//!   reproduction (crypto CPU cost is estimated as `ops × measured cost`).

#![forbid(unsafe_code)]
// Unit tests may unwrap: a panic is the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
#![warn(missing_docs)]

pub mod chain;
pub mod counters;
pub mod digest;
pub mod keys;
pub mod merkle;
pub mod sha256;
pub mod sign;

pub use chain::HashChain;
pub use digest::Digest;
pub use keys::{CertificateAuthority, KeyPair, KeyRegistry, NodeCertificate};
pub use sha256::{sha256, Sha256};
pub use sign::{PublicKey, SecretKey, Signature};

/// Convenience: hash an arbitrary byte slice and return the digest.
pub fn hash(data: &[u8]) -> Digest {
    counters::record_hash(data.len());
    Digest(sha256(data))
}

/// Streaming form of [`hash`]: the digest of the concatenation of everything
/// written, counted as one hash invocation, without the caller assembling the
/// bytes first.
#[derive(Clone, Debug, Default)]
pub struct Hasher {
    sha: Sha256,
    len: usize,
}

impl Hasher {
    /// A hasher that has absorbed nothing.
    pub fn new() -> Hasher {
        Hasher::default()
    }

    /// Absorb `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        self.sha.update(bytes);
        self.len += bytes.len();
    }

    /// Absorb one length-framed part of `len` bytes, which `stream` writes:
    /// the big-endian `u64` length, then the bytes.  This is the framing
    /// [`hash_concat`] applies to each of its parts.
    #[inline]
    pub fn write_part(&mut self, len: usize, stream: impl FnOnce(&mut Hasher)) {
        self.write(&(len as u64).to_be_bytes());
        let start = self.len;
        stream(self);
        debug_assert_eq!(self.len - start, len, "part length does not match its framing");
    }

    /// The digest of everything written.
    pub fn finish(self) -> Digest {
        counters::record_hash(self.len);
        Digest(self.sha.finalize())
    }
}

/// Convenience: hash the concatenation of several byte slices.
///
/// The slices are length-prefixed before hashing so that the boundary between
/// fields is unambiguous (`hash_concat(&[b"ab", b"c"]) != hash_concat(&[b"a", b"bc"])`).
pub fn hash_concat(parts: &[&[u8]]) -> Digest {
    let mut hasher = Hasher::new();
    for part in parts {
        hasher.write_part(part.len(), |h| h.write(part));
    }
    hasher.finish()
}

/// splitmix64 for the unit tests: `snp-sim`'s `DetRng` sits above this crate,
/// so depending on it would form a cycle.
#[cfg(test)]
pub(crate) mod test_rng {
    pub(crate) struct SplitMix(pub(crate) u64);

    impl SplitMix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform-enough draw from `0..n`.
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_concat_is_boundary_sensitive() {
        let a = hash_concat(&[b"ab", b"c"]);
        let b = hash_concat(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_matches_plain_sha256() {
        assert_eq!(hash(b"snp").0, sha256(b"snp"));
    }

    #[test]
    fn streamed_pieces_hash_like_their_concatenation() {
        let mut hasher = Hasher::new();
        for piece in [&b"secure "[..], b"", b"network ", b"provenance"] {
            hasher.write(piece);
        }
        assert_eq!(hasher.finish(), hash(b"secure network provenance"));
    }
}
