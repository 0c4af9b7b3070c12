//! Authenticators and authenticator sets (§5.4).
//!
//! An authenticator `a_k := (t_k, h_k, σ_i(t_k || h_k))` is a signed
//! commitment that entry `e_k` (and, through the hash chain, every earlier
//! entry) exists in node `i`'s log.  Nodes keep the authenticators they
//! receive from a peer `j` in the set `U_{i,j}`; the querier uses them as
//! evidence when invoking `retrieve`.

use snp_crypto::keys::{KeyPair, NodeId};
use snp_crypto::sign::{PublicKey, Signature, SIGNATURE_WIRE_BYTES};
use snp_crypto::{hash_concat, Digest};
use snp_graph::vertex::Timestamp;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A signed commitment to a log prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Authenticator {
    /// The node that issued the authenticator.
    pub node: NodeId,
    /// Index of the last entry covered (`k`, 0-based).
    pub seq: u64,
    /// Timestamp of that entry (`t_k`).
    pub timestamp: Timestamp,
    /// Hash-chain head after that entry (`h_k`).
    pub head: Digest,
    /// Signature over `(node, seq, t_k, h_k)`.
    pub signature: Signature,
}

impl Authenticator {
    /// The digest that is signed.
    pub fn signed_digest(node: NodeId, seq: u64, timestamp: Timestamp, head: &Digest) -> Digest {
        hash_concat(&[
            b"snp-authenticator",
            &node.to_bytes(),
            &seq.to_be_bytes(),
            &timestamp.to_be_bytes(),
            head.as_bytes(),
        ])
    }

    /// Issue an authenticator with the node's keypair.
    pub fn issue(keys: &KeyPair, seq: u64, timestamp: Timestamp, head: Digest) -> Authenticator {
        let digest = Self::signed_digest(keys.node, seq, timestamp, &head);
        Authenticator {
            node: keys.node,
            seq,
            timestamp,
            head,
            signature: keys.sign(&digest),
        }
    }

    /// Verify the authenticator against the issuer's public key.
    pub fn verify(&self, public: &PublicKey) -> bool {
        let digest = Self::signed_digest(self.node, self.seq, self.timestamp, &self.head);
        public.verify(&digest, &self.signature)
    }

    /// Content digest (used to reference an authenticator from log entries).
    pub fn digest(&self) -> Digest {
        hash_concat(&[
            b"snp-auth-ref",
            &self.node.to_bytes(),
            &self.seq.to_be_bytes(),
            &self.timestamp.to_be_bytes(),
            self.head.as_bytes(),
            &self.signature.e.to_be_bytes(),
            &self.signature.s.to_be_bytes(),
        ])
    }

    /// Wire size used for traffic accounting.  Mirrors the paper's numbers
    /// (156 bytes per authenticator with 1024-bit RSA): 8 + 8 + 32 bytes of
    /// metadata plus the padded signature.
    pub fn wire_size(&self) -> usize {
        8 + 8 + Digest::LEN + SIGNATURE_WIRE_BYTES
    }
}

/// The set `U_{i,j}` of authenticators node `i` holds from node `j`
/// (here generalized: the querier also keeps one per node).
#[derive(Clone, Default)]
pub struct AuthenticatorSet {
    /// Per peer, in the order received: the order the consistency check
    /// walks.
    by_peer: BTreeMap<NodeId, Vec<Authenticator>>,
    /// Everything in `by_peer`, for the duplicate test of `add`.
    seen: HashSet<Authenticator>,
}

// Node fingerprints hash this output: the received lists only, never the
// hash set, whose iteration order differs from run to run.
impl fmt::Debug for AuthenticatorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuthenticatorSet")
            .field("by_peer", &self.by_peer)
            .finish()
    }
}

impl AuthenticatorSet {
    /// Create an empty set.
    pub fn new() -> AuthenticatorSet {
        AuthenticatorSet::default()
    }

    /// Add an authenticator received from `auth.node`.
    pub fn add(&mut self, auth: Authenticator) {
        if self.seen.insert(auth) {
            self.by_peer.entry(auth.node).or_default().push(auth);
        }
    }

    /// All authenticators from a peer, in the order received.
    pub fn from_peer(&self, peer: NodeId) -> &[Authenticator] {
        self.by_peer.get(&peer).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The authenticator from `peer` covering the longest prefix.
    pub fn latest(&self, peer: NodeId) -> Option<Authenticator> {
        self.from_peer(peer).iter().max_by_key(|a| a.seq).copied()
    }

    /// Authenticators from `peer` whose timestamps fall within `[from, to]`
    /// (the consistency check of §5.5 asks peers for authenticators signed by
    /// the audited node within the interval of interest).
    pub fn in_interval(&self, peer: NodeId, from: Timestamp, to: Timestamp) -> Vec<Authenticator> {
        self.from_peer(peer)
            .iter()
            .filter(|a| a.timestamp >= from && a.timestamp <= to)
            .copied()
            .collect()
    }

    /// Total number of stored authenticators.
    pub fn len(&self) -> usize {
        self.by_peer.values().map(|v| v.len()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peers this set holds authenticators from.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_peer.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(id: u64) -> KeyPair {
        KeyPair::for_node(NodeId(id))
    }

    #[test]
    fn issue_and_verify() {
        let keys = keypair(1);
        let auth = Authenticator::issue(&keys, 5, 100, snp_crypto::hash(b"head"));
        assert!(auth.verify(&keys.public));
        assert!(!auth.verify(&keypair(2).public));
    }

    #[test]
    fn tampered_authenticator_fails_verification() {
        let keys = keypair(1);
        let mut auth = Authenticator::issue(&keys, 5, 100, snp_crypto::hash(b"head"));
        auth.seq = 6;
        assert!(!auth.verify(&keys.public));
        let mut auth2 = Authenticator::issue(&keys, 5, 100, snp_crypto::hash(b"head"));
        auth2.head = snp_crypto::hash(b"other");
        assert!(!auth2.verify(&keys.public));
    }

    #[test]
    fn wire_size_matches_rsa_scale() {
        let keys = keypair(1);
        let auth = Authenticator::issue(&keys, 0, 0, Digest::ZERO);
        assert_eq!(auth.wire_size(), 176);
    }

    #[test]
    fn set_tracks_latest_and_interval() {
        let keys = keypair(3);
        let mut set = AuthenticatorSet::new();
        for (seq, ts) in [(0u64, 10u64), (1, 20), (2, 30)] {
            set.add(Authenticator::issue(
                &keys,
                seq,
                ts,
                snp_crypto::hash(&seq.to_be_bytes()),
            ));
        }
        assert_eq!(set.len(), 3);
        assert_eq!(set.latest(NodeId(3)).unwrap().seq, 2);
        assert!(set.latest(NodeId(9)).is_none());
        assert_eq!(set.in_interval(NodeId(3), 15, 25).len(), 1);
        assert_eq!(set.peers().count(), 1);
    }

    #[test]
    fn duplicate_authenticators_are_not_stored_twice() {
        let keys = keypair(1);
        let auth = Authenticator::issue(&keys, 0, 0, Digest::ZERO);
        let mut set = AuthenticatorSet::new();
        set.add(auth);
        set.add(auth);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn many_adds_from_one_peer_stay_linear_and_keep_arrival_order() {
        // Unsigned stand-ins (the set never looks at signatures), arriving
        // out of seq order and with every tenth one repeated.
        const ADDS: u64 = 100_000;
        let arrival = |i: u64| Authenticator {
            node: NodeId(7),
            seq: (i * 7919) % ADDS,
            timestamp: i,
            head: Digest::ZERO,
            signature: Signature { e: i, s: 0 },
        };
        let started = std::time::Instant::now();
        let mut set = AuthenticatorSet::new();
        for i in 0..ADDS {
            set.add(arrival(i));
            if i % 10 == 0 {
                set.add(arrival(i / 2));
            }
        }
        // A scan of the peer's list per add is 5·10⁹ comparisons here — minutes
        // in a debug build; a set lookup per add is well under a second.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(20),
            "{ADDS} adds took {:?}",
            started.elapsed()
        );
        assert_eq!(set.len() as u64, ADDS);
        assert!(set.from_peer(NodeId(7)).iter().copied().eq((0..ADDS).map(arrival)));
        assert_eq!(
            format!("{set:?}"),
            format!("AuthenticatorSet {{ by_peer: {:?} }}", set.by_peer),
            "node fingerprints hash the Debug output: the received lists and nothing else"
        );
    }

    #[test]
    fn digest_distinguishes_authenticators() {
        let keys = keypair(1);
        let a = Authenticator::issue(&keys, 0, 0, Digest::ZERO);
        let b = Authenticator::issue(&keys, 1, 0, Digest::ZERO);
        assert_ne!(a.digest(), b.digest());
    }
}
