//! Epoch checkpoints (§5.6) with Merkle-authenticated partial retrieval (§7.7).
//!
//! A checkpoint *seals a log epoch*: it records, at the epoch boundary, every
//! tuple that currently exists or is believed on the node, the digest of the
//! machine's full state snapshot, and the hash-chain head at the boundary —
//! and the node signs the whole thing.  This is what makes auditing a
//! *suffix* of history sound:
//!
//! * the signed **chain head** anchors suffix verification after older
//!   segments have been truncated (a forged suffix cannot reach the
//!   authenticated head), and
//! * the signed **state-snapshot digest** lets the querier restore the
//!   machine state at the boundary and replay only the suffix, while
//!   detecting any tampering with the snapshot bytes.
//!
//! The checkpoint commits to its contents with a Merkle root whose **first
//! leaf is the snapshot digest** and whose remaining leaves are the
//! checkpointed tuples, so a querier can download and verify only the entries
//! relevant to a query instead of the whole checkpoint ("partial
//! checkpoints").

use snp_crypto::keys::{KeyPair, NodeId};
use snp_crypto::merkle::{self, MerkleProof, MerkleTree};
use snp_crypto::sign::{PublicKey, Signature, SIGNATURE_WIRE_BYTES};
use snp_crypto::{hash_concat, Digest};
use snp_datalog::Tuple;
use snp_graph::vertex::Timestamp;

/// One checkpointed tuple: the tuple and the local time it appeared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The tuple that existed when the checkpoint was taken.
    pub tuple: Tuple,
    /// The local time at which it (most recently) appeared.
    pub appeared_at: Timestamp,
}

impl CheckpointEntry {
    /// The entry's byte encoding (its Merkle leaf), handed to `write` piece
    /// by piece: the tuple, then the big-endian appearance time.
    pub(crate) fn encode_with<W: FnMut(&[u8])>(&self, write: &mut W) {
        self.tuple.encode_with(write);
        write(&self.appeared_at.to_be_bytes());
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_with(&mut |bytes| out.extend_from_slice(bytes));
        out
    }

    /// Length of [`CheckpointEntry::encode`]'s output, without building it.
    pub(crate) fn encoded_len(&self) -> usize {
        self.tuple.encoded_len() + 8
    }
}

/// A signed checkpoint sealing one epoch of a node's log.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The node the checkpoint belongs to.
    pub node: NodeId,
    /// The epoch this checkpoint seals (epoch `e` covers log entries up to
    /// `at_seq`, exclusive).
    pub epoch: u64,
    /// Total log entries sealed so far (the sequence number of the first
    /// entry of the next epoch).
    pub at_seq: u64,
    /// Local time the checkpoint was taken.
    pub timestamp: Timestamp,
    /// The checkpointed tuples, in deterministic (sorted) order.
    pub entries: Vec<CheckpointEntry>,
    /// Digest of the machine's state snapshot at the boundary
    /// (`Digest::ZERO` when the machine does not support snapshots).
    pub state_digest: Digest,
    /// Hash-chain head at the epoch boundary.
    pub chain_head: Digest,
    /// Merkle root: leaf 0 is `state_digest`, leaves 1.. are the entries.
    pub root: Digest,
    /// Signature over `(node, epoch, at_seq, timestamp, chain_head, root)`.
    pub signature: Signature,
    /// Whether the checkpoint's tuple state was pruned by epoch truncation.
    /// A pruned checkpoint keeps only the signed commitment (header, root,
    /// digests, signature): its `entries` are gone, so content verification
    /// ([`Checkpoint::verify_root`]) and partial retrieval are no longer
    /// possible — callers sweeping checkpoints must skip pruned ones.
    pub pruned: bool,
}

impl Checkpoint {
    /// The Merkle tree over the snapshot digest (leaf 0) and the entries
    /// (leaves 1..), with each leaf digest streamed out of its entry rather
    /// than hashed from assembled leaf bytes.
    fn merkle_tree(state_digest: &Digest, entries: &[CheckpointEntry]) -> MerkleTree {
        let mut leaves = Vec::with_capacity(entries.len() + 1);
        leaves.push(merkle::leaf_hash_with(Digest::LEN, |h| {
            h.write(state_digest.as_bytes())
        }));
        leaves.extend(entries.iter().map(|entry| {
            merkle::leaf_hash_with(entry.encoded_len(), |h| entry.encode_with(&mut |bytes| h.write(bytes)))
        }));
        MerkleTree::from_leaf_hashes(leaves)
    }

    /// The digest the node signs.
    pub fn signed_digest(
        node: NodeId,
        epoch: u64,
        at_seq: u64,
        timestamp: Timestamp,
        chain_head: &Digest,
        root: &Digest,
    ) -> Digest {
        hash_concat(&[
            b"snp-checkpoint",
            &node.to_bytes(),
            &epoch.to_be_bytes(),
            &at_seq.to_be_bytes(),
            &timestamp.to_be_bytes(),
            chain_head.as_bytes(),
            root.as_bytes(),
        ])
    }

    /// Seal an epoch: sort the entries, commit to them (and the snapshot
    /// digest) with a Merkle root, and sign.
    pub fn seal(
        keys: &KeyPair,
        epoch: u64,
        at_seq: u64,
        timestamp: Timestamp,
        mut entries: Vec<CheckpointEntry>,
        state_digest: Digest,
        chain_head: Digest,
    ) -> Checkpoint {
        entries.sort_by(|a, b| a.tuple.cmp(&b.tuple).then(a.appeared_at.cmp(&b.appeared_at)));
        let root = Self::merkle_tree(&state_digest, &entries).root();
        let digest = Self::signed_digest(keys.node, epoch, at_seq, timestamp, &chain_head, &root);
        Checkpoint {
            node: keys.node,
            epoch,
            at_seq,
            timestamp,
            entries,
            state_digest,
            chain_head,
            root,
            signature: keys.sign(&digest),
            pruned: false,
        }
    }

    /// Drop the checkpoint's tuple state, keeping only the signed commitment
    /// (used by epoch truncation once the checkpoint is below the anchorable
    /// horizon).  After this, only [`Checkpoint::verify_signature`] remains
    /// meaningful.
    pub fn prune(&mut self) {
        self.entries = Vec::new();
        self.pruned = true;
    }

    /// Verify the node's signature over the checkpoint header.
    pub fn verify_signature(&self, public: &PublicKey) -> bool {
        let digest = Self::signed_digest(
            self.node,
            self.epoch,
            self.at_seq,
            self.timestamp,
            &self.chain_head,
            &self.root,
        );
        public.verify(&digest, &self.signature)
    }

    /// Number of tuples in the checkpoint.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint records no tuples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialized size in bytes (for the storage accounting of §7.5).
    pub fn storage_size(&self) -> usize {
        // root + state digest + chain head, header ints, signature, entries.
        3 * Digest::LEN
            + 3 * 8
            + SIGNATURE_WIRE_BYTES
            + self.entries.iter().map(CheckpointEntry::encoded_len).sum::<usize>()
    }

    /// Produce a partial checkpoint: the entries whose tuples satisfy the
    /// predicate, each with a Merkle inclusion proof against `self.root`.
    pub fn partial(&self, select: impl Fn(&Tuple) -> bool) -> PartialCheckpoint {
        let tree = Self::merkle_tree(&self.state_digest, &self.entries);
        let mut selected = Vec::new();
        for (index, entry) in self.entries.iter().enumerate() {
            if select(&entry.tuple) {
                // Leaf 0 is the state digest, so entry i is leaf i + 1.
                let proof = tree.prove(index + 1).expect("index in range");
                selected.push((entry.clone(), proof));
            }
        }
        PartialCheckpoint {
            node: self.node,
            at_seq: self.at_seq,
            root: self.root,
            entries: selected,
        }
    }

    /// Verify that the checkpoint's root matches its contents (a querier does
    /// this after downloading a full checkpoint).  Always `false` for pruned
    /// checkpoints — their contents are gone by design, not by tampering;
    /// check [`Checkpoint::pruned`] before treating a failure as evidence.
    pub fn verify_root(&self) -> bool {
        if self.pruned {
            return false;
        }
        Self::merkle_tree(&self.state_digest, &self.entries).root() == self.root
    }

    /// Verify that `snapshot` is the exact state snapshot this checkpoint
    /// committed to.
    pub fn verify_snapshot(&self, snapshot: &[u8]) -> bool {
        snp_crypto::hash(snapshot) == self.state_digest
    }
}

/// A partial checkpoint: a subset of entries with inclusion proofs.
#[derive(Clone, Debug)]
pub struct PartialCheckpoint {
    /// The node the checkpoint belongs to.
    pub node: NodeId,
    /// Log position of the full checkpoint.
    pub at_seq: u64,
    /// Merkle root of the full checkpoint.
    pub root: Digest,
    /// Selected entries with their proofs.
    pub entries: Vec<(CheckpointEntry, MerkleProof)>,
}

impl PartialCheckpoint {
    /// Verify every included entry against the root.
    pub fn verify(&self) -> bool {
        self.entries
            .iter()
            .all(|(entry, proof)| MerkleTree::verify(&self.root, &entry.encode(), proof))
    }

    /// Serialized size in bytes (for Figure 8's download accounting).
    pub fn download_size(&self) -> usize {
        self.entries
            .iter()
            .map(|(e, p)| e.encoded_len() + p.siblings.len() * Digest::LEN + 16)
            .sum::<usize>()
            + Digest::LEN
            + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::Value;

    fn keys() -> KeyPair {
        KeyPair::for_node(NodeId(1))
    }

    fn entries(n: usize) -> Vec<CheckpointEntry> {
        (0..n)
            .map(|i| CheckpointEntry {
                tuple: Tuple::new("route", NodeId(1), vec![Value::Int(i as i64)]),
                appeared_at: (i as u64) * 10,
            })
            .collect()
    }

    fn sealed(n: usize) -> Checkpoint {
        Checkpoint::seal(
            &keys(),
            3,
            42,
            1000,
            entries(n),
            snp_crypto::hash(b"machine state"),
            snp_crypto::hash(b"chain head"),
        )
    }

    #[test]
    fn checkpoint_root_and_signature_verify() {
        let cp = sealed(20);
        assert_eq!(cp.len(), 20);
        assert!(cp.verify_root());
        assert!(cp.verify_signature(&keys().public));
        assert!(!cp.verify_signature(&KeyPair::for_node(NodeId(2)).public));
    }

    #[test]
    fn tampered_checkpoint_fails_root_verification() {
        let mut cp = sealed(20);
        cp.entries[3].appeared_at = 999_999;
        assert!(!cp.verify_root());
    }

    #[test]
    fn tampered_state_digest_fails_root_and_signature() {
        // The snapshot digest is a Merkle leaf: swapping it breaks the root,
        // and fixing up the root breaks the signature.
        let mut cp = sealed(5);
        cp.state_digest = snp_crypto::hash(b"forged state");
        assert!(!cp.verify_root());
        cp.root = Checkpoint::merkle_tree(&cp.state_digest, &cp.entries).root();
        assert!(cp.verify_root());
        assert!(!cp.verify_signature(&keys().public));
    }

    #[test]
    fn tampered_header_fails_signature() {
        for mutate in [
            (|cp: &mut Checkpoint| cp.epoch += 1) as fn(&mut Checkpoint),
            |cp| cp.at_seq += 1,
            |cp| cp.timestamp += 1,
            |cp| cp.chain_head = Digest::ZERO,
        ] {
            let mut cp = sealed(3);
            mutate(&mut cp);
            assert!(!cp.verify_signature(&keys().public));
        }
    }

    #[test]
    fn snapshot_digest_binds_snapshot_bytes() {
        let snapshot = b"the full machine state".to_vec();
        let cp = Checkpoint::seal(&keys(), 0, 0, 0, entries(2), snp_crypto::hash(&snapshot), Digest::ZERO);
        assert!(cp.verify_snapshot(&snapshot));
        assert!(!cp.verify_snapshot(b"forged machine state"));
    }

    #[test]
    fn entries_are_sorted_deterministically() {
        let mut shuffled = entries(10);
        shuffled.reverse();
        let a = Checkpoint::seal(&keys(), 0, 0, 0, entries(10), Digest::ZERO, Digest::ZERO);
        let b = Checkpoint::seal(&keys(), 0, 0, 0, shuffled, Digest::ZERO, Digest::ZERO);
        assert_eq!(a.root, b.root);
    }

    #[test]
    fn partial_checkpoint_verifies_and_is_smaller() {
        let cp = sealed(50);
        let partial = cp.partial(|t| t.int_arg(0).map(|v| v < 5).unwrap_or(false));
        assert_eq!(partial.entries.len(), 5);
        assert!(partial.verify());
        assert!(partial.download_size() < cp.storage_size());
    }

    #[test]
    fn forged_partial_entry_fails() {
        let cp = sealed(10);
        let mut partial = cp.partial(|t| t.int_arg(0) == Some(3));
        partial.entries[0].0.tuple = Tuple::new("route", NodeId(1), vec![Value::Int(777)]);
        assert!(!partial.verify());
    }

    #[test]
    fn empty_checkpoint() {
        let cp = Checkpoint::seal(&keys(), 0, 0, 0, vec![], Digest::ZERO, Digest::ZERO);
        assert!(cp.is_empty());
        assert!(cp.verify_root());
        assert!(cp.verify_signature(&keys().public));
        assert!(cp.storage_size() > 0);
    }
}
