//! Merkle hash trees.
//!
//! §7.7 reports that the Quagga-Disappear query spends most of its time
//! "verifying partial checkpoints using a Merkle Hash Tree".  Checkpoints in
//! `snp-log` commit to their contents with a Merkle root so that a querier
//! can download and verify only the checkpoint entries relevant to a query.

use crate::digest::Digest;
use crate::{hash_concat, Hasher};

/// A Merkle tree over an ordered list of leaves.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, `levels.last()` = single root (for a
    /// non-empty tree).
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof for one leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hashes from leaf level to just below the root.
    pub siblings: Vec<Digest>,
    /// Total number of leaves in the tree the proof was generated from.
    pub leaf_count: usize,
}

const LEAF_TAG: &[u8] = b"snp-merkle-leaf";

fn leaf_hash(data: &[u8]) -> Digest {
    leaf_hash_with(data.len(), |hasher| hasher.write(data))
}

/// The leaf digest of a `len`-byte leaf whose bytes `stream` writes into the
/// hasher: the same digest (and the same hash-counter charge) as hashing the
/// assembled leaf, without assembling it.
pub fn leaf_hash_with(len: usize, stream: impl FnOnce(&mut Hasher)) -> Digest {
    // `hash_concat(&[LEAF_TAG, leaf])`, with the leaf streamed.
    let mut hasher = Hasher::new();
    hasher.write_part(LEAF_TAG.len(), |h| h.write(LEAF_TAG));
    hasher.write_part(len, stream);
    hasher.finish()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    hash_concat(&[b"snp-merkle-node", left.as_bytes(), right.as_bytes()])
}

/// The parent of one or two adjacent nodes.  An odd node at the end of a
/// level is paired with itself, keeping the proof logic uniform.
fn parent(pair: &[Digest]) -> Digest {
    node_hash(&pair[0], &pair[pair.len() - 1])
}

impl MerkleTree {
    /// Build a tree over serialized leaves.  An empty leaf set yields a tree
    /// whose root is `Digest::ZERO`.
    pub fn build<'a>(leaves: impl IntoIterator<Item = &'a [u8]>) -> MerkleTree {
        MerkleTree::from_leaf_hashes(leaves.into_iter().map(leaf_hash).collect())
    }

    /// Build a tree over leaves already hashed with [`leaf_hash_with`], so a
    /// caller that can stream its leaves never assembles their bytes.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> MerkleTree {
        if leaf_hashes.is_empty() {
            return MerkleTree { levels: Vec::new() };
        }
        let mut levels = vec![leaf_hashes];
        while levels.last().expect("non-empty").len() > 1 {
            let next = levels.last().expect("non-empty").chunks(2).map(parent).collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Root commitment of the tree.
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Digest::ZERO)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map(|l| l.len()).unwrap_or(0)
    }

    /// Produce an inclusion proof for leaf `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut pos = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_pos = if pos % 2 == 0 { pos + 1 } else { pos - 1 };
            let sibling = level.get(sibling_pos).copied().unwrap_or(level[pos]);
            siblings.push(sibling);
            pos /= 2;
        }
        Some(MerkleProof {
            index,
            siblings,
            leaf_count: self.leaf_count(),
        })
    }

    /// Verify an inclusion proof against a root.
    pub fn verify(root: &Digest, leaf_data: &[u8], proof: &MerkleProof) -> bool {
        if proof.leaf_count == 0 || proof.index >= proof.leaf_count {
            return false;
        }
        let mut acc = leaf_hash(leaf_data);
        let mut pos = proof.index;
        let mut width = proof.leaf_count;
        for sibling in &proof.siblings {
            acc = if pos % 2 == 0 {
                node_hash(&acc, sibling)
            } else {
                node_hash(sibling, &acc)
            };
            pos /= 2;
            width = width.div_ceil(2);
        }
        // The proof must be long enough to reach the root level.
        width == 1 && acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let tree = MerkleTree::build(std::iter::empty());
        assert_eq!(tree.root(), Digest::ZERO);
        assert_eq!(tree.leaf_count(), 0);
    }

    #[test]
    fn single_leaf_proof() {
        let data = leaves(1);
        let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
        let proof = tree.prove(0).expect("proof");
        assert!(MerkleTree::verify(&tree.root(), &data[0], &proof));
    }

    #[test]
    fn all_leaves_provable_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let data = leaves(n);
            let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("proof");
                assert!(MerkleTree::verify(&tree.root(), leaf, &proof), "n={n}, i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_data() {
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
        let proof = tree.prove(3).expect("proof");
        assert!(!MerkleTree::verify(&tree.root(), b"not the leaf", &proof));
    }

    #[test]
    fn proof_fails_against_different_root() {
        let data_a = leaves(8);
        let data_b = leaves(9);
        let tree_a = MerkleTree::build(data_a.iter().map(|v| v.as_slice()));
        let tree_b = MerkleTree::build(data_b.iter().map(|v| v.as_slice()));
        let proof = tree_a.prove(2).expect("proof");
        assert!(!MerkleTree::verify(&tree_b.root(), &data_a[2], &proof));
    }

    #[test]
    fn prove_out_of_range_returns_none() {
        let data = leaves(4);
        let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn prop_every_leaf_verifies() {
        for seed in 0..8u64 {
            let n = 1 + (seed as usize * 5) % 39;
            let data: Vec<Vec<u8>> = (0..n).map(|i| format!("{seed}-{i}").into_bytes()).collect();
            let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("proof");
                assert!(MerkleTree::verify(&tree.root(), leaf, &proof), "seed={seed}, i={i}");
            }
        }
    }

    #[test]
    fn prop_wrong_index_fails() {
        for n in 2usize..30 {
            let data: Vec<Vec<u8>> = (0..n).map(|i| format!("leaf{i}").into_bytes()).collect();
            let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
            let proof = tree.prove(0).expect("proof");
            // Verifying leaf 1's data with leaf 0's proof must fail.
            assert!(!MerkleTree::verify(&tree.root(), &data[1], &proof), "n={n}");
        }
    }
}
