//! Log entry types (§5.4): `e_k := (t_k, y_k, c_k)`.

use snp_crypto::Digest;
use snp_datalog::Tuple;
use snp_graph::history::Message;
use snp_graph::vertex::Timestamp;

/// The type-specific content `c_k` of a log entry.
///
/// §5.4: "There are five types of entries: `snd` and `rcv` record messages,
/// `ack` records acknowledgments, and `ins` and `del` record insertions and
/// deletions of base tuples and, where applicable, tuples derived from
/// 'maybe' rules."
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// The node sent `message`.
    Snd {
        /// The transmitted message.
        message: Message,
    },
    /// The node received `message`; `sender_head` / `sender_signature_hint`
    /// identify the authenticator that accompanied it (kept so that replay can
    /// re-verify the commitment).
    Rcv {
        /// The received message.
        message: Message,
        /// Digest of the sender's authenticator that accompanied the message.
        sender_auth_digest: Digest,
    },
    /// The node received an acknowledgment for the message with digest
    /// `of`; `peer_auth_digest` identifies the receiver's authenticator.
    Ack {
        /// Digest of the acknowledged (originally sent) message.
        of: Digest,
        /// Digest of the acknowledging peer's authenticator.
        peer_auth_digest: Digest,
    },
    /// A base tuple (or a `maybe`-derived tuple) was inserted.
    Ins {
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// A base tuple (or a `maybe`-derived tuple) was deleted.
    Del {
        /// The deleted tuple.
        tuple: Tuple,
    },
}

impl EntryKind {
    /// Short label (`snd`, `rcv`, `ack`, `ins`, `del`).
    pub fn kind_name(&self) -> &'static str {
        match self {
            EntryKind::Snd { .. } => "snd",
            EntryKind::Rcv { .. } => "rcv",
            EntryKind::Ack { .. } => "ack",
            EntryKind::Ins { .. } => "ins",
            EntryKind::Del { .. } => "del",
        }
    }
}

/// A log entry `e_k := (t_k, y_k, c_k)` plus its position in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Position in the log (0-based `k`).
    pub seq: u64,
    /// The node-local timestamp `t_k`.
    pub timestamp: Timestamp,
    /// The entry type and content.
    pub kind: EntryKind,
}

impl LogEntry {
    /// Stable byte encoding hashed into the chain, handed to `write` piece
    /// by piece: the one definition of the format behind
    /// [`LogEntry::encode`] and [`LogEntry::encoded_len`].
    pub fn encode_with<W: FnMut(&[u8])>(&self, write: &mut W) {
        write(&self.seq.to_be_bytes());
        write(&self.timestamp.to_be_bytes());
        write(self.kind.kind_name().as_bytes());
        write(&[0]);
        match &self.kind {
            EntryKind::Snd { message } => message.encode_with(write),
            EntryKind::Rcv {
                message,
                sender_auth_digest,
            } => {
                message.encode_with(write);
                write(sender_auth_digest.as_bytes());
            }
            EntryKind::Ack { of, peer_auth_digest } => {
                write(of.as_bytes());
                write(peer_auth_digest.as_bytes());
            }
            EntryKind::Ins { tuple } | EntryKind::Del { tuple } => tuple.encode_with(write),
        }
    }

    /// The stable byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_with(&mut |bytes| out.extend_from_slice(bytes));
        out
    }

    /// Length of the stable byte encoding, without building it.
    pub fn encoded_len(&self) -> usize {
        let mut len = 0;
        self.encode_with(&mut |bytes| len += bytes.len());
        len
    }

    /// Size of the entry on disk, in bytes (used for Figure 6's log-growth
    /// accounting).
    pub fn storage_size(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_crypto::keys::NodeId;
    use snp_datalog::{TupleDelta, Value};

    fn tuple() -> Tuple {
        Tuple::new("link", NodeId(1), vec![Value::Int(5)])
    }

    fn message() -> Message {
        Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(tuple()), 10, 1)
    }

    #[test]
    fn kind_names() {
        assert_eq!(EntryKind::Ins { tuple: tuple() }.kind_name(), "ins");
        assert_eq!(EntryKind::Snd { message: message() }.kind_name(), "snd");
        assert_eq!(
            EntryKind::Ack {
                of: Digest::ZERO,
                peer_auth_digest: Digest::ZERO
            }
            .kind_name(),
            "ack"
        );
    }

    #[test]
    fn encoding_differs_by_seq_time_and_content() {
        let base = LogEntry {
            seq: 0,
            timestamp: 10,
            kind: EntryKind::Ins { tuple: tuple() },
        };
        let other_seq = LogEntry { seq: 1, ..base.clone() };
        let other_time = LogEntry {
            timestamp: 11,
            ..base.clone()
        };
        let other_kind = LogEntry {
            kind: EntryKind::Del { tuple: tuple() },
            ..base.clone()
        };
        assert_ne!(base.encode(), other_seq.encode());
        assert_ne!(base.encode(), other_time.encode());
        assert_ne!(base.encode(), other_kind.encode());
    }

    #[test]
    fn property_encoded_len_is_the_length_of_the_encoding() {
        use snp_sim::rng::DetRng;

        fn value(rng: &mut DetRng, depth: u32) -> Value {
            match rng.next_below(if depth < 3 { 5 } else { 4 }) {
                0 => Value::Int(rng.next_u64() as i64),
                1 => Value::str("é".repeat(rng.next_below(40) as usize)),
                2 => Value::node(rng.next_u64()),
                3 => Value::Wild,
                _ => Value::List((0..rng.next_below(4)).map(|_| value(rng, depth + 1)).collect()),
            }
        }
        fn random_tuple(rng: &mut DetRng) -> Tuple {
            let relation = "r".repeat(rng.next_below(12) as usize);
            let args = (0..rng.next_below(5)).map(|_| value(rng, 0)).collect();
            Tuple::new(relation, NodeId(rng.next_u64()), args)
        }
        fn random_message(rng: &mut DetRng) -> Message {
            let delta = match rng.next_below(2) {
                0 => TupleDelta::plus(random_tuple(rng)),
                _ => TupleDelta::minus(random_tuple(rng)),
            };
            let message = Message::delta(
                NodeId(rng.next_u64()),
                NodeId(rng.next_u64()),
                delta,
                rng.next_u64(),
                rng.next_u64(),
            );
            match rng.next_below(3) {
                0 => Message::ack(&message, rng.next_u64(), rng.next_u64()),
                _ => message,
            }
        }

        let mut rng = DetRng::new(0x5e1f);
        for round in 0..400u32 {
            let tuple = random_tuple(&mut rng);
            for arg in &tuple.args {
                let mut bytes = Vec::new();
                arg.encode(&mut bytes);
                assert_eq!(arg.encoded_len(), bytes.len(), "round {round}: {arg:?}");
            }
            assert_eq!(tuple.encoded_len(), tuple.encode().len(), "round {round}: {tuple}");
            assert_eq!(tuple.wire_size(), tuple.encode().len());
            let message = random_message(&mut rng);
            assert_eq!(
                message.encoded_len(),
                message.encode().len(),
                "round {round}: {message}"
            );
            assert_eq!(message.wire_size(), message.encode().len());
            assert_eq!(
                message.digest(),
                snp_crypto::hash(&message.encode()),
                "round {round}: {message}"
            );
            let checkpointed = crate::checkpoint::CheckpointEntry {
                tuple: tuple.clone(),
                appeared_at: rng.next_u64(),
            };
            assert_eq!(checkpointed.encoded_len(), checkpointed.encode().len(), "round {round}");
            let digest = snp_crypto::hash(&round.to_be_bytes());
            for kind in [
                EntryKind::Snd {
                    message: message.clone(),
                },
                EntryKind::Rcv {
                    message,
                    sender_auth_digest: digest,
                },
                EntryKind::Ack {
                    of: digest,
                    peer_auth_digest: digest,
                },
                EntryKind::Ins { tuple: tuple.clone() },
                EntryKind::Del { tuple },
            ] {
                let entry = LogEntry {
                    seq: rng.next_u64(),
                    timestamp: rng.next_u64(),
                    kind,
                };
                assert_eq!(entry.encoded_len(), entry.encode().len(), "round {round}: {entry:?}");
                assert_eq!(entry.storage_size(), entry.encode().len());
            }
        }
    }

    #[test]
    fn storage_size_tracks_payload() {
        let small = LogEntry {
            seq: 0,
            timestamp: 0,
            kind: EntryKind::Ins { tuple: tuple() },
        };
        let big_tuple = Tuple::new("data", NodeId(1), vec![Value::str("x".repeat(1000))]);
        let big = LogEntry {
            seq: 0,
            timestamp: 0,
            kind: EntryKind::Ins { tuple: big_tuple },
        };
        assert!(big.storage_size() > small.storage_size() + 900);
    }
}
