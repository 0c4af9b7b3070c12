//! Byte codecs for the durable segment store and the real-fleet wire.
//!
//! The log already has *stable encodings* for hashing — [`LogEntry::encode`],
//! [`Message::encode`](snp_graph::history::Message::encode),
//! [`Tuple::encode`](snp_datalog::Tuple::encode) — but until real-fleet mode
//! nothing ever needed to read them back.  This module supplies the decoders
//! (exact inverses of the stable encodings, so the bytes persisted on disk or
//! framed on the wire are the very bytes the hash chain links over), plus
//! symmetric codecs for the structures that never had one: checkpoints,
//! authenticators and whole segments.
//!
//! Everything is built on [`SnapshotWriter`]/[`SnapshotReader`], which fail
//! cleanly on truncated or malformed input — both the disk and the network
//! cross a trust boundary.

use crate::auth::Authenticator;
use crate::checkpoint::{Checkpoint, CheckpointEntry};
use crate::entry::{EntryKind, LogEntry};
use crate::log::LogSegment;
use snp_crypto::sign::Signature;
use snp_crypto::Digest;
use snp_datalog::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, MIN_TUPLE_LEN};
use snp_datalog::{Polarity, TupleDelta};
use snp_graph::history::{Message, MessageBody};

fn err(what: &str) -> SnapshotError {
    SnapshotError(what.to_string())
}

// The shortest encodings of the structures decoders read in counted runs,
// which bound what a count read from untrusted input may reserve.

/// The shortest encoded [`Message`]: four 8-byte header fields, the body
/// tag and an empty-argument tuple.
pub const MIN_MESSAGE_LEN: usize = 4 * 8 + 1 + MIN_TUPLE_LEN;

/// The encoded size of an [`Authenticator`]: node, seq, timestamp, head and
/// signature.
pub const AUTHENTICATOR_LEN: usize = 3 * 8 + 32 + 16;

/// The shortest encoded [`LogSegment`]: the header of an empty segment.
pub const MIN_SEGMENT_LEN: usize = 3 * 8 + 32 + 8;

/// The shortest length-prefixed entry inside an encoded segment: the
/// length, then seq, timestamp, kind name and terminator.
const MIN_ENTRY_RECORD_LEN: usize = 8 + 2 * 8 + 4;

/// The shortest encoded [`CheckpointEntry`]: a tuple and its timestamp.
const MIN_CHECKPOINT_ENTRY_LEN: usize = MIN_TUPLE_LEN + 8;

/// Write a 32-byte digest (its raw bytes).
pub fn write_digest(w: &mut SnapshotWriter, d: &Digest) {
    w.bytes(d.as_bytes());
}

/// Read a 32-byte digest.
pub fn read_digest(r: &mut SnapshotReader) -> Result<Digest, SnapshotError> {
    Ok(Digest(r.bytes(32)?.try_into().expect("32 bytes")))
}

/// Write a signature.
pub fn write_signature(w: &mut SnapshotWriter, s: &Signature) {
    w.u64(s.e);
    w.u64(s.s);
}

/// Read a signature.
pub fn read_signature(r: &mut SnapshotReader) -> Result<Signature, SnapshotError> {
    Ok(Signature {
        e: r.u64()?,
        s: r.u64()?,
    })
}

/// Write a tuple delta (polarity tag + stable tuple encoding).
pub fn write_tuple_delta(w: &mut SnapshotWriter, d: &TupleDelta) {
    w.u8(match d.polarity {
        Polarity::Plus => b'+',
        Polarity::Minus => b'-',
    });
    w.tuple(&d.tuple);
}

/// Read a tuple delta.
pub fn read_tuple_delta(r: &mut SnapshotReader) -> Result<TupleDelta, SnapshotError> {
    match r.u8()? {
        b'+' => Ok(TupleDelta::plus(r.tuple()?)),
        b'-' => Ok(TupleDelta::minus(r.tuple()?)),
        tag => Err(err(&format!("unknown delta polarity {tag:#x}"))),
    }
}

/// Write a message.  Byte-identical to [`Message::encode`], so a frame body
/// can be hashed and decoded from the same bytes.
pub fn write_message(w: &mut SnapshotWriter, m: &Message) {
    w.node(m.from);
    w.node(m.to);
    w.u64(m.sent_at);
    w.u64(m.seq);
    match &m.body {
        MessageBody::Delta(delta) => write_tuple_delta(w, delta),
        MessageBody::Ack { of } => {
            w.u8(b'a');
            write_digest(w, of);
        }
    }
}

/// Read a message (inverse of [`Message::encode`]).
pub fn read_message(r: &mut SnapshotReader) -> Result<Message, SnapshotError> {
    let from = r.node()?;
    let to = r.node()?;
    let sent_at = r.u64()?;
    let seq = r.u64()?;
    let body = match r.u8()? {
        b'+' => MessageBody::Delta(TupleDelta::plus(r.tuple()?)),
        b'-' => MessageBody::Delta(TupleDelta::minus(r.tuple()?)),
        b'a' => MessageBody::Ack { of: read_digest(r)? },
        tag => return Err(err(&format!("unknown message tag {tag:#x}"))),
    };
    Ok(Message {
        from,
        to,
        body,
        sent_at,
        seq,
    })
}

/// Read a log entry (inverse of [`LogEntry::encode`]).
pub fn read_entry(r: &mut SnapshotReader) -> Result<LogEntry, SnapshotError> {
    let seq = r.u64()?;
    let timestamp = r.u64()?;
    let name = r.bytes(3)?;
    if r.u8()? != 0 {
        return Err(err("missing entry-kind terminator"));
    }
    let kind = match name {
        b"snd" => EntryKind::Snd {
            message: read_message(r)?,
        },
        b"rcv" => EntryKind::Rcv {
            message: read_message(r)?,
            sender_auth_digest: read_digest(r)?,
        },
        b"ack" => EntryKind::Ack {
            of: read_digest(r)?,
            peer_auth_digest: read_digest(r)?,
        },
        b"ins" => EntryKind::Ins { tuple: r.tuple()? },
        b"del" => EntryKind::Del { tuple: r.tuple()? },
        _ => return Err(err("unknown entry kind")),
    };
    Ok(LogEntry { seq, timestamp, kind })
}

/// Decode one log entry from exactly `bytes` (the slice the hash chain links
/// over); trailing garbage is rejected.
pub fn decode_entry(bytes: &[u8]) -> Result<LogEntry, SnapshotError> {
    let mut r = SnapshotReader::new(bytes);
    let entry = read_entry(&mut r)?;
    r.expect_exhausted()?;
    Ok(entry)
}

/// Write an authenticator.
pub fn write_authenticator(w: &mut SnapshotWriter, a: &Authenticator) {
    w.node(a.node);
    w.u64(a.seq);
    w.u64(a.timestamp);
    write_digest(w, &a.head);
    write_signature(w, &a.signature);
}

/// Read an authenticator.
pub fn read_authenticator(r: &mut SnapshotReader) -> Result<Authenticator, SnapshotError> {
    Ok(Authenticator {
        node: r.node()?,
        seq: r.u64()?,
        timestamp: r.u64()?,
        head: read_digest(r)?,
        signature: read_signature(r)?,
    })
}

/// Write a checkpoint (header, digests, signature, pruned flag, entries).
pub fn write_checkpoint(w: &mut SnapshotWriter, cp: &Checkpoint) {
    w.node(cp.node);
    w.u64(cp.epoch);
    w.u64(cp.at_seq);
    w.u64(cp.timestamp);
    write_digest(w, &cp.state_digest);
    write_digest(w, &cp.chain_head);
    write_digest(w, &cp.root);
    write_signature(w, &cp.signature);
    w.u8(u8::from(cp.pruned));
    w.u64(cp.entries.len() as u64);
    for entry in &cp.entries {
        w.tuple(&entry.tuple);
        w.u64(entry.appeared_at);
    }
}

/// Read a checkpoint.
pub fn read_checkpoint(r: &mut SnapshotReader) -> Result<Checkpoint, SnapshotError> {
    let node = r.node()?;
    let epoch = r.u64()?;
    let at_seq = r.u64()?;
    let timestamp = r.u64()?;
    let state_digest = read_digest(r)?;
    let chain_head = read_digest(r)?;
    let root = read_digest(r)?;
    let signature = read_signature(r)?;
    let pruned = match r.u8()? {
        0 => false,
        1 => true,
        flag => return Err(err(&format!("bad pruned flag {flag}"))),
    };
    let count = r.read_len()?;
    let mut entries = r.vec_for(count, MIN_CHECKPOINT_ENTRY_LEN);
    for _ in 0..count {
        entries.push(CheckpointEntry {
            tuple: r.tuple()?,
            appeared_at: r.u64()?,
        });
    }
    Ok(Checkpoint {
        node,
        epoch,
        at_seq,
        timestamp,
        entries,
        state_digest,
        chain_head,
        root,
        signature,
        pruned,
    })
}

/// Write a log segment: header plus self-delimiting entries.
pub fn write_segment(w: &mut SnapshotWriter, s: &LogSegment) {
    w.node(s.node);
    w.u64(s.epoch);
    w.u64(s.base_seq);
    write_digest(w, &s.start_head);
    w.u64(s.entries.len() as u64);
    for entry in &s.entries {
        w.u64(entry.encoded_len() as u64);
        entry.encode_with(&mut |bytes| w.bytes(bytes));
    }
}

/// Read a log segment.
pub fn read_segment(r: &mut SnapshotReader) -> Result<LogSegment, SnapshotError> {
    let node = r.node()?;
    let epoch = r.u64()?;
    let base_seq = r.u64()?;
    let start_head = read_digest(r)?;
    let count = r.read_len()?;
    let mut entries = r.vec_for(count, MIN_ENTRY_RECORD_LEN);
    for _ in 0..count {
        let len = r.read_len()?;
        entries.push(decode_entry(r.bytes(len)?)?);
    }
    Ok(LogSegment {
        node,
        epoch,
        base_seq,
        start_head,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_crypto::keys::{KeyPair, NodeId};
    use snp_datalog::{Tuple, Value};

    fn tuple() -> Tuple {
        Tuple::new("link", NodeId(1), vec![Value::Int(5), Value::str("x")])
    }

    fn message() -> Message {
        Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(tuple()), 10, 1)
    }

    #[test]
    fn message_codec_matches_stable_encoding() {
        for m in [message(), Message::ack(&message(), 20, 2)] {
            let mut w = SnapshotWriter::new();
            write_message(&mut w, &m);
            let bytes = w.finish();
            assert_eq!(bytes, m.encode(), "writer must reproduce Message::encode");
            let mut r = SnapshotReader::new(&bytes);
            assert_eq!(read_message(&mut r).unwrap(), m);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn every_entry_kind_roundtrips_through_its_chain_encoding() {
        let kinds = vec![
            EntryKind::Snd { message: message() },
            EntryKind::Rcv {
                message: message(),
                sender_auth_digest: snp_crypto::hash(b"auth"),
            },
            EntryKind::Ack {
                of: snp_crypto::hash(b"msg"),
                peer_auth_digest: snp_crypto::hash(b"peer"),
            },
            EntryKind::Ins { tuple: tuple() },
            EntryKind::Del { tuple: tuple() },
        ];
        for (seq, kind) in kinds.into_iter().enumerate() {
            let entry = LogEntry {
                seq: seq as u64,
                timestamp: 100 + seq as u64,
                kind,
            };
            let bytes = entry.encode();
            assert_eq!(decode_entry(&bytes).unwrap(), entry);
        }
    }

    #[test]
    fn truncated_entry_fails_cleanly() {
        let entry = LogEntry {
            seq: 7,
            timestamp: 9,
            kind: EntryKind::Ins { tuple: tuple() },
        };
        let bytes = entry.encode();
        for cut in [0, 5, 16, bytes.len() - 1] {
            assert!(decode_entry(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_entry(&trailing).is_err(), "trailing bytes must fail");
    }

    #[test]
    fn authenticator_roundtrips_and_still_verifies() {
        let keys = KeyPair::for_node(NodeId(3));
        let auth = Authenticator::issue(&keys, 5, 77, snp_crypto::hash(b"head"));
        let mut w = SnapshotWriter::new();
        write_authenticator(&mut w, &auth);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let back = read_authenticator(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, auth);
        assert!(back.verify(&keys.public));
    }

    #[test]
    fn checkpoint_roundtrips_and_still_verifies() {
        let keys = KeyPair::for_node(NodeId(1));
        let entries = (0..5)
            .map(|i| CheckpointEntry {
                tuple: Tuple::new("route", NodeId(1), vec![Value::Int(i)]),
                appeared_at: i as u64 * 10,
            })
            .collect();
        let cp = Checkpoint::seal(
            &keys,
            2,
            40,
            900,
            entries,
            snp_crypto::hash(b"state"),
            snp_crypto::hash(b"chain"),
        );
        let mut w = SnapshotWriter::new();
        write_checkpoint(&mut w, &cp);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let back = read_checkpoint(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert!(back.verify_signature(&keys.public));
        assert!(back.verify_root());
        assert_eq!(back.epoch, cp.epoch);
        assert_eq!(back.entries, cp.entries);
        assert_eq!(back.chain_head, cp.chain_head);
    }

    #[test]
    fn segment_roundtrips() {
        let entries: Vec<LogEntry> = (0..4)
            .map(|i| LogEntry {
                seq: 10 + i,
                timestamp: 100 + i,
                kind: EntryKind::Ins { tuple: tuple() },
            })
            .collect();
        let seg = LogSegment {
            node: NodeId(1),
            epoch: 3,
            base_seq: 10,
            start_head: snp_crypto::hash(b"start"),
            entries,
        };
        let mut w = SnapshotWriter::new();
        write_segment(&mut w, &seg);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(read_segment(&mut r).unwrap(), seg);
        assert!(r.is_exhausted());
        // The layout: header, entry count, then each entry's length and its
        // stable encoding (the bytes the hash chain links over).
        let mut expected = Vec::new();
        expected.extend_from_slice(&seg.node.to_bytes());
        expected.extend_from_slice(&seg.epoch.to_be_bytes());
        expected.extend_from_slice(&seg.base_seq.to_be_bytes());
        expected.extend_from_slice(seg.start_head.as_bytes());
        expected.extend_from_slice(&(seg.entries.len() as u64).to_be_bytes());
        for entry in &seg.entries {
            let encoded = entry.encode();
            expected.extend_from_slice(&(encoded.len() as u64).to_be_bytes());
            expected.extend_from_slice(&encoded);
        }
        assert_eq!(bytes, expected);
    }

    #[test]
    fn minimum_lengths_match_the_shortest_encodings() {
        let mut w = SnapshotWriter::new();
        let empty = Tuple::new("", NodeId(1), vec![]);
        write_message(
            &mut w,
            &Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(empty), 0, 0),
        );
        assert_eq!(w.finish().len(), MIN_MESSAGE_LEN);
        let mut w = SnapshotWriter::new();
        let keys = KeyPair::for_node(NodeId(3));
        write_authenticator(&mut w, &Authenticator::issue(&keys, 5, 77, snp_crypto::hash(b"head")));
        assert_eq!(w.finish().len(), AUTHENTICATOR_LEN);
        let mut w = SnapshotWriter::new();
        let seg = LogSegment {
            node: NodeId(1),
            epoch: 0,
            base_seq: 0,
            start_head: Digest::ZERO,
            entries: Vec::new(),
        };
        write_segment(&mut w, &seg);
        assert_eq!(w.finish().len(), MIN_SEGMENT_LEN);
        let entry = LogEntry {
            seq: 0,
            timestamp: 0,
            kind: EntryKind::Ins { tuple: tuple() },
        };
        assert!(8 + entry.encoded_len() >= MIN_ENTRY_RECORD_LEN);
    }

    #[test]
    fn forged_segment_counts_fail_cleanly() {
        let mut w = SnapshotWriter::new();
        let seg = LogSegment {
            node: NodeId(1),
            epoch: 0,
            base_seq: 0,
            start_head: Digest::ZERO,
            entries: Vec::new(),
        };
        write_segment(&mut w, &seg);
        let mut bytes = w.finish();
        let count_at = bytes.len() - 8;
        // More entries than bytes left, then fewer bytes than entries need.
        for (count, tail) in [(u64::MAX, 0), (1_000, 1_000)] {
            bytes.truncate(count_at);
            bytes.extend_from_slice(&count.to_be_bytes());
            bytes.resize(count_at + 8 + tail, 0);
            let mut r = SnapshotReader::new(&bytes);
            assert!(matches!(read_segment(&mut r), Err(SnapshotError(_))), "count {count}");
        }
    }

    #[test]
    fn digest_codec_preserves_byte_order() {
        let d = snp_crypto::hash(b"ordering");
        let mut w = SnapshotWriter::new();
        write_digest(&mut w, &d);
        let bytes = w.finish();
        assert_eq!(&bytes, d.as_bytes(), "limb encoding must equal the raw bytes");
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(read_digest(&mut r).unwrap(), d);
    }
}
