//! Histories and executions (Appendix A.3).
//!
//! A *history* is the ground truth an omniscient observer would record: a
//! time-ordered sequence of `snd`, `rcv`, `ins` and `del` events across all
//! nodes.  The graph construction algorithm consumes histories; SNooPy later
//! reconstructs per-node histories from tamper-evident logs.

use crate::vertex::Timestamp;
use snp_crypto::keys::NodeId;
use snp_crypto::Digest;
use snp_datalog::{Tuple, TupleDelta};
use std::fmt;

/// The body of a message: either a tuple notification or an acknowledgment of
/// a previously sent message (Appendix A.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MessageBody {
    /// A `+τ` / `-τ` notification.
    Delta(TupleDelta),
    /// An acknowledgment of the message with the given digest.
    Ack {
        /// Digest of the acknowledged message.
        of: Digest,
    },
}

/// A message exchanged between two nodes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Message {
    /// Sending node (`src(m)`).
    pub from: NodeId,
    /// Destination node (`dst(m)`).
    pub to: NodeId,
    /// The payload.
    pub body: MessageBody,
    /// The sender's local time when the message was transmitted (`txmit(m)`).
    pub sent_at: Timestamp,
    /// Per-sender sequence number; makes retransmissions distinguishable.
    pub seq: u64,
}

impl Message {
    /// Build a tuple-notification message.
    pub fn delta(from: NodeId, to: NodeId, delta: TupleDelta, sent_at: Timestamp, seq: u64) -> Message {
        Message {
            from,
            to,
            body: MessageBody::Delta(delta),
            sent_at,
            seq,
        }
    }

    /// Build an acknowledgment for `original`.
    pub fn ack(original: &Message, sent_at: Timestamp, seq: u64) -> Message {
        Message {
            from: original.to,
            to: original.from,
            body: MessageBody::Ack { of: original.digest() },
            sent_at,
            seq,
        }
    }

    /// Whether the message is an acknowledgment.
    pub fn is_ack(&self) -> bool {
        matches!(self.body, MessageBody::Ack { .. })
    }

    /// The tuple notification, if the message carries one.
    pub fn as_delta(&self) -> Option<&TupleDelta> {
        match &self.body {
            MessageBody::Delta(d) => Some(d),
            MessageBody::Ack { .. } => None,
        }
    }

    /// Stable byte encoding (used for digests and the tamper-evident log),
    /// handed to `write` piece by piece: the one definition of the format
    /// behind [`Message::encode`], [`Message::encoded_len`] and
    /// [`Message::digest`].
    pub fn encode_with<W: FnMut(&[u8])>(&self, write: &mut W) {
        write(&self.from.to_bytes());
        write(&self.to.to_bytes());
        write(&self.sent_at.to_be_bytes());
        write(&self.seq.to_be_bytes());
        match &self.body {
            MessageBody::Delta(delta) => {
                write(&[match delta.polarity {
                    snp_datalog::Polarity::Plus => b'+',
                    snp_datalog::Polarity::Minus => b'-',
                }]);
                delta.tuple.encode_with(write);
            }
            MessageBody::Ack { of } => {
                write(b"a");
                write(of.as_bytes());
            }
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

    /// Content digest of the message.
    pub fn digest(&self) -> Digest {
        let mut hasher = snp_crypto::Hasher::new();
        self.encode_with(&mut |bytes| hasher.write(bytes));
        hasher.finish()
    }

    /// Approximate wire size of the message body in bytes.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            MessageBody::Delta(d) => write!(
                f,
                "{} -> {}: {} (t={}, seq={})",
                self.from, self.to, d, self.sent_at, self.seq
            ),
            MessageBody::Ack { of } => write!(
                f,
                "{} -> {}: ack({}) (t={}, seq={})",
                self.from,
                self.to,
                of.short(),
                self.sent_at,
                self.seq
            ),
        }
    }
}

/// What happened in an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The node sent a message.
    Snd(Message),
    /// The node received a message.
    Rcv(Message),
    /// A base tuple was inserted on the node.
    Ins(Tuple),
    /// A base tuple was deleted from the node.
    Del(Tuple),
}

impl EventKind {
    /// Short label for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::Snd(_) => "snd",
            EventKind::Rcv(_) => "rcv",
            EventKind::Ins(_) => "ins",
            EventKind::Del(_) => "del",
        }
    }
}

/// One event `e_k = (t_k, i_k, x_k)` of a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Local time at the node.
    pub time: Timestamp,
    /// The node the event occurred on.
    pub node: NodeId,
    /// What happened.  Private because `delta_digest` is derived from it.
    kind: EventKind,
    /// Digest of the tuple notification a `snd` / `rcv` event carries,
    /// computed once here: log replay and the GCA both key their message
    /// tables by it.  `None` for acknowledgments, whose digest nothing keys.
    delta_digest: Option<Digest>,
}

impl Event {
    /// Construct an event.
    pub fn new(time: Timestamp, node: NodeId, kind: EventKind) -> Event {
        let delta_digest = match &kind {
            EventKind::Snd(m) | EventKind::Rcv(m) if !m.is_ack() => Some(m.digest()),
            _ => None,
        };
        Event {
            time,
            node,
            kind,
            delta_digest,
        }
    }

    /// What happened.
    pub fn kind(&self) -> &EventKind {
        &self.kind
    }

    /// The content digest of the tuple notification a `snd` / `rcv` event
    /// carries (`None` for acknowledgments and for `ins` / `del` events).
    pub fn delta_digest(&self) -> Option<Digest> {
        self.delta_digest
    }
}

/// A history: a sequence of events ordered by time (ties broken by insertion
/// order, which the `Vec` preserves).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// Create an empty history.
    pub fn new() -> History {
        History { events: Vec::new() }
    }

    /// Create a history from pre-ordered events.
    pub fn from_events(events: Vec<Event>) -> History {
        History { events }
    }

    /// Append an event (must not go backwards in time per node; global order
    /// is kept by stable sort on read).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// All events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The projection `h | i`: the subsequence of events on node `i`.
    pub fn project(&self, node: NodeId) -> History {
        History {
            events: self.events.iter().filter(|e| e.node == node).cloned().collect(),
        }
    }

    /// The prefix consisting of the first `n` events.
    pub fn prefix(&self, n: usize) -> History {
        History {
            events: self.events.iter().take(n).cloned().collect(),
        }
    }

    /// Whether `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &History) -> bool {
        self.events.len() <= other.events.len() && other.events[..self.events.len()] == self.events[..]
    }

    /// Append all events of another history (used when composing per-node
    /// histories into a global one); the result is re-sorted by timestamp
    /// with a stable sort so per-node order is preserved.
    pub fn merge(&mut self, other: &History) {
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.time);
    }

    /// Nodes that appear in the history.
    pub fn nodes(&self) -> std::collections::BTreeSet<NodeId> {
        self.events.iter().map(|e| e.node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::Value;

    fn tup() -> Tuple {
        Tuple::new("x", NodeId(1), vec![Value::Int(1)])
    }

    fn msg(seq: u64) -> Message {
        Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(tup()), 10, seq)
    }

    #[test]
    fn message_digests_are_content_addressed() {
        assert_eq!(msg(1).digest(), msg(1).digest());
        assert_ne!(msg(1).digest(), msg(2).digest());
        let ack = Message::ack(&msg(1), 20, 5);
        assert!(ack.is_ack());
        assert_eq!(ack.from, NodeId(2));
        assert_eq!(ack.to, NodeId(1));
        assert_ne!(ack.digest(), msg(1).digest());
    }

    #[test]
    fn delta_accessor() {
        assert!(msg(1).as_delta().is_some());
        assert!(Message::ack(&msg(1), 20, 5).as_delta().is_none());
    }

    #[test]
    fn history_projection_and_prefix() {
        let mut h = History::new();
        h.push(Event::new(1, NodeId(1), EventKind::Ins(tup())));
        h.push(Event::new(2, NodeId(2), EventKind::Snd(msg(1))));
        h.push(Event::new(3, NodeId(1), EventKind::Del(tup())));
        assert_eq!(h.len(), 3);
        assert_eq!(h.project(NodeId(1)).len(), 2);
        assert_eq!(h.project(NodeId(3)).len(), 0);
        assert!(h.prefix(2).is_prefix_of(&h));
        assert!(!h.is_prefix_of(&h.prefix(2)));
        assert_eq!(h.nodes().len(), 2);
    }

    #[test]
    fn merge_sorts_by_time_stably() {
        let mut a = History::new();
        a.push(Event::new(5, NodeId(1), EventKind::Ins(tup())));
        let mut b = History::new();
        b.push(Event::new(3, NodeId(2), EventKind::Ins(tup())));
        b.push(Event::new(5, NodeId(2), EventKind::Del(tup())));
        a.merge(&b);
        assert_eq!(a.events()[0].time, 3);
        assert_eq!(a.events()[1].time, 5);
        assert_eq!(
            a.events()[1].node,
            NodeId(1),
            "stable sort keeps original order among equal timestamps"
        );
    }

    #[test]
    fn event_kind_names() {
        assert_eq!(EventKind::Ins(tup()).kind_name(), "ins");
        assert_eq!(EventKind::Snd(msg(1)).kind_name(), "snd");
    }
}
