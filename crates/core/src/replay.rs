//! Deterministic replay of retrieved log segments (§5.5, §5.6).
//!
//! The microquery module does not trust the contents of a log segment beyond
//! what the hash chain and authenticator guarantee: it converts the segment
//! back into a history and replays it through the node's *expected* state
//! machine with the graph construction algorithm.  Any divergence between
//! what the node logged and what the correct machine would have done shows up
//! as a red vertex.
//!
//! Replay comes in two shapes:
//!
//! * [`replay_segment`] — from genesis, over a single flattened segment.
//! * [`replay_suffix`] — anchored at a verified epoch checkpoint: the
//!   machine's state is [`StateMachine::restore`]d from the checkpoint's
//!   snapshot, the graph is seeded with the checkpointed tuples, and only the
//!   suffix segments after the checkpoint are replayed.

use snp_crypto::keys::NodeId;
use snp_crypto::Digest;
use snp_datalog::StateMachine;
use snp_graph::history::{Event, EventKind, History, Message, MessageBody};
use snp_graph::vertex::Timestamp;
use snp_graph::{GraphBuilder, ProvenanceGraph};
use snp_log::checkpoint::Checkpoint;
use snp_log::entry::{EntryKind, LogEntry};
use snp_log::log::LogSegment;
use std::collections::BTreeMap;

/// Convert a run of log entries into the node-local history they claim to
/// describe.
///
/// * `snd` entries become `Snd` events.
/// * `rcv` entries become `Rcv` events, immediately followed by the `Snd` of
///   the acknowledgment (a correct node acknowledges right away, Appendix
///   A.3; the ack itself is not logged separately by the receiver).
/// * `ack` entries become the `Rcv` of the acknowledgment (when the original
///   send is part of the replayed run; acks of pre-checkpoint sends are
///   skipped, their sends were already settled when the epoch sealed).
/// * `ins` / `del` entries become `Ins` / `Del` events.
pub fn history_from_entries<'a>(node: NodeId, entries: impl IntoIterator<Item = &'a LogEntry>) -> History {
    let mut history = History::new();
    // The `(from, to)` of each logged send, by message digest: an `ack` entry
    // names only the digest it acknowledges.
    let mut sent: BTreeMap<Digest, (NodeId, NodeId)> = BTreeMap::new();
    let mut ack_seq: u64 = 1_000_000; // synthetic sequence numbers for acks
    let mut ack = |of: Digest, from: NodeId, to: NodeId, sent_at: Timestamp| {
        let seq = ack_seq;
        ack_seq += 1;
        Message {
            from,
            to,
            body: MessageBody::Ack { of },
            sent_at,
            seq,
        }
    };
    for entry in entries {
        let t: Timestamp = entry.timestamp;
        match &entry.kind {
            EntryKind::Snd { message } => {
                let event = Event::new(t, node, EventKind::Snd(message.clone()));
                sent.insert(message_digest(&event, message), (message.from, message.to));
                history.push(event);
            }
            EntryKind::Rcv { message, .. } => {
                let event = Event::new(t, node, EventKind::Rcv(message.clone()));
                let of = message_digest(&event, message);
                history.push(event);
                history.push(Event::new(
                    t,
                    node,
                    EventKind::Snd(ack(of, message.to, message.from, t)),
                ));
            }
            EntryKind::Ack { of, .. } => {
                // Reconstruct the acknowledgment we received for message `of`.
                if let Some((from, to)) = sent.get(of) {
                    history.push(Event::new(t, node, EventKind::Rcv(ack(*of, *to, *from, t))));
                }
            }
            EntryKind::Ins { tuple } => history.push(Event::new(t, node, EventKind::Ins(tuple.clone()))),
            EntryKind::Del { tuple } => history.push(Event::new(t, node, EventKind::Del(tuple.clone()))),
        }
    }
    history
}

/// The digest of the message `event` was just built from: the one the event
/// already computed for a tuple notification, so each logged message is
/// hashed once per replay.
fn message_digest(event: &Event, message: &Message) -> Digest {
    event.delta_digest().unwrap_or_else(|| message.digest())
}

/// Convert a log segment into the node-local history it claims to describe.
pub fn history_from_segment(segment: &LogSegment) -> History {
    history_from_entries(segment.node, &segment.entries)
}

/// Feed the primary-system *inputs* recorded in `entries` to `machine`:
/// `ins` / `del` / `rcv` entries are inputs; `snd` / `ack` entries are
/// outputs and acknowledgments that leave machine state untouched.  By
/// determinism (assumption 6 of §5.2) this reproduces the machine state the
/// node had after logging those entries — which is how the querier checks
/// that a checkpoint's committed state is *reproducible* from the previous
/// checkpoint rather than trusting the node's self-signed claim.
pub fn apply_inputs<'a>(machine: &mut dyn StateMachine, entries: impl IntoIterator<Item = &'a LogEntry>) {
    for entry in entries {
        match &entry.kind {
            EntryKind::Ins { tuple } => {
                machine.handle(snp_datalog::SmInput::InsertBase(tuple.clone()));
            }
            EntryKind::Del { tuple } => {
                machine.handle(snp_datalog::SmInput::DeleteBase(tuple.clone()));
            }
            EntryKind::Rcv { message, .. } => {
                if let Some(delta) = message.as_delta() {
                    machine.handle(snp_datalog::SmInput::Receive {
                        from: message.from,
                        delta: delta.clone(),
                    });
                }
            }
            EntryKind::Snd { .. } | EntryKind::Ack { .. } => {}
        }
    }
}

/// Replay a log segment through the node's expected state machine and return
/// the reconstructed partition of the provenance graph.
pub fn replay_segment(segment: &LogSegment, expected: Box<dyn StateMachine>, t_prop: Timestamp) -> ProvenanceGraph {
    replay_suffix(segment.node, None, expected, std::slice::from_ref(segment), t_prop)
}

/// Replay a (possibly checkpoint-anchored) run of segments.
///
/// With `anchor = Some(checkpoint)`, `machine` must already be restored to
/// the checkpointed state; the graph is seeded so that derivations and sends
/// in the suffix can hang off pre-checkpoint tuples (their truncated
/// provenance is vouched for by the verified checkpoint, which becomes the
/// legitimate leaf of such explanations).
pub fn replay_suffix(
    node: NodeId,
    anchor: Option<&Checkpoint>,
    machine: Box<dyn StateMachine>,
    segments: &[LogSegment],
    t_prop: Timestamp,
) -> ProvenanceGraph {
    replay_suffix_traced(node, anchor, machine, segments, t_prop).0
}

/// Like [`replay_suffix`], but also report the per-rule evaluation counters
/// the expected machine accumulated while re-executing the suffix (empty for
/// hand-written machines).  The querier folds these into its `QueryStats`.
pub fn replay_suffix_traced(
    node: NodeId,
    anchor: Option<&Checkpoint>,
    machine: Box<dyn StateMachine>,
    segments: &[LogSegment],
    t_prop: Timestamp,
) -> (ProvenanceGraph, snp_datalog::EvalMetrics) {
    let history = history_from_entries(node, segments.iter().flat_map(|s| &s.entries));
    let mut builder = GraphBuilder::new(t_prop);
    if let Some(checkpoint) = anchor {
        builder.seed_checkpoint(
            node,
            checkpoint.timestamp,
            checkpoint.entries.iter().map(|e| (&e.tuple, e.appeared_at)),
        );
    }
    builder.register_machine(node, machine);
    // A retrieved log prefix is complete up to the authenticator (log entries
    // for one event are appended atomically before the authenticator is
    // issued), so the history is quiescent: a send the expected machine
    // produces but the log never records is evidence of suppression.
    builder.set_quiescent(true);
    builder.build_traced(&history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_crypto::keys::{KeyPair, NodeId};
    use snp_datalog::{Atom, Engine, Rule, RuleSet, SmInput, StateMachine, Term, Tuple, TupleDelta, Value};
    use snp_log::SecureLog;

    fn rules() -> RuleSet {
        RuleSet::new(vec![Rule::standard(
            "R2",
            Atom::new("reach", Term::var("Y"), vec![Term::var("X")]),
            vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
            vec![],
        )])
        .unwrap()
    }

    fn link(x: u64, y: u64) -> Tuple {
        Tuple::new("link", NodeId(x), vec![Value::node(y)])
    }

    fn reach(x: u64, y: u64) -> Tuple {
        Tuple::new("reach", NodeId(x), vec![Value::node(y)])
    }

    /// Build a log for node 1 the way an honest node would: ins link(1,2),
    /// snd +reach(@2,1), ack received.
    fn honest_log() -> SecureLog {
        let mut log = SecureLog::new(KeyPair::for_node(NodeId(1)));
        log.append(10, EntryKind::Ins { tuple: link(1, 2) });
        let msg = Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(reach(2, 1)), 10, 0);
        log.append(10, EntryKind::Snd { message: msg.clone() });
        log.append(
            40,
            EntryKind::Ack {
                of: msg.digest(),
                peer_auth_digest: Digest::ZERO,
            },
        );
        log
    }

    #[test]
    fn honest_log_replays_without_red_vertices() {
        let log = honest_log();
        let graph = replay_segment(
            &log.full_segment(),
            Box::new(Engine::new(NodeId(1), rules())),
            1_000_000,
        );
        assert!(
            graph.faulty_nodes().is_empty(),
            "honest log must replay clean: {:?}",
            graph.faulty_nodes()
        );
        assert!(graph
            .vertices()
            .any(|(_, v)| matches!(&v.kind, snp_graph::VertexKind::Derive { tuple, .. } if *tuple == reach(2, 1))));
        // The acknowledged send is black.
        let send = graph
            .find_send(NodeId(1), NodeId(2), &reach(2, 1), snp_datalog::Polarity::Plus, None)
            .map(|send| graph.id(send))
            .expect("send vertex");
        assert_eq!(graph.vertex(&send).unwrap().color, snp_graph::Color::Black);
    }

    #[test]
    fn log_missing_a_send_replays_red() {
        // The node logged the insertion but not the +reach send its machine
        // would have produced (suppression).
        let mut log = SecureLog::new(KeyPair::for_node(NodeId(1)));
        log.append(10, EntryKind::Ins { tuple: link(1, 2) });
        log.append(5_000_000, EntryKind::Ins { tuple: link(1, 3) });
        let graph = replay_segment(&log.full_segment(), Box::new(Engine::new(NodeId(1), rules())), 50_000);
        assert!(graph.faulty_nodes().contains(&NodeId(1)));
    }

    #[test]
    fn log_with_fabricated_send_replays_red() {
        let mut log = SecureLog::new(KeyPair::for_node(NodeId(1)));
        let msg = Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(reach(2, 9)), 10, 0);
        log.append(10, EntryKind::Snd { message: msg });
        let graph = replay_segment(
            &log.full_segment(),
            Box::new(Engine::new(NodeId(1), rules())),
            1_000_000,
        );
        assert!(graph.faulty_nodes().contains(&NodeId(1)));
    }

    #[test]
    fn rcv_entries_synthesize_prompt_acks() {
        // A log with a rcv entry replays with the receive vertex black
        // (because the synthesized ack follows immediately).
        let mut log = SecureLog::new(KeyPair::for_node(NodeId(2)));
        let msg = Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(reach(2, 1)), 10, 0);
        log.append(
            20,
            EntryKind::Rcv {
                message: msg,
                sender_auth_digest: Digest::ZERO,
            },
        );
        log.append(60, EntryKind::Ins { tuple: link(2, 3) });
        let history = history_from_segment(&log.full_segment());
        assert_eq!(history.len(), 3, "rcv + synthesized ack snd + ins");
        let graph = replay_segment(
            &log.full_segment(),
            Box::new(Engine::new(NodeId(2), rules())),
            1_000_000,
        );
        let recv = graph
            .find_receive(NodeId(2), NodeId(1), &reach(2, 1), snp_datalog::Polarity::Plus)
            .map(|receive| graph.id(receive))
            .expect("receive vertex");
        assert_eq!(graph.vertex(&recv).unwrap().color, snp_graph::Color::Black);
    }

    #[test]
    fn replay_is_deterministic() {
        let log = honest_log();
        let a = replay_segment(
            &log.full_segment(),
            Box::new(Engine::new(NodeId(1), rules())),
            1_000_000,
        );
        let b = replay_segment(
            &log.full_segment(),
            Box::new(Engine::new(NodeId(1), rules())),
            1_000_000,
        );
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert!(a.is_subgraph_of(&b) && b.is_subgraph_of(&a));
    }

    #[test]
    fn machine_state_matches_after_replay() {
        // Replaying the log's inputs through a fresh machine reproduces the
        // node's final tuple set (determinism, assumption 6).
        let log = honest_log();
        let mut machine = Engine::new(NodeId(1), rules());
        for entry in log.entries() {
            match &entry.kind {
                EntryKind::Ins { tuple } => {
                    machine.handle(SmInput::InsertBase(tuple.clone()));
                }
                EntryKind::Del { tuple } => {
                    machine.handle(SmInput::DeleteBase(tuple.clone()));
                }
                _ => {}
            }
        }
        assert!(machine.current_tuples().contains(&link(1, 2)));
    }
}
