//! The synthetic single-node log behind the `fig_graph` harness and the
//! `gca_replay` micro-benchmark.
//!
//! One honest node runs two rules,
//!
//! ```text
//! R1 reach(@X, Y) :- link(@X, Y).
//! R2 reach(@Y, X) :- link(@X, Y).
//! ```
//!
//! and logs, per *round*, what a SNooPy node would: the insertion of a fresh
//! `link` to a fresh neighbour, the `+reach` notification R2 sends there and
//! its acknowledgment, and one notification received from a peer; every
//! third round also deletes the previous round's link (`-reach` goes out and
//! is acknowledged).  Every tuple is new, so the replayed graph grows by a
//! constant number of vertices per entry — including one remote `send` stub
//! per received message — and a graph-construction step whose cost depends
//! on the size of the graph shows up as per-entry cost rising with the
//! length of the log.  The log is produced by running the machine, so it
//! replays without a single red vertex.

use snp_crypto::keys::NodeId;
use snp_crypto::Digest;
use snp_datalog::parser::parse_program;
use snp_datalog::{Engine, RuleSet, SmInput, SmOutput, StateMachine, Tuple, TupleDelta, Value};
use snp_graph::history::Message;
use snp_log::entry::{EntryKind, LogEntry};
use snp_log::log::LogSegment;

/// The node whose log the single-node harnesses synthesize.
pub const NODE: NodeId = NodeId(1);

/// Microseconds between rounds; far below any `Tprop`, so nothing expires.
const ROUND_US: u64 = 100;

/// The two-rule program (see the module docs).
pub fn reach_rules() -> RuleSet {
    let rules = parse_program(
        "R1 reach(@X, Y) :- link(@X, Y).\n\
         R2 reach(@Y, X) :- link(@X, Y).",
    )
    .expect("reach program parses");
    RuleSet::new(rules).expect("reach rules are valid")
}

/// The expected machine of `node`, in its initial state.
pub fn machine(node: NodeId) -> Box<dyn StateMachine> {
    Box::new(Engine::new(node, reach_rules()))
}

/// A genesis log segment of `node` with at least `entries` entries (the last
/// round is completed, so up to five more); neighbours and peers are
/// numbered upwards from `node`.
pub fn synthetic_segment(node: NodeId, entries: usize) -> LogSegment {
    let mut machine = Engine::new(node, reach_rules());
    let mut log: Vec<LogEntry> = Vec::with_capacity(entries + 8);
    let push = |log: &mut Vec<LogEntry>, timestamp: u64, kind: EntryKind| {
        log.push(LogEntry {
            seq: log.len() as u64,
            timestamp,
            kind,
        });
    };
    let mut seq = 0u64;
    let mut round = 0u64;
    while log.len() < entries {
        let now = (round + 1) * ROUND_US;
        let link = |r: u64| Tuple::new("link", node, vec![Value::node(node.0 + 1 + r)]);
        let mut inputs = vec![(SmInput::InsertBase(link(round)), EntryKind::Ins { tuple: link(round) })];
        if round % 3 == 2 {
            inputs.push((
                SmInput::DeleteBase(link(round - 1)),
                EntryKind::Del { tuple: link(round - 1) },
            ));
        }
        for (input, entry) in inputs {
            push(&mut log, now, entry);
            for output in machine.handle(input) {
                if let SmOutput::Send { to, delta } = output {
                    let message = Message::delta(node, to, delta, now, seq);
                    seq += 1;
                    let of = message.digest();
                    push(&mut log, now, EntryKind::Snd { message });
                    push(
                        &mut log,
                        now,
                        EntryKind::Ack {
                            of,
                            peer_auth_digest: Digest::ZERO,
                        },
                    );
                }
            }
        }
        // A notification from one of sixteen peers about a fresh tuple.
        let peer = NodeId(node.0 + 1 + round % 16);
        let hint = Tuple::new("hint", node, vec![Value::Int(round as i64)]);
        let message = Message::delta(peer, node, TupleDelta::plus(hint), now, round);
        machine.handle(SmInput::Receive {
            from: peer,
            delta: message.as_delta().expect("delta message").clone(),
        });
        push(
            &mut log,
            now,
            EntryKind::Rcv {
                message,
                sender_auth_digest: Digest::ZERO,
            },
        );
        round += 1;
    }
    LogSegment {
        node,
        epoch: 0,
        base_seq: 0,
        start_head: Digest::ZERO,
        entries: log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_core::replay::replay_segment;

    #[test]
    fn synthetic_log_replays_clean_and_grows_linearly() {
        let small = replay_segment(&synthetic_segment(NODE, 200), machine(NODE), 1_000_000);
        let large = replay_segment(&synthetic_segment(NODE, 400), machine(NODE), 1_000_000);
        assert!(small.faulty_nodes().is_empty(), "an honest log replays without red");
        assert!(large.faulty_nodes().is_empty());
        let per_entry = small.vertex_count() as f64 / 200.0;
        assert!(per_entry > 2.0, "every entry leaves vertices behind: {per_entry}");
        let growth = large.vertex_count() as f64 / small.vertex_count() as f64;
        assert!((1.8..2.2).contains(&growth), "vertices grow with the log: {growth}");
    }
}
