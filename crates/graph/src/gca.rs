//! The Graph Construction Algorithm (GCA) — Appendix B, Figures 10 and 11.
//!
//! The GCA consumes a [`History`] and per-node deterministic state machines
//! `A_i`, and produces the colored provenance graph `G(h)`:
//!
//! * `ins` / `del` events produce `insert` / `delete` vertices and the
//!   corresponding `appear` / `disappear` / `exist` updates, and are fed to
//!   the node's state machine.
//! * The machine's `der` / `und` outputs produce `derive` / `underive`
//!   vertices wired to the vertices of their body tuples, and `appear` /
//!   `disappear` updates for the head.
//! * The machine's `snd` outputs are held in the `pending` set until the
//!   matching `snd` event is found in the history; a missing send, an extra
//!   send, a missing acknowledgment, or a stale unacknowledged send colors
//!   the corresponding vertex **red** — these are exactly the misbehaviors of
//!   Lemma 3.
//! * `rcv` events produce `receive` + `believe-*` vertices; acknowledgments
//!   turn the associated `send` / `receive` vertices **black**.
//!
//! Vertices whose fate is not yet known stay **yellow**.

use crate::graph::{ProvenanceGraph, VertexHandle};
use crate::history::{Event, EventKind, History, Message, MessageBody};
use crate::vertex::{Color, Timestamp, Vertex, VertexKind};
use snp_crypto::keys::NodeId;
use snp_crypto::Digest;
use snp_datalog::{EvalMetrics, Polarity, SmInput, SmOutput, StateMachine, Tuple, TupleDelta};
use std::collections::{BTreeMap, BTreeSet};

/// An entry of the `pending` set: a send the machine produced that has not
/// yet been matched by a `snd` event in the history.
#[derive(Clone, Debug)]
struct PendingSend {
    node: NodeId,
    to: NodeId,
    delta: TupleDelta,
    vertex: VertexHandle,
    sent_at: Timestamp,
}

/// An entry of the `ackpend` set: a `receive` vertex whose acknowledgment has
/// not yet been sent by the receiving node.
#[derive(Clone, Debug)]
struct AckPending {
    node: NodeId,
    original_digest: Digest,
    vertex: VertexHandle,
}

/// The graph construction algorithm.
pub struct GraphBuilder {
    graph: ProvenanceGraph,
    machines: BTreeMap<NodeId, Box<dyn StateMachine>>,
    /// `Tprop`: sends older than `2·Tprop` without an acknowledgment are
    /// flagged red (§5.4).
    t_prop: Timestamp,
    pending: Vec<PendingSend>,
    ackpend: Vec<AckPending>,
    /// The `unacked` set: `send` vertices no acknowledgment has been received
    /// for yet, as `(sender, sent_at, vertex)` — the first two are identity
    /// fields of the vertex — so the sends of one node that have waited past
    /// a deadline are one range.  Replaying a single node's log leaves one
    /// entry per remote `send` stub here (only their own node's events could
    /// settle them), so this set grows with the history.
    unacked: BTreeSet<(NodeId, Timestamp, VertexHandle)>,
    /// The `nopreds` set: `send` vertices without an incoming edge yet.
    nopreds: BTreeSet<VertexHandle>,
    /// Tuple notifications seen so far (by digest), used to resolve
    /// acknowledgments.
    seen_messages: BTreeMap<Digest, Message>,
    /// Whether the history is *quiescent* (Appendix C.2): it is complete, so a
    /// send the machine produced that never appears as a `snd` event is
    /// misbehavior even if no later event follows.  Replay of retrieved log
    /// segments sets this; incremental construction over a live execution
    /// must not (it would break monotonicity for prefixes).
    quiescent: bool,
}

// Manual impl: the replay machines are trait objects without `Debug`; the
// bookkeeping around them is what matters when inspecting a builder.
impl std::fmt::Debug for GraphBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphBuilder")
            .field("graph", &self.graph)
            .field("machines", &self.machines.keys().collect::<Vec<_>>())
            .field("t_prop", &self.t_prop)
            .field("pending", &self.pending)
            .field("ackpend", &self.ackpend)
            .field("unacked", &self.unacked)
            .field("nopreds", &self.nopreds)
            .field("quiescent", &self.quiescent)
            .finish_non_exhaustive()
    }
}

impl GraphBuilder {
    /// Create a builder.  `machine_factory` must return the *initial-state*
    /// machine for a node; `t_prop` is the propagation bound in the same
    /// (microsecond) unit as event timestamps.
    pub fn new(t_prop: Timestamp) -> GraphBuilder {
        GraphBuilder {
            graph: ProvenanceGraph::new(),
            machines: BTreeMap::new(),
            t_prop,
            pending: Vec::new(),
            ackpend: Vec::new(),
            unacked: BTreeSet::new(),
            nopreds: BTreeSet::new(),
            seen_messages: BTreeMap::new(),
            quiescent: false,
        }
    }

    /// Register the state machine for a node (fresh, initial state).
    pub fn register_machine(&mut self, node: NodeId, machine: Box<dyn StateMachine>) {
        self.machines.insert(node, machine);
    }

    /// Declare the history quiescent: any send the machine produces that never
    /// shows up as a `snd` event is flagged red when construction finishes.
    pub fn set_quiescent(&mut self, quiescent: bool) {
        self.quiescent = quiescent;
    }

    /// Seed the graph with the tuple state recorded by a verified epoch
    /// checkpoint sealed at `sealed_at` (§5.6): each `(tuple, appeared_at)`
    /// gets a black `checkpoint` leaf feeding an open `exist` interval, so
    /// that suffix replay can hang derivations and sends off pre-checkpoint
    /// state without reconstructing its (truncated) provenance.
    pub fn seed_checkpoint<'a>(
        &mut self,
        node: NodeId,
        sealed_at: Timestamp,
        entries: impl IntoIterator<Item = (&'a Tuple, Timestamp)>,
    ) {
        for (tuple, appeared_at) in entries {
            let leaf = self.graph.upsert(Vertex::new(
                VertexKind::Checkpoint {
                    node,
                    tuple: tuple.clone(),
                    time: sealed_at,
                },
                Color::Black,
            ));
            let exist = self.graph.upsert(Vertex::new(
                VertexKind::Exist {
                    node,
                    tuple: tuple.clone(),
                    from: appeared_at,
                    until: None,
                },
                Color::Black,
            ));
            self.graph.add_edge(leaf, exist);
        }
    }

    /// Run the algorithm over a full history and return the graph.
    pub fn build(self, history: &History) -> ProvenanceGraph {
        self.build_traced(history).0
    }

    /// Like [`GraphBuilder::build`], but also report the per-rule evaluation
    /// counters (fires, index probes, candidates) accumulated by the replay
    /// machines while re-executing the history, summed across nodes.  The
    /// querier folds these into its `QueryStats`.
    pub fn build_traced(mut self, history: &History) -> (ProvenanceGraph, EvalMetrics) {
        for event in history.events() {
            self.step(event);
        }
        self.finalize();
        let mut metrics = EvalMetrics::default();
        for machine in self.machines.values() {
            metrics.merge(&machine.eval_metrics());
        }
        (self.graph, metrics)
    }

    /// Run the algorithm over a history, then register the given extra
    /// messages (Appendix C: `handle-extra-msg` is invoked for evidence
    /// messages that are inconsistent with the adopted view).
    pub fn build_with_extra(mut self, history: &History, extra: &[Message]) -> ProvenanceGraph {
        for event in history.events() {
            self.step(event);
        }
        for message in extra {
            self.handle_extra_msg(message);
        }
        self.finalize();
        self.graph
    }

    /// Apply end-of-history checks (only meaningful for quiescent histories).
    fn finalize(&mut self) {
        if !self.quiescent {
            return;
        }
        for entry in std::mem::take(&mut self.pending) {
            self.graph.set_color(entry.vertex, Color::Red);
            self.unacked.remove(&(entry.node, entry.sent_at, entry.vertex));
        }
    }

    /// Process a single event (main loop of Appendix B.1).
    pub fn step(&mut self, event: &Event) {
        let Event { time, node, .. } = event;
        match event.kind() {
            EventKind::Snd(m) => {
                self.handle_event_snd(event, m);
                // snd events are not fed to the state machine.
            }
            EventKind::Rcv(m) => {
                self.handle_event_rcv(event, m);
                if let MessageBody::Delta(delta) = &m.body {
                    let outputs = self.feed_machine(
                        *node,
                        SmInput::Receive {
                            from: m.from,
                            delta: delta.clone(),
                        },
                    );
                    self.handle_outputs(*node, outputs, *time);
                }
            }
            EventKind::Ins(tuple) => {
                self.handle_event_ins(*node, tuple, *time);
                let outputs = self.feed_machine(*node, SmInput::InsertBase(tuple.clone()));
                self.handle_outputs(*node, outputs, *time);
            }
            EventKind::Del(tuple) => {
                self.handle_event_del(*node, tuple, *time);
                let outputs = self.feed_machine(*node, SmInput::DeleteBase(tuple.clone()));
                self.handle_outputs(*node, outputs, *time);
            }
        }
    }

    /// Finish construction and return the graph (for incremental use).
    pub fn finish(mut self) -> ProvenanceGraph {
        self.finalize();
        self.graph
    }

    /// Read access to the graph while building.
    pub fn graph(&self) -> &ProvenanceGraph {
        &self.graph
    }

    fn feed_machine(&mut self, node: NodeId, input: SmInput) -> Vec<SmOutput> {
        match self.machines.get_mut(&node) {
            Some(machine) => machine.handle(input),
            None => Vec::new(),
        }
    }

    fn handle_outputs(&mut self, node: NodeId, outputs: Vec<SmOutput>, time: Timestamp) {
        for output in outputs {
            match output {
                SmOutput::Derive { tuple, rule, body } => self.handle_output_der(node, &tuple, &rule, &body, time),
                SmOutput::Underive { tuple, rule, body } => self.handle_output_und(node, &tuple, &rule, &body, time),
                SmOutput::Send { to, delta } => self.handle_output_snd(node, to, delta, time),
            }
        }
    }

    // ----- library functions (Figure 10) ------------------------------------

    fn appear_local_tuple(&mut self, node: NodeId, tuple: &Tuple, vwhy: VertexHandle, time: Timestamp) {
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::Appear {
                node,
                tuple: tuple.clone(),
                time,
            },
            Color::Black,
        ));
        let v2 = self.graph.upsert(Vertex::new(
            VertexKind::Exist {
                node,
                tuple: tuple.clone(),
                from: time,
                until: None,
            },
            Color::Black,
        ));
        self.graph.add_edge(vwhy, v1);
        self.graph.add_edge(v1, v2);
    }

    fn disappear_local_tuple(&mut self, node: NodeId, tuple: &Tuple, vwhy: VertexHandle, time: Timestamp) {
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::Disappear {
                node,
                tuple: tuple.clone(),
                time,
            },
            Color::Black,
        ));
        self.graph.add_edge(vwhy, v1);
        if let Some(existing) = self.graph.open_exist(node, tuple) {
            self.graph.close_interval(existing, time);
            self.graph.add_edge(v1, existing);
        }
    }

    fn appear_remote_tuple(&mut self, node: NodeId, tuple: &Tuple, peer: NodeId, vwhy: VertexHandle, time: Timestamp) {
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::BelieveAppear {
                node,
                peer,
                tuple: tuple.clone(),
                time,
            },
            Color::Black,
        ));
        let v2 = self.graph.upsert(Vertex::new(
            VertexKind::Believe {
                node,
                peer,
                tuple: tuple.clone(),
                from: time,
                until: None,
            },
            Color::Black,
        ));
        self.graph.add_edge(vwhy, v1);
        self.graph.add_edge(v1, v2);
    }

    fn disappear_remote_tuple(
        &mut self,
        node: NodeId,
        tuple: &Tuple,
        peer: NodeId,
        vwhy: VertexHandle,
        time: Timestamp,
    ) {
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::BelieveDisappear {
                node,
                peer,
                tuple: tuple.clone(),
                time,
            },
            Color::Black,
        ));
        self.graph.add_edge(vwhy, v1);
        if let Some(existing) = self.graph.open_believe(node, tuple) {
            self.graph.close_interval(existing, time);
            self.graph.add_edge(v1, existing);
        }
    }

    fn flag_all_pending(&mut self, node: NodeId, time: Timestamp) {
        self.flag_ackpend(node);
        // Sends the machine produced that the node never actually transmitted.
        let (stale, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.node == node);
        self.pending = keep;
        for entry in stale {
            self.graph.set_color(entry.vertex, Color::Red);
            self.unacked.remove(&(entry.node, entry.sent_at, entry.vertex));
        }
        // Sends that have waited longer than 2·Tprop for an acknowledgment.
        let deadline = time.saturating_sub(2 * self.t_prop);
        let expired: Vec<_> = self
            .unacked
            .range((node, 0, VertexHandle::FIRST)..(node, deadline, VertexHandle::FIRST))
            .copied()
            .collect();
        for entry in expired {
            self.graph.set_color(entry.2, Color::Red);
            self.unacked.remove(&entry);
        }
    }

    fn flag_ackpend(&mut self, node: NodeId) {
        let (stale, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.ackpend)
            .into_iter()
            .partition(|a| a.node == node);
        self.ackpend = keep;
        for entry in stale {
            self.graph.set_color(entry.vertex, Color::Red);
        }
    }

    fn add_send_vertex(
        &mut self,
        from: NodeId,
        to: NodeId,
        delta: &TupleDelta,
        vwhy: Option<VertexHandle>,
        time: Timestamp,
    ) -> VertexHandle {
        let kind = VertexKind::Send {
            node: from,
            peer: to,
            delta: delta.clone(),
            time,
        };
        let (send, inserted) = self.graph.insert_if_absent(Vertex::new(kind, Color::Yellow));
        if inserted {
            self.nopreds.insert(send);
            self.unacked.insert((from, time, send));
        }
        if let Some(why) = vwhy {
            if self.nopreds.remove(&send) {
                self.graph.add_edge(why, send);
            }
        }
        send
    }

    /// Returns the `(send, receive)` vertex pair of the notification `m`.
    fn add_receive_vertex(&mut self, m: &Message, time: Timestamp) -> Option<(VertexHandle, VertexHandle)> {
        let delta = m.as_delta()?;
        // Ensure the remote send vertex exists (it may not, if the sender's
        // events are not part of the history we are replaying).
        let send = self.add_send_vertex(m.from, m.to, delta, None, m.sent_at);
        let kind = VertexKind::Receive {
            node: m.to,
            peer: m.from,
            delta: delta.clone(),
            time,
        };
        let (receive, _) = self.graph.insert_if_absent(Vertex::new(kind, Color::Yellow));
        self.graph.add_edge(send, receive);
        Some((send, receive))
    }

    // ----- event handlers (Figure 11, left column) ---------------------------

    fn handle_event_ins(&mut self, node: NodeId, tuple: &Tuple, time: Timestamp) {
        self.flag_all_pending(node, time);
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::Insert {
                node,
                tuple: tuple.clone(),
                time,
            },
            Color::Black,
        ));
        self.appear_local_tuple(node, tuple, v1, time);
    }

    fn handle_event_del(&mut self, node: NodeId, tuple: &Tuple, time: Timestamp) {
        self.flag_all_pending(node, time);
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::Delete {
                node,
                tuple: tuple.clone(),
                time,
            },
            Color::Black,
        ));
        self.disappear_local_tuple(node, tuple, v1, time);
    }

    fn handle_event_snd(&mut self, event: &Event, m: &Message) {
        let node = event.node;
        match &m.body {
            MessageBody::Ack { of } => {
                // The node acknowledges a message it received earlier: the
                // corresponding receive vertex turns black.
                if let Some(pos) = self
                    .ackpend
                    .iter()
                    .position(|a| a.node == node && a.original_digest == *of)
                {
                    let entry = self.ackpend.remove(pos);
                    self.graph.set_color(entry.vertex, Color::Black);
                }
            }
            MessageBody::Delta(delta) => {
                if let Some(digest) = event.delta_digest() {
                    self.seen_messages.insert(digest, m.clone());
                }
                match self
                    .pending
                    .iter()
                    .position(|p| p.node == node && p.to == m.to && p.delta == *delta)
                {
                    Some(pos) => {
                        // Expected send: consume the pending entry.
                        self.pending.remove(pos);
                    }
                    None => {
                        // The node sent a message its state machine never
                        // produced: red send vertex (Lemma 3, cases 1 and 3).
                        let v2 = self.add_send_vertex(node, m.to, delta, None, m.sent_at);
                        self.unacked.remove(&(node, m.sent_at, v2));
                        self.graph.set_color(v2, Color::Red);
                    }
                }
            }
        }
        self.flag_ackpend(node);
    }

    fn handle_event_rcv(&mut self, event: &Event, m: &Message) {
        let Event { time, node, .. } = *event;
        self.flag_all_pending(node, time);
        match &m.body {
            MessageBody::Ack { of } => {
                let Some(original) = self.seen_messages.get(of).cloned() else {
                    return;
                };
                // Evidence that the peer received our message: create its
                // receive vertex and turn our send vertex black.
                if let Some((send, _)) = self.add_receive_vertex(&original, m.sent_at) {
                    if original.from == node && self.unacked.remove(&(node, original.sent_at, send)) {
                        self.graph.set_color(send, Color::Black);
                    }
                }
            }
            MessageBody::Delta(delta) => {
                let Some(digest) = event.delta_digest() else {
                    return;
                };
                self.seen_messages.insert(digest, m.clone());
                if let Some((_, v1)) = self.add_receive_vertex(m, time) {
                    self.ackpend.push(AckPending {
                        node,
                        original_digest: digest,
                        vertex: v1,
                    });
                    match delta.polarity {
                        Polarity::Plus => self.appear_remote_tuple(node, &delta.tuple, m.from, v1, time),
                        Polarity::Minus => self.disappear_remote_tuple(node, &delta.tuple, m.from, v1, time),
                    }
                }
            }
        }
    }

    // ----- output handlers (Figure 11, right column) --------------------------

    /// Find the vertex to use as the provenance of body tuple `tuple` for a
    /// (un)derivation happening at `time` (lines 151–160 / 168–177).
    fn body_vertex(&mut self, node: NodeId, tuple: &Tuple, time: Timestamp, appearing: bool) -> VertexHandle {
        if let Some(v) = self.graph.body_vertex(node, tuple, time, appearing) {
            return v;
        }
        // Fall back to (creating) an exist vertex; for correct traces this
        // only happens when replay starts from a checkpoint that did not
        // record the tuple's original appearance.
        self.graph.upsert(Vertex::new(
            VertexKind::Exist {
                node,
                tuple: tuple.clone(),
                from: time,
                until: None,
            },
            Color::Black,
        ))
    }

    fn handle_output_der(&mut self, node: NodeId, tuple: &Tuple, rule: &str, body: &[Tuple], time: Timestamp) {
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::Derive {
                node,
                tuple: tuple.clone(),
                rule: rule.to_string(),
                time,
            },
            Color::Black,
        ));
        for body_tuple in body {
            let why = self.body_vertex(node, body_tuple, time, true);
            self.graph.add_edge(why, v1);
        }
        self.appear_local_tuple(node, tuple, v1, time);
    }

    fn handle_output_und(&mut self, node: NodeId, tuple: &Tuple, rule: &str, body: &[Tuple], time: Timestamp) {
        let v1 = self.graph.upsert(Vertex::new(
            VertexKind::Underive {
                node,
                tuple: tuple.clone(),
                rule: rule.to_string(),
                time,
            },
            Color::Black,
        ));
        for body_tuple in body {
            let why = self.body_vertex(node, body_tuple, time, false);
            self.graph.add_edge(why, v1);
        }
        self.disappear_local_tuple(node, tuple, v1, time);
    }

    fn handle_output_snd(&mut self, node: NodeId, to: NodeId, delta: TupleDelta, time: Timestamp) {
        let vwhy = match delta.polarity {
            Polarity::Plus => self.graph.appear_at(node, &delta.tuple, time),
            Polarity::Minus => self.graph.disappear_at(node, &delta.tuple, time),
        };
        let v1 = self.add_send_vertex(node, to, &delta, vwhy, time);
        self.pending.push(PendingSend {
            node,
            to,
            delta,
            vertex: v1,
            sent_at: time,
        });
    }

    /// Appendix C / Figure 11: register a message that is *not* explained by
    /// the adopted view — both endpoints get red vertices.
    pub fn handle_extra_msg(&mut self, m: &Message) {
        let Some(delta) = m.as_delta() else { return };
        for kind in [
            VertexKind::Send {
                node: m.from,
                peer: m.to,
                delta: delta.clone(),
                time: m.sent_at,
            },
            VertexKind::Receive {
                node: m.to,
                peer: m.from,
                delta: delta.clone(),
                time: m.sent_at,
            },
        ] {
            self.graph.insert_if_absent(Vertex::new(kind, Color::Red));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::Value;
    use snp_datalog::{AggKind, Atom, Rule, Term};
    use snp_datalog::{Engine, RuleSet};

    /// R1: reach(@X, Y) :- link(@X, Y)
    /// R2: reach(@Y, X) :- link(@X, Y)   (head homed on the neighbor → message)
    fn simple_rules() -> RuleSet {
        let r1 = Rule::standard(
            "R1",
            Atom::new("reach", Term::var("X"), vec![Term::var("Y")]),
            vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
            vec![],
        );
        let r2 = Rule::standard(
            "R2",
            Atom::new("reach", Term::var("Y"), vec![Term::var("X")]),
            vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
            vec![],
        );
        RuleSet::new(vec![r1, r2]).expect("valid")
    }

    fn link(x: u64, y: u64) -> Tuple {
        Tuple::new("link", NodeId(x), vec![Value::node(y)])
    }

    fn reach(x: u64, y: u64) -> Tuple {
        Tuple::new("reach", NodeId(x), vec![Value::node(y)])
    }

    fn builder_for(nodes: &[u64]) -> GraphBuilder {
        let mut b = GraphBuilder::new(1_000_000);
        for &n in nodes {
            b.register_machine(NodeId(n), Box::new(Engine::new(NodeId(n), simple_rules())));
        }
        b
    }

    /// A correct two-node history: node 1 inserts link(1,2), derives reach(@1,2)
    /// and reach(@2,1), sends +reach(@2,1) to node 2, node 2 receives and acks.
    fn correct_history() -> History {
        let delta = TupleDelta::plus(reach(2, 1));
        let msg = Message::delta(NodeId(1), NodeId(2), delta, 10, 1);
        let ack = Message::ack(&msg, 20, 1);
        History::from_events(vec![
            Event::new(10, NodeId(1), EventKind::Ins(link(1, 2))),
            Event::new(10, NodeId(1), EventKind::Snd(msg.clone())),
            Event::new(20, NodeId(2), EventKind::Rcv(msg)),
            Event::new(20, NodeId(2), EventKind::Snd(ack.clone())),
            Event::new(30, NodeId(1), EventKind::Rcv(ack)),
        ])
    }

    #[test]
    fn correct_history_has_no_red_vertices() {
        let graph = builder_for(&[1, 2]).build(&correct_history());
        assert!(
            graph.faulty_nodes().is_empty(),
            "correct nodes must have no red vertices (Lemma 2)"
        );
        assert!(graph.vertex_count() > 5);
        // The send and receive vertices are black (acknowledged).
        let send = graph
            .find_send(NodeId(1), NodeId(2), &reach(2, 1), Polarity::Plus, None)
            .map(|send| graph.id(send))
            .expect("send vertex");
        let recv = graph
            .find_receive(NodeId(2), NodeId(1), &reach(2, 1), Polarity::Plus)
            .map(|receive| graph.id(receive))
            .expect("receive vertex");
        assert_eq!(graph.vertex(&send).unwrap().color, Color::Black);
        assert_eq!(graph.vertex(&recv).unwrap().color, Color::Black);
        assert!(graph.has_edge(&send, &recv));
    }

    #[test]
    fn derive_vertex_links_to_body_and_head() {
        let graph = builder_for(&[1, 2]).build(&correct_history());
        // Find derive vertex of reach(@1,2) on node 1 and check it has the
        // link tuple's vertex as a predecessor and an appear as successor.
        let derive = graph
            .vertices()
            .find(|(_, v)| matches!(&v.kind, VertexKind::Derive { tuple, .. } if *tuple == reach(1, 2)))
            .map(|(id, _)| *id)
            .expect("derive vertex for reach(@1,2)");
        let preds = graph.predecessors(&derive);
        assert!(!preds.is_empty());
        assert!(preds
            .iter()
            .any(|p| graph.vertex(p).unwrap().kind.tuple() == &link(1, 2)));
        let succs = graph.successors(&derive);
        assert!(succs.iter().any(
            |s| matches!(&graph.vertex(s).unwrap().kind, VertexKind::Appear { tuple, .. } if *tuple == reach(1, 2))
        ));
    }

    #[test]
    fn believed_tuple_has_full_cross_node_chain() {
        let graph = builder_for(&[1, 2]).build(&correct_history());
        // appear(1, reach(2,1)) -> send -> receive -> believe-appear(2) -> believe(2)
        let believe_appear = graph
            .vertices()
            .find(|(_, v)| matches!(&v.kind, VertexKind::BelieveAppear { node, tuple, .. } if *node == NodeId(2) && *tuple == reach(2, 1)))
            .map(|(id, _)| *id)
            .expect("believe-appear on node 2");
        let preds = graph.predecessors(&believe_appear);
        assert!(preds
            .iter()
            .any(|p| matches!(graph.vertex(p).unwrap().kind, VertexKind::Receive { .. })));
        let succs = graph.successors(&believe_appear);
        assert!(succs
            .iter()
            .any(|s| matches!(graph.vertex(s).unwrap().kind, VertexKind::Believe { .. })));
    }

    #[test]
    fn unsent_message_colors_send_red() {
        // Node 1 inserts link(1,2) (so the machine wants to send +reach(@2,1))
        // but the history contains no snd event; the next event on node 1
        // flags the pending send red.
        let history = History::from_events(vec![
            Event::new(10, NodeId(1), EventKind::Ins(link(1, 2))),
            Event::new(50, NodeId(1), EventKind::Ins(link(1, 3))),
        ]);
        let graph = builder_for(&[1, 2, 3]).build(&history);
        assert!(
            graph.faulty_nodes().contains(&NodeId(1)),
            "suppressed send must produce a red vertex (Lemma 3 case 4)"
        );
    }

    #[test]
    fn fabricated_message_colors_send_red() {
        // Node 1 sends +reach(@2,1) without any derivation justifying it.
        let msg = Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(reach(2, 1)), 10, 1);
        let history = History::from_events(vec![
            Event::new(10, NodeId(1), EventKind::Snd(msg.clone())),
            Event::new(20, NodeId(2), EventKind::Rcv(msg)),
        ]);
        let graph = builder_for(&[1, 2]).build(&history);
        assert!(
            graph.faulty_nodes().contains(&NodeId(1)),
            "fabricated send must be red (Lemma 3 cases 1/3)"
        );
        assert!(
            !graph.faulty_nodes().contains(&NodeId(2)),
            "the receiver is not at fault for the sender's lie"
        );
    }

    #[test]
    fn missing_ack_colors_receive_red() {
        // Node 2 receives a (legitimate) message but never acknowledges it;
        // its next event flags the receive vertex red.
        let delta = TupleDelta::plus(reach(2, 1));
        let msg = Message::delta(NodeId(1), NodeId(2), delta, 10, 1);
        let history = History::from_events(vec![
            Event::new(10, NodeId(1), EventKind::Ins(link(1, 2))),
            Event::new(10, NodeId(1), EventKind::Snd(msg.clone())),
            Event::new(20, NodeId(2), EventKind::Rcv(msg)),
            Event::new(40, NodeId(2), EventKind::Ins(link(2, 3))),
        ]);
        let graph = builder_for(&[1, 2]).build(&history);
        let recv = graph
            .find_receive(NodeId(2), NodeId(1), &reach(2, 1), Polarity::Plus)
            .map(|receive| graph.id(receive))
            .expect("receive vertex");
        assert_eq!(
            graph.vertex(&recv).unwrap().color,
            Color::Red,
            "unacknowledged receive must be red (Lemma 3 case 2)"
        );
        assert!(graph.faulty_nodes().contains(&NodeId(2)));
    }

    #[test]
    fn stale_unacked_send_becomes_red() {
        // Node 1 sends legitimately but no ack ever arrives; after 2·Tprop the
        // send vertex turns red at node 1's next event.
        let delta = TupleDelta::plus(reach(2, 1));
        let msg = Message::delta(NodeId(1), NodeId(2), delta, 10, 1);
        let history = History::from_events(vec![
            Event::new(10, NodeId(1), EventKind::Ins(link(1, 2))),
            Event::new(10, NodeId(1), EventKind::Snd(msg)),
            Event::new(5_000_000, NodeId(1), EventKind::Ins(link(1, 3))),
        ]);
        let graph = builder_for(&[1, 2]).build(&history);
        let send = graph
            .find_send(NodeId(1), NodeId(2), &reach(2, 1), Polarity::Plus, None)
            .map(|send| graph.id(send))
            .expect("send vertex");
        assert_eq!(graph.vertex(&send).unwrap().color, Color::Red);
    }

    #[test]
    fn delete_closes_exist_interval() {
        let history = History::from_events(vec![
            Event::new(10, NodeId(1), EventKind::Ins(link(1, 2))),
            Event::new(90, NodeId(1), EventKind::Del(link(1, 2))),
        ]);
        // Avoid the pending-send red by using a single-node ruleset with no
        // remote heads: register no machine for node 1 (graph only records
        // insert/delete/appear/disappear).
        let mut builder = GraphBuilder::new(1_000_000);
        builder.register_machine(
            NodeId(1),
            Box::new(Engine::new(
                NodeId(1),
                RuleSet::new(vec![Rule::standard(
                    "R1",
                    Atom::new("reach", Term::var("X"), vec![Term::var("Y")]),
                    vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
                    vec![],
                )])
                .unwrap(),
            )),
        );
        let graph = builder.build(&history);
        assert!(graph.faulty_nodes().is_empty());
        let exist = graph
            .vertices()
            .find(|(_, v)| matches!(&v.kind, VertexKind::Exist { tuple, .. } if *tuple == link(1, 2)))
            .map(|(_, v)| v.clone())
            .expect("exist vertex");
        match exist.kind {
            VertexKind::Exist { from, until, .. } => {
                assert_eq!(from, 10);
                assert_eq!(until, Some(90));
            }
            _ => unreachable!(),
        }
        // The derived reach tuple is also underived.
        assert!(graph
            .vertices()
            .any(|(_, v)| matches!(&v.kind, VertexKind::Underive { tuple, .. } if *tuple == reach(1, 2))));
    }

    #[test]
    fn aggregate_provenance_appears_in_graph() {
        // MinCost-style: bestCost derived from the cheapest cost tuple.
        let r1 = Rule::standard(
            "R1",
            Atom::new("cost", Term::var("X"), vec![Term::var("Y"), Term::var("K")]),
            vec![Atom::new("link", Term::var("X"), vec![Term::var("Y"), Term::var("K")])],
            vec![],
        );
        let r3 = Rule::aggregate(
            "R3",
            Atom::new("bestCost", Term::var("X"), vec![Term::var("Y"), Term::var("K")]),
            Atom::new("cost", Term::var("X"), vec![Term::var("Y"), Term::var("K")]),
            AggKind::Min,
            "K",
        );
        let ruleset = RuleSet::new(vec![r1, r3]).unwrap();
        let mut builder = GraphBuilder::new(1_000_000);
        builder.register_machine(NodeId(1), Box::new(Engine::new(NodeId(1), ruleset)));
        let cheap = Tuple::new("link", NodeId(1), vec![Value::node(2u64), Value::Int(3)]);
        let pricey = Tuple::new("link", NodeId(1), vec![Value::node(2u64), Value::Int(9)]);
        let history = History::from_events(vec![
            Event::new(10, NodeId(1), EventKind::Ins(pricey)),
            Event::new(20, NodeId(1), EventKind::Ins(cheap)),
        ]);
        let graph = builder.build(&history);
        // bestCost(…,3) must be derived, and bestCost(…,9) underived at t=20.
        let best3 = Tuple::new("bestCost", NodeId(1), vec![Value::node(2u64), Value::Int(3)]);
        let best9 = Tuple::new("bestCost", NodeId(1), vec![Value::node(2u64), Value::Int(9)]);
        assert!(graph
            .vertices()
            .any(|(_, v)| matches!(&v.kind, VertexKind::Derive { tuple, .. } if *tuple == best3)));
        assert!(graph
            .vertices()
            .any(|(_, v)| matches!(&v.kind, VertexKind::Underive { tuple, .. } if *tuple == best9)));
        assert!(graph.faulty_nodes().is_empty());
    }

    #[test]
    fn extra_message_creates_red_endpoints() {
        let mut builder = builder_for(&[1, 2]);
        let history = correct_history();
        for event in history.events() {
            builder.step(event);
        }
        let extra = Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(reach(2, 9)), 99, 7);
        builder.handle_extra_msg(&extra);
        let graph = builder.finish();
        assert!(graph.faulty_nodes().contains(&NodeId(1)));
    }

    #[test]
    fn checkpoint_seeded_replay_closes_seeded_intervals_without_red() {
        // A suffix replay: the checkpoint recorded link(1,2) (appeared at 40,
        // sealed at 100) and the restored machine already holds it, so the
        // suffix history contains only the later delete.
        let ruleset = RuleSet::new(vec![Rule::standard(
            "R1",
            Atom::new("reach", Term::var("X"), vec![Term::var("Y")]),
            vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
            vec![],
        )])
        .unwrap();
        let mut machine = Engine::new(NodeId(1), ruleset);
        machine.handle(snp_datalog::SmInput::InsertBase(link(1, 2)));
        let mut builder = GraphBuilder::new(1_000_000);
        let reach_tuple = Tuple::new("reach", NodeId(1), vec![Value::node(2u64)]);
        builder.seed_checkpoint(NodeId(1), 100, [(&link(1, 2), 40u64), (&reach_tuple, 40u64)]);
        builder.register_machine(NodeId(1), Box::new(machine));
        let history = History::from_events(vec![Event::new(150, NodeId(1), EventKind::Del(link(1, 2)))]);
        let graph = builder.build(&history);
        assert!(graph.faulty_nodes().is_empty(), "clean suffix must stay clean");
        // The seeded exist interval was closed by the delete.
        let closed = graph.vertices().any(|(_, v)| {
            matches!(&v.kind, VertexKind::Exist { tuple, from, until, .. }
                if *tuple == link(1, 2) && *from == 40 && *until == Some(150))
        });
        assert!(closed, "delete must close the checkpoint-seeded exist interval");
        // The underivation of reach hangs off checkpoint-seeded state, and the
        // explanation of the disappearance bottoms out at checkpoint leaves.
        let disappear = graph
            .vertices()
            .find(|(_, v)| matches!(&v.kind, VertexKind::Disappear { tuple, .. } if *tuple == reach_tuple))
            .map(|(id, _)| *id)
            .expect("reach must be underived");
        let explanation = crate::query::explain(&graph, disappear);
        assert!(crate::query::is_legitimate_explanation(&graph, &explanation));
        let roots = crate::query::root_causes(&graph, &explanation);
        assert!(roots
            .iter()
            .any(|id| matches!(graph.vertex(id).map(|v| &v.kind), Some(VertexKind::Delete { .. }))));
    }

    #[test]
    fn prefix_yields_subgraph_monotonicity() {
        // Theorem 1: G(h1) ⊆* G(h2) when h1 is a prefix of h2.
        let history = correct_history();
        for cut in 1..=history.len() {
            let prefix = history.prefix(cut);
            let g_prefix = builder_for(&[1, 2]).build(&prefix);
            let g_full = builder_for(&[1, 2]).build(&history);
            assert!(
                g_prefix.is_subgraph_of(&g_full),
                "prefix of length {cut} must yield a subgraph"
            );
        }
    }

    #[test]
    fn compositionality_projection_matches_per_node_run() {
        // Theorem 2: G(h | i) = G(h) | i, for the vertex sets hosted on i.
        let history = correct_history();
        let g_full = builder_for(&[1, 2]).build(&history);
        for node in [NodeId(1), NodeId(2)] {
            let g_local = builder_for(&[1, 2]).build(&history.project(node));
            // Every vertex hosted on `node` in the full graph appears in the
            // per-node reconstruction and vice versa.
            for (id, v) in g_full.vertices_on(node) {
                assert!(
                    g_local.contains(id),
                    "full-graph vertex {} missing from per-node run",
                    v.kind
                );
            }
            for (id, v) in g_local.vertices_on(node) {
                assert!(
                    g_full.contains(id),
                    "per-node vertex {} missing from full graph",
                    v.kind
                );
            }
        }
    }
}
