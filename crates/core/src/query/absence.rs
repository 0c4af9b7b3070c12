//! The negative macroquery processor: `why_absent` / `why_vanished`.
//!
//! Positive queries anchor at a vertex the audited node's replay produced;
//! negative queries have no such vertex — the whole point is that nothing
//! happened.  Instead the querier *synthesizes* an `absence` root after
//! verifying, from the node's replayed insertion/deletion intervals, that no
//! tuple matching the queried pattern was visible at the instant of
//! interest, and then explains the absence:
//!
//! * If the tuple once existed, the `disappear` event that ended its last
//!   existence interval becomes the absence's predecessor — `why_absent`
//!   degenerates into `why_disappeared`, and the ordinary positive machinery
//!   explains the rest (the positive/negative duality).
//! * Otherwise the node's *expected* machine enumerates, over the known
//!   constant domain, every rule instantiation that could have derived a
//!   matching tuple ([`snp_datalog::absence`]), and each first missing or
//!   failed precondition becomes a `missing-precondition` vertex.
//! * When the missing precondition is a message that was never received, the
//!   querier audits each candidate sender — as ordinary
//!   [`super::plan::AuditUnit`]s through the shared [`super::exec::AuditPool`],
//!   so serial and parallel runs stay byte-identical.  A sender that logged a
//!   send it never delivered contributes its red `send` vertex (signed
//!   evidence of lying by omission); a sender that refuses the audit stays
//!   yellow and suspect; a clean sender recurses — why didn't *it* derive the
//!   tuple? — until the explanation bottoms out at a base-tuple absence.
//!
//! Everything is driven in deterministic order (BFS over a `BTreeSet`-backed
//! visited set, senders ascending, outcomes merged in plan order), so the
//! result is byte-identical across `SNP_QUERY_THREADS` settings, like every
//! other query class.

use super::result::{diff_stats, StatsMark};
use super::{NodeAudit, Querier, QueryResult};
use snp_crypto::keys::NodeId;
use snp_datalog::{AbsenceWitness, Polarity, Tuple};
use snp_graph::graph::VertexHandle;
use snp_graph::query::Direction;
use snp_graph::vertex::{Color, Timestamp, Vertex, VertexKind};
use snp_graph::ProvenanceGraph;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An absence claim scheduled for expansion: the synthesized `absence`
/// vertex (in the merged graph), the node and pattern it is about, and its
/// recursion depth.
struct AbsenceClaim {
    vertex: VertexHandle,
    node: NodeId,
    pattern: Tuple,
    depth: usize,
}

/// Recursion ceiling for absence expansion.  The `(node, pattern)` visited
/// set already bounds the work; the ceiling is a backstop against
/// pathological machine-supplied witness chains.
const MAX_ABSENCE_DEPTH: usize = 32;

impl Querier {
    /// Run a negative macroquery.  `window` anchors the audits (`None` = the
    /// latest checkpoint, `Some(t)` = the checkpoint at-or-before `t` — the
    /// widening retry passes `Some(0)` for the widest retained window);
    /// `at` is the *instant of interest*: `None` asks about "now" (the end
    /// of the verified window), `Some(t)` is the historical form, answered
    /// from the replayed insertion/deletion intervals covering `t`.  The
    /// two are distinct on purpose — `why_vanished`'s widening audits from
    /// genesis while still asking about now.  With `vanished_only`, the
    /// query only anchors when the tuple verifiably existed and then
    /// disappeared (`why_vanished`); a tuple that never existed yields no
    /// root.
    pub(super) fn run_negative_query(
        &mut self,
        pattern: Tuple,
        host: NodeId,
        window: Option<Timestamp>,
        at: Option<Timestamp>,
        scope: Option<usize>,
        vanished_only: bool,
    ) -> QueryResult {
        let stats_before = StatsMark::of(&self.stats);
        let host_record = self.record_at(host, window);
        let mut merged = host_record.graph.clone();
        let mut audits: BTreeMap<NodeId, NodeAudit> = BTreeMap::new();
        audits.insert(host, host_record.audit.clone());

        let no_root = |querier: &Querier, merged: ProvenanceGraph, audits| {
            let delta = diff_stats(&querier.stats, &stats_before);
            QueryResult {
                root: None,
                graph: merged,
                traversal: None,
                audits,
                stats: delta,
            }
        };

        // The instant of interest: the queried time, or the host's verified
        // horizon for "now" — a deterministic function of the evidence, so
        // synthesized vertex identities match across worker counts.
        let t_q = at.unwrap_or_else(|| host_record.graph.horizon());

        // Presence test from the replayed intervals: a tuple that is (or at
        // `t` was) visible is not absent, and there is nothing to explain.
        if merged.existence_matching(host, &pattern, at).is_some() {
            return no_root(self, merged, audits);
        }
        if vanished_only
            && host_record
                .graph
                .latest_disappearance_matching(host, &pattern, t_q)
                .is_none()
        {
            // Nothing ever vanished: either the tuple never existed here, or
            // the disappearance lies before the audited window.
            return no_root(self, merged, audits);
        }

        let root = merged.upsert(Vertex::new(
            VertexKind::Absence {
                node: host,
                tuple: pattern.clone(),
                time: t_q,
            },
            audit_color(&host_record.audit),
        ));

        // --- negative expansion: BFS over absence claims -------------------
        let mut visited: BTreeSet<(NodeId, Tuple)> = BTreeSet::new();
        visited.insert((host, pattern.clone()));
        let mut queue: VecDeque<AbsenceClaim> = VecDeque::new();
        queue.push_back(AbsenceClaim {
            vertex: root,
            node: host,
            pattern,
            depth: 0,
        });

        while let Some(claim) = queue.pop_front() {
            let record = self.record_at(claim.node, window);
            // A node enters `audits` exactly when its record graph enters
            // `merged` (here, below, and in `expand_traversal`), and the
            // union is idempotent: later claims on the same node skip it.
            if audits.insert(claim.node, record.audit.clone()).is_none() {
                merged.union_in_place(&record.graph);
            }
            if record.audit.color != Color::Black {
                // Nothing this node reports can be trusted; the claim stays
                // unexpanded and carries the audit verdict.
                merged.set_color(claim.vertex, audit_color(&record.audit));
                continue;
            }

            // Duality: if the tuple existed and vanished, the disappearance
            // (and through it, the ordinary positive provenance of the
            // deletion) explains the absence.
            if let Some((disappear, d_time)) =
                record
                    .graph
                    .latest_disappearance_matching(claim.node, &claim.pattern, t_q)
            {
                if !record
                    .graph
                    .appearance_matching_in(claim.node, &claim.pattern, d_time, t_q)
                {
                    if let Some(disappear) = merged.handle(&disappear) {
                        merged.add_edge(disappear, claim.vertex);
                    }
                    continue;
                }
            }

            // The tuple never appeared in the verified window: ask the
            // node's *expected* machine why it could not have been derived
            // from the state the replay reconstructed.
            let Some(expected) = self.expected.get(&claim.node) else {
                continue;
            };
            let machine = expected.instantiate();
            let present = record.graph.present_tuples_at(claim.node, at);
            let peers: Vec<NodeId> = self.nodes.keys().copied().collect();
            let witnesses = machine.absence_of(&claim.pattern, &present, &peers);
            drop(machine);

            for witness in witnesses {
                match witness {
                    AbsenceWitness::NoBaseInsertion => {
                        // A base tuple that was never inserted: the absence
                        // vertex is a legitimate leaf.
                    }
                    AbsenceWitness::Derivable { .. } => {
                        // The machine claims the pattern should be derivable
                        // from the verified state, yet no matching tuple is
                        // visible.  Domain-level absence logic can be coarser
                        // than the machine itself, so this is marked suspect
                        // (yellow) rather than implicating (red) — accuracy
                        // over completeness.
                        merged.set_color(claim.vertex, Color::Yellow);
                    }
                    AbsenceWitness::ConstraintFailed { rule } => {
                        // A constraint or policy legitimately filtered the
                        // derivation: a verified leaf precondition.
                        let mp = merged.upsert(Vertex::new(
                            VertexKind::MissingPrecondition {
                                node: claim.node,
                                tuple: claim.pattern.clone(),
                                rule: Some(rule),
                                peer: None,
                                time: t_q,
                            },
                            Color::Black,
                        ));
                        merged.add_edge(mp, claim.vertex);
                    }
                    AbsenceWitness::MissingLocal { rule, missing } => {
                        let mp = merged.upsert(Vertex::new(
                            VertexKind::MissingPrecondition {
                                node: claim.node,
                                tuple: missing.clone(),
                                rule: Some(rule),
                                peer: None,
                                time: t_q,
                            },
                            Color::Black,
                        ));
                        merged.add_edge(mp, claim.vertex);
                        self.enqueue_absence(
                            &mut merged,
                            &mut visited,
                            &mut queue,
                            claim.node,
                            missing,
                            mp,
                            claim.depth + 1,
                            t_q,
                        );
                    }
                    AbsenceWitness::NeverReceived { rule, tuple, senders } => {
                        let senders: Vec<NodeId> = senders.into_iter().filter(|s| *s != claim.node).collect();
                        // Audit every candidate sender as one plan: the pool
                        // fans the units out and returns them in plan order.
                        let unaudited: Vec<NodeId> =
                            senders.iter().copied().filter(|s| !audits.contains_key(s)).collect();
                        if !unaudited.is_empty() {
                            for outcome in self.execute_plan(unaudited, window) {
                                merged.union_in_place(&outcome.record.graph);
                                audits.insert(outcome.node, outcome.record.audit.clone());
                            }
                        }
                        for sender in senders {
                            let mp = merged.upsert(Vertex::new(
                                VertexKind::MissingPrecondition {
                                    node: claim.node,
                                    tuple: tuple.clone(),
                                    rule: Some(rule.clone()),
                                    peer: Some(sender),
                                    time: t_q,
                                },
                                Color::Black,
                            ));
                            merged.add_edge(mp, claim.vertex);
                            let sender_record = self.record_at(sender, window);
                            audits.insert(sender, sender_record.audit.clone());
                            let send =
                                sender_record
                                    .graph
                                    .find_send_matching(sender, claim.node, &tuple, Polarity::Plus);
                            if let Some(send) = send.and_then(|id| merged.handle(&id)) {
                                // The sender logged (or its expected machine
                                // produced) a send the receiver never saw —
                                // the red send vertex is the signed evidence
                                // of the withheld delivery.
                                merged.add_edge(send, mp);
                            }
                            if sender_record.audit.color != Color::Black {
                                // Refused or failed audit: the sender's own
                                // verdict (recorded in `audits`, plus any red
                                // send evidence linked above) carries the
                                // suspicion — the mp vertex stays black, as
                                // it is hosted on the *claiming* node, whose
                                // log verified cleanly.
                                continue;
                            }
                            if send.is_some() {
                                continue;
                            }
                            self.enqueue_absence(
                                &mut merged,
                                &mut visited,
                                &mut queue,
                                sender,
                                tuple.clone(),
                                mp,
                                claim.depth + 1,
                                t_q,
                            );
                        }
                    }
                }
            }
        }

        // --- positive expansion -------------------------------------------
        // The negative skeleton hangs off positive vertices (disappearances,
        // red sends) whose own provenance may implicate nodes not audited
        // yet; run the ordinary macroquery expansion waves to fixpoint.
        let root = merged.id(root);
        let traversal = self.expand_traversal(&mut merged, root, Direction::Causes, scope, window, &mut audits);

        let delta = diff_stats(&self.stats, &stats_before);
        QueryResult {
            root: Some(root),
            graph: merged,
            traversal: Some(traversal),
            audits,
            stats: delta,
        }
    }

    /// Synthesize a child `absence` vertex under a `missing-precondition`
    /// and schedule it for expansion, unless the claim was already expanded
    /// or the recursion ceiling is reached.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_absence(
        &mut self,
        merged: &mut ProvenanceGraph,
        visited: &mut BTreeSet<(NodeId, Tuple)>,
        queue: &mut VecDeque<AbsenceClaim>,
        node: NodeId,
        pattern: Tuple,
        parent: VertexHandle,
        depth: usize,
        t_q: Timestamp,
    ) {
        let vertex = merged.upsert(Vertex::new(
            VertexKind::Absence {
                node,
                tuple: pattern.clone(),
                time: t_q,
            },
            Color::Black,
        ));
        merged.add_edge(vertex, parent);
        if depth >= MAX_ABSENCE_DEPTH || !visited.insert((node, pattern.clone())) {
            return;
        }
        queue.push_back(AbsenceClaim {
            vertex,
            node,
            pattern,
            depth,
        });
    }
}

/// Map an audit verdict onto the color of a synthesized negative vertex.
fn audit_color(audit: &NodeAudit) -> Color {
    audit.color
}
