//! Parallel execution of audit plans.
//!
//! [`AuditPool`] executes the [`AuditUnit`]s of an [`super::plan::AuditPlan`]
//! on a scoped `std::thread` worker pool.  Workers pull units off a shared
//! index, audit their node (retrieve → verify → replay → consistency-check),
//! publish the verified record to the shared `AuditCache`, and deposit the
//! outcome into the unit's result slot.  The pool returns outcomes in *plan*
//! order regardless of completion order, and every unit accounts its costs
//! into a private [`QueryStats`] delta, so the querier's merge step is a
//! deterministic fold — the serial path (one worker, no threads spawned)
//! produces byte-identical results and stats.
//!
//! Everything a worker touches is either owned (its expected machine),
//! shared immutably (`KeyRegistry`, the peer-link map), internally
//! synchronized (`SnoopyHandle`'s mutex or the remote peer's RPC client,
//! the sharded cache), or pure
//! (`SegmentVerifier`, `Authenticator::verify`) — per-node evidence is causally
//! disjoint until the graph join, which is what makes the fan-out safe.

use super::cache::{AuditCache, AuditRecord};
use super::plan::AuditUnit;
use super::result::{NodeAudit, QueryStats, SegmentFetch};
use crate::fleet::PeerLink;
use crate::replay;
use snp_crypto::keys::{KeyRegistry, NodeId};
use snp_datalog::StateMachine;
use snp_graph::graph::VertexHandle;
use snp_graph::vertex::{Color, Timestamp, VertexKind};
use snp_graph::ProvenanceGraph;
use snp_log::verifier::SegmentVerifier;
use snp_log::verify_suffix_observing;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A scoped worker pool for audit units.
///
/// `threads == 1` (the default) executes units inline on the calling thread
/// — no threads are spawned, no synchronization happens — which *is* the
/// serial path; higher counts fan units out across that many scoped workers.
#[derive(Clone, Copy, Debug)]
pub struct AuditPool {
    threads: usize,
}

impl Default for AuditPool {
    fn default() -> AuditPool {
        AuditPool::serial()
    }
}

impl AuditPool {
    /// The serial pool: units run inline on the calling thread.
    pub fn serial() -> AuditPool {
        AuditPool { threads: 1 }
    }

    /// A pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> AuditPool {
        AuditPool {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute the planned units and return their outcomes in plan order.
    pub(crate) fn execute(&self, units: Vec<PlannedUnit>, ctx: &AuditContext<'_>) -> Vec<UnitOutcome> {
        let workers = self.threads.min(units.len());
        if workers <= 1 {
            return units.into_iter().map(|unit| run_unit(ctx, unit)).collect();
        }
        let slots: Vec<Mutex<Option<UnitOutcome>>> = units.iter().map(|_| Mutex::new(None)).collect();
        let tasks: Vec<Mutex<Option<PlannedUnit>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(task) = tasks.get(i) else {
                        break;
                    };
                    let unit = task
                        .lock()
                        .expect("audit task slot poisoned")
                        .take()
                        .expect("each unit is claimed exactly once");
                    let outcome = run_unit(ctx, unit);
                    *slots[i].lock().expect("audit result slot poisoned") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("audit result slot poisoned")
                    .expect("every unit was executed")
            })
            .collect()
    }
}

/// Everything a worker needs to audit a node, borrowed from the querier for
/// the duration of one plan execution.
pub(crate) struct AuditContext<'a> {
    /// Certified public keys (assumption 2 of §5.2).
    pub registry: &'a KeyRegistry,
    /// Handles to every node — the unit's own for `retrieve`, the others for
    /// the §5.5 consistency check.
    pub nodes: &'a BTreeMap<NodeId, PeerLink>,
    /// The shared audit cache workers publish verified records to.
    pub cache: &'a AuditCache,
    /// The deployment's propagation bound (graph construction needs it).
    pub t_prop: Timestamp,
}

// Workers share the context by reference across scoped threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<AuditContext<'static>>()
};

/// An [`AuditUnit`] paired with the worker-owned expected machine that will
/// replay it (`None` when the querier has no machine for the node, or when
/// the unit is expected to be served from cache).
pub(crate) struct PlannedUnit {
    pub unit: AuditUnit,
    pub machine: Option<Box<dyn StateMachine>>,
}

/// The result of executing one unit: the (possibly cached) verified record
/// and the stats delta this execution actually incurred (zero on cache
/// hits).
pub(crate) struct UnitOutcome {
    pub node: NodeId,
    pub record: Arc<AuditRecord>,
    pub delta: QueryStats,
}

/// Execute one audit unit: serve it from the shared cache if a previous
/// query already verified this `(node, anchor epoch)` window, otherwise
/// audit the node and publish the record.
pub(crate) fn run_unit(ctx: &AuditContext<'_>, planned: PlannedUnit) -> UnitOutcome {
    let PlannedUnit { unit, machine } = planned;
    if let Some(record) = ctx.cache.get(&(unit.node, unit.anchor_epoch)) {
        return UnitOutcome {
            node: unit.node,
            record,
            delta: QueryStats::default(),
        };
    }
    let mut delta = QueryStats::default();
    let record = audit_uncached(ctx, &unit, machine, &mut delta);
    UnitOutcome {
        node: unit.node,
        record,
        delta,
    }
}

/// Audit a node over the window of `unit`: retrieve + verify + replay +
/// consistency check (§5.5, §5.6).  Pure with respect to the querier — all
/// accounting goes to `stats`, and the verified record is published to the
/// cache under the anchor epoch the response actually used.
fn audit_uncached(
    ctx: &AuditContext<'_>,
    unit: &AuditUnit,
    machine: Option<Box<dyn StateMachine>>,
    stats: &mut QueryStats,
) -> Arc<AuditRecord> {
    let node = unit.node;
    let anchor_hint = unit.anchor_epoch;
    stats.audits += 1;
    let mut notes = Vec::new();
    let fail = |color: Color, notes: Vec<String>| NodeAudit {
        node,
        color,
        notes,
        anchor_epoch: anchor_hint,
        replayed_entries: 0,
    };
    let publish = |audit: NodeAudit, graph: ProvenanceGraph| {
        let key = (node, audit.anchor_epoch);
        let record = Arc::new(AuditRecord { graph, audit });
        ctx.cache.insert(key, record.clone());
        record
    };
    let Some(handle) = ctx.nodes.get(&node) else {
        return publish(
            fail(Color::Yellow, vec!["node unknown to querier".into()]),
            ProvenanceGraph::new(),
        );
    };

    // retrieve(v, a): ask the node for its anchoring checkpoint, the log
    // suffix after it, and an authenticator.
    let Some(response) = handle.retrieve_anchored(unit.at) else {
        // A node with an empty log has nothing to retrieve; that is not
        // suspicious by itself.
        let audit = if handle.log_total_appended() == 0 {
            fail(Color::Black, vec!["empty log".into()])
        } else {
            // No response: everything hosted here stays yellow (§4.2,
            // fourth limitation).
            fail(Color::Yellow, vec!["node did not respond to retrieve".into()])
        };
        return publish(audit, ProvenanceGraph::new());
    };
    let anchor_epoch = response.anchor.as_ref().map(|(cp, _)| cp.epoch);
    for segment in &response.segments {
        let bytes = segment.download_size() as u64;
        stats.log_bytes += bytes;
        stats.segments_fetched += 1;
        stats.segment_bytes.push(SegmentFetch {
            node,
            epoch: segment.epoch,
            bytes,
        });
    }
    stats.authenticator_bytes += response.auth.wire_size() as u64;
    if let Some((checkpoint, snapshot)) = &response.anchor {
        stats.checkpoint_bytes += checkpoint.storage_size() as u64;
        stats.snapshot_bytes += snapshot.len() as u64;
    }
    if let Some(link) = &response.anchor_link {
        let bytes = link.segment.download_size() as u64;
        stats.log_bytes += bytes;
        stats.segments_fetched += 1;
        stats.segment_bytes.push(SegmentFetch {
            node,
            epoch: link.segment.epoch,
            bytes,
        });
        if let Some((prev, prev_snapshot)) = &link.prev {
            stats.checkpoint_bytes += prev.storage_size() as u64;
            stats.snapshot_bytes += prev_snapshot.len() as u64;
        }
    }

    // Verify the anchoring checkpoint and the suffix chain against the
    // authenticator.
    let auth_started = Instant::now();
    let verifier = ctx.registry.public_key(node).map(|pk| SegmentVerifier::new(node, pk));
    let mut color = Color::Black;
    let (anchor_seq, anchor_head) = match (&response.anchor, &verifier) {
        (_, None) => {
            notes.push("no certified public key for node".into());
            color = Color::Red;
            (0, snp_crypto::Digest::ZERO)
        }
        (Some((checkpoint, snapshot)), Some(verifier)) => {
            if let Err(reason) = verifier.verify_checkpoint(checkpoint, snapshot) {
                notes.push(reason);
                color = Color::Red;
            }
            (checkpoint.at_seq, checkpoint.chain_head)
        }
        (None, _) => {
            // Genesis replay: sound only if the suffix really starts at
            // sequence zero (a node cannot silently truncate without
            // presenting a signed checkpoint to anchor on).
            if response.segments.first().map(|s| s.base_seq) != Some(0) {
                notes.push("log truncated without a checkpoint anchor".into());
                color = Color::Red;
            }
            (0, snp_crypto::Digest::ZERO)
        }
    };
    // The chain head after every suffix entry, from the one walk that
    // verifies the suffix; the consistency check below compares peer-held
    // authenticators with them.
    let mut suffix_heads: Vec<snp_crypto::Digest> = Vec::new();
    if color == Color::Black {
        let verifier = verifier.as_ref().expect("checked above");
        if let Err(reason) = verify_suffix_observing(
            &response.segments,
            anchor_seq,
            anchor_head,
            &response.auth,
            &verifier.public,
            |_, head| suffix_heads.push(head),
        ) {
            notes.push(format!("log verification failed: {reason}"));
            color = Color::Red;
        }
    }

    // Cross-check the anchoring checkpoint against the previous one: the
    // two signed chain heads pin the linking epoch's entries, so a forged
    // checkpoint state cannot be reproduced from them.  This widens the
    // verified-heads window back one epoch.  An anchor *without* a link
    // cannot be cross-checked — legitimate at the truncation horizon, but
    // also exactly what a node hiding forged state would claim — so the
    // audit is downgraded to Yellow (suspect, never implicating) instead
    // of silently trusting the self-signed anchor.
    let mut window_start = (anchor_seq, anchor_head);
    let mut heads: Vec<snp_crypto::Digest> = Vec::new();
    let mut linked_machine = None;
    if color == Color::Black {
        match (&response.anchor, &response.anchor_link, &verifier) {
            (Some((anchor_cp, _)), Some(link), Some(verifier)) => {
                match verify_anchor_link(verifier, machine.as_deref(), anchor_cp, link) {
                    Ok(linked) => {
                        window_start = linked.start;
                        heads = linked.heads;
                        linked_machine = linked.machine;
                    }
                    Err(reason) => {
                        notes.push(reason);
                        color = Color::Red;
                    }
                }
            }
            (Some(_), None, _) => {
                notes.push("checkpoint could not be cross-checked (linking epoch not served)".into());
                color = Color::Yellow;
            }
            _ => {}
        }
    }
    stats.auth_check_seconds += auth_started.elapsed().as_secs_f64();

    // Consistency check (§5.5): compare the retrieved history against
    // authenticators other nodes hold from this node.  Following the
    // paper, the check covers the *interval of interest* — here the
    // verified window (linking epoch + suffix).  Authenticators covering
    // older seqs are deliberately out of scope for this audit: they are
    // checked by whichever audit's window contains them (historical
    // queries via `audit_at`, the widening retry, or a full-history
    // `audit_at(node, Some(0))` while the log is untruncated).
    let consistency_started = Instant::now();
    if color == Color::Black {
        let verifier = verifier.as_ref().expect("checked above");
        // Heads over the verified window, one per entry from
        // `window_start.0` on: the linking epoch's, from the walk that
        // verified the link, then the suffix's.
        heads.append(&mut suffix_heads);
        let head_at = |seq: u64| {
            let offset = usize::try_from(seq.checked_sub(window_start.0)?).ok()?;
            heads.get(offset)
        };
        // Every peer-held authenticator for this node (deterministic order:
        // peers ascending, insertion order within a peer) is downloaded; the
        // first one that is in the window, disagrees with the verified head
        // at its seq and is validly signed convicts.  The signature is
        // checked last: an authenticator that is out of the window or agrees
        // with the chain changes nothing whether or not it verifies, and one
        // that does not verify is no evidence against this node (anyone
        // could have fabricated it).
        let mut offender = None;
        for (peer_id, peer) in ctx.nodes {
            if *peer_id == node {
                continue;
            }
            for peer_auth in peer.authenticators_from(node) {
                stats.authenticator_bytes += peer_auth.wire_size() as u64;
                if offender.is_none()
                    && peer_auth.seq >= window_start.0
                    && head_at(peer_auth.seq) != Some(&peer_auth.head)
                    && peer_auth.verify(&verifier.public)
                {
                    offender = Some((*peer_id, peer_auth.seq));
                }
            }
        }
        if let Some((peer_id, seq)) = offender {
            notes.push(format!(
                "log is inconsistent with an authenticator held by {peer_id} (seq {seq})"
            ));
            color = Color::Red;
        }
    }
    stats.auth_check_seconds += consistency_started.elapsed().as_secs_f64();

    // Deterministic replay through the worker's own expected machine, in
    // the state the anchor committed to: the machine the linking replay
    // left there, else one restored from the (digest-verified) snapshot.
    // The linking machine's snapshot hashed to the anchor's signed
    // `state_digest`, and so did the anchor snapshot, so the two hold the
    // same bytes, and restoring a snapshot yields the machine that took it.
    // Skipped when the evidence already failed verification: the graph
    // would not be trustworthy and the node is red regardless.
    let replay_started = Instant::now();
    let mut replayed_entries = 0u64;
    let graph = match (machine, color) {
        (Some(machine), Color::Black) => {
            let restored = match (linked_machine, &response.anchor) {
                (Some(linked), _) => Ok(linked),
                (None, Some((_, snapshot))) => machine.restore(snapshot),
                (None, None) => Ok(machine),
            };
            match restored {
                Ok(machine) => {
                    replayed_entries = response.entry_count() as u64;
                    stats.replayed_entries += replayed_entries;
                    stats.skipped_entries += anchor_seq;
                    // Count only the suffix's rule work: a linked machine
                    // already carries the linking epoch's.
                    let before = machine.eval_metrics();
                    let (graph, metrics) = replay::replay_suffix_traced(
                        node,
                        response.anchor.as_ref().map(|(cp, _)| cp),
                        machine,
                        &response.segments,
                        ctx.t_prop,
                    );
                    for (id, eval) in &metrics.since(&before).rules {
                        stats.rule_evals.entry(id.clone()).or_default().merge(eval);
                    }
                    graph
                }
                Err(reason) => {
                    notes.push(format!("state snapshot rejected: {reason}"));
                    color = Color::Red;
                    ProvenanceGraph::new()
                }
            }
        }
        _ => ProvenanceGraph::new(),
    };
    stats.replay_seconds += replay_started.elapsed().as_secs_f64();

    // Excuse missing acks that the node reported to the maintainer (§5.4):
    // those sends are a known link problem, not forensic evidence.
    let mut graph = graph;
    let excused: Vec<VertexHandle> = if handle.maintainer_notified() {
        graph
            .vertices()
            .filter(|(_, v)| v.color == Color::Red && matches!(v.kind, VertexKind::Send { .. }) && v.host() == node)
            .filter_map(|(id, _)| graph.handle(id))
            .collect()
    } else {
        Vec::new()
    };
    for vertex in excused {
        graph.force_color(vertex, Color::Black);
        notes.push("missing ack excused by maintainer notification".into());
    }

    if color == Color::Black && graph.faulty_nodes().contains(&node) {
        notes.push("replay revealed misbehavior (red vertices)".into());
        color = Color::Red;
    }

    publish(
        NodeAudit {
            node,
            color,
            notes,
            anchor_epoch,
            replayed_entries,
        },
        graph,
    )
}

/// What a verified anchor link hands on to the rest of the audit.
struct LinkedWindow {
    /// The `(seq, head)` the verified window now starts at.
    start: (u64, snp_crypto::Digest),
    /// The chain head after every entry of the linking segment.
    heads: Vec<snp_crypto::Digest>,
    /// The expected machine after the linking replay, whose snapshot hashed
    /// to the anchor's `state_digest`; `None` when there is no expected
    /// machine or it takes no snapshots.
    machine: Option<Box<dyn StateMachine>>,
}

/// Verify an anchor link (§5.6): the previous checkpoint must be validly
/// signed with a matching snapshot, the linking segment must chain exactly
/// from its head to the anchor's head over `prev.at_seq..anchor.at_seq`, and
/// replaying the segment's *inputs* through the expected machine restored
/// from the previous snapshot must reproduce the state digest the anchor
/// committed to.
fn verify_anchor_link(
    verifier: &SegmentVerifier,
    expected: Option<&dyn StateMachine>,
    anchor: &snp_log::Checkpoint,
    link: &crate::node::AnchorLink,
) -> Result<LinkedWindow, String> {
    let (start_seq, start_head, machine) = match &link.prev {
        Some((prev, prev_snapshot)) => {
            if prev.epoch + 1 != anchor.epoch {
                return Err("anchor link: previous checkpoint invalid".into());
            }
            verifier
                .verify_checkpoint(prev, prev_snapshot)
                .map_err(|e| format!("anchor link: {e}"))?;
            let machine = match expected {
                Some(m) => Some(m.restore(prev_snapshot).map_err(|e| format!("anchor link: {e}"))?),
                None => None,
            };
            (prev.at_seq, prev.chain_head, machine)
        }
        None => {
            if anchor.epoch != 0 {
                return Err("anchor link: previous checkpoint missing".into());
            }
            (0, snp_crypto::Digest::ZERO, expected.map(|m| m.fresh()))
        }
    };
    let mut heads = Vec::with_capacity(link.segment.entries.len());
    let (seq, head) = verifier
        .chain_span(std::slice::from_ref(&link.segment), start_seq, start_head, |_, head| {
            heads.push(head)
        })
        .map_err(|e| format!("anchor link: {e}"))?;
    if seq != anchor.at_seq || head != anchor.chain_head {
        return Err("anchor link: segment does not chain to the anchor head".into());
    }
    let machine = match machine {
        Some(mut machine) => {
            replay::apply_inputs(machine.as_mut(), &link.segment.entries);
            match machine.snapshot() {
                Some(snapshot) if snp_crypto::hash(&snapshot) != anchor.state_digest => {
                    return Err("anchor link: checkpoint state is not reproducible from the previous epoch".into());
                }
                Some(_) => Some(machine),
                None => None,
            }
        }
        None => None,
    };
    Ok(LinkedWindow {
        start: (start_seq, start_head),
        heads,
        machine,
    })
}
