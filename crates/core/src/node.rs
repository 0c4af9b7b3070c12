//! The SNooPy node: primary system + graph recorder + commitment protocol.
//!
//! A [`SnoopyNode`] wraps the node's primary-system state machine (§5.3's
//! provenance extraction happens inside that machine) and adds the provenance
//! system of Figure 3: every base-tuple change and every message is recorded
//! in the tamper-evident log, outgoing messages carry authenticators, and
//! incoming messages are acknowledged.  The node also answers `retrieve`
//! requests from queriers.
//!
//! The same type runs the *baseline* configuration of Figures 5 and 9 (no
//! log, no authenticators, no acks) when constructed with
//! [`SnoopyNode::baseline`], so that overhead comparisons use identical
//! application logic.

use crate::fault::{AdversaryAction, ByzantineConfig};
use crate::wire::SnoopyWire;
use snp_crypto::counters;
use snp_crypto::keys::{KeyPair, KeyRegistry, NodeId};
use snp_crypto::{Digest, HashChain};
use snp_datalog::{SmInput, SmOutput, StateMachine, Tuple, TupleDelta};
use snp_graph::history::Message;
use snp_graph::vertex::Timestamp;
use snp_log::checkpoint::CheckpointEntry;
use snp_log::entry::EntryKind;
use snp_log::log::LogSegment;
use snp_log::{
    Authenticator, AuthenticatorSet, Checkpoint, MessageBatcher, RecoveryReport, SecureLog, SegmentStore, StoreError,
};
use snp_sim::{Context, SimNode, SimTime, TimerId};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::sync::Mutex;

/// Pseudo node id used as the "from" of operator / workload commands.
pub const OPERATOR: NodeId = NodeId(u64::MAX);

/// Timer used to seal log epochs (periodic checkpoints, §5.6).
const TIMER_EPOCH: TimerId = TimerId(1);
/// Timer used to check for missing acknowledgments (2·Tprop sweep).
const TIMER_ACK_SWEEP: TimerId = TimerId(2);
/// Timer used to close §5.6 batching windows (`Tbatch` flush deadlines).
const TIMER_BATCH_FLUSH: TimerId = TimerId(3);

/// A node's answer to an anchored `retrieve` (§5.4 + §5.6): the checkpoint to
/// anchor on (with the state snapshot it committed to), the suffix of sealed
/// segments after it plus the active segment, and a fresh authenticator over
/// the log head.  `anchor` is `None` when replay should start from genesis.
#[derive(Clone, Debug)]
pub struct RetrieveResponse {
    /// The anchoring checkpoint and its state snapshot.
    pub anchor: Option<(Checkpoint, Vec<u8>)>,
    /// Evidence that the anchoring checkpoint's state is *reproducible*:
    /// the previous checkpoint (with its snapshot) and the anchor epoch's
    /// own segment, whose entries are pinned between the two signed chain
    /// heads.  Present whenever the node still retains them; absent for a
    /// genesis replay or when the linking epoch was truncated.
    pub anchor_link: Option<AnchorLink>,
    /// The suffix segments, oldest first (the last one is the active epoch).
    pub segments: Vec<LogSegment>,
    /// Authenticator covering the log head.
    pub auth: Authenticator,
}

/// The chain link a querier uses to cross-check an anchoring checkpoint
/// instead of trusting the node's self-signed state claim: restore the
/// previous checkpoint's snapshot (or a fresh machine at genesis), replay
/// the linking segment's inputs, and compare the resulting state digest with
/// the one the anchor committed to.
#[derive(Clone, Debug)]
pub struct AnchorLink {
    /// The checkpoint sealing the epoch before the anchor, with its state
    /// snapshot; `None` when the anchor seals epoch 0 (link from genesis).
    pub prev: Option<(Checkpoint, Vec<u8>)>,
    /// The anchor epoch's sealed segment.
    pub segment: LogSegment,
}

impl RetrieveResponse {
    /// Total entries across the returned suffix segments.
    pub fn entry_count(&self) -> usize {
        self.segments.iter().map(|s| s.entries.len()).sum()
    }
}

/// Per-node traffic counters, split the way Figure 5 stacks its bars.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Bytes the unmodified primary system would have sent (tuple payloads).
    pub baseline_bytes: u64,
    /// Extra bytes added by an application proxy re-encoding (BGP only).
    pub proxy_bytes: u64,
    /// Per-message provenance metadata (timestamps, reference counts).
    pub provenance_bytes: u64,
    /// Authenticators attached to outgoing data messages.
    pub authenticator_bytes: u64,
    /// Acknowledgment packets.
    pub ack_bytes: u64,
    /// Number of data messages sent.
    pub data_messages: u64,
    /// Number of acknowledgments sent.
    pub ack_messages: u64,
    /// Number of §5.6 batch packets sent (0 when the batching window is 0).
    pub batch_messages: u64,
    /// Signature generations for *per-message* authenticators (the unbatched
    /// commitment path: one per data message sent, one per eager ack).
    pub message_signatures: u64,
    /// Signature generations for *per-batch* authenticators (the §5.6
    /// batched commitment path: one per flushed window, however many
    /// messages and piggybacked acks it carries).
    pub batch_signatures: u64,
}

impl NodeTraffic {
    /// Total bytes sent by the node.
    pub fn total(&self) -> u64 {
        self.baseline_bytes + self.proxy_bytes + self.provenance_bytes + self.authenticator_bytes + self.ack_bytes
    }

    /// Signature generations on the commitment path, regardless of whether
    /// they were spent per message or amortized per batch.
    pub fn commitment_signatures(&self) -> u64 {
        self.message_signatures + self.batch_signatures
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &NodeTraffic) {
        self.baseline_bytes += other.baseline_bytes;
        self.proxy_bytes += other.proxy_bytes;
        self.provenance_bytes += other.provenance_bytes;
        self.authenticator_bytes += other.authenticator_bytes;
        self.ack_bytes += other.ack_bytes;
        self.data_messages += other.data_messages;
        self.ack_messages += other.ack_messages;
        self.batch_messages += other.batch_messages;
        self.message_signatures += other.message_signatures;
        self.batch_signatures += other.batch_signatures;
    }
}

/// A SNooPy node (Figure 3: application, graph recorder, microquery module).
pub struct SnoopyNode {
    id: NodeId,
    keys: KeyPair,
    registry: KeyRegistry,
    app: Box<dyn StateMachine>,
    log: SecureLog,
    auths: AuthenticatorSet,
    /// The §5.6 outgoing-message batcher: tuple notifications *and*
    /// piggybacked acknowledgments queue here per destination and flush as
    /// one wire packet with one amortized authenticator.  A window of 0
    /// (the default) keeps the classic one-signature-per-message path.
    batcher: MessageBatcher<Message>,
    /// Seal a log epoch every this many microseconds (§5.6's checkpoint
    /// cadence); `None` disables sealing.
    epoch_length: Option<Timestamp>,
    seq: u64,
    /// Messages sent but not yet acknowledged: (message, digest, sent_at).
    unacked: Vec<(Message, Digest, Timestamp)>,
    /// Messages whose missing acknowledgment was reported to the maintainer.
    maintainer_notified: BTreeSet<Digest>,
    /// Whether SNP machinery is enabled (false = baseline configuration).
    secure: bool,
    /// Extra bytes charged per outgoing message for application proxies
    /// (the Quagga proxy of §6.3).
    pub proxy_overhead_per_message: usize,
    byz: ByzantineConfig,
    traffic: NodeTraffic,
    t_prop: Timestamp,
}

// Manual impl: the application machine is a trait object without `Debug`.
impl std::fmt::Debug for SnoopyNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnoopyNode")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl SnoopyNode {
    /// Create a SNooPy-enabled node.
    pub fn new(id: NodeId, app: Box<dyn StateMachine>, registry: KeyRegistry, t_prop: Timestamp) -> SnoopyNode {
        let keys = KeyPair::for_node(id);
        SnoopyNode {
            id,
            log: SecureLog::new(keys.clone()),
            keys,
            registry,
            app,
            auths: AuthenticatorSet::new(),
            batcher: MessageBatcher::new(0),
            epoch_length: None,
            seq: 0,
            unacked: Vec::new(),
            maintainer_notified: BTreeSet::new(),
            secure: true,
            proxy_overhead_per_message: 0,
            byz: ByzantineConfig::honest(),
            traffic: NodeTraffic::default(),
            t_prop,
        }
    }

    /// Create a baseline node: same application, no SNP machinery.
    pub fn baseline(id: NodeId, app: Box<dyn StateMachine>) -> SnoopyNode {
        let mut node = SnoopyNode::new(id, app, KeyRegistry::default(), 1);
        node.secure = false;
        node
    }

    /// Attach a durable segment store (fleet mode).  Must be called before
    /// the node appends anything; returns `false` otherwise.
    pub fn attach_store(&mut self, store: Box<dyn SegmentStore>) -> bool {
        self.log.attach_store(store)
    }

    /// Resume a node from its durable store after a crash or restart:
    /// reopen the log at the last sealed checkpoint (verifying signatures,
    /// Merkle roots, snapshot digests and hash chains when `verify` is on)
    /// and restore the application from that checkpoint's state snapshot.
    /// Unsealed tail entries are reported lost in the [`RecoveryReport`] —
    /// they were never committed to an authenticator the querier anchors
    /// on.  In-flight protocol state (unacked sends, peer authenticators)
    /// is *not* durable; peers retransmit per Assumption 1.
    pub fn resume(
        id: NodeId,
        app: Box<dyn StateMachine>,
        registry: KeyRegistry,
        t_prop: Timestamp,
        store: Box<dyn SegmentStore>,
        verify: bool,
    ) -> Result<(SnoopyNode, RecoveryReport), StoreError> {
        let keys = KeyPair::for_node(id);
        let (log, report) = SecureLog::reopen(keys.clone(), store, verify)?;
        let app = match log.latest_checkpoint().map(|cp| cp.epoch) {
            Some(epoch) => match log.snapshot_for(epoch) {
                Some(snapshot) => app.restore(snapshot).map_err(|detail| StoreError::Corrupt {
                    path: std::path::PathBuf::from(format!("checkpoint snapshot (epoch {epoch})")),
                    detail,
                })?,
                // The machine did not support snapshots when the epoch was
                // sealed; resume with the fresh state it would replay from.
                None => app,
            },
            None => app,
        };
        // Message sequence numbers restart above anything the log committed
        // (the log sequence is a monotone upper bound on messages sent).
        let seq = log.total_appended();
        let node = SnoopyNode {
            id,
            keys,
            registry,
            app,
            log,
            auths: AuthenticatorSet::new(),
            batcher: MessageBatcher::new(0),
            epoch_length: None,
            seq,
            unacked: Vec::new(),
            maintainer_notified: BTreeSet::new(),
            secure: true,
            proxy_overhead_per_message: 0,
            byz: ByzantineConfig::honest(),
            traffic: NodeTraffic::default(),
            t_prop,
        };
        Ok((node, report))
    }

    /// Configure Byzantine behaviour for this node.
    pub fn set_byzantine(&mut self, config: ByzantineConfig) {
        self.byz = config;
    }

    /// The currently configured Byzantine behaviour.
    pub fn byzantine_config(&self) -> &ByzantineConfig {
        &self.byz
    }

    /// Seal a log epoch (closing it with a checkpoint) every `interval`
    /// microseconds (§5.6).
    pub fn set_epoch_length(&mut self, interval: Timestamp) {
        self.epoch_length = Some(interval);
    }

    /// Configure the §5.6 batching window `Tbatch` in microseconds: outgoing
    /// notifications and piggybacked acks buffer per destination and flush
    /// as one wire packet carrying a single authenticator.  A window of 0
    /// (the default) sends every message eagerly with its own authenticator.
    /// Configure before the run starts: reconfiguring mid-run drops any
    /// queued-but-unflushed messages.
    pub fn set_batch_window(&mut self, micros: Timestamp) {
        self.batcher = MessageBatcher::new(micros);
    }

    /// The configured §5.6 batching window in microseconds.
    pub fn batch_window(&self) -> Timestamp {
        self.batcher.window()
    }

    /// The effective one-way commitment bound: `Tprop` plus the batching
    /// window (a message may legitimately wait a full window before it is
    /// even transmitted, and its ack may wait another at the receiver).
    pub fn commitment_bound(&self) -> Timestamp {
        self.t_prop + self.batcher.window()
    }

    /// Keep the entries of at most `k` sealed epochs; older sealed segments
    /// are truncated at each seal while their checkpoints are kept (§5.6's
    /// `Thist` truncation, epoch edition).
    pub fn set_retain_epochs(&mut self, k: usize) {
        self.log.retain_epochs(k);
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The wrapped application's current tuples.
    pub fn current_tuples(&self) -> Vec<Tuple> {
        self.app.current_tuples()
    }

    /// Whether the application currently holds `tuple`.
    pub fn has_tuple(&self, tuple: &Tuple) -> bool {
        self.app.current_tuples().contains(tuple)
    }

    /// Traffic counters for Figures 5 and 9.
    pub fn traffic(&self) -> NodeTraffic {
        self.traffic
    }

    /// Storage statistics of the *retained* log entries for Figure 6.
    pub fn log_stats(&self) -> snp_log::LogStats {
        self.log.stats()
    }

    /// Number of retained log entries.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Total log entries ever appended (retained or truncated).
    pub fn log_total_appended(&self) -> u64 {
        self.log.total_appended()
    }

    /// Entries dropped by epoch truncation.
    pub fn log_dropped_entries(&self) -> u64 {
        self.log.dropped_entries()
    }

    /// The currently open log epoch.
    pub fn current_epoch(&self) -> u64 {
        self.log.current_epoch()
    }

    /// The epoch whose checkpoint an audit for time `at` would anchor on
    /// (`None` = replay from genesis).  This is the metadata half of the
    /// `retrieve` handshake, used by the querier to key its audit cache.
    pub fn anchor_epoch(&self, at: Option<Timestamp>) -> Option<u64> {
        self.log.anchor_epoch(at)
    }

    /// Total size of the node's checkpoints and retained snapshots in bytes
    /// (§7.5).
    pub fn checkpoint_bytes(&self) -> usize {
        self.log.checkpoint_storage_bytes()
    }

    /// Latest checkpoint, if any.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        self.log.latest_checkpoint()
    }

    /// Current hash-chain head of the log (digest of the entire appended
    /// history, surviving truncation).
    pub fn log_head(&self) -> Digest {
        self.log.head()
    }

    /// Merkle roots of every sealed checkpoint, oldest first.
    pub fn checkpoint_roots(&self) -> Vec<Digest> {
        self.log.checkpoints().map(|c| c.root).collect()
    }

    /// Digests of messages whose missing acks were reported to the maintainer.
    pub fn maintainer_notifications(&self) -> &BTreeSet<Digest> {
        &self.maintainer_notified
    }

    /// A freshly signed authenticator over the node's current log head.
    pub fn latest_authenticator(&self) -> Option<Authenticator> {
        if self.byz.refuse_retrieve {
            return None;
        }
        self.log.authenticator()
    }

    /// Authenticators this node holds that were signed by `peer` (used by the
    /// querier's consistency check, §5.5).
    pub fn authenticators_from(&self, peer: NodeId) -> Vec<Authenticator> {
        self.auths.from_peer(peer).to_vec()
    }

    /// Hold `auth` as if a peer had sent it.  Tests use this to stand in for
    /// a peer that presents evidence an honest node would never have kept.
    #[cfg(test)]
    pub(crate) fn hold_authenticator(&mut self, auth: Authenticator) {
        self.auths.add(auth);
    }

    /// The `retrieve` primitive (§5.4): return the retained log prefix
    /// through `through_seq` (or the whole retained log) flattened into one
    /// segment, together with an authenticator that covers it.  Byzantine
    /// nodes may refuse, tamper, or equivocate.
    pub fn retrieve(&self, through_seq: Option<u64>) -> Option<(LogSegment, Authenticator)> {
        if self.byz.refuse_retrieve {
            return None;
        }
        let segment = match through_seq {
            Some(seq) => self.log.segment_through(seq),
            None => self.log.full_segment(),
        };
        let auth = self.log.authenticator()?;
        let mut segments = vec![segment];
        let auth = self.apply_retrieve_byzantine(&mut segments, auth);
        Some((segments.pop().expect("one segment"), auth))
    }

    /// The anchored `retrieve` (§5.6): the latest checkpoint at-or-before
    /// `at` (with its state snapshot), the suffix segments after it, and an
    /// authenticator over the head.  Byzantine nodes may additionally forge
    /// the snapshot.
    pub fn retrieve_anchored(&self, at: Option<Timestamp>) -> Option<RetrieveResponse> {
        if self.byz.refuse_retrieve {
            return None;
        }
        let auth = self.log.authenticator()?;
        let anchor_epoch = self.log.anchor_epoch(at);
        let mut anchor = anchor_epoch.map(|e| {
            (
                self.log.checkpoint_for(e).expect("anchor epoch sealed").clone(),
                self.log.snapshot_for(e).expect("anchor epoch has snapshot").to_vec(),
            )
        });
        let anchor_link = anchor_epoch.and_then(|e| {
            let segment = self.log.sealed_segment(e)?.clone();
            let prev = if e == 0 {
                None
            } else {
                Some((
                    self.log.checkpoint_for(e - 1)?.clone(),
                    self.log.snapshot_for(e - 1)?.to_vec(),
                ))
            };
            Some(AnchorLink { prev, segment })
        });
        let mut segments = self.log.segments_after(anchor_epoch);
        let auth = self.apply_retrieve_byzantine(&mut segments, auth);
        if self.byz.forge_checkpoint_snapshot {
            if let Some((_, snapshot)) = &mut anchor {
                // Rewrite pre-truncation history: hand out different state
                // bytes than the ones the signed checkpoint committed to.
                snapshot.push(0xFF);
            }
        }
        Some(RetrieveResponse {
            anchor,
            anchor_link,
            segments,
            auth,
        })
    }

    /// Apply log-level Byzantine behaviour (tampering, equivocation) to an
    /// outgoing run of segments, returning the (possibly re-issued)
    /// authenticator.
    fn apply_retrieve_byzantine(&self, segments: &mut [LogSegment], auth: Authenticator) -> Authenticator {
        let mut auth = auth;
        if let Some(truncate_to) = self.byz.equivocate_truncate_to {
            // Equivocation: pretend the log ends `truncate_to` entries after
            // the start of the returned run, and sign that shorter history.
            let mut budget = truncate_to;
            for segment in segments.iter_mut() {
                let keep = budget.min(segment.entries.len());
                segment.entries.truncate(keep);
                budget -= keep;
            }
            let start = segments.first().map(|s| s.start_head).unwrap_or(Digest::ZERO);
            let encoded: Vec<Vec<u8>> = segments.iter().flat_map(|s| &s.entries).map(|e| e.encode()).collect();
            let head = HashChain::replay_from(start, encoded.iter().map(|v| v.as_slice()));
            let last = segments.iter().flat_map(|s| &s.entries).last();
            auth = Authenticator::issue(
                &self.keys,
                last.map(|e| e.seq).unwrap_or(0),
                last.map(|e| e.timestamp).unwrap_or(0),
                head,
            );
        }
        if let Some(drop_at) = self.byz.tamper_log_drop_entry {
            // Evidence destruction: silently drop the entry at offset
            // `drop_at` into the returned run.
            let mut offset = drop_at;
            for segment in segments.iter_mut() {
                if offset < segment.entries.len() {
                    segment.entries.remove(offset);
                    break;
                }
                offset -= segment.entries.len();
            }
        }
        auth
    }

    /// Apply one scheduled adversary transition (a delivered
    /// [`SnoopyWire::Adversary`] packet).
    ///
    /// Fabrication is an immediate act — the lie is sent (and logged) right
    /// now, exactly as `fabricate_on_start` would have at startup.  Every
    /// other action flips the corresponding [`ByzantineConfig`] knob on, so
    /// the node misbehaves from this instant onward.  The exhaustive match
    /// mirrors `ByzantineConfig::actions`: a new fault field cannot ship
    /// without a transition that enables it.
    fn apply_adversary_action(&mut self, ctx: &mut Context<SnoopyWire>, action: AdversaryAction) {
        match action {
            AdversaryAction::Fabricate { to, delta } => {
                // A lying node still logs the send so its log remains
                // internally consistent; replay then shows a send without a
                // derivation.
                self.send_data(ctx, to, delta);
            }
            AdversaryAction::SuppressSendsTo(to) => {
                self.byz.suppress_sends_to.insert(to);
            }
            AdversaryAction::SuppressAcks => self.byz.suppress_acks = true,
            AdversaryAction::WithholdBatchAcks => self.byz.withhold_batch_acks = true,
            AdversaryAction::RefuseRetrieve => self.byz.refuse_retrieve = true,
            AdversaryAction::TamperLogDropEntry(index) => self.byz.tamper_log_drop_entry = Some(index),
            AdversaryAction::EquivocateTruncateTo(len) => self.byz.equivocate_truncate_to = Some(len),
            AdversaryAction::ForgeCheckpointSnapshot => self.byz.forge_checkpoint_snapshot = true,
        }
    }

    /// A deterministic digest of this node's complete protocol state, for
    /// the model checker's visited-state deduplication.
    ///
    /// Covers everything that can influence future behaviour or future
    /// evidence: the tamper-evident log (its head pins the whole entry
    /// chain; length/total/epoch pin truncation and sealing state), protocol
    /// counters, unacknowledged sends, maintainer notifications, held
    /// authenticators, pending batches, the Byzantine configuration, traffic
    /// counters, and the application state (via `snapshot` when the machine
    /// supports it, else its sorted current tuples).
    pub fn fingerprint(&self) -> Digest {
        use std::fmt::Write as _;
        let mut buf = String::new();
        let _ = write!(
            buf,
            "id={};log={}/{}/{}/{};seq={};secure={};",
            self.id.0,
            self.log.head().to_hex(),
            self.log.len(),
            self.log.total_appended(),
            self.log.current_epoch(),
            self.seq,
            self.secure,
        );
        let _ = write!(buf, "unacked={:?};", self.unacked);
        let _ = write!(buf, "notified={:?};", self.maintainer_notified);
        let _ = write!(buf, "byz={:?};", self.byz);
        let _ = write!(buf, "auths={:?};", self.auths);
        let _ = write!(buf, "batcher={:?};", self.batcher);
        let _ = write!(buf, "traffic={:?};", self.traffic);
        match self.app.snapshot() {
            Some(bytes) => {
                let _ = write!(buf, "app={};", snp_crypto::hash(&bytes).to_hex());
            }
            None => {
                let mut tuples = self.app.current_tuples();
                tuples.sort();
                let _ = write!(buf, "app~={tuples:?};");
            }
        }
        snp_crypto::hash(buf.as_bytes())
    }

    // ----- internal helpers ---------------------------------------------------

    fn now_micros(ctx: &Context<SnoopyWire>) -> Timestamp {
        ctx.now.as_micros()
    }

    fn send_data(&mut self, ctx: &mut Context<SnoopyWire>, to: NodeId, delta: TupleDelta) {
        let now = Self::now_micros(ctx);
        if !self.secure {
            let message = Message::delta(self.id, to, delta, now, self.next_seq());
            self.traffic.baseline_bytes += message.wire_size() as u64;
            self.traffic.data_messages += 1;
            ctx.send(to, SnoopyWire::Plain { message });
            return;
        }
        if self.byz.suppress_sends_to.contains(&to) {
            // Passive evasion: neither send nor log.  Deterministic replay of
            // this node's log will show the missing send (red vertex).
            return;
        }
        let message = Message::delta(self.id, to, delta, now, self.next_seq());
        if self.batcher.window() == 0 {
            // Unbatched commitment (§5.4): one signature per message.
            let (_, auth) = self.log.append(
                now,
                EntryKind::Snd {
                    message: message.clone(),
                },
            );
            self.unacked.push((message.clone(), message.digest(), now));
            self.traffic.baseline_bytes += message.wire_size() as u64;
            self.traffic.provenance_bytes += crate::wire::PROVENANCE_METADATA_BYTES as u64;
            self.traffic.authenticator_bytes += auth.wire_size() as u64;
            self.traffic.proxy_bytes += self.proxy_overhead_per_message as u64;
            self.traffic.data_messages += 1;
            self.traffic.message_signatures += 1;
            ctx.send(to, SnoopyWire::Data { message, auth });
            return;
        }
        // Batched commitment (§5.6): the `snd` entry is appended *now* (so
        // the log records exactly what the unbatched run would), but the
        // signature and the wire transmission are deferred to the window's
        // flush, where one authenticator covers the whole batch.
        self.log.append_entry(
            now,
            EntryKind::Snd {
                message: message.clone(),
            },
        );
        self.enqueue(ctx, to, message, now);
    }

    /// Queue a wire message (delta or ack) for the §5.6 batch to `to`,
    /// arming the flush timer when this push opens a new window.  With a
    /// zero window the batcher hands the singleton batch straight back and
    /// it is transmitted immediately.
    fn enqueue(&mut self, ctx: &mut Context<SnoopyWire>, to: NodeId, message: Message, now: Timestamp) {
        let fresh_window = self.batcher.deadline_for(to).is_none();
        if let Some(batch) = self.batcher.push(to, message, now) {
            self.transmit_batch(ctx, batch.to, batch.deltas, now);
        } else if fresh_window {
            if let Some(deadline) = self.batcher.deadline_for(to) {
                ctx.set_timer_at(SimTime::from_micros(deadline), TIMER_BATCH_FLUSH);
            }
        }
    }

    /// Flush one batch onto the wire: a single authenticator over the log
    /// head — which, through the hash chain, covers every `snd` and `rcv`
    /// entry the batch's messages were appended as — plus all queued
    /// messages in one packet.
    fn transmit_batch(&mut self, ctx: &mut Context<SnoopyWire>, to: NodeId, messages: Vec<Message>, now: Timestamp) {
        if messages.is_empty() {
            return;
        }
        // Every queued message appended a log entry before it was queued, so
        // the log cannot be empty here.
        let Some(auth) = self.log.authenticator() else {
            return;
        };
        for message in &messages {
            if message.is_ack() {
                self.traffic.ack_bytes += message.wire_size() as u64;
                self.traffic.ack_messages += 1;
            } else {
                self.unacked.push((message.clone(), message.digest(), now));
                self.traffic.baseline_bytes += message.wire_size() as u64;
                self.traffic.provenance_bytes += crate::wire::PROVENANCE_METADATA_BYTES as u64;
                self.traffic.proxy_bytes += self.proxy_overhead_per_message as u64;
                self.traffic.data_messages += 1;
            }
        }
        self.traffic.provenance_bytes += crate::wire::BATCH_HEADER_BYTES as u64;
        self.traffic.authenticator_bytes += auth.wire_size() as u64;
        self.traffic.batch_messages += 1;
        self.traffic.batch_signatures += 1;
        ctx.send(to, SnoopyWire::Batch { messages, auth });
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn process_outputs(&mut self, ctx: &mut Context<SnoopyWire>, outputs: Vec<SmOutput>) {
        for output in outputs {
            if let SmOutput::Send { to, delta } = output {
                self.send_data(ctx, to, delta);
            }
            // Derive / Underive outputs need no runtime action: deterministic
            // replay regenerates them on demand (§5.9: "the provenance graph
            // is not maintained at runtime").
        }
    }

    fn handle_operator(&mut self, ctx: &mut Context<SnoopyWire>, input: SmInput) {
        let now = Self::now_micros(ctx);
        if self.secure {
            // `ins`/`del` authenticators never go on the wire, so the
            // signature is deferred until the next one that does.
            match &input {
                SmInput::InsertBase(tuple) => {
                    self.log.append_entry(now, EntryKind::Ins { tuple: tuple.clone() });
                }
                SmInput::DeleteBase(tuple) => {
                    self.log.append_entry(now, EntryKind::Del { tuple: tuple.clone() });
                }
                SmInput::Receive { .. } => {}
            }
        }
        let outputs = self.app.handle(input);
        self.process_outputs(ctx, outputs);
    }

    fn handle_data(&mut self, ctx: &mut Context<SnoopyWire>, message: Message, auth: Authenticator) {
        let now = Self::now_micros(ctx);
        let Some(delta) = message.as_delta().cloned() else {
            return;
        };
        // Commitment checks (§5.4): the authenticator must be properly signed
        // by the claimed sender and must belong to that sender.
        if auth.node != message.from {
            return;
        }
        let Some(public) = self.registry.public_key(auth.node) else {
            return;
        };
        if !auth.verify(&public) {
            return;
        }
        self.auths.add(auth);
        if self.batcher.window() == 0 {
            // Eager acknowledgment (§5.4): one signed authenticator over the
            // fresh `rcv` entry rides back immediately.
            let (_, my_auth) = self.log.append(
                now,
                EntryKind::Rcv {
                    message: message.clone(),
                    sender_auth_digest: auth.digest(),
                },
            );
            self.traffic.message_signatures += 1;
            if !self.byz.suppress_acks {
                let ack = Message::ack(&message, now, self.next_seq());
                self.traffic.ack_bytes += (ack.wire_size() + my_auth.wire_size()) as u64;
                self.traffic.ack_messages += 1;
                ctx.send(
                    message.from,
                    SnoopyWire::Ack {
                        message: ack,
                        auth: my_auth,
                    },
                );
            }
        } else {
            // Batching is on: the ack piggybacks on this node's own next
            // flush to the sender, covered by that batch's authenticator.
            self.log.append_entry(
                now,
                EntryKind::Rcv {
                    message: message.clone(),
                    sender_auth_digest: auth.digest(),
                },
            );
            if !self.byz.suppress_acks {
                let ack = Message::ack(&message, now, self.next_seq());
                self.enqueue(ctx, message.from, ack, now);
            }
        }
        let outputs = self.app.handle(SmInput::Receive {
            from: message.from,
            delta,
        });
        self.process_outputs(ctx, outputs);
    }

    /// Handle a §5.6 batch: verify the *single* authenticator once, then
    /// process every carried message in send order — deltas are logged and
    /// fed to the application (their acks piggyback on this node's next
    /// flush back to the sender), acks settle outstanding sends.
    fn handle_batch(&mut self, ctx: &mut Context<SnoopyWire>, messages: Vec<Message>, auth: Authenticator) {
        let now = Self::now_micros(ctx);
        let Some(public) = self.registry.public_key(auth.node) else {
            return;
        };
        if !auth.verify(&public) {
            return;
        }
        self.auths.add(auth);
        let auth_digest = auth.digest();
        for message in messages {
            // Commitment check (§5.4): every message in the batch must claim
            // the sender the authenticator is signed by.
            if message.from != auth.node {
                continue;
            }
            if let snp_graph::history::MessageBody::Ack { of } = &message.body {
                self.register_ack(*of, auth_digest, now);
                continue;
            }
            let Some(delta) = message.as_delta().cloned() else {
                continue;
            };
            self.log.append_entry(
                now,
                EntryKind::Rcv {
                    message: message.clone(),
                    sender_auth_digest: auth_digest,
                },
            );
            if !self.byz.suppress_acks && !self.byz.withhold_batch_acks {
                let ack = Message::ack(&message, now, self.next_seq());
                self.enqueue(ctx, message.from, ack, now);
            }
            let outputs = self.app.handle(SmInput::Receive {
                from: message.from,
                delta,
            });
            self.process_outputs(ctx, outputs);
        }
    }

    /// Settle an acknowledged send: drop it from the outstanding set and log
    /// the `ack` entry referencing the acknowledging peer's authenticator.
    fn register_ack(&mut self, of: Digest, peer_auth_digest: Digest, now: Timestamp) {
        if let Some(pos) = self.unacked.iter().position(|(_, digest, _)| *digest == of) {
            self.unacked.remove(pos);
            self.log.append_entry(now, EntryKind::Ack { of, peer_auth_digest });
        }
    }

    fn handle_ack(&mut self, _ctx: &mut Context<SnoopyWire>, message: Message, auth: Authenticator, now: Timestamp) {
        let snp_graph::history::MessageBody::Ack { of } = &message.body else {
            return;
        };
        if auth.node != message.from {
            return;
        }
        let Some(public) = self.registry.public_key(auth.node) else {
            return;
        };
        if !auth.verify(&public) {
            return;
        }
        self.auths.add(auth);
        self.register_ack(*of, auth.digest(), now);
    }

    fn handle_plain(&mut self, ctx: &mut Context<SnoopyWire>, message: Message) {
        let Some(delta) = message.as_delta().cloned() else {
            return;
        };
        let outputs = self.app.handle(SmInput::Receive {
            from: message.from,
            delta,
        });
        self.process_outputs(ctx, outputs);
    }

    /// Seal the current log epoch (§5.6): snapshot the machine, checkpoint
    /// the tuple state, and let the log roll the epoch and apply retention.
    fn seal_epoch(&mut self, now: Timestamp) {
        let entries: Vec<CheckpointEntry> = self
            .app
            .current_tuples()
            .into_iter()
            .map(|tuple| CheckpointEntry {
                tuple,
                appeared_at: now,
            })
            .collect();
        let snapshot = self.app.snapshot();
        self.log.seal_epoch(now, entries, snapshot);
    }

    fn sweep_unacked(&mut self, now: Timestamp) {
        // Under batching the ack may legitimately wait a full window at the
        // receiver before it even leaves, so the missing-ack deadline is
        // 2·(Tprop + Tbatch) rather than the unbatched 2·Tprop.
        let deadline = now.saturating_sub(2 * self.commitment_bound());
        for (_, digest, sent_at) in &self.unacked {
            if *sent_at < deadline {
                // "i immediately notifies the maintainer of the distributed
                // system" (§5.4).
                self.maintainer_notified.insert(*digest);
            }
        }
    }
}

impl SimNode<SnoopyWire> for SnoopyNode {
    fn on_start(&mut self, ctx: &mut Context<SnoopyWire>) {
        if self.secure {
            if let Some(interval) = self.epoch_length {
                ctx.set_timer(snp_sim::SimDuration::from_micros(interval), TIMER_EPOCH);
            }
            ctx.set_timer(snp_sim::SimDuration::from_micros(2 * self.t_prop), TIMER_ACK_SWEEP);
        }
        // Fabricated notifications (lying about state that was never derived).
        let fabrications = self.byz.fabricate_on_start.clone();
        for (to, delta) in fabrications {
            // A lying node still logs the send so its log remains internally
            // consistent; replay then shows a send without a derivation.
            self.send_data(ctx, to, delta);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<SnoopyWire>, _from: NodeId, payload: SnoopyWire) {
        match payload {
            SnoopyWire::Operator { input } => self.handle_operator(ctx, input),
            SnoopyWire::Data { message, auth } => self.handle_data(ctx, message, auth),
            SnoopyWire::Ack { message, auth } => {
                let now = Self::now_micros(ctx);
                self.handle_ack(ctx, message, auth, now)
            }
            SnoopyWire::Plain { message } => self.handle_plain(ctx, message),
            SnoopyWire::Batch { messages, auth } => self.handle_batch(ctx, messages, auth),
            SnoopyWire::Adversary { action } => self.apply_adversary_action(ctx, action),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<SnoopyWire>, timer: TimerId) {
        let now = Self::now_micros(ctx);
        match timer {
            TIMER_EPOCH => {
                self.seal_epoch(now);
                if let Some(interval) = self.epoch_length {
                    ctx.set_timer(snp_sim::SimDuration::from_micros(interval), TIMER_EPOCH);
                }
            }
            TIMER_ACK_SWEEP => {
                self.sweep_unacked(now);
                ctx.set_timer(snp_sim::SimDuration::from_micros(2 * self.t_prop), TIMER_ACK_SWEEP);
            }
            TIMER_BATCH_FLUSH => {
                // Close every window whose deadline has passed.  Each window
                // arms exactly one timer when it opens (see `enqueue`), so no
                // re-arm is needed here; wakeups for windows that already
                // flushed poll and do nothing.
                let flushed = self.batcher.poll(now);
                for batch in flushed {
                    self.transmit_batch(ctx, batch.to, batch.deltas, now);
                }
            }
            _ => {}
        }
    }
}

/// A cloneable handle to a [`SnoopyNode`], shared between the simulator and
/// the querier (Alice needs to call `retrieve` on nodes after the run).
#[derive(Clone)]
pub struct SnoopyHandle {
    inner: Arc<Mutex<SnoopyNode>>,
}

// Manual impl: locks the node briefly to print its identity.
impl std::fmt::Debug for SnoopyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SnoopyHandle").field(&self.with(|n| n.id())).finish()
    }
}

impl SnoopyHandle {
    /// Wrap a node in a shared handle.
    pub fn new(node: SnoopyNode) -> SnoopyHandle {
        SnoopyHandle {
            inner: Arc::new(Mutex::new(node)),
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.with(|n| n.id())
    }

    /// Run a closure with exclusive access to the node.
    pub fn with<R>(&self, f: impl FnOnce(&mut SnoopyNode) -> R) -> R {
        f(&mut self.inner.lock().expect("node mutex poisoned"))
    }

    /// `retrieve` as invoked by the querier.
    pub fn retrieve(&self, through_seq: Option<u64>) -> Option<(LogSegment, Authenticator)> {
        self.with(|n| n.retrieve(through_seq))
    }

    /// Anchored `retrieve` as invoked by the querier.
    pub fn retrieve_anchored(&self, at: Option<Timestamp>) -> Option<RetrieveResponse> {
        self.with(|n| n.retrieve_anchored(at))
    }

    /// The epoch an audit for time `at` would anchor on.
    pub fn anchor_epoch(&self, at: Option<Timestamp>) -> Option<u64> {
        self.with(|n| n.anchor_epoch(at))
    }

    /// Authenticators this node holds from `peer`.
    pub fn authenticators_from(&self, peer: NodeId) -> Vec<Authenticator> {
        self.with(|n| n.authenticators_from(peer))
    }

    /// The node's freshest authenticator.
    pub fn latest_authenticator(&self) -> Option<Authenticator> {
        self.with(|n| n.latest_authenticator())
    }

    /// Traffic counters.
    pub fn traffic(&self) -> NodeTraffic {
        self.with(|n| n.traffic())
    }
}

impl SimNode<SnoopyWire> for SnoopyHandle {
    fn on_start(&mut self, ctx: &mut Context<SnoopyWire>) {
        self.with(|n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<SnoopyWire>, from: NodeId, payload: SnoopyWire) {
        self.with(|n| n.on_message(ctx, from, payload));
    }

    fn on_timer(&mut self, ctx: &mut Context<SnoopyWire>, timer: TimerId) {
        self.with(|n| n.on_timer(ctx, timer));
    }
}

/// Record crypto-op counters observed during a closure (used by Figure 7).
pub fn with_crypto_counting<R>(f: impl FnOnce() -> R) -> (R, counters::CryptoOpCounts) {
    counters::with_counting(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::{Atom, Rule, Term};
    use snp_datalog::{Engine, RuleSet, Value};

    fn rules() -> RuleSet {
        // reach(@Y, X) :- link(@X, Y): derived locally, shipped to the neighbor.
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

    fn build_pair() -> (snp_sim::Simulator<SnoopyWire>, SnoopyHandle, SnoopyHandle) {
        build_pair_with(snp_sim::NetworkConfig::default())
    }

    fn build_pair_with(config: snp_sim::NetworkConfig) -> (snp_sim::Simulator<SnoopyWire>, SnoopyHandle, SnoopyHandle) {
        let (_, _, registry) = KeyRegistry::deployment(4);
        let t_prop = config.t_prop.as_micros();
        let mut sim = snp_sim::Simulator::new(config, 7);
        let n1 = SnoopyHandle::new(SnoopyNode::new(
            NodeId(1),
            Box::new(Engine::new(NodeId(1), rules())),
            registry.clone(),
            t_prop,
        ));
        let n2 = SnoopyHandle::new(SnoopyNode::new(
            NodeId(2),
            Box::new(Engine::new(NodeId(2), rules())),
            registry,
            t_prop,
        ));
        sim.add_node(NodeId(1), Box::new(n1.clone()));
        sim.add_node(NodeId(2), Box::new(n2.clone()));
        (sim, n1, n2)
    }

    #[test]
    fn tuple_propagates_and_both_logs_grow() {
        let (mut sim, n1, n2) = build_pair();
        sim.inject_message(
            snp_sim::SimTime::from_millis(10),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(link(1, 2)),
            },
        );
        sim.run_until(snp_sim::SimTime::from_secs(5));
        assert!(
            n2.with(|n| n.has_tuple(&reach(2, 1))),
            "derived tuple must arrive at node 2"
        );
        assert!(n1.with(|n| n.log_len()) >= 2, "node 1 logs ins + snd + ack");
        assert!(n2.with(|n| n.log_len()) >= 1, "node 2 logs rcv");
        // The ack made it back: nothing outstanding, no maintainer notification.
        assert!(n1.with(|n| n.maintainer_notifications().is_empty()));
    }

    #[test]
    fn retrieved_segment_verifies_against_authenticator() {
        let (mut sim, n1, _) = build_pair();
        sim.inject_message(
            snp_sim::SimTime::from_millis(10),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(link(1, 2)),
            },
        );
        sim.run_until(snp_sim::SimTime::from_secs(5));
        let (segment, auth) = n1.retrieve(None).expect("honest node answers");
        let public = KeyPair::for_node(NodeId(1)).public;
        assert!(segment.verify(&auth, &public).is_ok());
        assert!(segment.entries.iter().any(|e| matches!(e.kind, EntryKind::Ins { .. })));
        assert!(segment.entries.iter().any(|e| matches!(e.kind, EntryKind::Snd { .. })));
        assert!(segment.entries.iter().any(|e| matches!(e.kind, EntryKind::Ack { .. })));
    }

    #[test]
    fn traffic_counters_cover_all_components() {
        let (mut sim, n1, n2) = build_pair();
        for i in 0..5u64 {
            sim.inject_message(
                snp_sim::SimTime::from_millis(10 + i),
                OPERATOR,
                NodeId(1),
                SnoopyWire::Operator {
                    input: SmInput::InsertBase(link(1, 2)),
                },
            );
        }
        sim.run_until(snp_sim::SimTime::from_secs(5));
        let t1 = n1.traffic();
        let t2 = n2.traffic();
        assert!(t1.baseline_bytes > 0);
        assert!(t1.authenticator_bytes > 0);
        assert!(t1.provenance_bytes > 0);
        assert!(t2.ack_bytes > 0, "receiver pays for acknowledgments");
        assert_eq!(
            t1.data_messages, 1,
            "duplicate inserts are reference-counted, only one +τ is sent"
        );
    }

    /// Schedule insert / delete / re-insert of `link(1, 2)` so node 1 emits
    /// three tuple notifications within a couple of milliseconds.
    fn churn_link(sim: &mut snp_sim::Simulator<SnoopyWire>) {
        for (ms, insert) in [(10u64, true), (11, false), (12, true)] {
            let input = if insert {
                SmInput::InsertBase(link(1, 2))
            } else {
                SmInput::DeleteBase(link(1, 2))
            };
            sim.inject_message(
                snp_sim::SimTime::from_millis(ms),
                OPERATOR,
                NodeId(1),
                SnoopyWire::Operator { input },
            );
        }
    }

    #[test]
    fn batched_window_amortizes_signatures_and_still_converges() {
        let (mut sim, n1, n2) = build_pair();
        for n in [&n1, &n2] {
            n.with(|n| n.set_batch_window(100_000)); // 100 ms
        }
        churn_link(&mut sim);
        sim.run_until(snp_sim::SimTime::from_secs(5));
        assert!(n2.with(|n| n.has_tuple(&reach(2, 1))), "deltas must still arrive");
        let t1 = n1.traffic();
        assert_eq!(t1.data_messages, 3, "three notifications were sent");
        assert_eq!(t1.message_signatures, 0, "no per-message signatures under batching");
        assert_eq!(t1.batch_messages, 1, "all three rode one flush");
        assert_eq!(t1.batch_signatures, 1, "one amortized authenticator");
        let t2 = n2.traffic();
        assert_eq!(t2.ack_messages, 3, "every notification is acknowledged");
        assert_eq!(t2.batch_signatures, 1, "the acks piggybacked on one flush");
        // The piggybacked acks settled every outstanding send.
        assert!(n1.with(|n| n.maintainer_notifications().is_empty()));
    }

    #[test]
    fn batched_and_unbatched_runs_log_the_same_history() {
        // A fixed-delay network: the default model draws per-message jitter,
        // which can reorder *unbatched* messages in flight — a reordering
        // batching coincidentally removes.  Equality of the recorded
        // histories is only meaningful once that unrelated variable is
        // pinned; the deployment-level property tests cover the jittery
        // case modulo delivery order.
        let fifo = snp_sim::NetworkConfig {
            min_delay: snp_sim::NetworkConfig::default().t_prop,
            ..snp_sim::NetworkConfig::default()
        };
        let run = |window: u64| {
            let (mut sim, n1, n2) = build_pair_with(fifo.clone());
            for n in [&n1, &n2] {
                n.with(|n| n.set_batch_window(window));
            }
            churn_link(&mut sim);
            sim.run_until(snp_sim::SimTime::from_secs(5));
            let history = |h: &SnoopyHandle| {
                h.with(|n| {
                    n.log
                        .entries()
                        .map(|e| match &e.kind {
                            // Timestamps of rcv/ack entries shift with the
                            // flush schedule; the *content* may not.
                            EntryKind::Snd { message } => format!("snd {:?}", message),
                            EntryKind::Rcv { message, .. } => {
                                format!("rcv {:?} {:?}", message.body, message.from)
                            }
                            EntryKind::Ack { of, .. } => format!("ack {of:?}"),
                            EntryKind::Ins { tuple } => format!("ins {tuple}"),
                            EntryKind::Del { tuple } => format!("del {tuple}"),
                        })
                        .collect::<Vec<_>>()
                })
            };
            (
                history(&n1),
                history(&n2),
                n1.with(|n| n.current_tuples()),
                n2.with(|n| n.current_tuples()),
            )
        };
        let unbatched = run(0);
        let batched = run(100_000);
        assert_eq!(unbatched, batched, "batching must not change the recorded history");
    }

    #[test]
    fn withheld_batch_acks_trigger_maintainer_notification() {
        let (mut sim, n1, n2) = build_pair();
        for n in [&n1, &n2] {
            n.with(|n| n.set_batch_window(50_000));
        }
        n2.with(|n| {
            n.set_byzantine(ByzantineConfig {
                withhold_batch_acks: true,
                ..Default::default()
            })
        });
        churn_link(&mut sim);
        sim.run_until(snp_sim::SimTime::from_secs(10));
        // The withholder still processed the batch (it is hiding, not deaf)…
        assert!(n2.with(|n| n.has_tuple(&reach(2, 1))));
        // …but the missing acks expose it through the 2·(Tprop+Tbatch) sweep.
        assert!(
            !n1.with(|n| n.maintainer_notifications().is_empty()),
            "the sender must report the unacknowledged batch"
        );
    }

    #[test]
    fn withhold_batch_acks_spares_the_unbatched_path() {
        // The fault is batch-specific: with a zero window the node keeps
        // acknowledging singleton messages eagerly.
        let (mut sim, n1, n2) = build_pair();
        n2.with(|n| {
            n.set_byzantine(ByzantineConfig {
                withhold_batch_acks: true,
                ..Default::default()
            })
        });
        churn_link(&mut sim);
        sim.run_until(snp_sim::SimTime::from_secs(10));
        assert!(n1.with(|n| n.maintainer_notifications().is_empty()));
    }

    #[test]
    fn baseline_node_has_no_log_and_no_overhead() {
        let mut sim: snp_sim::Simulator<SnoopyWire> = snp_sim::Simulator::new(snp_sim::NetworkConfig::default(), 7);
        let n1 = SnoopyHandle::new(SnoopyNode::baseline(
            NodeId(1),
            Box::new(Engine::new(NodeId(1), rules())),
        ));
        let n2 = SnoopyHandle::new(SnoopyNode::baseline(
            NodeId(2),
            Box::new(Engine::new(NodeId(2), rules())),
        ));
        sim.add_node(NodeId(1), Box::new(n1.clone()));
        sim.add_node(NodeId(2), Box::new(n2.clone()));
        sim.inject_message(
            snp_sim::SimTime::from_millis(10),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(link(1, 2)),
            },
        );
        sim.run_until(snp_sim::SimTime::from_secs(5));
        assert!(n2.with(|n| n.has_tuple(&reach(2, 1))));
        assert_eq!(n1.with(|n| n.log_len()), 0);
        let t = n1.traffic();
        assert!(t.baseline_bytes > 0);
        assert_eq!(t.authenticator_bytes, 0);
        assert_eq!(t.ack_bytes + t.provenance_bytes, 0);
    }

    #[test]
    fn suppressed_ack_triggers_maintainer_notification() {
        let (mut sim, n1, n2) = build_pair();
        n2.with(|n| {
            n.set_byzantine(ByzantineConfig {
                suppress_acks: true,
                ..Default::default()
            })
        });
        sim.inject_message(
            snp_sim::SimTime::from_millis(10),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(link(1, 2)),
            },
        );
        sim.run_until(snp_sim::SimTime::from_secs(10));
        assert!(
            !n1.with(|n| n.maintainer_notifications().is_empty()),
            "sender must report the missing ack"
        );
    }

    #[test]
    fn checkpoints_are_taken_periodically() {
        let (mut sim, n1, _) = build_pair();
        n1.with(|n| n.set_epoch_length(1_000_000)); // seal every simulated second
        sim.inject_message(
            snp_sim::SimTime::from_millis(10),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(link(1, 2)),
            },
        );
        sim.run_until(snp_sim::SimTime::from_secs(5));
        assert!(n1.with(|n| n.latest_checkpoint().is_some()));
        assert!(n1.with(|n| n.checkpoint_bytes()) > 0);
    }

    #[test]
    fn refusing_node_returns_nothing() {
        let (mut sim, n1, _) = build_pair();
        n1.with(|n| {
            n.set_byzantine(ByzantineConfig {
                refuse_retrieve: true,
                ..Default::default()
            })
        });
        sim.inject_message(
            snp_sim::SimTime::from_millis(10),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(link(1, 2)),
            },
        );
        sim.run_until(snp_sim::SimTime::from_secs(5));
        assert!(n1.retrieve(None).is_none());
        assert!(n1.latest_authenticator().is_none());
    }

    #[test]
    fn tampered_retrieve_fails_verification() {
        let (mut sim, n1, _) = build_pair();
        sim.inject_message(
            snp_sim::SimTime::from_millis(10),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(link(1, 2)),
            },
        );
        sim.run_until(snp_sim::SimTime::from_secs(5));
        n1.with(|n| {
            n.set_byzantine(ByzantineConfig {
                tamper_log_drop_entry: Some(0),
                ..Default::default()
            })
        });
        let (segment, auth) = n1.retrieve(None).expect("still answers");
        let public = KeyPair::for_node(NodeId(1)).public;
        assert!(
            segment.verify(&auth, &public).is_err(),
            "dropping a log entry must be detected"
        );
    }
}
