//! The append-only secure log, split into epoch-sealed segments, and
//! segment/suffix verification.
//!
//! §5.4 describes the tamper-evident log `λ_i`; §5.6 adds checkpoints and
//! truncation.  This module implements the epoch-segmented form: entries
//! accumulate in the *active* segment until the node seals the epoch, which
//! closes the segment with a signed Merkle [`Checkpoint`] (carrying the
//! machine's state-snapshot digest and the hash-chain head at the boundary).
//! A `retain_epochs(k)` policy drops the *entries* of sealed segments older
//! than `k` epochs while keeping every checkpoint — tamper evidence is
//! preserved across truncation because suffix verification anchors at a
//! signed checkpoint head instead of `h_0 = 0`.

use crate::auth::Authenticator;
use crate::checkpoint::{Checkpoint, CheckpointEntry};
use crate::entry::{EntryKind, LogEntry};
use crate::store::{RecoveryReport, SegmentStore, StoreError};
use snp_crypto::keys::{KeyPair, NodeId};
use snp_crypto::sign::{PublicKey, SIGNATURE_WIRE_BYTES};
use snp_crypto::{Digest, HashChain};
use snp_graph::vertex::Timestamp;
use std::sync::Arc;

/// A contiguous stretch of a node's log: either one sealed epoch or the
/// retained portion returned by `retrieve`, replayed by the microquery
/// module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogSegment {
    /// The node whose log this is.
    pub node: NodeId,
    /// The epoch the segment's first entry belongs to.
    pub epoch: u64,
    /// Absolute sequence number of the first entry.
    pub base_seq: u64,
    /// Hash-chain head immediately before the first entry (`Digest::ZERO`
    /// at genesis).  For segments that do not start at genesis this claim is
    /// only trustworthy once matched against a *signed* checkpoint head.
    pub start_head: Digest,
    /// The entries, with absolute sequence numbers starting at `base_seq`.
    pub entries: Vec<LogEntry>,
}

/// Storage accounting for Figure 6: how many bytes of the log are message
/// copies, authenticators, signatures, and index/metadata.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Bytes of message payload copies (snd/rcv entries).
    pub message_bytes: u64,
    /// Bytes attributable to stored authenticators (rcv/ack references).
    pub authenticator_bytes: u64,
    /// Bytes attributable to signatures.
    pub signature_bytes: u64,
    /// Bytes of per-entry index metadata (seq, timestamp, type tags) and base
    /// tuple contents.
    pub index_bytes: u64,
}

impl LogStats {
    /// Total log size in bytes.
    pub fn total(&self) -> u64 {
        self.message_bytes + self.authenticator_bytes + self.signature_bytes + self.index_bytes
    }

    /// Growth rate in MB per minute over a run of `minutes` minutes.
    pub fn mb_per_minute(&self, minutes: f64) -> f64 {
        if minutes <= 0.0 {
            0.0
        } else {
            self.total() as f64 / (1024.0 * 1024.0) / minutes
        }
    }

    fn absorb(&mut self, entry: &LogEntry) {
        let size = entry.storage_size() as u64;
        match &entry.kind {
            EntryKind::Snd { message } | EntryKind::Rcv { message, .. } => {
                let msg = message.wire_size() as u64;
                self.message_bytes += msg;
                self.index_bytes += size.saturating_sub(msg);
                // Each snd/rcv implies a stored authenticator (ours or the
                // peer's) and its signature.
                self.authenticator_bytes += (8 + 8 + Digest::LEN) as u64;
                self.signature_bytes += SIGNATURE_WIRE_BYTES as u64;
            }
            EntryKind::Ack { .. } => {
                self.authenticator_bytes += (8 + 8 + Digest::LEN) as u64;
                self.signature_bytes += SIGNATURE_WIRE_BYTES as u64;
                self.index_bytes += size;
            }
            EntryKind::Ins { .. } | EntryKind::Del { .. } => {
                self.index_bytes += size;
            }
        }
    }
}

/// A node's tamper-evident log (`λ_i` in §5.4), segmented by epoch.
#[derive(Clone, Debug)]
pub struct SecureLog {
    keys: KeyPair,
    /// Sealed segments whose entries are still retained, oldest first.
    /// Epochs are contiguous: `sealed[i].epoch + 1 == sealed[i + 1].epoch`.
    sealed: Vec<LogSegment>,
    /// One `(checkpoint, state snapshot)` per sealed epoch, kept even after
    /// the epoch's entries have been truncated.  `checkpoints[e]` seals
    /// epoch `e`; the snapshot is `None` when the machine does not support
    /// snapshots (such epochs cannot anchor a suffix replay).
    checkpoints: Vec<(Checkpoint, Option<Vec<u8>>)>,
    /// Entries of the currently open epoch.
    active: Vec<LogEntry>,
    /// Absolute sequence number of the first active entry.
    active_base_seq: u64,
    /// Chain head immediately before the first active entry.
    active_start_head: Digest,
    /// Running hash-chain head over every entry ever appended.
    head: Digest,
    /// Sequence number of the next entry (= total entries ever appended).
    next_seq: u64,
    /// `(seq, timestamp)` of the last appended entry, kept so authenticators
    /// survive truncation of the entries themselves.
    last_entry: Option<(u64, Timestamp)>,
    /// Index of the currently open epoch.
    epoch: u64,
    /// How many sealed epochs to retain entries for (`None` = all).
    retain: Option<usize>,
    /// Entries dropped by truncation.
    dropped_entries: u64,
    /// Bytes dropped by truncation (same accounting as [`LogStats`]).
    dropped_bytes: u64,
    /// Optional durability sink; `None` keeps the log RAM-only (the
    /// default, and what every simulator deployment uses).
    store: Option<Box<dyn SegmentStore>>,
    /// First store failure observed.  The log keeps serving from RAM (an
    /// I/O error must not take the provenance system down with it); callers
    /// inspect [`SecureLog::store_error`] to decide whether to fail over.
    store_error: Option<Arc<StoreError>>,
}

impl SecureLog {
    /// Create an empty log for the node owning `keys`.
    pub fn new(keys: KeyPair) -> SecureLog {
        SecureLog {
            keys,
            sealed: Vec::new(),
            checkpoints: Vec::new(),
            active: Vec::new(),
            active_base_seq: 0,
            active_start_head: Digest::ZERO,
            head: Digest::ZERO,
            next_seq: 0,
            last_entry: None,
            epoch: 0,
            retain: None,
            dropped_entries: 0,
            dropped_bytes: 0,
            store: None,
            store_error: None,
        }
    }

    /// Create an empty log whose segments are persisted through `store`.
    pub fn with_store(keys: KeyPair, store: Box<dyn SegmentStore>) -> SecureLog {
        let mut log = SecureLog::new(keys);
        log.store = Some(store);
        log
    }

    /// Resume a log from `store`.  With `verify = true` (what every honest
    /// node does) the store must authenticate everything it returns against
    /// this node's own key — checkpoint signatures, Merkle roots, snapshot
    /// digests and each segment's hash chain against its sealed head — and a
    /// tampered or torn store yields a typed [`StoreError`], never a panic.
    /// The node resumes in a fresh epoch at its last *sealed* checkpoint:
    /// unsealed tail entries are dropped and reported in the
    /// [`RecoveryReport`] (they were never committed, so the querier's
    /// anchored replay never expected them).
    pub fn reopen(
        keys: KeyPair,
        mut store: Box<dyn SegmentStore>,
        verify: bool,
    ) -> Result<(SecureLog, RecoveryReport), StoreError> {
        let stored = store.load(if verify { Some(&keys.public) } else { None })?;
        let (next_seq, head, epoch) = match stored.checkpoints.last() {
            Some((cp, _)) => (cp.at_seq, cp.chain_head, cp.epoch + 1),
            None => (0, Digest::ZERO, 0),
        };
        // Reconstruct the (seq, timestamp) pair behind `authenticator()`:
        // exact when the final epoch's entries are retained, else the sealing
        // checkpoint's timestamp bounds it.
        let last_entry = if next_seq == 0 {
            None
        } else {
            match stored.segments.last().and_then(|s| s.entries.last()) {
                Some(e) if e.seq + 1 == next_seq => Some((e.seq, e.timestamp)),
                _ => stored.checkpoints.last().map(|(cp, _)| (next_seq - 1, cp.timestamp)),
            }
        };
        let report = RecoveryReport {
            resumed_epoch: epoch,
            resumed_seq: next_seq,
            head,
            lost_tail_entries: stored.lost_tail_entries,
            lost_tail_bytes: stored.lost_tail_bytes,
            retained_segments: stored.segments.len(),
        };
        let log = SecureLog {
            keys,
            sealed: stored.segments,
            checkpoints: stored.checkpoints,
            active: Vec::new(),
            active_base_seq: next_seq,
            active_start_head: head,
            head,
            next_seq,
            last_entry,
            epoch,
            retain: None,
            dropped_entries: 0,
            dropped_bytes: 0,
            store: Some(store),
            store_error: None,
        };
        Ok((log, report))
    }

    /// Attach a durability sink to a log that has not appended anything
    /// yet.  Returns `false` (and leaves the log unchanged) once entries
    /// exist: attaching mid-stream would persist a chain with a missing
    /// prefix, which `load` would then reject.
    pub fn attach_store(&mut self, store: Box<dyn SegmentStore>) -> bool {
        if self.next_seq != 0 {
            return false;
        }
        self.store = Some(store);
        true
    }

    /// The first store failure, if the durability sink has broken down.
    pub fn store_error(&self) -> Option<&StoreError> {
        self.store_error.as_deref()
    }

    /// Whether a durability sink is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Tear the log down into its store (test hook for crash simulations).
    pub fn into_store(self) -> Option<Box<dyn SegmentStore>> {
        self.store
    }

    /// The node that owns the log.
    pub fn node(&self) -> NodeId {
        self.keys.node
    }

    /// Number of *retained* entries (sealed-but-kept plus active).
    pub fn len(&self) -> usize {
        self.sealed.iter().map(|s| s.entries.len()).sum::<usize>() + self.active.len()
    }

    /// Whether nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// Total entries ever appended (retained or truncated).
    pub fn total_appended(&self) -> u64 {
        self.next_seq
    }

    /// Entries dropped by `retain_epochs` truncation.
    pub fn dropped_entries(&self) -> u64 {
        self.dropped_entries
    }

    /// The currently open epoch index.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.sealed
            .iter()
            .flat_map(|s| s.entries.iter())
            .chain(self.active.iter())
    }

    /// Current hash-chain head.
    pub fn head(&self) -> Digest {
        self.head
    }

    /// Append an entry and return it together with an authenticator covering
    /// the new prefix.  The authenticator costs one signature; callers that
    /// do not put it on the wire (or that amortize signing over a batch of
    /// appends, §5.6) should use [`SecureLog::append_entry`] instead and
    /// issue a single [`SecureLog::authenticator`] at the end of the span.
    pub fn append(&mut self, timestamp: Timestamp, kind: EntryKind) -> (LogEntry, Authenticator) {
        let entry = self.append_entry(timestamp, kind);
        let auth = Authenticator::issue(&self.keys, entry.seq, timestamp, self.head);
        (entry, auth)
    }

    /// Append an entry *without* issuing an authenticator.  This is the
    /// signature-free half of [`SecureLog::append`]: the hash chain is
    /// extended, but the signed commitment is deferred — one authenticator
    /// issued after a run of appends covers the whole span through the chain.
    pub fn append_entry(&mut self, timestamp: Timestamp, kind: EntryKind) -> LogEntry {
        let entry = LogEntry {
            seq: self.next_seq,
            timestamp,
            kind,
        };
        let encoded = entry.encode();
        self.head = HashChain::link(self.head, &encoded);
        self.last_entry = Some((entry.seq, timestamp));
        self.next_seq += 1;
        self.active.push(entry.clone());
        // The store's tail record is the exact byte string the chain linked.
        if self.store_error.is_none() {
            if let Some(store) = self.store.as_mut() {
                if let Err(e) = store.append_tail(&encoded) {
                    self.store_error = Some(Arc::new(e));
                }
            }
        }
        entry
    }

    /// Issue a fresh authenticator for the current head without appending.
    pub fn authenticator(&self) -> Option<Authenticator> {
        let (seq, timestamp) = self.last_entry?;
        Some(Authenticator::issue(&self.keys, seq, timestamp, self.head))
    }

    /// Configure the truncation policy: keep the entries of at most `k`
    /// sealed epochs (checkpoints are always kept).  Applied at every seal.
    pub fn retain_epochs(&mut self, k: usize) {
        self.retain = Some(k);
        self.apply_retention();
    }

    /// Seal the current epoch (§5.6): close the active segment, commit to
    /// the node's state with a signed Merkle checkpoint carrying the digest
    /// of `snapshot`, roll the epoch forward, and apply the truncation
    /// policy.  Returns a reference to the new checkpoint.
    pub fn seal_epoch(
        &mut self,
        timestamp: Timestamp,
        state_entries: Vec<CheckpointEntry>,
        snapshot: Option<Vec<u8>>,
    ) -> &Checkpoint {
        let segment = LogSegment {
            node: self.keys.node,
            epoch: self.epoch,
            base_seq: self.active_base_seq,
            start_head: self.active_start_head,
            entries: std::mem::take(&mut self.active),
        };
        let state_digest = snapshot.as_ref().map(|s| snp_crypto::hash(s)).unwrap_or(Digest::ZERO);
        let checkpoint = Checkpoint::seal(
            &self.keys,
            self.epoch,
            self.next_seq,
            timestamp,
            state_entries,
            state_digest,
            self.head,
        );
        self.sealed.push(segment);
        self.checkpoints.push((checkpoint, snapshot));
        // Durability point: the seal must hit stable storage before the
        // epoch rolls (recovery resumes exactly here).
        if self.store_error.is_none() {
            if let Some(store) = self.store.as_mut() {
                let sealed = self.sealed.last().expect("just pushed");
                let (cp, snap) = self.checkpoints.last().expect("just pushed");
                if let Err(e) = store.seal(sealed, cp, snap.as_deref()) {
                    self.store_error = Some(Arc::new(e));
                }
            }
        }
        self.epoch += 1;
        self.active_base_seq = self.next_seq;
        self.active_start_head = self.head;
        self.apply_retention();
        &self.checkpoints.last().expect("just pushed").0
    }

    fn apply_retention(&mut self) {
        let Some(keep) = self.retain else { return };
        while self.sealed.len() > keep {
            // Dropping this segment makes its epoch the oldest anchorable
            // one; without a restorable snapshot there, the remaining suffix
            // could never be audited and honest nodes would be flagged red.
            // Machines that do not support snapshots therefore keep their
            // full logs regardless of the retention policy.
            if self.snapshot_for(self.sealed[0].epoch).is_none() {
                break;
            }
            let dropped = self.sealed.remove(0);
            let mut stats = LogStats::default();
            for entry in &dropped.entries {
                stats.absorb(entry);
            }
            self.dropped_entries += dropped.entries.len() as u64;
            self.dropped_bytes += stats.total();
            if self.store_error.is_none() {
                if let Some(store) = self.store.as_mut() {
                    if let Err(e) = store.drop_segment_entries(dropped.epoch) {
                        self.store_error = Some(Arc::new(e));
                    }
                }
            }
        }
        // Snapshots and checkpointed tuple state strictly below the
        // anchorable horizon can never be used again (anchors clamp forward
        // to the horizon); keep only the signed commitment — header, Merkle
        // root, state digest, chain head, signature — so checkpoint storage
        // plateaus along with the entries while tamper evidence survives.
        if let Some(oldest) = self.oldest_anchorable_epoch() {
            // Lossless in practice: a Vec cannot hold more than usize::MAX
            // sealed epochs, so the index fits.
            #[allow(clippy::cast_possible_truncation)]
            for (checkpoint, snapshot) in self.checkpoints.iter_mut().take(oldest as usize) {
                if checkpoint.pruned {
                    continue;
                }
                *snapshot = None;
                checkpoint.prune();
                if self.store_error.is_none() {
                    if let Some(store) = self.store.as_mut() {
                        if let Err(e) = store.prune_checkpoint(checkpoint) {
                            self.store_error = Some(Arc::new(e));
                        }
                    }
                }
            }
        }
    }

    /// All checkpoints sealed so far (one per sealed epoch, kept across
    /// truncation), oldest first.
    pub fn checkpoints(&self) -> impl Iterator<Item = &Checkpoint> {
        self.checkpoints.iter().map(|(c, _)| c)
    }

    /// The checkpoint sealing `epoch`, if that epoch has been sealed.
    pub fn checkpoint_for(&self, epoch: u64) -> Option<&Checkpoint> {
        // Lossless in practice: epochs index a Vec, so they fit a usize.
        #[allow(clippy::cast_possible_truncation)]
        self.checkpoints.get(epoch as usize).map(|(c, _)| c)
    }

    /// The state snapshot committed by `epoch`'s checkpoint, if the machine
    /// supported snapshots when the epoch was sealed.
    pub fn snapshot_for(&self, epoch: u64) -> Option<&[u8]> {
        // Lossless in practice: epochs index a Vec, so they fit a usize.
        #[allow(clippy::cast_possible_truncation)]
        self.checkpoints.get(epoch as usize).and_then(|(_, s)| s.as_deref())
    }

    /// The latest checkpoint, if any epoch has been sealed.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoints.last().map(|(c, _)| c)
    }

    /// Total bytes of checkpoints plus retained snapshots (§7.5).
    pub fn checkpoint_storage_bytes(&self) -> usize {
        self.checkpoints
            .iter()
            .map(|(c, s)| c.storage_size() + s.as_ref().map(|s| s.len()).unwrap_or(0))
            .sum()
    }

    /// The oldest epoch that can anchor a suffix replay: every segment
    /// *after* it must still be retained.  `None` when no epoch is sealed.
    fn oldest_anchorable_epoch(&self) -> Option<u64> {
        if self.checkpoints.is_empty() {
            return None;
        }
        match self.sealed.first() {
            // Anchoring at epoch e requires segments e+1.. — so the oldest
            // valid anchor is one before the first retained segment.
            Some(first) => Some(first.epoch.saturating_sub(1)),
            // All sealed entries truncated: only the newest checkpoint works.
            None => Some(self.epoch - 1),
        }
    }

    /// The epoch whose checkpoint a replay for time `at` should anchor on:
    /// the latest sealed checkpoint taken at-or-before `at` (`None` = latest
    /// overall), clamped forward to the truncation horizon.  Returns `None`
    /// when replay must start from genesis (nothing sealed yet).
    pub fn anchor_epoch(&self, at: Option<Timestamp>) -> Option<u64> {
        let oldest = self.oldest_anchorable_epoch()?;
        let latest = self.epoch - 1;
        let wanted = match at {
            None => latest,
            Some(t) => {
                // Checkpoint timestamps are non-decreasing by construction.
                let mut found = None;
                for (cp, _) in &self.checkpoints {
                    if cp.timestamp <= t {
                        found = Some(cp.epoch);
                    } else {
                        break;
                    }
                }
                match found {
                    Some(e) => e,
                    // Asked about a time before the first checkpoint: replay
                    // from genesis if the full log is still retained,
                    // otherwise from the oldest anchorable checkpoint.
                    None => {
                        if self.sealed.first().map(|s| s.base_seq) == Some(0) {
                            return None;
                        }
                        oldest
                    }
                }
            }
        };
        // Anchoring requires a restorable snapshot; walk back towards the
        // truncation horizon if the preferred epoch lacks one.
        let mut epoch = wanted.max(oldest);
        loop {
            if self.snapshot_for(epoch).is_some() {
                return Some(epoch);
            }
            if epoch == oldest {
                // No anchorable checkpoint: genesis replay (only sound while
                // the full log is retained; the querier checks that).
                return None;
            }
            epoch -= 1;
        }
    }

    /// The retained sealed segment of `epoch`, if any.
    pub fn sealed_segment(&self, epoch: u64) -> Option<&LogSegment> {
        self.sealed.iter().find(|s| s.epoch == epoch)
    }

    /// The sealed segments after `anchor` (all retained sealed segments when
    /// `anchor` is `None`), followed by the active segment.  This is what
    /// `retrieve` returns for a suffix audit.
    pub fn segments_after(&self, anchor: Option<u64>) -> Vec<LogSegment> {
        let mut out: Vec<LogSegment> = self
            .sealed
            .iter()
            .filter(|s| anchor.map(|a| s.epoch > a).unwrap_or(true))
            .cloned()
            .collect();
        out.push(LogSegment {
            node: self.keys.node,
            epoch: self.epoch,
            base_seq: self.active_base_seq,
            start_head: self.active_start_head,
            entries: self.active.clone(),
        });
        out
    }

    /// The retained prefix of the log up to and including absolute sequence
    /// number `seq`, flattened into a single segment (the legacy `retrieve`
    /// shape).  Empty when the requested prefix was entirely truncated.
    pub fn segment_through(&self, seq: u64) -> LogSegment {
        let mut segment = self.full_segment();
        if seq < segment.base_seq {
            segment.entries.clear();
            return segment;
        }
        // Clamped by `.min(len)` right below, so truncation cannot overrun.
        #[allow(clippy::cast_possible_truncation)]
        let end = ((seq - segment.base_seq) as usize + 1).min(segment.entries.len());
        segment.entries.truncate(end);
        segment
    }

    /// The complete retained log as a single flattened segment.
    pub fn full_segment(&self) -> LogSegment {
        let (epoch, base_seq, start_head) = match self.sealed.first() {
            Some(first) => (first.epoch, first.base_seq, first.start_head),
            None => (self.epoch, self.active_base_seq, self.active_start_head),
        };
        LogSegment {
            node: self.keys.node,
            epoch,
            base_seq,
            start_head,
            entries: self.entries().cloned().collect(),
        }
    }

    /// Storage accounting for Figure 6, over the *retained* entries (so that
    /// truncated deployments report the bytes they actually hold).
    pub fn stats(&self) -> LogStats {
        let mut stats = LogStats::default();
        for entry in self.entries() {
            stats.absorb(entry);
        }
        stats
    }

    /// Bytes dropped by truncation so far (retained + dropped = what an
    /// unbounded log would hold).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }
}

impl LogSegment {
    /// Verify a from-genesis segment against an authenticator: recompute the
    /// hash chain over the first `auth.seq + 1` entries and check that it
    /// matches the signed head, and that the signature is the node's.
    ///
    /// This is what the querier does with the response of `retrieve(v, a)`
    /// (§5.5) when the whole log is available: a faulty node cannot produce a
    /// different prefix that matches the authenticator without breaking the
    /// hash function.  Segments that start mid-chain must be verified with
    /// [`verify_suffix`] against a signed checkpoint anchor instead.
    pub fn verify(&self, auth: &Authenticator, public: &PublicKey) -> Result<(), SegmentError> {
        if self.base_seq != 0 || self.start_head != Digest::ZERO {
            return Err(SegmentError::NotAnchored {
                base_seq: self.base_seq,
            });
        }
        verify_suffix(std::slice::from_ref(self), 0, Digest::ZERO, auth, public)
    }

    /// Total serialized size (used for Figure 8's download accounting).
    pub fn download_size(&self) -> usize {
        self.entries.iter().map(|e| e.storage_size()).sum()
    }
}

/// Walk a contiguous run of segments from a trusted `(anchor_seq,
/// anchor_head)` point, checking sequence contiguity and chain linkage;
/// `on_link(seq, head)` observes the chain head after each entry.  Returns
/// the `(seq, head)` reached after the last entry.  This is the single
/// chain-walk primitive [`verify_suffix`] and the querier's anchor-link and
/// consistency checks build on.
pub fn chain_span(
    segments: &[LogSegment],
    anchor_seq: u64,
    anchor_head: Digest,
    mut on_link: impl FnMut(u64, Digest),
) -> Result<(u64, Digest), SegmentError> {
    let mut expected_seq = anchor_seq;
    let mut head = anchor_head;
    for segment in segments {
        if segment.base_seq != expected_seq || segment.start_head != head {
            return Err(SegmentError::Discontiguous {
                at_seq: segment.base_seq,
            });
        }
        for (i, entry) in segment.entries.iter().enumerate() {
            if entry.seq != expected_seq {
                return Err(SegmentError::BadSequence { at: i });
            }
            head = HashChain::link(head, &entry.encode());
            on_link(entry.seq, head);
            expected_seq += 1;
        }
    }
    Ok((expected_seq, head))
}

/// Verify a contiguous run of segments as a *suffix* of a node's log,
/// anchored at a trusted `(anchor_seq, anchor_head)` — either genesis
/// `(0, Digest::ZERO)` or the `(at_seq, chain_head)` of a signed checkpoint.
///
/// Checks that the segments belong to `auth.node`, are contiguous (sequence
/// numbers and chain heads), that the recomputed chain reaches `auth.head`
/// exactly at `auth.seq`, and that `auth` is properly signed.  Entries after
/// `auth.seq` are permitted but not covered.
pub fn verify_suffix(
    segments: &[LogSegment],
    anchor_seq: u64,
    anchor_head: Digest,
    auth: &Authenticator,
    public: &PublicKey,
) -> Result<(), SegmentError> {
    verify_suffix_observing(segments, anchor_seq, anchor_head, auth, public, |_, _| {})
}

/// [`verify_suffix`], with `on_link(seq, head)` observing the chain head
/// after every entry of the one walk that verifies the suffix — the heads the
/// §5.5 consistency check compares peer-held authenticators with.  What was
/// observed is only meaningful if the result is `Ok`.
pub fn verify_suffix_observing(
    segments: &[LogSegment],
    anchor_seq: u64,
    anchor_head: Digest,
    auth: &Authenticator,
    public: &PublicKey,
    mut on_link: impl FnMut(u64, Digest),
) -> Result<(), SegmentError> {
    for segment in segments {
        if segment.node != auth.node {
            return Err(SegmentError::WrongNode);
        }
    }
    if !auth.verify(public) {
        return Err(SegmentError::BadSignature);
    }
    let mut covered = false;
    let mut mismatch = false;
    // A quiescent node may have appended nothing since the anchor was
    // sealed; its freshest authenticator then covers exactly the anchor
    // boundary, which the (signed) anchor head vouches for directly.
    if auth.seq + 1 == anchor_seq {
        if auth.head != anchor_head {
            return Err(SegmentError::HeadMismatch);
        }
        covered = true;
    } else if auth.seq + 1 < anchor_seq {
        return Err(SegmentError::StaleAuthenticator {
            seq: auth.seq,
            anchor: anchor_seq,
        });
    }
    let (end_seq, _) = chain_span(segments, anchor_seq, anchor_head, |seq, head| {
        if seq == auth.seq {
            covered = true;
            mismatch = head != auth.head;
        }
        on_link(seq, head);
    })?;
    if mismatch {
        return Err(SegmentError::HeadMismatch);
    }
    if !covered {
        // Diagnostic counts only; entry counts fit a usize by construction.
        #[allow(clippy::cast_possible_truncation)]
        return Err(SegmentError::TooShort {
            have: end_seq.saturating_sub(anchor_seq) as usize,
            need: (auth.seq + 1).saturating_sub(anchor_seq) as usize,
        });
    }
    Ok(())
}

/// Why a log segment failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// The segment claims to belong to a different node than the authenticator.
    WrongNode,
    /// The authenticator's signature is invalid.
    BadSignature,
    /// The segment does not cover the authenticated prefix.
    TooShort {
        /// Entries present.
        have: usize,
        /// Entries required.
        need: usize,
    },
    /// Entry sequence numbers are not consecutive.
    BadSequence {
        /// Index of the offending entry.
        at: usize,
    },
    /// The recomputed hash-chain head does not match the authenticator.
    HeadMismatch,
    /// Segments are not contiguous with each other or with the anchor.
    Discontiguous {
        /// Claimed base sequence number of the offending segment.
        at_seq: u64,
    },
    /// A mid-chain segment was verified without a checkpoint anchor.
    NotAnchored {
        /// The segment's claimed base sequence number.
        base_seq: u64,
    },
    /// The authenticator covers a prefix strictly behind the anchor, so the
    /// suffix cannot be checked against it.
    StaleAuthenticator {
        /// Last entry the authenticator covers.
        seq: u64,
        /// First entry after the anchor.
        anchor: u64,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::WrongNode => write!(f, "segment belongs to a different node"),
            SegmentError::BadSignature => write!(f, "authenticator signature invalid"),
            SegmentError::TooShort { have, need } => write!(f, "segment too short ({have} < {need})"),
            SegmentError::BadSequence { at } => write!(f, "non-consecutive sequence number at {at}"),
            SegmentError::HeadMismatch => write!(f, "hash chain does not match authenticator"),
            SegmentError::Discontiguous { at_seq } => {
                write!(f, "segment starting at seq {at_seq} does not follow its predecessor")
            }
            SegmentError::NotAnchored { base_seq } => {
                write!(
                    f,
                    "segment starting mid-chain at seq {base_seq} needs a checkpoint anchor"
                )
            }
            SegmentError::StaleAuthenticator { seq, anchor } => {
                write!(f, "authenticator (seq {seq}) predates the anchor (seq {anchor})")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::{Tuple, TupleDelta, Value};
    use snp_graph::history::Message;

    fn keys(id: u64) -> KeyPair {
        KeyPair::for_node(NodeId(id))
    }

    fn tuple(i: i64) -> Tuple {
        Tuple::new("link", NodeId(1), vec![Value::Int(i)])
    }

    fn message(seq: u64) -> Message {
        Message::delta(NodeId(1), NodeId(2), TupleDelta::plus(tuple(seq as i64)), seq * 10, seq)
    }

    fn sample_log() -> SecureLog {
        let mut log = SecureLog::new(keys(1));
        log.append(10, EntryKind::Ins { tuple: tuple(1) });
        log.append(20, EntryKind::Snd { message: message(1) });
        log.append(
            30,
            EntryKind::Rcv {
                message: message(2),
                sender_auth_digest: Digest::ZERO,
            },
        );
        log.append(
            40,
            EntryKind::Ack {
                of: message(1).digest(),
                peer_auth_digest: Digest::ZERO,
            },
        );
        log.append(50, EntryKind::Del { tuple: tuple(1) });
        log
    }

    /// A log with `epochs` sealed epochs of `per_epoch` inserts each, plus
    /// `per_epoch` active entries.
    fn epoch_log(epochs: u64, per_epoch: u64) -> SecureLog {
        let mut log = SecureLog::new(keys(1));
        let mut t = 0;
        for e in 0..=epochs {
            for i in 0..per_epoch {
                t += 10;
                log.append(
                    t,
                    EntryKind::Ins {
                        tuple: tuple((e * per_epoch + i) as i64),
                    },
                );
            }
            if e < epochs {
                t += 5;
                log.seal_epoch(t, vec![], Some(format!("state-{e}").into_bytes()));
            }
        }
        log
    }

    #[test]
    fn append_produces_verifiable_segments() {
        let log = sample_log();
        let registry_key = keys(1).public;
        let auth = log.authenticator().expect("non-empty");
        let segment = log.full_segment();
        assert_eq!(segment.verify(&auth, &registry_key), Ok(()));
    }

    #[test]
    fn every_prefix_verifies_against_its_own_authenticator() {
        let mut log = SecureLog::new(keys(1));
        let mut auths = Vec::new();
        for i in 0..10 {
            let (_, auth) = log.append(i * 10, EntryKind::Ins { tuple: tuple(i as i64) });
            auths.push(auth);
        }
        for (i, auth) in auths.iter().enumerate() {
            let segment = log.segment_through(i as u64);
            assert_eq!(segment.verify(auth, &keys(1).public), Ok(()), "prefix {i}");
            // A longer segment also verifies (only the prefix is checked).
            assert_eq!(log.full_segment().verify(auth, &keys(1).public), Ok(()));
        }
    }

    #[test]
    fn one_span_authenticator_covers_a_run_of_unsigned_appends() {
        // The §5.6 batching path appends a whole batch with `append_entry`
        // (no per-entry signature) and issues one authenticator at flush
        // time; verification over the span must behave exactly as if every
        // entry had been signed individually.
        let mut signed = SecureLog::new(keys(1));
        let mut amortized = SecureLog::new(keys(1));
        for i in 0..8 {
            signed.append(i * 10, EntryKind::Ins { tuple: tuple(i as i64) });
            amortized.append_entry(i * 10, EntryKind::Ins { tuple: tuple(i as i64) });
        }
        assert_eq!(signed.head(), amortized.head(), "the chain is signature-independent");
        let auth = amortized.authenticator().expect("non-empty");
        assert_eq!(auth.seq, 7, "the deferred authenticator covers the whole span");
        assert_eq!(amortized.full_segment().verify(&auth, &keys(1).public), Ok(()));
        // Dropping any entry of the span still breaks verification.
        let mut tampered = amortized.full_segment();
        tampered.entries.remove(3);
        assert!(tampered.verify(&auth, &keys(1).public).is_err());
    }

    #[test]
    fn tampered_entry_is_detected() {
        let log = sample_log();
        let auth = log.authenticator().unwrap();
        let mut segment = log.full_segment();
        // Adversary rewrites history: replace the inserted tuple.
        segment.entries[0].kind = EntryKind::Ins { tuple: tuple(99) };
        assert_eq!(segment.verify(&auth, &keys(1).public), Err(SegmentError::HeadMismatch));
    }

    #[test]
    fn removed_entry_is_detected() {
        let log = sample_log();
        let auth = log.authenticator().unwrap();
        let mut segment = log.full_segment();
        segment.entries.remove(2);
        let err = segment.verify(&auth, &keys(1).public).unwrap_err();
        assert!(matches!(
            err,
            SegmentError::BadSequence { .. } | SegmentError::TooShort { .. } | SegmentError::HeadMismatch
        ));
    }

    #[test]
    fn truncated_segment_is_detected() {
        let log = sample_log();
        let auth = log.authenticator().unwrap();
        let segment = log.segment_through(2);
        assert_eq!(
            segment.verify(&auth, &keys(1).public),
            Err(SegmentError::TooShort { have: 3, need: 5 })
        );
    }

    #[test]
    fn segment_from_wrong_node_is_detected() {
        let log = sample_log();
        let auth = log.authenticator().unwrap();
        let mut segment = log.full_segment();
        segment.node = NodeId(2);
        assert_eq!(segment.verify(&auth, &keys(1).public), Err(SegmentError::WrongNode));
    }

    #[test]
    fn forged_authenticator_is_detected() {
        let log = sample_log();
        // The adversary forges an authenticator with node 2's key but claims
        // it is node 1's log.
        let forged = Authenticator::issue(&keys(2), 4, 50, log.head());
        let mut forged = forged;
        forged.node = NodeId(1);
        assert_eq!(
            log.full_segment().verify(&forged, &keys(1).public),
            Err(SegmentError::BadSignature)
        );
    }

    #[test]
    fn stats_accounts_every_entry_class() {
        let log = sample_log();
        let stats = log.stats();
        assert!(stats.message_bytes > 0);
        assert!(stats.authenticator_bytes > 0);
        assert!(stats.signature_bytes > 0);
        assert!(stats.index_bytes > 0);
        assert!(stats.total() >= stats.message_bytes + stats.signature_bytes);
        assert!(stats.mb_per_minute(1.0) > 0.0);
        assert_eq!(stats.mb_per_minute(0.0), 0.0);
    }

    #[test]
    fn download_size_is_positive_and_monotone() {
        let log = sample_log();
        assert!(log.segment_through(0).download_size() < log.full_segment().download_size());
    }

    // ---- epoch sealing, anchoring and truncation ---------------------------

    #[test]
    fn sealing_rolls_epochs_and_keeps_the_full_segment_verifiable() {
        let log = epoch_log(3, 4);
        assert_eq!(log.current_epoch(), 3);
        assert_eq!(log.checkpoints().count(), 3);
        assert_eq!(log.len(), 16);
        assert_eq!(log.total_appended(), 16);
        // Without truncation the flattened log still verifies from genesis.
        let auth = log.authenticator().unwrap();
        assert_eq!(log.full_segment().verify(&auth, &keys(1).public), Ok(()));
        // Checkpoint headers are signed and their roots verify.
        for cp in log.checkpoints() {
            assert!(cp.verify_signature(&keys(1).public));
            assert!(cp.verify_root());
        }
    }

    #[test]
    fn suffix_after_checkpoint_verifies_against_the_anchor() {
        let log = epoch_log(3, 4);
        let auth = log.authenticator().unwrap();
        for anchor_epoch in 0..3u64 {
            let cp = log.checkpoint_for(anchor_epoch).unwrap();
            let segments = log.segments_after(Some(anchor_epoch));
            assert_eq!(
                verify_suffix(&segments, cp.at_seq, cp.chain_head, &auth, &keys(1).public),
                Ok(()),
                "anchor epoch {anchor_epoch}"
            );
            // The verifying walk hands out exactly the heads a second walk would.
            let (mut observed, mut walked) = (Vec::new(), Vec::new());
            let observe = |seq, head| observed.push((seq, head));
            assert_eq!(
                verify_suffix_observing(&segments, cp.at_seq, cp.chain_head, &auth, &keys(1).public, observe),
                Ok(())
            );
            chain_span(&segments, cp.at_seq, cp.chain_head, |seq, head| {
                walked.push((seq, head))
            })
            .unwrap();
            assert_eq!(observed, walked);
            assert_eq!(observed.last(), Some(&(auth.seq, auth.head)));
        }
    }

    #[test]
    fn tampered_suffix_entry_fails_anchor_verification() {
        let log = epoch_log(2, 4);
        let auth = log.authenticator().unwrap();
        let cp = log.checkpoint_for(1).unwrap();
        let mut segments = log.segments_after(Some(1));
        segments[0].entries[0].kind = EntryKind::Ins { tuple: tuple(777) };
        assert_eq!(
            verify_suffix(&segments, cp.at_seq, cp.chain_head, &auth, &keys(1).public),
            Err(SegmentError::HeadMismatch)
        );
    }

    #[test]
    fn dropped_suffix_segment_is_discontiguous() {
        let log = epoch_log(3, 4);
        let auth = log.authenticator().unwrap();
        let cp = log.checkpoint_for(0).unwrap();
        let mut segments = log.segments_after(Some(0));
        segments.remove(1);
        assert!(matches!(
            verify_suffix(&segments, cp.at_seq, cp.chain_head, &auth, &keys(1).public),
            Err(SegmentError::Discontiguous { .. })
        ));
    }

    #[test]
    fn retention_drops_old_entries_but_keeps_checkpoints() {
        let mut log = epoch_log(4, 5);
        assert_eq!(log.len(), 25);
        log.retain_epochs(2);
        // Sealed epochs 0 and 1 are truncated; 2, 3 and the active epoch stay.
        assert_eq!(log.len(), 15);
        assert_eq!(log.dropped_entries(), 10);
        assert!(log.dropped_bytes() > 0);
        assert_eq!(log.total_appended(), 25);
        assert_eq!(log.checkpoints().count(), 4, "checkpoints survive truncation");
        assert!(log.stats().total() > 0);
        // The retained suffix still verifies against the epoch-1 checkpoint.
        let auth = log.authenticator().unwrap();
        let cp = log.checkpoint_for(1).unwrap();
        let segments = log.segments_after(Some(1));
        assert_eq!(
            verify_suffix(&segments, cp.at_seq, cp.chain_head, &auth, &keys(1).public),
            Ok(()),
        );
        // But the flattened log can no longer be verified from genesis.
        assert!(matches!(
            log.full_segment().verify(&auth, &keys(1).public),
            Err(SegmentError::NotAnchored { .. })
        ));
    }

    #[test]
    fn anchor_epoch_respects_time_and_truncation() {
        let mut log = epoch_log(4, 5);
        // Seals happen at t = 55, 110, 165, 220 (5 entries * 10 + 5, cumulative).
        let seal_times: Vec<Timestamp> = log.checkpoints().map(|c| c.timestamp).collect();
        assert_eq!(seal_times.len(), 4);
        // Latest anchor when no time is given.
        assert_eq!(log.anchor_epoch(None), Some(3));
        // A query time before the first seal replays from genesis while the
        // full log is retained.
        assert_eq!(log.anchor_epoch(Some(seal_times[0] - 1)), None);
        // A query time between seals anchors at the earlier checkpoint.
        assert_eq!(log.anchor_epoch(Some(seal_times[2] - 1)), Some(1));
        assert_eq!(log.anchor_epoch(Some(seal_times[2])), Some(2));
        // After truncation the anchor is clamped to the oldest whose suffix
        // is fully retained.
        log.retain_epochs(2);
        assert_eq!(log.anchor_epoch(Some(seal_times[0] - 1)), Some(1));
        assert_eq!(log.anchor_epoch(Some(seal_times[2] - 1)), Some(1));
        assert_eq!(log.anchor_epoch(None), Some(3));
    }

    #[test]
    fn authenticators_survive_truncation() {
        let mut log = epoch_log(3, 4);
        log.retain_epochs(1);
        let auth = log.authenticator().expect("last entry metadata retained");
        assert_eq!(auth.seq, 15);
        assert!(auth.verify(&keys(1).public));
    }

    #[test]
    fn snapshots_are_stored_per_epoch_and_digest_checked() {
        let log = epoch_log(2, 3);
        for epoch in 0..2u64 {
            let cp = log.checkpoint_for(epoch).unwrap();
            let snapshot = log.snapshot_for(epoch).unwrap();
            assert_eq!(snapshot, format!("state-{epoch}").as_bytes());
            assert!(cp.verify_snapshot(snapshot));
        }
        assert!(log.checkpoint_storage_bytes() > 0);
    }

    #[test]
    fn retention_is_refused_without_anchorable_snapshots() {
        // A machine that does not support snapshots seals checkpoints with
        // no snapshot; truncating would make the remaining suffix unauditable
        // and frame the honest node, so retention must keep everything.
        let mut log = SecureLog::new(keys(1));
        for e in 0..4u64 {
            log.append(e * 100 + 10, EntryKind::Ins { tuple: tuple(e as i64) });
            log.seal_epoch(e * 100 + 50, vec![], None);
        }
        log.retain_epochs(1);
        assert_eq!(log.len(), 4, "nothing may be dropped without snapshots");
        assert_eq!(log.dropped_entries(), 0);
        assert_eq!(log.anchor_epoch(None), None, "no epoch can anchor a replay");
    }

    #[test]
    fn retention_prunes_snapshots_below_the_anchorable_horizon() {
        let mut log = epoch_log(4, 5);
        let before = log.checkpoint_storage_bytes();
        log.retain_epochs(2);
        // Oldest anchorable epoch is 1; snapshots and checkpointed tuple
        // state of epoch 0 are pruned, the signed commitment stays.
        assert!(log.snapshot_for(0).is_none());
        assert!(log.snapshot_for(1).is_some());
        let cp0 = log.checkpoint_for(0).unwrap();
        assert!(cp0.pruned && cp0.entries.is_empty());
        assert!(!cp0.verify_root(), "content verification is gone by design");
        assert_ne!(cp0.root, Digest::ZERO, "the commitment survives pruning");
        assert!(cp0.verify_signature(&keys(1).public));
        let cp1 = log.checkpoint_for(1).unwrap();
        assert!(!cp1.pruned && cp1.verify_root(), "anchorable checkpoints stay whole");
        assert!(log.checkpoint_storage_bytes() <= before);
    }

    #[test]
    fn truncated_prefix_requests_return_empty_segments() {
        let mut log = epoch_log(3, 4);
        log.retain_epochs(1);
        let base = log.full_segment().base_seq;
        assert!(base > 0);
        let segment = log.segment_through(base - 1);
        assert!(segment.entries.is_empty(), "a fully truncated prefix has no entries");
        assert_eq!(log.segment_through(base).entries.len(), 1);
    }

    #[test]
    fn sealing_an_empty_epoch_is_harmless() {
        let mut log = SecureLog::new(keys(1));
        log.seal_epoch(5, vec![], None);
        log.append(10, EntryKind::Ins { tuple: tuple(1) });
        let auth = log.authenticator().unwrap();
        let cp = log.checkpoint_for(0).unwrap();
        assert_eq!(cp.at_seq, 0);
        let segments = log.segments_after(Some(0));
        assert_eq!(
            verify_suffix(&segments, cp.at_seq, cp.chain_head, &auth, &keys(1).public),
            Ok(())
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let a = epoch_log(3, 4);
        let b = epoch_log(3, 4);
        assert_eq!(a.head(), b.head());
        let roots_a: Vec<Digest> = a.checkpoints().map(|c| c.root).collect();
        let roots_b: Vec<Digest> = b.checkpoints().map(|c| c.root).collect();
        assert_eq!(roots_a, roots_b);
    }
}
