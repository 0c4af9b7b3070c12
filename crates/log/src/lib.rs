//! # snp-log — the tamper-evident log (§5.4)
//!
//! SNooPy's graph recorder stores provenance information in a per-node log
//! whose entries are linked by a hash chain and committed to with signed
//! *authenticators*.  This crate provides:
//!
//! * [`entry`] — the five entry types (`snd`, `rcv`, `ack`, `ins`, `del`) and
//!   their stable byte encoding.
//! * [`auth`] — authenticators `a_k := (t_k, h_k, σ_i(t_k || h_k))` and the
//!   per-peer authenticator sets `U_{i,j}`.
//! * [`log`] — the epoch-segmented append-only [`log::SecureLog`]: sealed
//!   [`log::LogSegment`]s keyed by epoch, flat-segment verification against
//!   an authenticator (the `retrieve` primitive's integrity check), suffix
//!   verification anchored at a signed checkpoint, and the
//!   [`log::SecureLog::retain_epochs`] truncation policy.
//! * [`checkpoint`] — signed epoch checkpoints committing to the node's tuple
//!   state, its machine-snapshot digest and the chain head with a Merkle
//!   root, so that queriers can verify partial checkpoints and replay only
//!   the suffix after a checkpoint (§5.6, §7.7).
//! * [`batch`] — the Nagle-style message batching optimization (`Tbatch`,
//!   §5.6) that trades latency for fewer signatures.
//! * [`verifier`] — the pure, stateless [`verifier::SegmentVerifier`]
//!   (checkpoint signature + Merkle root + `verify_suffix`) that audit
//!   worker threads copy into their own stacks.

#![forbid(unsafe_code)]
// Unit tests may unwrap: a panic is the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
#![warn(missing_docs)]

pub mod auth;
pub mod batch;
pub mod checkpoint;
pub mod codec;
pub mod entry;
pub mod log;
pub mod store;
pub mod verifier;

pub use auth::{Authenticator, AuthenticatorSet};
pub use batch::{Batch, MessageBatcher};
pub use checkpoint::{Checkpoint, CheckpointEntry, PartialCheckpoint};
pub use entry::{EntryKind, LogEntry};
pub use log::{chain_span, verify_suffix, verify_suffix_observing, LogSegment, LogStats, SecureLog, SegmentError};
pub use snp_crypto::keys::NodeId;
pub use store::{FileSegmentStore, MemSegmentStore, RecoveryReport, SegmentStore, StoreError, StoredLog};
pub use verifier::SegmentVerifier;
