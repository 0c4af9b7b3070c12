//! Durable segment storage behind [`SecureLog`](crate::log::SecureLog).
//!
//! Until real-fleet mode, sealed segments and checkpoints lived only in RAM:
//! `retain_epochs` truncation guarded commitments for logs that vanished on
//! restart.  The [`SegmentStore`] trait makes durability pluggable:
//!
//! * [`MemSegmentStore`] — the default-equivalent in-memory impl, useful for
//!   exercising the recovery protocol without touching disk (tests clone the
//!   store out of a "crashed" log and reopen from it).
//! * [`FileSegmentStore`] — a crash-safe append-only file store: one file per
//!   sealed epoch segment plus a signed checkpoint record, written
//!   atomically (temp file + rename) and fsynced at every seal.  Entries of
//!   the open epoch stream into an unsynced `tail.log`; on reopen the tail is
//!   *dropped and reported* — a restarted node resumes from its last sealed
//!   checkpoint, exactly the state the querier's anchored replay can verify.
//!
//! Reopen verification is **zero-copy**: the file store hashes the raw
//! length-prefixed record slices straight out of the read buffer — the same
//! bytes [`LogEntry::encode`](crate::entry::LogEntry::encode) produced and
//! the hash chain linked over — before any entry is decoded, so a flipped
//! bit on disk surfaces as a typed [`StoreError`] (honest nodes refuse to
//! start) or, if a compromised node serves the store unverified, as red
//! evidence at the next audit.

use crate::checkpoint::Checkpoint;
use crate::codec;
use crate::entry::LogEntry;
use crate::log::LogSegment;
use snp_crypto::keys::NodeId;
use snp_crypto::sign::PublicKey;
use snp_crypto::{Digest, HashChain};
use snp_datalog::snapshot::{SnapshotReader, SnapshotWriter};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of a segment file.
const SEG_MAGIC: &[u8; 8] = b"SNPSEG01";
/// Magic prefix of a checkpoint record file.
const CKPT_MAGIC: &[u8; 8] = b"SNPCKP01";
/// Magic prefix of the active-epoch tail file.
const TAIL_MAGIC: &[u8; 8] = b"SNPTAIL1";

/// Byte length of a segment file that seals an epoch with no entries: the
/// fixed header only (8 magic + 8 node + 8 epoch + 8 base seq + 32 start
/// head + 8 count).  Anything longer carries at least one entry record.
pub const SEG_HEADER_LEN: u64 = 72;

/// In-memory index for a `u64` counter that is already bounded by an
/// in-memory structure (checkpoint slots, validated record counts), so it
/// fits `usize` by construction.
#[allow(clippy::cast_possible_truncation)]
fn idx(n: u64) -> usize {
    n as usize
}

/// A typed store failure.  Corruption never panics: an honest node refuses
/// to resume from a store it cannot verify, and reports *what* failed.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The operation that failed (open/read/write/sync/rename/remove).
        op: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A file exists but its contents do not parse.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A checkpoint record's signature does not verify against the node key.
    BadCheckpointSignature {
        /// The epoch whose checkpoint failed.
        epoch: u64,
    },
    /// A checkpoint record's Merkle root does not match its entries.
    BadCheckpointRoot {
        /// The epoch whose checkpoint failed.
        epoch: u64,
    },
    /// A stored snapshot does not hash to the digest its checkpoint signed.
    SnapshotDigestMismatch {
        /// The epoch whose snapshot failed.
        epoch: u64,
    },
    /// Replaying a segment's raw entry records did not reach the chain head
    /// its sealing checkpoint signed.
    ChainMismatch {
        /// The epoch whose segment failed.
        epoch: u64,
        /// The head the checkpoint committed to.
        expected: Digest,
        /// The head recomputed from the stored records.
        found: Digest,
    },
    /// The set of stored epochs has a hole where contiguity is required.
    Discontiguous {
        /// Description of the gap.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, op, error } => write!(f, "{op} {}: {error}", path.display()),
            StoreError::Corrupt { path, detail } => write!(f, "corrupt store file {}: {detail}", path.display()),
            StoreError::BadCheckpointSignature { epoch } => {
                write!(f, "checkpoint record for epoch {epoch} fails signature verification")
            }
            StoreError::BadCheckpointRoot { epoch } => {
                write!(f, "checkpoint record for epoch {epoch} fails Merkle root verification")
            }
            StoreError::SnapshotDigestMismatch { epoch } => {
                write!(f, "stored snapshot for epoch {epoch} does not match its signed digest")
            }
            StoreError::ChainMismatch { epoch, expected, found } => write!(
                f,
                "segment for epoch {epoch} breaks the hash chain: sealed head {}, recomputed {}",
                expected.short(),
                found.short()
            ),
            StoreError::Discontiguous { detail } => write!(f, "stored epochs are discontiguous: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Everything a store can give back on reopen.
#[derive(Debug, Default)]
pub struct StoredLog {
    /// Sealed segments whose entries survived (contiguous suffix of epochs).
    pub segments: Vec<LogSegment>,
    /// One `(checkpoint, snapshot)` per sealed epoch, indexed by epoch.
    pub checkpoints: Vec<(Checkpoint, Option<Vec<u8>>)>,
    /// Complete entries found in the unsealed tail (dropped on recovery —
    /// they were never committed by a signed checkpoint).
    pub lost_tail_entries: u64,
    /// Bytes of the dropped tail records.
    pub lost_tail_bytes: u64,
}

/// What a node learns when it resumes from a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch the node resumes in (one past the last sealed epoch).
    pub resumed_epoch: u64,
    /// The sequence number the next appended entry will carry.
    pub resumed_seq: u64,
    /// The chain head at the resume point (the last sealed checkpoint's).
    pub head: Digest,
    /// Unsealed-tail entries lost to the crash.
    pub lost_tail_entries: u64,
    /// Bytes of unsealed tail lost to the crash.
    pub lost_tail_bytes: u64,
    /// Sealed segments whose entries are still retained.
    pub retained_segments: usize,
}

/// Durability sink and recovery source for a [`SecureLog`](crate::log::SecureLog).
///
/// The log keeps its in-memory working set either way; a store only decides
/// whether that state survives the process.
pub trait SegmentStore: std::fmt::Debug + Send {
    /// Record one appended entry of the open epoch (`bytes` is exactly
    /// [`LogEntry::encode`](crate::entry::LogEntry::encode)).  Not required
    /// to be durable until the next [`SegmentStore::seal`].
    fn append_tail(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Durably persist a sealed epoch: its segment, its signed checkpoint
    /// record and the optional state snapshot.  Clears the tail (those
    /// entries are now inside the segment).  Must not return before the data
    /// is on stable storage.
    fn seal(
        &mut self,
        segment: &LogSegment,
        checkpoint: &Checkpoint,
        snapshot: Option<&[u8]>,
    ) -> Result<(), StoreError>;

    /// Drop the stored entries of a truncated epoch (its checkpoint record
    /// stays).
    fn drop_segment_entries(&mut self, epoch: u64) -> Result<(), StoreError>;

    /// Replace a checkpoint record with its pruned form (entries and
    /// snapshot discarded, signed commitment kept).
    fn prune_checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), StoreError>;

    /// Read everything back.  With `verify = Some(key)` the store must
    /// authenticate what it returns — checkpoint signatures and Merkle
    /// roots, snapshot digests, and the hash chain of every segment against
    /// its sealed head — and fail with a typed error otherwise.  With
    /// `verify = None` the data is returned as stored (structural decoding
    /// only); a compromised node restarting over a tampered store serves
    /// exactly those bytes, and the querier's audit convicts it.
    ///
    /// Complete-but-unsealed tail records are counted into the report and
    /// discarded: recovery resumes at the last *signed* state.
    fn load(&mut self, verify: Option<&PublicKey>) -> Result<StoredLog, StoreError>;

    /// Clone into a boxed trait object (stores ride inside `Clone` nodes).
    fn boxed_clone(&self) -> Box<dyn SegmentStore>;
}

impl Clone for Box<dyn SegmentStore> {
    fn clone(&self) -> Box<dyn SegmentStore> {
        self.boxed_clone()
    }
}

/// Shared verification used by [`MemSegmentStore`] (the file store verifies
/// zero-copy during its parse instead).
fn verify_stored(stored: &StoredLog, node: NodeId, public: &PublicKey) -> Result<(), StoreError> {
    for (epoch, (cp, snapshot)) in stored.checkpoints.iter().enumerate() {
        let epoch = epoch as u64;
        if cp.node != node || cp.epoch != epoch {
            return Err(StoreError::Discontiguous {
                detail: format!("checkpoint at slot {epoch} seals node {} epoch {}", cp.node, cp.epoch),
            });
        }
        if !cp.verify_signature(public) {
            return Err(StoreError::BadCheckpointSignature { epoch });
        }
        if !cp.pruned && !cp.verify_root() {
            return Err(StoreError::BadCheckpointRoot { epoch });
        }
        if let Some(s) = snapshot {
            if !cp.verify_snapshot(s) {
                return Err(StoreError::SnapshotDigestMismatch { epoch });
            }
        }
    }
    for segment in &stored.segments {
        let cp = stored
            .checkpoints
            .get(idx(segment.epoch))
            .map(|(c, _)| c)
            .ok_or_else(|| StoreError::Discontiguous {
                detail: format!("segment for epoch {} has no checkpoint", segment.epoch),
            })?;
        let mut head = segment.start_head;
        for entry in &segment.entries {
            head = HashChain::link(head, &entry.encode());
        }
        if head != cp.chain_head {
            return Err(StoreError::ChainMismatch {
                epoch: segment.epoch,
                expected: cp.chain_head,
                found: head,
            });
        }
    }
    check_segment_layout(stored)
}

/// Structural invariants shared by both stores: segments form a contiguous
/// suffix of the sealed epochs and agree with the checkpoint boundaries.
fn check_segment_layout(stored: &StoredLog) -> Result<(), StoreError> {
    let sealed = stored.checkpoints.len() as u64;
    for (i, segment) in stored.segments.iter().enumerate() {
        if segment.epoch >= sealed {
            return Err(StoreError::Discontiguous {
                detail: format!("segment for epoch {} past the last sealed epoch", segment.epoch),
            });
        }
        if i > 0 && segment.epoch != stored.segments[i - 1].epoch + 1 {
            return Err(StoreError::Discontiguous {
                detail: format!(
                    "segment epochs jump from {} to {}",
                    stored.segments[i - 1].epoch,
                    segment.epoch
                ),
            });
        }
        let (expected_base, expected_head) = boundary_before(stored, segment.epoch);
        if segment.base_seq != expected_base {
            return Err(StoreError::Discontiguous {
                detail: format!(
                    "segment for epoch {} starts at seq {} (expected {})",
                    segment.epoch, segment.base_seq, expected_base
                ),
            });
        }
        if segment.start_head != expected_head {
            return Err(StoreError::Discontiguous {
                detail: format!(
                    "segment for epoch {} starts at head {} (expected {})",
                    segment.epoch,
                    segment.start_head.short(),
                    expected_head.short()
                ),
            });
        }
    }
    if let Some(last) = stored.segments.last() {
        if last.epoch + 1 != sealed {
            return Err(StoreError::Discontiguous {
                detail: format!(
                    "last stored segment seals epoch {}, checkpoints reach {}",
                    last.epoch, sealed
                ),
            });
        }
    }
    Ok(())
}

/// The `(base_seq, start_head)` a segment for `epoch` must start from.
fn boundary_before(stored: &StoredLog, epoch: u64) -> (u64, Digest) {
    if epoch == 0 {
        (0, Digest::ZERO)
    } else {
        match stored.checkpoints.get(idx(epoch) - 1) {
            Some((cp, _)) => (cp.at_seq, cp.chain_head),
            None => (0, Digest::ZERO),
        }
    }
}

/// In-memory [`SegmentStore`]: mirrors exactly what the file store persists,
/// without the disk.  Cloning it models a surviving medium across a crash.
#[derive(Clone, Debug, Default)]
pub struct MemSegmentStore {
    segments: Vec<LogSegment>,
    checkpoints: Vec<(Checkpoint, Option<Vec<u8>>)>,
    tail: Vec<Vec<u8>>,
}

impl MemSegmentStore {
    /// An empty store.
    pub fn new() -> MemSegmentStore {
        MemSegmentStore::default()
    }

    /// Entries currently buffered in the unsealed tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Corrupt the stored checkpoint record for `epoch` (test hook for the
    /// recovery protocol: a real medium flips bits, this flips a field).
    pub fn corrupt_checkpoint(&mut self, epoch: u64) {
        if let Some((cp, _)) = self.checkpoints.get_mut(idx(epoch)) {
            cp.at_seq ^= 1;
        }
    }

    /// Flip one bit inside an entry of the stored segment for `epoch`.
    pub fn corrupt_segment(&mut self, epoch: u64) {
        if let Some(seg) = self.segments.iter_mut().find(|s| s.epoch == epoch) {
            if let Some(entry) = seg.entries.first_mut() {
                entry.timestamp ^= 1;
            }
        }
    }
}

impl SegmentStore for MemSegmentStore {
    fn append_tail(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.tail.push(bytes.to_vec());
        Ok(())
    }

    fn seal(
        &mut self,
        segment: &LogSegment,
        checkpoint: &Checkpoint,
        snapshot: Option<&[u8]>,
    ) -> Result<(), StoreError> {
        self.segments.push(segment.clone());
        self.checkpoints
            .push((checkpoint.clone(), snapshot.map(|s| s.to_vec())));
        self.tail.clear();
        Ok(())
    }

    fn drop_segment_entries(&mut self, epoch: u64) -> Result<(), StoreError> {
        self.segments.retain(|s| s.epoch != epoch);
        Ok(())
    }

    fn prune_checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), StoreError> {
        if let Some(slot) = self.checkpoints.get_mut(idx(checkpoint.epoch)) {
            *slot = (checkpoint.clone(), None);
        }
        Ok(())
    }

    fn load(&mut self, verify: Option<&PublicKey>) -> Result<StoredLog, StoreError> {
        let stored = StoredLog {
            segments: self.segments.clone(),
            checkpoints: self.checkpoints.clone(),
            lost_tail_entries: self.tail.len() as u64,
            lost_tail_bytes: self.tail.iter().map(|r| r.len() as u64).sum(),
        };
        if let Some(public) = verify {
            let node = stored
                .checkpoints
                .first()
                .map(|(c, _)| c.node)
                .or_else(|| stored.segments.first().map(|s| s.node));
            if let Some(node) = node {
                verify_stored(&stored, node, public)?;
            }
        } else {
            check_segment_layout(&stored)?;
        }
        self.tail.clear();
        Ok(stored)
    }

    fn boxed_clone(&self) -> Box<dyn SegmentStore> {
        Box::new(self.clone())
    }
}

/// Little-endianless cursor over a raw file buffer; unlike
/// [`SnapshotReader`] it exposes the underlying slices, which is what makes
/// reopen verification zero-copy.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn digest(&mut self) -> Option<Digest> {
        let bytes: [u8; 32] = self.take(32)?.try_into().expect("32 bytes");
        Some(Digest(bytes))
    }
}

/// Crash-safe append-only file store: `epoch-NNNNNNNN.seg` +
/// `epoch-NNNNNNNN.ckpt` per sealed epoch, `tail.log` for the open epoch.
#[derive(Debug)]
pub struct FileSegmentStore {
    dir: PathBuf,
    node: NodeId,
    tail: Option<fs::File>,
}

impl Clone for FileSegmentStore {
    fn clone(&self) -> FileSegmentStore {
        // A clone shares the directory but reopens its own tail handle
        // lazily; concurrent writers are the caller's responsibility (nodes
        // never share a log).
        FileSegmentStore {
            dir: self.dir.clone(),
            node: self.node,
            tail: None,
        }
    }
}

impl FileSegmentStore {
    /// Open (creating if needed) the store for `node` under `dir`.
    pub fn open(dir: impl Into<PathBuf>, node: NodeId) -> Result<FileSegmentStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|error| StoreError::Io {
            path: dir.clone(),
            op: "create_dir_all",
            error,
        })?;
        Ok(FileSegmentStore { dir, node, tail: None })
    }

    /// The directory the store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn seg_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:08}.seg"))
    }

    fn ckpt_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:08}.ckpt"))
    }

    fn tail_path(&self) -> PathBuf {
        self.dir.join("tail.log")
    }

    fn io(path: &Path, op: &'static str, error: std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.to_path_buf(),
            op,
            error,
        }
    }

    fn corrupt(path: &Path, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }

    /// Write `bytes` to `path` atomically (temp file, fsync, rename, dir
    /// fsync): a crash leaves either the old file or the new one, never a
    /// torn record.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp).map_err(|e| Self::io(&tmp, "create", e))?;
            f.write_all(bytes).map_err(|e| Self::io(&tmp, "write", e))?;
            f.sync_all().map_err(|e| Self::io(&tmp, "sync", e))?;
        }
        fs::rename(&tmp, path).map_err(|e| Self::io(path, "rename", e))?;
        self.sync_dir()
    }

    fn sync_dir(&self) -> Result<(), StoreError> {
        let d = fs::File::open(&self.dir).map_err(|e| Self::io(&self.dir, "open dir", e))?;
        d.sync_all().map_err(|e| Self::io(&self.dir, "sync dir", e))
    }

    fn tail_handle(&mut self) -> Result<&mut fs::File, StoreError> {
        if self.tail.is_none() {
            let path = self.tail_path();
            let fresh = !path.exists();
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| Self::io(&path, "open", e))?;
            if fresh {
                f.write_all(TAIL_MAGIC).map_err(|e| Self::io(&path, "write", e))?;
            }
            self.tail = Some(f);
        }
        Ok(self.tail.as_mut().expect("just opened"))
    }

    fn reset_tail(&mut self) -> Result<(), StoreError> {
        self.tail = None;
        let path = self.tail_path();
        let mut f = fs::File::create(&path).map_err(|e| Self::io(&path, "create", e))?;
        f.write_all(TAIL_MAGIC).map_err(|e| Self::io(&path, "write", e))?;
        f.sync_all().map_err(|e| Self::io(&path, "sync", e))?;
        self.tail = Some(f);
        Ok(())
    }

    /// Stored epochs, split into checkpoint-record and segment epochs.
    fn scan(&self) -> Result<(Vec<u64>, Vec<u64>), StoreError> {
        let mut ckpts = Vec::new();
        let mut segs = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| Self::io(&self.dir, "read_dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Self::io(&self.dir, "read_dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let parse = |rest: &str, ext: &str| -> Option<u64> { rest.strip_suffix(ext)?.parse().ok() };
            if let Some(epoch) = name.strip_prefix("epoch-").and_then(|r| parse(r, ".ckpt")) {
                ckpts.push(epoch);
            } else if let Some(epoch) = name.strip_prefix("epoch-").and_then(|r| parse(r, ".seg")) {
                segs.push(epoch);
            }
        }
        ckpts.sort_unstable();
        segs.sort_unstable();
        Ok((ckpts, segs))
    }

    fn read_checkpoint_file(&self, epoch: u64) -> Result<(Checkpoint, Option<Vec<u8>>), StoreError> {
        let path = self.ckpt_path(epoch);
        let buf = fs::read(&path).map_err(|e| Self::io(&path, "read", e))?;
        if buf.len() < CKPT_MAGIC.len() || &buf[..CKPT_MAGIC.len()] != CKPT_MAGIC {
            return Err(Self::corrupt(&path, "bad magic"));
        }
        let mut r = SnapshotReader::new(&buf[CKPT_MAGIC.len()..]);
        let cp = codec::read_checkpoint(&mut r).map_err(|e| Self::corrupt(&path, e.0))?;
        let snapshot = match r.u8().map_err(|e| Self::corrupt(&path, e.0))? {
            0 => None,
            1 => {
                let len = r.read_len().map_err(|e| Self::corrupt(&path, e.0))?;
                Some(r.bytes(len).map_err(|e| Self::corrupt(&path, e.0))?.to_vec())
            }
            flag => return Err(Self::corrupt(&path, format!("bad snapshot flag {flag}"))),
        };
        r.expect_exhausted().map_err(|e| Self::corrupt(&path, e.0))?;
        Ok((cp, snapshot))
    }

    /// Parse a segment file.  In verified mode the hash chain is recomputed
    /// over the raw record slices (no decode, no re-encode) and checked
    /// against `sealed_head` before the entries are decoded at all.
    fn read_segment_file(&self, epoch: u64, sealed_head: Option<&Digest>) -> Result<LogSegment, StoreError> {
        let path = self.seg_path(epoch);
        let buf = fs::read(&path).map_err(|e| Self::io(&path, "read", e))?;
        let mut c = Cursor::new(&buf);
        if c.take(SEG_MAGIC.len()) != Some(&SEG_MAGIC[..]) {
            return Err(Self::corrupt(&path, "bad magic"));
        }
        let node = NodeId(c.u64().ok_or_else(|| Self::corrupt(&path, "short header"))?);
        let file_epoch = c.u64().ok_or_else(|| Self::corrupt(&path, "short header"))?;
        let base_seq = c.u64().ok_or_else(|| Self::corrupt(&path, "short header"))?;
        let start_head = c.digest().ok_or_else(|| Self::corrupt(&path, "short header"))?;
        let count = c.u64().ok_or_else(|| Self::corrupt(&path, "short header"))?;
        if file_epoch != epoch {
            return Err(Self::corrupt(
                &path,
                format!("header epoch {file_epoch} != file name {epoch}"),
            ));
        }
        if count > buf.len() as u64 {
            return Err(Self::corrupt(&path, "entry count exceeds file size"));
        }
        // First pass: slice out the raw records and extend the hash chain
        // over them — the exact bytes the node linked when it appended.
        let mut records = Vec::with_capacity(idx(count));
        let mut head = start_head;
        for i in 0..count {
            let len =
                c.u32()
                    .ok_or_else(|| Self::corrupt(&path, format!("record {i}: short length")))? as usize;
            let slice = c
                .take(len)
                .ok_or_else(|| Self::corrupt(&path, format!("record {i}: truncated")))?;
            if sealed_head.is_some() {
                head = HashChain::link(head, slice);
            }
            records.push(slice);
        }
        if c.remaining() != 0 {
            return Err(Self::corrupt(&path, "trailing bytes"));
        }
        if let Some(expected) = sealed_head {
            if head != *expected {
                return Err(StoreError::ChainMismatch {
                    epoch,
                    expected: *expected,
                    found: head,
                });
            }
        }
        // Second pass: decode.  Structural corruption is typed, never a
        // panic — a store crosses a trust boundary on reopen.
        let mut entries = Vec::with_capacity(records.len());
        for (i, slice) in records.iter().enumerate() {
            let entry = codec::decode_entry(slice).map_err(|e| Self::corrupt(&path, format!("record {i}: {}", e.0)))?;
            entries.push(entry);
        }
        Ok(LogSegment {
            node,
            epoch,
            base_seq,
            start_head,
            entries,
        })
    }

    /// Count and size the complete records of the tail file.  Torn trailing
    /// bytes (a record cut mid-write by the crash) are expected and ignored.
    fn read_tail(&self) -> Result<(u64, u64, Vec<LogEntry>), StoreError> {
        let path = self.tail_path();
        let buf = match fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0, Vec::new())),
            Err(e) => return Err(Self::io(&path, "read", e)),
        };
        if buf.len() < TAIL_MAGIC.len() || &buf[..TAIL_MAGIC.len()] != TAIL_MAGIC {
            // A tail that never got its magic written is an empty tail.
            return Ok((0, 0, Vec::new()));
        }
        let mut c = Cursor::new(&buf[TAIL_MAGIC.len()..]);
        let mut entries = Vec::new();
        let mut bytes = 0u64;
        while let Some(len) = c.u32() {
            let Some(slice) = c.take(len as usize) else { break };
            let Ok(entry) = codec::decode_entry(slice) else { break };
            bytes += slice.len() as u64;
            entries.push(entry);
        }
        Ok((entries.len() as u64, bytes, entries))
    }
}

impl SegmentStore for FileSegmentStore {
    fn append_tail(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.tail_path();
        let f = self.tail_handle()?;
        let len = u32::try_from(bytes.len()).map_err(|_| Self::corrupt(&path, "entry larger than 4 GiB"))?;
        let mut record = Vec::with_capacity(4 + bytes.len());
        record.extend_from_slice(&len.to_be_bytes());
        record.extend_from_slice(bytes);
        f.write_all(&record).map_err(|e| Self::io(&path, "write", e))
    }

    fn seal(
        &mut self,
        segment: &LogSegment,
        checkpoint: &Checkpoint,
        snapshot: Option<&[u8]>,
    ) -> Result<(), StoreError> {
        // Segment file: header + length-prefixed raw entry encodings.
        let mut seg = Vec::new();
        seg.extend_from_slice(SEG_MAGIC);
        seg.extend_from_slice(&segment.node.to_bytes());
        seg.extend_from_slice(&segment.epoch.to_be_bytes());
        seg.extend_from_slice(&segment.base_seq.to_be_bytes());
        seg.extend_from_slice(segment.start_head.as_bytes());
        seg.extend_from_slice(&(segment.entries.len() as u64).to_be_bytes());
        for entry in &segment.entries {
            let bytes = entry.encode();
            let len = u32::try_from(bytes.len())
                .map_err(|_| Self::corrupt(&self.seg_path(segment.epoch), "entry larger than 4 GiB"))?;
            seg.extend_from_slice(&len.to_be_bytes());
            seg.extend_from_slice(&bytes);
        }
        self.write_atomic(&self.seg_path(segment.epoch), &seg)?;
        // Checkpoint record (written after the segment: recovery treats a
        // segment without its checkpoint as part of the lost tail).
        let mut w = SnapshotWriter::new();
        codec::write_checkpoint(&mut w, checkpoint);
        match snapshot {
            Some(s) => {
                w.u8(1);
                w.u64(s.len() as u64);
                w.bytes(s);
            }
            None => w.u8(0),
        }
        let mut ckpt = Vec::from(&CKPT_MAGIC[..]);
        ckpt.extend_from_slice(&w.finish());
        self.write_atomic(&self.ckpt_path(checkpoint.epoch), &ckpt)?;
        // The sealed entries are durable inside the segment; restart the tail.
        self.reset_tail()
    }

    fn drop_segment_entries(&mut self, epoch: u64) -> Result<(), StoreError> {
        let path = self.seg_path(epoch);
        match fs::remove_file(&path) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io(&path, "remove", e)),
        }
    }

    fn prune_checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), StoreError> {
        let mut w = SnapshotWriter::new();
        codec::write_checkpoint(&mut w, checkpoint);
        w.u8(0);
        let mut ckpt = Vec::from(&CKPT_MAGIC[..]);
        ckpt.extend_from_slice(&w.finish());
        self.write_atomic(&self.ckpt_path(checkpoint.epoch), &ckpt)
    }

    fn load(&mut self, verify: Option<&PublicKey>) -> Result<StoredLog, StoreError> {
        let (ckpt_epochs, seg_epochs) = self.scan()?;
        // Checkpoint records must cover epochs 0..n contiguously (they are
        // never deleted, only rewritten pruned).
        for (i, &epoch) in ckpt_epochs.iter().enumerate() {
            if epoch != i as u64 {
                return Err(StoreError::Discontiguous {
                    detail: format!("checkpoint records skip from {} to {epoch}", i),
                });
            }
        }
        let sealed = ckpt_epochs.len() as u64;
        let mut stored = StoredLog::default();
        for &epoch in &ckpt_epochs {
            let (cp, snapshot) = self.read_checkpoint_file(epoch)?;
            if cp.node != self.node || cp.epoch != epoch {
                return Err(Self::corrupt(
                    &self.ckpt_path(epoch),
                    format!("seals node {} epoch {}", cp.node, cp.epoch),
                ));
            }
            if let Some(public) = verify {
                if !cp.verify_signature(public) {
                    return Err(StoreError::BadCheckpointSignature { epoch });
                }
                if !cp.pruned && !cp.verify_root() {
                    return Err(StoreError::BadCheckpointRoot { epoch });
                }
                if let Some(s) = &snapshot {
                    if !cp.verify_snapshot(s) {
                        return Err(StoreError::SnapshotDigestMismatch { epoch });
                    }
                }
            }
            stored.checkpoints.push((cp, snapshot));
        }
        for &epoch in &seg_epochs {
            if epoch >= sealed {
                // Sealed-segment write that never got its checkpoint (crash
                // between the two files): the epoch never sealed, so its
                // entries are tail loss.  Remove the orphan.
                let orphan = self.read_segment_file(epoch, None)?;
                stored.lost_tail_entries += orphan.entries.len() as u64;
                stored.lost_tail_bytes += orphan.entries.iter().map(|e| e.storage_size() as u64).sum::<u64>();
                self.drop_segment_entries(epoch)?;
                continue;
            }
            let sealed_head = verify.map(|_| &stored.checkpoints[idx(epoch)].0.chain_head);
            let segment = self.read_segment_file(epoch, sealed_head)?;
            if segment.node != self.node {
                return Err(Self::corrupt(
                    &self.seg_path(epoch),
                    format!("belongs to node {}", segment.node),
                ));
            }
            stored.segments.push(segment);
        }
        check_segment_layout(&stored)?;
        let (lost_entries, lost_bytes, _) = self.read_tail()?;
        stored.lost_tail_entries += lost_entries;
        stored.lost_tail_bytes += lost_bytes;
        self.reset_tail()?;
        Ok(stored)
    }

    fn boxed_clone(&self) -> Box<dyn SegmentStore> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointEntry;
    use crate::entry::EntryKind;
    use snp_crypto::keys::KeyPair;
    use snp_datalog::{Tuple, Value};

    fn keys() -> KeyPair {
        KeyPair::for_node(NodeId(1))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(seq: u64) -> LogEntry {
        LogEntry {
            seq,
            timestamp: seq * 10,
            kind: EntryKind::Ins {
                tuple: Tuple::new("link", NodeId(1), vec![Value::Int(seq as i64)]),
            },
        }
    }

    /// Seal one epoch's worth of artifacts into `store`.
    fn seal_epoch(store: &mut dyn SegmentStore, epoch: u64, base_seq: u64, start_head: Digest, n: u64) -> Digest {
        let entries: Vec<LogEntry> = (base_seq..base_seq + n).map(entry).collect();
        let mut head = start_head;
        for e in &entries {
            let bytes = e.encode();
            store.append_tail(&bytes).unwrap();
            head = HashChain::link(head, &bytes);
        }
        let segment = LogSegment {
            node: NodeId(1),
            epoch,
            base_seq,
            start_head,
            entries,
        };
        let snapshot = vec![epoch as u8; 8];
        let cp = Checkpoint::seal(
            &keys(),
            epoch,
            base_seq + n,
            (base_seq + n) * 10,
            vec![CheckpointEntry {
                tuple: Tuple::new("link", NodeId(1), vec![Value::Int(epoch as i64)]),
                appeared_at: epoch,
            }],
            snp_crypto::hash(&snapshot),
            head,
        );
        store.seal(&segment, &cp, Some(&snapshot)).unwrap();
        head
    }

    fn roundtrip(store: &mut dyn SegmentStore) {
        let head = seal_epoch(store, 0, 0, Digest::ZERO, 5);
        let head = seal_epoch(store, 1, 5, head, 3);
        // Unsealed tail: two entries that must be reported lost.
        store.append_tail(&entry(8).encode()).unwrap();
        store.append_tail(&entry(9).encode()).unwrap();
        let _ = head;
        let stored = store.load(Some(&keys().public)).unwrap();
        assert_eq!(stored.checkpoints.len(), 2);
        assert_eq!(stored.segments.len(), 2);
        assert_eq!(stored.segments[0].entries.len(), 5);
        assert_eq!(stored.segments[1].entries.len(), 3);
        assert_eq!(stored.lost_tail_entries, 2);
        assert!(stored.lost_tail_bytes > 0);
        // After recovery the tail is gone: a second load loses nothing.
        let again = store.load(Some(&keys().public)).unwrap();
        assert_eq!(again.lost_tail_entries, 0);
    }

    #[test]
    fn mem_store_roundtrips_and_reports_lost_tail() {
        let mut store = MemSegmentStore::new();
        roundtrip(&mut store);
    }

    #[test]
    fn file_store_roundtrips_and_reports_lost_tail() {
        let dir = temp_dir("roundtrip");
        let mut store = FileSegmentStore::open(&dir, NodeId(1)).unwrap();
        roundtrip(&mut store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_survives_reopen_from_a_fresh_handle() {
        let dir = temp_dir("reopen");
        let head = {
            let mut store = FileSegmentStore::open(&dir, NodeId(1)).unwrap();
            let head = seal_epoch(&mut store, 0, 0, Digest::ZERO, 4);
            store.append_tail(&entry(4).encode()).unwrap();
            head
            // Store dropped here: the crash.  The tail was never fsynced.
        };
        let mut store = FileSegmentStore::open(&dir, NodeId(1)).unwrap();
        let stored = store.load(Some(&keys().public)).unwrap();
        assert_eq!(stored.checkpoints.len(), 1);
        assert_eq!(stored.checkpoints[0].0.chain_head, head);
        assert_eq!(stored.segments[0].entries.len(), 4);
        assert_eq!(stored.lost_tail_entries, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_a_segment_is_a_typed_chain_mismatch() {
        let dir = temp_dir("bitflip");
        let mut store = FileSegmentStore::open(&dir, NodeId(1)).unwrap();
        seal_epoch(&mut store, 0, 0, Digest::ZERO, 4);
        // Flip one bit inside the first record's timestamp field.
        let path = store.seg_path(0);
        let mut bytes = fs::read(&path).unwrap();
        let offset = SEG_MAGIC.len() + 8 + 8 + 8 + 32 + 8 + 4 + 8; // header + len + seq
        bytes[offset + 7] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = store.load(Some(&keys().public)).unwrap_err();
        assert!(matches!(err, StoreError::ChainMismatch { epoch: 0, .. }), "{err}");
        // Unverified load returns the tampered bytes as stored — the
        // querier's audit is what convicts the node that serves them.
        let stored = store.load(None).unwrap();
        assert_eq!(stored.segments[0].entries.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_record_is_a_typed_error_not_a_panic() {
        let dir = temp_dir("ckpt-corrupt");
        let mut store = FileSegmentStore::open(&dir, NodeId(1)).unwrap();
        seal_epoch(&mut store, 0, 0, Digest::ZERO, 3);
        let path = store.ckpt_path(0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit in the signed header (at_seq field).
        let offset = CKPT_MAGIC.len() + 8 + 8;
        bytes[offset + 7] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = store.load(Some(&keys().public)).unwrap_err();
        assert!(matches!(err, StoreError::BadCheckpointSignature { epoch: 0 }), "{err}");
        // Truncating the record mid-field is structural corruption.
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = store.load(Some(&keys().public)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_drops_segment_files_but_keeps_checkpoints() {
        let dir = temp_dir("truncate");
        let mut store = FileSegmentStore::open(&dir, NodeId(1)).unwrap();
        let head = seal_epoch(&mut store, 0, 0, Digest::ZERO, 5);
        seal_epoch(&mut store, 1, 5, head, 3);
        store.drop_segment_entries(0).unwrap();
        let mut pruned = store.load(None).unwrap().checkpoints[0].0.clone();
        pruned.prune();
        store.prune_checkpoint(&pruned).unwrap();
        let stored = store.load(Some(&keys().public)).unwrap();
        assert_eq!(stored.checkpoints.len(), 2);
        assert!(stored.checkpoints[0].0.pruned);
        assert!(stored.checkpoints[0].1.is_none(), "pruned snapshot dropped");
        assert_eq!(stored.segments.len(), 1);
        assert_eq!(stored.segments[0].epoch, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_segment_without_checkpoint_counts_as_lost_tail() {
        let dir = temp_dir("orphan");
        let mut store = FileSegmentStore::open(&dir, NodeId(1)).unwrap();
        let head = seal_epoch(&mut store, 0, 0, Digest::ZERO, 2);
        // Simulate a crash between the segment write and the checkpoint
        // write of epoch 1: seal normally, then delete the checkpoint.
        seal_epoch(&mut store, 1, 2, head, 3);
        fs::remove_file(store.ckpt_path(1)).unwrap();
        let stored = store.load(Some(&keys().public)).unwrap();
        assert_eq!(stored.checkpoints.len(), 1);
        assert_eq!(stored.segments.len(), 1);
        assert_eq!(stored.lost_tail_entries, 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
