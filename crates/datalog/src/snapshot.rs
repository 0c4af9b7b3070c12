//! Deterministic state-snapshot encoding (§5.6's checkpoints, epoch edition).
//!
//! When a node seals a log epoch it snapshots its state machine so that a
//! querier can later *restore* the machine and replay only the log suffix
//! after the checkpoint instead of the whole history.  The snapshot must be
//!
//! * **deterministic** — two machines in the same state produce byte-identical
//!   snapshots, so the digest committed in the (signed) checkpoint is
//!   reproducible, and
//! * **self-contained data** — the querier loads the bytes into its own
//!   *expected* machine; a compromised node can only forge state, never code.
//!
//! This module provides the little-endianless (everything big-endian) byte
//! writer/reader both the rule [`crate::engine::Engine`] and the hand-written
//! application machines use, plus decoding for [`Value`] and [`Tuple`]
//! (their stable `encode` form already existed for hashing).

use crate::tuple::Tuple;
use crate::value::Value;
use snp_crypto::keys::NodeId;

/// Error produced while decoding a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn err(what: &str) -> SnapshotError {
    SnapshotError(what.to_string())
}

/// The shortest encoded [`Value`]: a tag byte and an 8-byte payload (an
/// integer or node id, or the length of an empty string or list).
pub const MIN_VALUE_LEN: usize = 9;

/// The shortest encoded [`Tuple`]: relation length, location and argument
/// count, 8 bytes each.
pub const MIN_TUPLE_LEN: usize = 24;

/// Append-only snapshot writer.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

// Manual impl: dumping the raw buffer swamps test output; the length is
// what matters when debugging.
impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("bytes", &self.buf.len())
            .finish()
    }
}

impl SnapshotWriter {
    /// Start an empty snapshot.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Finish and return the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Write a u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write an i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a node id.
    pub fn node(&mut self, n: NodeId) {
        self.buf.extend_from_slice(&n.to_bytes());
    }

    /// Write raw bytes, with no length prefix (the inverse of
    /// [`SnapshotReader::bytes`]).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a value (tagged, same encoding as [`Value::encode`]).
    pub fn value(&mut self, v: &Value) {
        v.encode(&mut self.buf);
    }

    /// Write a tuple (same encoding as [`Tuple::encode`]).
    pub fn tuple(&mut self, t: &Tuple) {
        self.buf.extend_from_slice(&t.encode());
    }
}

/// Cursor-based snapshot reader; every method fails cleanly on truncated or
/// malformed input (snapshots cross a trust boundary).
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

// Manual impl: the cursor position against the total length is the useful
// part; the raw bytes are not.
impl std::fmt::Debug for SnapshotReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("pos", &self.pos)
            .field("len", &self.buf.len())
            .finish()
    }
}

impl<'a> SnapshotReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fail unless the whole input was consumed (trailing garbage in a
    /// snapshot is as suspicious as a short read).
    pub fn expect_exhausted(&self) -> Result<(), SnapshotError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(err("trailing bytes"))
        }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read the next `n` raw bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| err("length overflow"))?;
        if end > self.buf.len() {
            return Err(err("unexpected end of input"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// An empty vector for `n` elements about to be decoded, reserving no
    /// more than the remaining input could encode at `min_encoded_len` bytes
    /// per element — a forged count then fails on its first missing element
    /// instead of allocating for all of them.  `min_encoded_len` must be
    /// non-zero.
    pub fn vec_for<T>(&self, n: usize, min_encoded_len: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / min_encoded_len))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_be_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Read a length or element count and check it against the input still
    /// to be read: every byte or element it announces takes at least one
    /// byte, so a larger value is malformed.
    pub fn read_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| err("length exceeds remaining input"))
    }

    /// Read an i64.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_be_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_be_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a node id.
    pub fn node(&mut self) -> Result<NodeId, SnapshotError> {
        Ok(NodeId(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.read_len()?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid utf-8"))
    }

    /// Read a tagged [`Value`].
    pub fn value(&mut self) -> Result<Value, SnapshotError> {
        match self.u8()? {
            0x01 => Ok(Value::Int(self.i64()?)),
            0x02 => Ok(Value::Str(self.str_body()?)),
            0x03 => Ok(Value::Node(self.node()?)),
            0x04 => {
                let n = self.read_len()?;
                let mut items = self.vec_for(n, MIN_VALUE_LEN);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Ok(Value::List(items))
            }
            tag => Err(err(&format!("unknown value tag {tag:#x}"))),
        }
    }

    fn str_body(&mut self) -> Result<String, SnapshotError> {
        let n = self.read_len()?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid utf-8"))
    }

    /// Read a [`Tuple`] (inverse of [`Tuple::encode`]).
    pub fn tuple(&mut self) -> Result<Tuple, SnapshotError> {
        let relation = self.str()?;
        let location = self.node()?;
        let argc = self.read_len()?;
        let mut args = self.vec_for(argc, MIN_VALUE_LEN);
        for _ in 0..argc {
            args.push(self.value()?);
        }
        Ok(Tuple {
            relation,
            location,
            args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tuple() -> Tuple {
        Tuple::new(
            "route",
            NodeId(3),
            vec![
                Value::Int(-7),
                Value::str("10.0.0.0/8"),
                Value::node(9u64),
                Value::List(vec![Value::node(1u64), Value::node(2u64)]),
            ],
        )
    }

    #[test]
    fn tuple_roundtrips_through_its_stable_encoding() {
        let t = sample_tuple();
        let mut w = SnapshotWriter::new();
        w.tuple(&t);
        let bytes = w.finish();
        assert_eq!(bytes, t.encode(), "writer must reuse the stable encoding");
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.tuple().unwrap(), t);
        assert!(r.expect_exhausted().is_ok());
    }

    #[test]
    fn scalars_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.u64(42);
        w.i64(-42);
        w.u32(7);
        w.u8(255);
        w.node(NodeId(5));
        w.str("hello");
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u8().unwrap(), 255);
        assert_eq!(r.node().unwrap(), NodeId(5));
        assert_eq!(r.str().unwrap(), "hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut w = SnapshotWriter::new();
        w.tuple(&sample_tuple());
        let bytes = w.finish();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = SnapshotReader::new(&bytes[..cut]);
            assert!(r.tuple().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.read_len().is_err());
    }

    #[test]
    fn length_is_checked_against_the_remaining_input() {
        let mut w = SnapshotWriter::new();
        w.u64(3);
        w.u64(9);
        w.bytes(&[7; 8]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        // 3 fits the 16 bytes still to be read; 9 does not fit the last 8,
        // although it fits the 24-byte buffer as a whole.
        assert_eq!(r.read_len(), Ok(3));
        assert!(matches!(r.read_len(), Err(SnapshotError(_))));
        // A count at the very end of the input announces nothing readable.
        let mut w = SnapshotWriter::new();
        w.u64(1);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.read_len().is_err(), "no byte remains after the count");
        let mut r = SnapshotReader::new(&bytes[..0]);
        assert!(r.read_len().is_err(), "no count at the end of the input");
    }

    #[test]
    fn forged_counts_reserve_only_what_the_input_can_hold() {
        // A list claiming one element per remaining byte passes `read_len`,
        // but the values need 9 bytes each.
        let mut w = SnapshotWriter::new();
        w.u8(0x04);
        w.u64(18);
        w.bytes(&[0x01; 18]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8(), Ok(0x04));
        let n = r.read_len().unwrap();
        let items: Vec<Value> = r.vec_for(n, MIN_VALUE_LEN);
        assert_eq!((n, items.capacity()), (18, 2));
        assert!(SnapshotReader::new(&bytes).value().is_err());
    }

    #[test]
    fn raw_bytes_roundtrip_and_stay_bounded() {
        let mut w = SnapshotWriter::new();
        w.bytes(b"abc");
        w.u8(1);
        let bytes = w.finish();
        assert_eq!(bytes, b"abc\x01");
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.bytes(3), Ok(&b"abc"[..]));
        assert_eq!(r.remaining(), 1);
        assert!(r.bytes(2).is_err());
        assert!(r.bytes(usize::MAX).is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapshotWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.expect_exhausted().is_err());
    }
}
