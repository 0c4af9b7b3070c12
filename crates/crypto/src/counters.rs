//! Global crypto-operation counters.
//!
//! Figure 7 of the paper estimates the additional CPU load of SNooPy by
//! counting signature generations, signature verifications and hash
//! operations, and multiplying the counts by the measured per-operation
//! cost.  These counters provide the counts; `snp-bench` measures the
//! per-operation cost with Criterion-style timing loops.
//!
//! The counters are process-global atomics so that application code does not
//! have to thread a statistics handle through every call site.  Benchmarks
//! call [`reset`] before a run and [`snapshot`] afterwards.

use std::sync::atomic::{AtomicU64, Ordering};

static SIGNATURES: AtomicU64 = AtomicU64::new(0);
static VERIFICATIONS: AtomicU64 = AtomicU64::new(0);
static HASH_OPS: AtomicU64 = AtomicU64::new(0);
static HASH_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the crypto-operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CryptoOpCounts {
    /// Number of signature generations.
    pub signatures: u64,
    /// Number of signature verifications.
    pub verifications: u64,
    /// Number of hash invocations.
    pub hash_ops: u64,
    /// Total number of bytes hashed.
    pub hash_bytes: u64,
}

impl CryptoOpCounts {
    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &CryptoOpCounts) -> CryptoOpCounts {
        CryptoOpCounts {
            signatures: self.signatures.saturating_sub(earlier.signatures),
            verifications: self.verifications.saturating_sub(earlier.verifications),
            hash_ops: self.hash_ops.saturating_sub(earlier.hash_ops),
            hash_bytes: self.hash_bytes.saturating_sub(earlier.hash_bytes),
        }
    }
}

/// Record one signature generation.
pub fn record_signature() {
    SIGNATURES.fetch_add(1, Ordering::Relaxed);
}

/// Record one signature verification.
pub fn record_verification() {
    VERIFICATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Record one hash invocation over `bytes` bytes of input.
pub fn record_hash(bytes: usize) {
    HASH_OPS.fetch_add(1, Ordering::Relaxed);
    HASH_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Reset all counters to zero.
pub fn reset() {
    SIGNATURES.store(0, Ordering::Relaxed);
    VERIFICATIONS.store(0, Ordering::Relaxed);
    HASH_OPS.store(0, Ordering::Relaxed);
    HASH_BYTES.store(0, Ordering::Relaxed);
}

/// Run a closure and return its result together with the crypto operations
/// it performed (the difference of the global counters around the call).
/// This is what Figure 7 and the batching ablations use to attribute
/// signature generations to a run.
pub fn with_counting<R>(f: impl FnOnce() -> R) -> (R, CryptoOpCounts) {
    let before = snapshot();
    let result = f();
    let after = snapshot();
    (result, after.since(&before))
}

/// Read the current counter values.
pub fn snapshot() -> CryptoOpCounts {
    CryptoOpCounts {
        signatures: SIGNATURES.load(Ordering::Relaxed),
        verifications: VERIFICATIONS.load(Ordering::Relaxed),
        hash_ops: HASH_OPS.load(Ordering::Relaxed),
        hash_bytes: HASH_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters are process-global and the other tests of this binary
    /// hash and sign on their own threads, so a measurement can pick up their
    /// operations; an undisturbed attempt is exact, and one comes soon.
    fn some_attempt_is_exact(attempt: impl Fn() -> bool) -> bool {
        (0..1000).any(|_| attempt())
    }

    #[test]
    fn with_counting_attributes_ops_to_the_closure() {
        assert!(some_attempt_is_exact(|| {
            let (value, ops) = with_counting(|| {
                record_signature();
                record_hash(10);
                7
            });
            value == 7 && ops.signatures == 1 && ops.hash_ops == 1 && ops.hash_bytes == 10
        }));
    }

    #[test]
    fn counters_accumulate_and_diff() {
        assert!(some_attempt_is_exact(|| {
            let before = snapshot();
            record_signature();
            record_verification();
            record_verification();
            record_hash(100);
            let delta = snapshot().since(&before);
            delta.signatures == 1 && delta.verifications == 2 && delta.hash_ops == 1 && delta.hash_bytes == 100
        }));
    }
}
