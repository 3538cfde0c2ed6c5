use crate::sync::AtomicU64;

/// Contention statistics for one mechanism (relaxed counters; cheap enough
/// to keep always on — they are read by the benchmark harness to report
/// admission concurrency).
#[derive(Debug, Default)]
pub struct MechStats {
    /// Total successful acquisitions.
    pub acquisitions: AtomicU64,
    /// Acquisitions that had to wait (parked or spun) at least once. An
    /// acquisition that parks several times before admission still counts
    /// once.
    pub contended: AtomicU64,
    /// Bounded acquisitions that gave up at their deadline.
    pub timeouts: AtomicU64,
    /// Releases refused because the hold counter would have underflowed
    /// (double unlock; see [`super::Mech::unlock`]).
    pub underflows: AtomicU64,
}
