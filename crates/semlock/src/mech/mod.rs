//! The per-partition locking mechanism of Fig. 20: **one mechanism,
//! three counter representations, one acquisition protocol**.
//!
//! Each locking mode is represented by a hold counter: the number of
//! transactions currently holding the ADT in that mode. A transaction may
//! acquire mode `l` only when no conflicting mode `l'` (one with
//! `F_c(l, l') = false`) has a positive counter. The paper makes the
//! check-and-increment atomic with "a short internal lock"; this module
//! keeps that scheme as the *wide* representation (and correctness
//! oracle) and serves narrower partitions from a single admission word.
//! The representation is a function of the partition's mode count
//! ([`AdmissionBackend::Auto`]):
//!
//! * **packed** — up to [`PACKED_MODE_LIMIT`] = 8 modes in one
//!   `AtomicU64`: eight 7-bit hold-count fields plus a waiter-summary
//!   bit;
//! * **Dwcas** — up to [`DWCAS_MODE_LIMIT`] = 16 modes in one
//!   `AtomicU128`: sixteen 7-bit fields (bits 0..112) plus the
//!   waiter-summary bit at bit 127, CASed with `lock cmpxchg16b` on
//!   x86_64 (a portable spinlock fallback exists behind
//!   `--no-default-features`; `Auto` only selects Dwcas when the word is
//!   genuinely lock-free);
//! * **wide** — any mode count: one `AtomicU32` per mode,
//!   check-then-increment under the internal mutex.
//!
//! The two words run the same code: the admission protocol is written
//! once over [`WordInt`], and the ordering audit ([`ORDERING_AUDIT`])
//! has one row per site, not one per width.
//!
//! ## Acquisition: admit try → bounded probes → park
//!
//! Every acquisition starts with one **admit try**: a single
//! (double-word) CAS that checks the conflicting-mode mask and increments
//! the local count in one try-update — or, on the wide counters, one
//! mutex-guarded check-then-increment. A refused try has no side effect.
//! That is the whole of [`Mech::try_lock`], and the whole of an
//! uncontended [`Mech::lock`] / [`Mech::lock_deadline`].
//!
//! A refused blocking acquisition then makes up to [`OPTIMISTIC_PROBES`]
//! further tries, pausing 1, 2, 4, … 64 `spin_loop`s between them (the
//! bounded form reads the clock before each and gives up at its
//! deadline — an already-expired deadline is a single try). Only when the
//! budget is spent does it **park**: on a claim-based lock-free waiter
//! stack ([`crate::stack`]) for the words — no path of the packed or
//! Dwcas layouts ever takes the internal mutex — or on the internal
//! condvar for the wide counters.
//!
//! ## Word layouts
//!
//! ```text
//! packed (AtomicU64):
//!   bit 63  bits 56..63    bits 49..56   ...   bits 7..14   bits 0..7
//!   WAITERS (reserved)     count[7]            count[1]     count[0]
//!
//! Dwcas (AtomicU128):
//!   bit 127  bits 112..127   bits 105..112  ...  bits 7..14  bits 0..7
//!   WAITERS  (reserved)      count[15]           count[1]    count[0]
//! ```
//!
//! Each count field is [`FIELD_BITS`] = 7 bits wide, so one mode supports
//! up to 127 simultaneous holders; an admission that would overflow the
//! field parks until a release frees capacity (it can never corrupt a
//! neighbouring field). The `WAITERS` bit summarizes "the waiter stack
//! may be non-empty"; because it lives in the same word as the counts, a
//! releaser learns about waiters from the very CAS that publishes its
//! decrement — no separate flag load, and no `SeqCst` fences: the word's
//! single modification order settles every check-vs-decrement race.
//!
//! ## Claim-based release / wakeup protocol (no lost wakeups, no locks)
//!
//! A parking acquirer runs *episodes*: push a heap node onto the
//! Treiber waiter stack (one tagged-head CAS), set `WAITERS` with a
//! `fetch_or`, and re-check admission **from the word the `fetch_or`
//! returned** — self-admitting if the conflict drained before the bit
//! landed — otherwise park on the node's own flag + condvar. A releaser
//! CAS-decrements its count field; if the pre-decrement word carried
//! `WAITERS` it (1) **clears** the bit, (2) **claims** the whole stack
//! (one CAS swapping the head to empty), and (3) wakes the claimed
//! batch, each waiter retrying admission and re-pushing if a rival won.
//! The decrement and the `fetch_or` target the same atomic word, so they
//! are totally ordered: if the decrement lands first, the waiter's
//! returned word shows the freed count and it self-admits; if the
//! `fetch_or` lands first, the decrement observes the bit and claims the
//! stack, which the push (ordered before the `fetch_or`) already
//! reached. Clearing before claiming makes the bit self-stabilizing: a
//! `fetch_or` ordered after the clear re-sets it with nothing left to
//! erase it, so no release can miss both the bit and the batch. The
//! notification itself is per-node and cannot be lost: a claimer's
//! notify either wakes the parked waiter or marks the node `NOTIFIED`
//! before the waiter parks, and `park` returns immediately on a
//! pre-notified node.
//!
//! Two waiting strategies are provided:
//!
//! * [`WaitStrategy::Block`] — the protocol above. This is the default:
//!   it behaves well on oversubscribed machines (and is what a Java
//!   `synchronized`-based implementation effectively does once the JVM
//!   inflates the lock).
//! * [`WaitStrategy::Spin`] — a literal transcription of Fig. 20's
//!   `goto start` loop after the first refused try, useful for the
//!   ablation benchmark.

mod audit;
/// The hand-audited memory orderings of the admission protocol, as named
/// constants.
///
/// Every atomic access in the admission word (one generic protocol, run at
/// 64 and at 128 bits), the waiter stack and the wide counters names its
/// ordering from this module instead of writing an `Ordering::` literal
/// inline, so the choice is a single definition that (a) the production
/// code compiles against, (b) the [`ORDERING_AUDIT`] table documents with
/// a safety claim, and (c) the `model` crate's interleaving checker
/// imports verbatim — the checked protocol and the shipped protocol cannot
/// silently diverge on an ordering.
pub mod ordering;
mod park;
mod stats;
#[cfg(test)]
mod tests;
mod wide;
mod word;

pub use audit::{ordering_name, OrderingAuditEntry, ORDERING_AUDIT};
pub use park::OPTIMISTIC_PROBES;
pub use stats::MechStats;
pub use word::{
    conflict_mask, field_of, field_shift, waiters_bit, ConflictSet, WordInt, DWCAS_MODE_LIMIT,
    FIELD_BITS, FIELD_MAX, PACKED_MODE_LIMIT,
};

use crate::stack::WaiterStack;
use crate::sync::{AtomicU128, AtomicU32, AtomicU64, Condvar, Mutex, Ordering};
use std::time::{Duration, Instant};
use word::AdmitWord;

/// How acquirers wait for conflicting modes to drain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WaitStrategy {
    /// Sleep on a condvar (default).
    #[default]
    Block,
    /// Spin, re-checking the counters (Fig. 20 verbatim).
    Spin,
}

/// Which counter representation the [`Mech`] of each partition uses.
///
/// [`AdmissionBackend::Auto`] is right everywhere outside tests and A/B
/// benches: the representation is a function of the partition's mode
/// count (and, for 9–16 modes, of whether this build and machine serve a
/// lock-free 128-bit CAS). The concrete variants exist so the conformance
/// suite can force the Wide oracle and the Dwcas word onto small
/// partitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
#[non_exhaustive]
pub enum AdmissionBackend {
    /// Pick per partition: packed when the partition has at most
    /// [`PACKED_MODE_LIMIT`] modes, the 128-bit Dwcas word up to
    /// [`DWCAS_MODE_LIMIT`] modes when the hardware serves it lock-free
    /// ([`crate::dwcas::dwcas_available`]), wide otherwise.
    #[default]
    Auto,
    /// The paper's Fig. 20 scheme: per-mode counters, check-then-increment
    /// under an internal mutex. Any mode count; never lock-free; the
    /// oracle the conformance suite checks the word representations
    /// against.
    Wide,
    /// All hold counts packed into one 64-bit word; admission is one CAS.
    /// Panics at construction if a partition exceeds
    /// [`PACKED_MODE_LIMIT`] modes.
    Packed,
    /// All hold counts in one 128-bit word (cmpxchg16b; portable spinlock
    /// fallback without the `dwcas` feature, so it works — not lock-free —
    /// on every build). Panics at construction if a partition exceeds
    /// [`DWCAS_MODE_LIMIT`] modes.
    Dwcas,
}

impl AdmissionBackend {
    /// The three concrete representations (everything except `Auto`), in
    /// the order the conformance suites iterate them.
    pub const CONCRETE: [AdmissionBackend; 3] = [
        AdmissionBackend::Wide,
        AdmissionBackend::Packed,
        AdmissionBackend::Dwcas,
    ];

    /// Stable snake_case name (bench tables, test diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionBackend::Auto => "auto",
            AdmissionBackend::Wide => "wide",
            AdmissionBackend::Packed => "packed",
            AdmissionBackend::Dwcas => "dwcas",
        }
    }
}

impl std::fmt::Display for AdmissionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of a bounded acquisition ([`Mech::lock_deadline`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Acquire {
    /// The mode was taken.
    Acquired,
    /// The deadline elapsed while a conflicting mode stayed held.
    TimedOut,
    /// The caller's probe asked to abandon the wait (deadlock detected).
    Abandoned,
}

/// Caller decision returned from a wait probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wait {
    /// Keep waiting.
    Continue,
    /// Give up immediately (reported as [`Acquire::Abandoned`]).
    Abandon,
}

/// How long a blocked bounded acquisition sleeps between probes. Probes are
/// where the deadlock watchdog registers and checks for cycles, so this
/// bounds detection latency without touching the uncontended path.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(2);

/// The three counter representations (see the module docs).
enum Counts {
    /// All hold counts in one 64-bit word; admission is a lock-free CAS.
    Packed(AtomicU64),
    /// All hold counts in one 128-bit word (sixteen 7-bit fields);
    /// admission is a lock-free cmpxchg16b on the native path.
    Dwcas(AtomicU128),
    /// One counter per mode; check-and-increment under the internal mutex
    /// (the paper's Fig. 20 scheme, kept for partitions wider than
    /// [`DWCAS_MODE_LIMIT`]).
    Wide(Box<[AtomicU32]>),
}

/// Bytes no two partitions' mechanisms may share: two 64-byte lines,
/// because the adjacent-line prefetcher fetches them in pairs.
const PARTITION_ALIGN: usize = 128;

/// One locking mechanism: the counters for the modes of one partition.
///
/// Aligned to 128 bytes (`PARTITION_ALIGN`): a `SemLock` keeps its partitions'
/// mechanisms side by side in one slice, and every acquire/release RMWs
/// the partition's admission word and statistics. Commuting modes land in
/// different partitions, so without the alignment two threads that never
/// conflict would still bounce a shared line (+13 % on `cia_2t`, PR 16).
#[repr(align(128))]
pub struct Mech {
    /// `C_l` of Fig. 20 in one of three representations.
    counts: Counts,
    /// Serializes the **wide** representation's check-and-increment and
    /// parks its conflicted waiters. The packed and Dwcas paths never
    /// take it — contended or not, they go through `stack`.
    internal: Mutex<()>,
    cond: Condvar,
    /// Number of threads currently parked on `cond` (wide representation
    /// only); the wide unlocker reads it to skip the mutex when nobody
    /// waits.
    waiters: AtomicU32,
    /// Claim-based waiter stack: the lock-free park/handoff path of the
    /// packed and Dwcas representations.
    stack: WaiterStack,
    strategy: WaitStrategy,
    stats: MechStats,
}

// Layout guard: a `SemLock` keeps its partitions' mechanisms side by side
// in one slice; dropping or weakening the `repr(align)` on `Mech` would put
// neighbouring partitions back on one line without failing any test.
const _: () = {
    assert!(std::mem::align_of::<Mech>() >= PARTITION_ALIGN);
    assert!(std::mem::size_of::<Mech>().is_multiple_of(PARTITION_ALIGN));
};

impl Mech {
    /// Create a mechanism for a partition with `modes` locking modes,
    /// choosing the representation from the mode count
    /// ([`AdmissionBackend::Auto`]).
    pub fn new(modes: usize, strategy: WaitStrategy) -> Mech {
        Mech::with_backend(modes, strategy, AdmissionBackend::Auto)
    }

    /// Create with an explicit counter representation (tests and the A/B
    /// benchmark; [`AdmissionBackend::Auto`] is right everywhere else).
    ///
    /// # Panics
    /// If `backend` is `Packed` or `Dwcas` and `modes` exceeds its limit.
    pub fn with_backend(modes: usize, strategy: WaitStrategy, backend: AdmissionBackend) -> Mech {
        use AdmissionBackend::{Auto, Dwcas, Packed, Wide};
        let counts = match backend {
            Auto | Packed if modes <= PACKED_MODE_LIMIT => Counts::Packed(AtomicU64::new(0)),
            // Auto picks Dwcas only when the 128-bit word is genuinely
            // lock-free on this build+machine; a spinlocked fallback word
            // would be strictly worse than the wide mutex path it
            // replaces. Forced Dwcas works on any build (CI's
            // no-default-features job runs the whole suite through the
            // fallback).
            Auto | Dwcas
                if modes <= DWCAS_MODE_LIMIT
                    && (backend == Dwcas || crate::dwcas::dwcas_available()) =>
            {
                Counts::Dwcas(AtomicU128::new(0))
            }
            Auto | Wide => Counts::Wide((0..modes).map(|_| AtomicU32::new(0)).collect()),
            Packed => {
                panic!("packed layout supports at most {PACKED_MODE_LIMIT} modes, got {modes}")
            }
            Dwcas => panic!("dwcas layout supports at most {DWCAS_MODE_LIMIT} modes, got {modes}"),
        };
        Mech {
            counts,
            internal: Mutex::new(()),
            cond: Condvar::new(),
            waiters: AtomicU32::new(0),
            stack: WaiterStack::new(),
            strategy,
            stats: MechStats::default(),
        }
    }

    /// The counter representation in use — never
    /// [`AdmissionBackend::Auto`] (diagnostics / tests).
    pub fn backend(&self) -> AdmissionBackend {
        match self.counts {
            Counts::Packed(_) => AdmissionBackend::Packed,
            Counts::Dwcas(_) => AdmissionBackend::Dwcas,
            Counts::Wide(_) => AdmissionBackend::Wide,
        }
    }

    /// Is the waiter-summary bit (packed/Dwcas) or waiter count (wide)
    /// currently published? Diagnostics/tests only — racy by nature.
    pub fn waiter_summary(&self) -> bool {
        match &self.counts {
            Counts::Packed(word) => word.summary(),
            Counts::Dwcas(word) => word.summary(),
            Counts::Wide(_) => self.waiters.load(Ordering::Relaxed) > 0,
        }
    }

    /// Waiter-stack nodes currently alive (allocated, not yet freed).
    /// Zero at quiescence — the stress suite's leak invariant.
    pub fn live_waiter_nodes(&self) -> u64 {
        self.stack.live_nodes()
    }

    // ------------------------------------------------------------------
    // The acquisition protocol: admit try → bounded probes → park
    // ------------------------------------------------------------------

    /// One admission attempt: never waits, counts nothing. A refusal has
    /// no side effect — one failed CAS on a word, one mutex-guarded check
    /// on the wide counters; no waiter node, summary bit or waiter count
    /// is ever published by it.
    #[inline]
    fn try_admit(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        match &self.counts {
            Counts::Packed(word) => word.try_admit(local, cs),
            Counts::Dwcas(word) => word.try_admit(local, cs),
            Counts::Wide(counts) => self.try_admit_wide(counts, local, cs),
        }
    }

    /// Advisory conflict check — what the spin strategy polls between
    /// admission attempts.
    fn conflicted(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        match &self.counts {
            Counts::Packed(word) => word.conflicted(local, cs),
            Counts::Dwcas(word) => word.conflicted(local, cs),
            Counts::Wide(counts) => Self::conflicted_wide(counts, cs),
        }
    }

    /// Acquire the mode with local index `local`, whose conflict set `cs`
    /// was precomputed by the [`crate::mode::ModeTable`]. Blocks until
    /// admission is legal. Returns whether the first admission attempt
    /// was refused.
    ///
    /// Under [`WaitStrategy::Block`] a refused acquisition re-tries up to
    /// [`OPTIMISTIC_PROBES`] times with a short doubling pause — each try
    /// as side-effect-free as [`Mech::try_lock`] — and only then parks.
    ///
    /// Statistics: one acquisition, plus one contended acquisition if the
    /// first attempt was refused, however long the wait then was.
    pub fn lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        let refused = !self.try_lock(local, cs);
        if refused {
            self.lock_after_refusal(local, cs);
        }
        refused
    }

    /// The rest of [`Mech::lock`] for a caller that made the first
    /// attempt itself — a [`Mech::try_lock`] that was refused — and wants
    /// to act between the refusal and the wait (`SemLock` starts the
    /// telemetry wait clock there). `try_lock` then this is `lock`: the
    /// same admit tries, the same statistics.
    #[cold]
    pub fn lock_after_refusal(&self, local: u32, cs: ConflictSet<'_>) {
        self.lock_slow(local, cs);
        self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.stats.contended.fetch_add(1, Ordering::Relaxed);
    }

    /// Try to acquire without waiting; returns whether the mode was taken.
    ///
    /// Side-effect-free on failure: a failed probe never pushes a waiter
    /// node, never touches the waiter-summary bit and never registers in
    /// the wide waiter count, so it cannot make a release take the
    /// handoff path or wake an unrelated parked waiter (the
    /// `WaitBudget::DontWait` regression in `tests/fastpath.rs` pins this
    /// down).
    pub fn try_lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        let taken = self.try_admit(local, cs);
        if taken {
            self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        }
        taken
    }

    /// Bounded acquisition: like [`Mech::lock`], but gives up once
    /// `deadline` passes. While parked, `probe` is invoked roughly every
    /// [`PROBE_INTERVAL`] (after the wait has already lasted one slice);
    /// returning [`Wait::Abandon`] cancels the acquisition — this is the
    /// hook the deadlock watchdog uses. The uncontended path never reads
    /// the clock or calls `probe` (on the packed representation it is a
    /// single CAS that never touches the internal mutex).
    ///
    /// A refused first attempt reads the clock before every further one:
    /// an already-expired deadline is a single attempt and then
    /// [`Acquire::TimedOut`] — no re-try, no waiter published — so a
    /// retry storm of near-expired deadlines degrades to the cost of one
    /// failed admission, not to churn on the park path (every pushed node
    /// makes the next release claim and sweep it). Otherwise the blocking
    /// strategy runs the probe phase of [`Mech::lock`] and then sleeps in
    /// timed slices; the spinning strategy backs off exponentially (spin
    /// hints, then yields) between admission re-checks.
    ///
    /// Statistics: `Acquired` counts as [`Mech::lock`] does, `TimedOut`
    /// one timeout, `Abandoned` nothing (the watchdog's own accounting
    /// covers aborts).
    pub fn lock_deadline(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        if self.try_lock(local, cs) {
            Acquire::Acquired
        } else {
            self.lock_deadline_after_refusal(local, cs, deadline, probe)
        }
    }

    /// The rest of [`Mech::lock_deadline`] after a refused
    /// [`Mech::try_lock`], as [`Mech::lock_after_refusal`] is the rest of
    /// [`Mech::lock`].
    #[cold]
    pub fn lock_deadline_after_refusal(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        let outcome = self.lock_deadline_slow(local, cs, deadline, probe);
        match outcome {
            Acquire::Acquired => {
                self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
                self.stats.contended.fetch_add(1, Ordering::Relaxed);
            }
            Acquire::TimedOut => {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Acquire::Abandoned => {}
        }
        outcome
    }

    /// Release one hold on the mode with local index `local`.
    ///
    /// A release that would underflow the counter (double unlock) is
    /// **refused in every build**: the counter is left untouched (instead
    /// of silently wrapping, which would deny every future conflicting
    /// admission), the refusal is counted in [`MechStats::underflows`],
    /// and `false` is returned so the caller can poison the instance and
    /// surface a structured error
    /// ([`crate::error::LockError::UnlockUnderflow`]).
    #[must_use = "a false return means a refused double unlock; the caller must poison/report"]
    pub fn unlock(&self, local: u32) -> bool {
        let released = match &self.counts {
            Counts::Packed(word) => self.release_stack(word, local),
            Counts::Dwcas(word) => self.release_stack(word, local),
            Counts::Wide(counts) => self.release_wide(counts, local),
        };
        if !released {
            self.stats.underflows.fetch_add(1, Ordering::Relaxed);
        }
        released
    }

    /// Call `visit` with each local index among `conflicts` whose hold
    /// counter is currently positive — a racy sample of who a refused
    /// acquisition waits for. Telemetry-only (feeds the conflict-pair
    /// matrix); never consulted for admission decisions.
    pub fn held_conflicting(&self, conflicts: &[u32], mut visit: impl FnMut(u32)) {
        match &self.counts {
            Counts::Packed(word) => word.held_among(conflicts, visit),
            Counts::Dwcas(word) => word.held_among(conflicts, visit),
            Counts::Wide(counts) => conflicts
                .iter()
                .filter(|&&c| counts[c as usize].load(Ordering::Relaxed) > 0)
                .for_each(|&c| visit(c)),
        }
    }

    /// Current hold count of a mode (diagnostics / tests).
    ///
    /// Ordering: Acquire — pairs with the Release in the unlock paths so
    /// a zero observed here happens-after the releasing holders' writes
    /// (quiescence checks read data after checking this).
    pub fn count(&self, local: u32) -> u32 {
        match &self.counts {
            Counts::Packed(word) => word.count(local) as u32,
            Counts::Dwcas(word) => word.count(local) as u32,
            Counts::Wide(counts) => counts[local as usize].load(Ordering::Acquire),
        }
    }

    /// Sum of all mode hold counts (quiescence checks: zero means no
    /// transaction holds any mode of this mechanism). Acquire, as in
    /// [`Mech::count`].
    pub fn held_total(&self) -> u64 {
        match &self.counts {
            Counts::Packed(word) => word.held_total(),
            Counts::Dwcas(word) => word.held_total(),
            Counts::Wide(counts) => counts
                .iter()
                .map(|c| c.load(Ordering::Acquire) as u64)
                .sum(),
        }
    }

    /// Contention statistics.
    pub fn stats(&self) -> &MechStats {
        &self.stats
    }
}
