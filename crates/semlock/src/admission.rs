//! Pluggable admission backends behind one [`Admission`] trait.
//!
//! The paper's mode-table admission (counter layouts in [`crate::mech`])
//! is one point in a design space: Aksenov's *Semantic Lock* generalizes
//! admission to an operation **conflict graph**, subsuming mode tables as
//! the special case where the graph is derived from the commutativity
//! function F_c. This module factors the admission surface out of
//! [`Mech`] so alternative policies can be compared under identical
//! workloads, chaos soaks, and audit suites:
//!
//! | backend | representation | lock-free admission |
//! |---|---|---|
//! | `Wide` | per-mode counters under a mutex (Fig. 20) | no |
//! | `Packed` | one 64-bit word, ≤ 8 modes | yes |
//! | `Dwcas` | one 128-bit word, ≤ 16 modes | on `cmpxchg16b` hardware |
//! | `ConflictGraph` | per-mode counters + precomputed adjacency rows | no |
//! | `OptimisticHybrid` | bounded lock-free probes, then pessimistic parking | fast path only |
//!
//! Every backend carries the same proof obligations the model checker
//! establishes for the word layouts (see `crates/model`): **exclusivity**
//! (two conflicting modes are never held at once), **no lost wakeups**
//! (a release that leaves a waiter's conflict set clear eventually admits
//! it), and **release balance** (every admit is paired with exactly one
//! decrement; underflow is refused, never wrapped). The cross-backend
//! conformance suite in `tests/fastpath.rs` replays identical schedules
//! against all five and asserts outcome and statistics equality.
//!
//! Backends are selected with the `#[non_exhaustive]`
//! [`AdmissionBackend`] config on the [`crate::manager::SemLock`]
//! builders; the per-layout constructors remain available on [`Mech`]
//! for low-level tests and benches but are no longer the caller-facing
//! configuration surface.

use std::time::Instant;

use crate::mech::{
    ordering as ord, Acquire, ConflictSet, GroupRequest, Mech, MechLayout, MechStats, Wait,
    WaitStrategy, DWCAS_MODE_LIMIT, PACKED_MODE_LIMIT, PROBE_INTERVAL,
};
use crate::sync::{AtomicU32, Condvar, Mutex, Ordering};

/// The admission surface one partition's backend must provide: admit
/// (blocking, non-blocking, and bounded), release, and the diagnostics
/// the telemetry/chaos/audit layers consume.
///
/// Implementations must uphold the model-checked contract documented in
/// the [module docs](self): exclusivity, no lost wakeups, and release
/// balance. Statistics discipline is part of the contract too — [`lock`]
/// counts one acquisition (plus one contended acquisition if it waited),
/// [`try_lock`] counts an acquisition only on success, [`lock_deadline`]
/// counts per outcome (`Acquired` like `lock`, `TimedOut` one timeout,
/// `Abandoned` nothing), and a refused double release counts one
/// underflow — the retry-balance suites check these sums across
/// backends.
///
/// [`lock`]: Admission::lock
/// [`try_lock`]: Admission::try_lock
/// [`lock_deadline`]: Admission::lock_deadline
pub trait Admission: Send + Sync {
    /// Acquire the mode with local index `local`, blocking until no
    /// conflicting mode (per `cs`) is held. Returns whether the
    /// acquisition had to wait.
    fn lock(&self, local: u32, cs: ConflictSet<'_>) -> bool;

    /// Try to acquire without waiting; returns whether the mode was
    /// taken. A failed probe must never leave the backend in a state
    /// that redirects an unrelated release (see the `DontWait`
    /// conformance test).
    fn try_lock(&self, local: u32, cs: ConflictSet<'_>) -> bool;

    /// Bounded acquisition: like [`Admission::lock`] but gives up once
    /// `deadline` passes; `probe` is invoked roughly every
    /// [`PROBE_INTERVAL`] while waiting and may abandon the wait (the
    /// deadlock watchdog's hook).
    fn lock_deadline(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire;

    /// All-or-nothing batched admission of several modes of this
    /// partition. Never blocks. Returns whether the whole group was
    /// admitted; on `false` no member remains admitted.
    ///
    /// The default body is the loop fallback every backend is correct
    /// under: admit members in order with [`Admission::try_lock`], and on
    /// the first refusal roll the already-admitted prefix back in
    /// **reverse order** through [`Admission::unlock`] (so a rollback
    /// release still performs the backend's waiter handoff — no lost
    /// wakeups, no leaked partial admissions). The word layouts override
    /// it with a one-CAS-per-word fast path ([`Mech::try_lock_group`]);
    /// the conflict-graph backend with a single mutex-guarded
    /// check-all-then-admit-all.
    ///
    /// Statistics under the default body follow the per-member calls: a
    /// rolled-back member was counted by its successful `try_lock` (the
    /// word-layout override instead counts only admitted groups).
    fn lock_group(&self, members: &[GroupRequest<'_>]) -> bool {
        for (i, m) in members.iter().enumerate() {
            if !self.try_lock(m.local, m.cs) {
                for m2 in members[..i].iter().rev() {
                    let released = self.unlock(m2.local);
                    debug_assert!(released, "group rollback released an unheld mode");
                }
                return false;
            }
        }
        true
    }

    /// Release one hold on `local`. Returns `false` — leaving the
    /// counter untouched — if the release would underflow (double
    /// unlock); the caller must poison/report.
    #[must_use = "a false return means a refused double unlock; the caller must poison/report"]
    fn unlock(&self, local: u32) -> bool;

    /// Local indices among `conflicts` currently held — a racy sample
    /// for telemetry; never consulted for admission.
    fn held_conflicting(&self, conflicts: &[u32]) -> Vec<u32>;

    /// Current hold count of one mode (diagnostics / tests).
    fn count(&self, local: u32) -> u32;

    /// Sum of all mode hold counts (zero means quiescent).
    fn held_total(&self) -> u64;

    /// Contention statistics (see the trait docs for the counting
    /// discipline).
    fn stats(&self) -> &MechStats;

    /// Is a waiter currently published? Diagnostics only — racy.
    fn waiter_summary(&self) -> bool;

    /// Waiter-stack nodes currently alive; zero at quiescence. Backends
    /// without a waiter stack report zero.
    fn live_waiter_nodes(&self) -> u64;

    /// Stable snake_case backend name (matches
    /// [`AdmissionBackend::name`] for the word layouts; used by the
    /// bench tables).
    fn name(&self) -> &'static str;
}

/// Which admission backend a [`crate::manager::SemLock`] uses — the
/// caller-facing configuration surface replacing direct
/// [`MechLayout`] selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
#[non_exhaustive]
pub enum AdmissionBackend {
    /// Pick per partition: packed when the partition has at most
    /// [`PACKED_MODE_LIMIT`] modes, the 128-bit Dwcas word up to
    /// [`DWCAS_MODE_LIMIT`] modes when the hardware serves it lock-free,
    /// wide otherwise.
    #[default]
    Auto,
    /// The paper's Fig. 20 scheme: per-mode counters, check-then-increment
    /// under an internal mutex. Any mode count; never lock-free.
    Wide,
    /// All hold counts packed into one 64-bit word; admission is one CAS.
    /// Panics at [`SemLock`](crate::manager::SemLock) construction if any
    /// partition exceeds [`PACKED_MODE_LIMIT`] modes.
    Packed,
    /// All hold counts in one 128-bit word (cmpxchg16b; portable spinlock
    /// fallback without the `dwcas` feature). Panics at construction if
    /// any partition exceeds [`DWCAS_MODE_LIMIT`] modes.
    Dwcas,
    /// Aksenov-style conflict-graph admission: a mode is admitted iff no
    /// currently-held mode is adjacent to it in a conflict graph
    /// precomputed per partition from F_c — no packed mask, no
    /// mode-assignment step on the admit path. Any mode count; never
    /// lock-free.
    ConflictGraph,
    /// Optimistic try-then-block: a bounded number of lock-free admit
    /// probes (with spin backoff) over the `Auto` word layout, falling
    /// back to pessimistic parking once the budget is spent.
    OptimisticHybrid,
}

impl AdmissionBackend {
    /// The five concrete backends (everything except `Auto`), in the
    /// order the conformance suite and bench tables iterate them.
    pub const CONCRETE: [AdmissionBackend; 5] = [
        AdmissionBackend::Wide,
        AdmissionBackend::Packed,
        AdmissionBackend::Dwcas,
        AdmissionBackend::ConflictGraph,
        AdmissionBackend::OptimisticHybrid,
    ];

    /// Stable snake_case name (bench tables, `--backend` filters).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionBackend::Auto => "auto",
            AdmissionBackend::Wide => "wide",
            AdmissionBackend::Packed => "packed",
            AdmissionBackend::Dwcas => "dwcas",
            AdmissionBackend::ConflictGraph => "conflict_graph",
            AdmissionBackend::OptimisticHybrid => "optimistic_hybrid",
        }
    }

    /// Parse a backend from its [`name`](AdmissionBackend::name).
    pub fn from_name(name: &str) -> Option<AdmissionBackend> {
        Some(match name {
            "auto" => AdmissionBackend::Auto,
            "wide" => AdmissionBackend::Wide,
            "packed" => AdmissionBackend::Packed,
            "dwcas" => AdmissionBackend::Dwcas,
            "conflict_graph" => AdmissionBackend::ConflictGraph,
            "optimistic_hybrid" => AdmissionBackend::OptimisticHybrid,
            _ => return None,
        })
    }

    /// Largest partition (mode count) this backend can serve, if bounded.
    pub fn max_modes(self) -> Option<usize> {
        match self {
            AdmissionBackend::Packed => Some(PACKED_MODE_LIMIT),
            AdmissionBackend::Dwcas => Some(DWCAS_MODE_LIMIT),
            _ => None,
        }
    }

    /// Is the uncontended admission path lock-free for a partition with
    /// `modes` modes on this build's hardware?
    pub fn lock_free(self, modes: usize) -> bool {
        match self {
            AdmissionBackend::Packed => true,
            AdmissionBackend::Dwcas => crate::dwcas::dwcas_available(),
            AdmissionBackend::Auto | AdmissionBackend::OptimisticHybrid => {
                modes <= PACKED_MODE_LIMIT
                    || (modes <= DWCAS_MODE_LIMIT && crate::dwcas::dwcas_available())
            }
            AdmissionBackend::Wide | AdmissionBackend::ConflictGraph => false,
        }
    }
}

impl std::fmt::Display for AdmissionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------
// Conflict-graph backend
// ---------------------------------------------------------------------

/// Aksenov-style conflict-graph admission for one partition.
///
/// A transcription of the wide (Fig. 20) protocol — the same internal
/// mutex, condvar, SeqCst store-buffering pairs, and audited ordering
/// sites (`wide.waiter.rmw`, `wide.conflict.load`, `wide.release.rmw`,
/// `wide.waiters.load`) — with one difference: the conflict check walks
/// the backend's **own precomputed adjacency row** for the requested
/// mode instead of the caller-supplied packed conflict set. This is the
/// conflict-graph generalization: admission needs only the graph, so a
/// future backend can admit operations that never went through mode
/// assignment at all. The `crates/model` transcription (`GraphMech`)
/// gives this path the same bounded-schedule proof as the word layouts.
pub struct ConflictGraphBackend {
    /// Per-mode hold counters (`C_l` of Fig. 20).
    counts: Box<[AtomicU32]>,
    /// `rows[l]` = local indices adjacent to mode `l` in the conflict
    /// graph (for F_c-derived graphs this equals
    /// [`crate::mode::ModePlacement::local_conflicts`]).
    rows: Box<[Box<[u32]>]>,
    /// Serializes check-then-increment admissions and waiter parking.
    internal: Mutex<()>,
    /// Parked waiters (blocking strategy).
    cond: Condvar,
    /// Published waiter count — SeqCst store-buffering pair with the
    /// release decrement, exactly as in the wide layout.
    waiters: AtomicU32,
    strategy: WaitStrategy,
    stats: MechStats,
}

impl ConflictGraphBackend {
    /// Build a backend from per-mode adjacency rows (`rows[l]` lists the
    /// locals mode `l` conflicts with). The graph must be symmetric —
    /// exclusivity relies on both endpoints of a conflict edge checking
    /// each other.
    ///
    /// # Panics
    /// If a row references a local index out of range, or the graph is
    /// not symmetric.
    pub fn new(rows: Vec<Vec<u32>>, strategy: WaitStrategy) -> ConflictGraphBackend {
        let n = rows.len();
        for (l, row) in rows.iter().enumerate() {
            for &c in row {
                assert!(
                    (c as usize) < n,
                    "conflict row {l} references out-of-range mode {c}"
                );
                assert!(
                    rows[c as usize].contains(&(l as u32)),
                    "conflict graph is not symmetric: {l} -> {c} but not {c} -> {l}"
                );
            }
        }
        ConflictGraphBackend {
            counts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            rows: rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
            internal: Mutex::new(()),
            cond: Condvar::new(),
            waiters: AtomicU32::new(0),
            strategy,
            stats: MechStats::default(),
        }
    }

    /// Is any mode adjacent to `local` currently held? Ordering: SeqCst —
    /// the same store-buffering argument as the wide layout's
    /// `conflicted_wide` (waiter registers then loads counts; releaser
    /// decrements then loads waiters).
    #[inline]
    fn conflicted(&self, local: u32) -> bool {
        self.rows[local as usize]
            .iter()
            .any(|&c| self.counts[c as usize].load(ord::WIDE_CONFLICT_LOAD) > 0)
    }
}

impl Admission for ConflictGraphBackend {
    fn lock(&self, local: u32, _cs: ConflictSet<'_>) -> bool {
        let waited = match self.strategy {
            WaitStrategy::Block => {
                let mut waited = false;
                let mut guard = self.internal.lock();
                loop {
                    // Register as a waiter *before* the check — see the
                    // wide arm of `Mech::lock_raw`. (Audited:
                    // `wide.waiter.rmw`.)
                    self.waiters.fetch_add(1, ord::WIDE_WAITER_RMW);
                    if !self.conflicted(local) {
                        self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                        break;
                    }
                    waited = true;
                    self.cond.wait(&mut guard);
                    self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                }
                // Ordering: Relaxed — published to admitters by the
                // internal mutex, to releasers by the atomic RMW in
                // `unlock` (as in the wide layout).
                self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
                drop(guard);
                waited
            }
            WaitStrategy::Spin => {
                let mut waited = false;
                loop {
                    // Optimistic pre-check outside the internal lock
                    // (Fig. 20 lines 3–4).
                    while self.conflicted(local) {
                        waited = true;
                        std::hint::spin_loop();
                    }
                    let guard = self.internal.lock();
                    if !self.conflicted(local) {
                        self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
                        drop(guard);
                        break;
                    }
                    drop(guard);
                }
                waited
            }
        };
        self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        if waited {
            self.stats.contended.fetch_add(1, Ordering::Relaxed);
        }
        waited
    }

    fn try_lock(&self, local: u32, _cs: ConflictSet<'_>) -> bool {
        let guard = self.internal.lock();
        if self.conflicted(local) {
            drop(guard);
            false
        } else {
            self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
            drop(guard);
            self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    fn lock_deadline(
        &self,
        local: u32,
        _cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        let mut waited = false;
        let outcome = match self.strategy {
            WaitStrategy::Block => {
                if Instant::now() >= deadline {
                    // Already-expired deadline: one mutex-protected admit
                    // try, never a waiter registration (mirrors the wide
                    // arm of `Mech::lock_deadline_raw`).
                    let guard = self.internal.lock();
                    if !self.conflicted(local) {
                        self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
                        drop(guard);
                        Acquire::Acquired
                    } else {
                        drop(guard);
                        Acquire::TimedOut
                    }
                } else {
                    let mut guard = self.internal.lock();
                    loop {
                        // (Audited: `wide.waiter.rmw`.)
                        self.waiters.fetch_add(1, ord::WIDE_WAITER_RMW);
                        if !self.conflicted(local) {
                            self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                            self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
                            break Acquire::Acquired;
                        }
                        let now = Instant::now();
                        if now >= deadline {
                            self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                            break Acquire::TimedOut;
                        }
                        waited = true;
                        let slice = PROBE_INTERVAL.min(deadline - now);
                        self.cond.wait_for(&mut guard, slice);
                        self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                        // Deadline before probe, with a final admit try
                        // under `internal` — admission wins over an
                        // expired deadline.
                        if Instant::now() >= deadline {
                            break if !self.conflicted(local) {
                                self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
                                Acquire::Acquired
                            } else {
                                Acquire::TimedOut
                            };
                        }
                        if probe() == Wait::Abandon {
                            break Acquire::Abandoned;
                        }
                    }
                }
            }
            WaitStrategy::Spin => 'outer: loop {
                let mut backoff: u32 = 1;
                let mut next_probe = Instant::now() + PROBE_INTERVAL;
                while self.conflicted(local) {
                    waited = true;
                    let now = Instant::now();
                    if now >= deadline {
                        break 'outer Acquire::TimedOut;
                    }
                    for _ in 0..backoff {
                        std::hint::spin_loop();
                    }
                    if backoff < 1 << 12 {
                        backoff <<= 1;
                    } else {
                        std::thread::yield_now();
                    }
                    if now >= next_probe {
                        if probe() == Wait::Abandon {
                            break 'outer Acquire::Abandoned;
                        }
                        next_probe = now + PROBE_INTERVAL;
                    }
                }
                let guard = self.internal.lock();
                if !self.conflicted(local) {
                    self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
                    drop(guard);
                    break Acquire::Acquired;
                }
                drop(guard);
            },
        };
        match outcome {
            Acquire::Acquired => {
                self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
                if waited {
                    self.stats.contended.fetch_add(1, Ordering::Relaxed);
                }
            }
            Acquire::TimedOut => {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Acquire::Abandoned => {}
        }
        outcome
    }

    fn lock_group(&self, members: &[GroupRequest<'_>]) -> bool {
        // One mutex-guarded check-all-then-admit-all: the graph backend's
        // admission is already serialized by `internal`, so the batched
        // form is genuinely atomic — no rollback path needed.
        let guard = self.internal.lock();
        if members.iter().any(|m| self.conflicted(m.local)) {
            drop(guard);
            return false;
        }
        // A member adjacent to another member would self-exclude: the
        // check above ran against pre-admission counts, so refuse such
        // groups explicitly (mirrors the word layouts' sequential
        // fallback, which refuses them through its per-member checks).
        let mutual = members.iter().enumerate().any(|(i, a)| {
            members
                .iter()
                .enumerate()
                .any(|(j, b)| i != j && self.rows[a.local as usize].contains(&b.local))
        });
        if mutual {
            drop(guard);
            return false;
        }
        for m in members {
            self.counts[m.local as usize].fetch_add(1, Ordering::Relaxed);
        }
        drop(guard);
        self.stats
            .acquisitions
            .fetch_add(members.len() as u64, Ordering::Relaxed);
        true
    }

    fn unlock(&self, local: u32) -> bool {
        // Checked decrement via CAS — a double unlock is refused without
        // publishing a transient wrapped value (see `Mech::unlock`'s
        // wide arm for the history behind this shape).
        let c = &self.counts[local as usize];
        let mut cur = c.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                self.stats.underflows.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            // Ordering: SeqCst — first half of the store-buffering pair
            // with the `waiters` load below. (Audited: `wide.release.rmw`.)
            match c.compare_exchange_weak(cur, cur - 1, ord::WIDE_RELEASE_RMW, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // Ordering: SeqCst — second half of the store-buffering pair.
        // (Audited: `wide.waiters.load`.)
        if self.waiters.load(ord::WIDE_WAITERS_LOAD) > 0 {
            let _g = self.internal.lock();
            self.cond.notify_all();
        }
        true
    }

    fn held_conflicting(&self, conflicts: &[u32]) -> Vec<u32> {
        conflicts
            .iter()
            .copied()
            .filter(|&c| self.counts[c as usize].load(Ordering::Relaxed) > 0)
            .collect()
    }

    fn count(&self, local: u32) -> u32 {
        self.counts[local as usize].load(Ordering::Acquire)
    }

    fn held_total(&self) -> u64 {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Acquire) as u64)
            .sum()
    }

    fn stats(&self) -> &MechStats {
        &self.stats
    }

    fn waiter_summary(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) > 0
    }

    fn live_waiter_nodes(&self) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "conflict_graph"
    }
}

// ---------------------------------------------------------------------
// Optimistic try-then-block hybrid
// ---------------------------------------------------------------------

/// How many lock-free admit probes [`OptimisticHybridBackend`] spends
/// before falling back to pessimistic parking.
pub const OPTIMISTIC_PROBES: u32 = 32;

/// Optimistic try-then-block admission: up to a bounded number of
/// lock-free probes (each exactly the side-effect-free failed-CAS probe
/// of the word layouts, with exponential spin backoff in between), then
/// the pessimistic blocking path of the underlying `Auto` word layout.
///
/// Under short conflicts this admits without ever parking — the common
/// case the paper's closed-loop benchmarks produce — while long
/// conflicts degrade to exactly the model-checked parking protocol.
/// Statistics count each composite acquisition once: any failed probe
/// marks the acquisition contended, and the inner layout's counters are
/// the backend's counters (there is no second ledger to reconcile).
pub struct OptimisticHybridBackend {
    /// The word-layout mechanism the probes and the fallback share.
    inner: Mech,
    /// Probe budget (≥ 1).
    probes: u32,
}

impl OptimisticHybridBackend {
    /// Build a hybrid over the `Auto` word layout for a partition with
    /// `modes` modes, with the default [`OPTIMISTIC_PROBES`] budget.
    pub fn new(modes: usize, strategy: WaitStrategy) -> OptimisticHybridBackend {
        OptimisticHybridBackend::with_probes(modes, strategy, OPTIMISTIC_PROBES)
    }

    /// Build with an explicit probe budget (clamped to at least one).
    pub fn with_probes(
        modes: usize,
        strategy: WaitStrategy,
        probes: u32,
    ) -> OptimisticHybridBackend {
        OptimisticHybridBackend {
            inner: Mech::with_layout(modes, strategy, MechLayout::Auto),
            probes: probes.max(1),
        }
    }
}

impl Admission for OptimisticHybridBackend {
    fn lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        let mut waited = false;
        let mut backoff: u32 = 1;
        for _ in 0..self.probes {
            if self.inner.try_lock_raw(local, cs) {
                self.inner.note_acquired(waited);
                return waited;
            }
            waited = true;
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            if backoff < 1 << 6 {
                backoff <<= 1;
            }
        }
        // Budget spent: park pessimistically. The composite acquisition
        // definitely waited, whatever the inner path reports.
        self.inner.lock_raw(local, cs);
        self.inner.note_acquired(true);
        true
    }

    fn try_lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        // A `DontWait` probe stays a single probe — no retry budget, so
        // it remains side-effect-free on failure like the word layouts.
        self.inner.try_lock(local, cs)
    }

    fn lock_group(&self, members: &[GroupRequest<'_>]) -> bool {
        // Group admission stays a single combined probe over the inner
        // word — no retry budget, as with `try_lock`.
        self.inner.try_lock_group(members)
    }

    fn lock_deadline(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        let mut waited = false;
        let mut backoff: u32 = 1;
        for _ in 0..self.probes {
            if self.inner.try_lock_raw(local, cs) {
                self.inner.note_outcome(Acquire::Acquired, waited);
                return Acquire::Acquired;
            }
            waited = true;
            if Instant::now() >= deadline {
                self.inner.note_outcome(Acquire::TimedOut, waited);
                return Acquire::TimedOut;
            }
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            if backoff < 1 << 6 {
                backoff <<= 1;
            }
        }
        let outcome = self
            .inner
            .lock_deadline_raw(local, cs, deadline, probe, &mut waited);
        self.inner.note_outcome(outcome, waited);
        outcome
    }

    fn unlock(&self, local: u32) -> bool {
        self.inner.unlock(local)
    }

    fn held_conflicting(&self, conflicts: &[u32]) -> Vec<u32> {
        self.inner.held_conflicting(conflicts)
    }

    fn count(&self, local: u32) -> u32 {
        self.inner.count(local)
    }

    fn held_total(&self) -> u64 {
        self.inner.held_total()
    }

    fn stats(&self) -> &MechStats {
        self.inner.stats()
    }

    fn waiter_summary(&self) -> bool {
        self.inner.waiter_summary()
    }

    fn live_waiter_nodes(&self) -> u64 {
        self.inner.live_waiter_nodes()
    }

    fn name(&self) -> &'static str {
        "optimistic_hybrid"
    }
}

// ---------------------------------------------------------------------
// Word layouts
// ---------------------------------------------------------------------

impl Admission for Mech {
    fn lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        Mech::lock(self, local, cs)
    }

    fn try_lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        Mech::try_lock(self, local, cs)
    }

    fn lock_group(&self, members: &[GroupRequest<'_>]) -> bool {
        Mech::try_lock_group(self, members)
    }

    fn lock_deadline(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        Mech::lock_deadline(self, local, cs, deadline, probe)
    }

    fn unlock(&self, local: u32) -> bool {
        Mech::unlock(self, local)
    }

    fn held_conflicting(&self, conflicts: &[u32]) -> Vec<u32> {
        Mech::held_conflicting(self, conflicts)
    }

    fn count(&self, local: u32) -> u32 {
        Mech::count(self, local)
    }

    fn held_total(&self) -> u64 {
        Mech::held_total(self)
    }

    fn stats(&self) -> &MechStats {
        Mech::stats(self)
    }

    fn waiter_summary(&self) -> bool {
        Mech::waiter_summary(self)
    }

    fn live_waiter_nodes(&self) -> u64 {
        Mech::live_waiter_nodes(self)
    }

    fn name(&self) -> &'static str {
        match self.layout() {
            MechLayout::Packed => "packed",
            MechLayout::Dwcas => "dwcas",
            _ => "wide",
        }
    }
}

// ---------------------------------------------------------------------
// Static dispatch for the manager's hot path
// ---------------------------------------------------------------------

/// The backend of one partition, statically dispatched. The manager's
/// admission fast path (one CAS on packed) must not pay a vtable call,
/// so [`crate::manager::SemLock`] stores this enum rather than
/// `Box<dyn Admission>` — the match compiles to a three-way branch the
/// predictor resolves once per lock site.
///
/// Aligned to [`PARTITION_ALIGN`]: a `SemLock` keeps its partitions'
/// backends side by side in one slice, and every acquire/release RMWs the
/// partition's admission word and statistics. Commuting modes land in
/// different partitions, so without the alignment two threads that never
/// conflict would still bounce a shared line.
#[repr(align(128))]
pub(crate) enum AnyBackend {
    /// One of the three word/counter layouts ([`MechLayout`]).
    Word(Mech),
    /// Conflict-graph admission.
    Graph(ConflictGraphBackend),
    /// Optimistic try-then-block hybrid.
    Hybrid(OptimisticHybridBackend),
}

/// Bytes no two partitions' backends may share: two 64-byte lines, because
/// the adjacent-line prefetcher fetches them in pairs.
const PARTITION_ALIGN: usize = 128;

// Layout guard: dropping or weakening the `repr(align)` above would put
// neighbouring partitions back on one line without failing any test.
const _: () = {
    assert!(std::mem::align_of::<AnyBackend>() >= PARTITION_ALIGN);
    assert!(std::mem::size_of::<AnyBackend>().is_multiple_of(PARTITION_ALIGN));
};

macro_rules! delegate {
    ($self:ident, $b:ident => $body:expr) => {
        match $self {
            AnyBackend::Word($b) => $body,
            AnyBackend::Graph($b) => $body,
            AnyBackend::Hybrid($b) => $body,
        }
    };
}

impl Admission for AnyBackend {
    #[inline]
    fn lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        delegate!(self, b => Admission::lock(b, local, cs))
    }

    #[inline]
    fn try_lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        delegate!(self, b => Admission::try_lock(b, local, cs))
    }

    #[inline]
    fn lock_group(&self, members: &[GroupRequest<'_>]) -> bool {
        delegate!(self, b => Admission::lock_group(b, members))
    }

    #[inline]
    fn lock_deadline(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        delegate!(self, b => Admission::lock_deadline(b, local, cs, deadline, probe))
    }

    #[inline]
    fn unlock(&self, local: u32) -> bool {
        delegate!(self, b => Admission::unlock(b, local))
    }

    fn held_conflicting(&self, conflicts: &[u32]) -> Vec<u32> {
        delegate!(self, b => Admission::held_conflicting(b, conflicts))
    }

    #[inline]
    fn count(&self, local: u32) -> u32 {
        delegate!(self, b => Admission::count(b, local))
    }

    #[inline]
    fn held_total(&self) -> u64 {
        delegate!(self, b => Admission::held_total(b))
    }

    #[inline]
    fn stats(&self) -> &MechStats {
        delegate!(self, b => Admission::stats(b))
    }

    fn waiter_summary(&self) -> bool {
        delegate!(self, b => Admission::waiter_summary(b))
    }

    fn live_waiter_nodes(&self) -> u64 {
        delegate!(self, b => Admission::live_waiter_nodes(b))
    }

    fn name(&self) -> &'static str {
        delegate!(self, b => Admission::name(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Two modes that conflict with each other but not themselves.
    fn cross_rows() -> Vec<Vec<u32>> {
        vec![vec![1], vec![0]]
    }

    #[test]
    fn graph_admits_per_adjacency() {
        let g = ConflictGraphBackend::new(cross_rows(), WaitStrategy::Block);
        let cs = ConflictSet::new(&[]);
        // Self-compatible: many holds of mode 0.
        assert!(g.try_lock(0, cs));
        assert!(g.try_lock(0, cs));
        // Mode 1 is adjacent to the held mode 0.
        assert!(!g.try_lock(1, cs));
        assert!(g.unlock(0));
        assert!(!g.try_lock(1, cs));
        assert!(g.unlock(0));
        assert!(g.try_lock(1, cs));
        assert!(g.unlock(1));
        assert_eq!(g.held_total(), 0);
        assert_eq!(g.stats().acquisitions.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn graph_refuses_underflow() {
        let g = ConflictGraphBackend::new(cross_rows(), WaitStrategy::Block);
        assert!(!g.unlock(0));
        assert_eq!(g.stats().underflows.load(Ordering::Relaxed), 1);
        assert_eq!(g.count(0), 0);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn graph_rejects_asymmetric_rows() {
        let _ = ConflictGraphBackend::new(vec![vec![1], vec![]], WaitStrategy::Block);
    }

    #[test]
    fn graph_release_wakes_blocked_waiter() {
        let g = Arc::new(ConflictGraphBackend::new(cross_rows(), WaitStrategy::Block));
        let cs = ConflictSet::new(&[]);
        assert!(g.try_lock(0, cs));
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || {
            let waited = g2.lock(1, ConflictSet::new(&[]));
            assert!(g2.unlock(1));
            waited
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(g.unlock(0));
        assert!(waiter.join().unwrap(), "waiter should have parked");
        assert_eq!(g.held_total(), 0);
        assert!(!g.waiter_summary());
    }

    #[test]
    fn hybrid_probes_then_parks() {
        let locals = [[1u32], [0u32]];
        let h = Arc::new(OptimisticHybridBackend::with_probes(
            2,
            WaitStrategy::Block,
            4,
        ));
        assert!(h.try_lock(0, ConflictSet::new(&locals[0])));
        let h2 = Arc::clone(&h);
        let waiter = std::thread::spawn(move || {
            let locals = [[1u32], [0u32]];
            let waited = h2.lock(1, ConflictSet::new(&locals[1]));
            assert!(h2.unlock(1));
            waited
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(h.unlock(0));
        assert!(waiter.join().unwrap());
        assert_eq!(h.held_total(), 0);
        assert_eq!(h.stats().acquisitions.load(Ordering::Relaxed), 2);
        assert_eq!(h.stats().contended.load(Ordering::Relaxed), 1);
        assert_eq!(h.live_waiter_nodes(), 0);
    }

    #[test]
    fn hybrid_uncontended_is_one_probe() {
        let locals = [[0u32]];
        let h = OptimisticHybridBackend::new(1, WaitStrategy::Block);
        assert!(!h.lock(0, ConflictSet::new(&locals[0])));
        assert!(h.unlock(0));
        assert_eq!(h.stats().contended.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn hybrid_expired_deadline_matches_word_semantics() {
        let locals = [[1u32], [0u32]];
        let h = OptimisticHybridBackend::new(2, WaitStrategy::Block);
        let expired = Instant::now() - Duration::from_millis(1);
        // Admissible mode wins over the expired deadline.
        assert_eq!(
            h.lock_deadline(0, ConflictSet::new(&locals[0]), expired, &mut || {
                Wait::Continue
            }),
            Acquire::Acquired
        );
        // Conflicting mode times out without parking.
        assert_eq!(
            h.lock_deadline(1, ConflictSet::new(&locals[1]), expired, &mut || {
                Wait::Continue
            }),
            Acquire::TimedOut
        );
        assert!(h.unlock(0));
        assert_eq!(h.stats().timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn backend_names_round_trip() {
        for b in AdmissionBackend::CONCRETE {
            assert_eq!(AdmissionBackend::from_name(b.name()), Some(b));
        }
        assert_eq!(
            AdmissionBackend::from_name("auto"),
            Some(AdmissionBackend::Auto)
        );
        assert_eq!(AdmissionBackend::from_name("bogus"), None);
    }

    #[test]
    fn backend_mode_limits_and_lock_freedom() {
        assert_eq!(
            AdmissionBackend::Packed.max_modes(),
            Some(PACKED_MODE_LIMIT)
        );
        assert_eq!(AdmissionBackend::Dwcas.max_modes(), Some(DWCAS_MODE_LIMIT));
        assert_eq!(AdmissionBackend::ConflictGraph.max_modes(), None);
        assert!(AdmissionBackend::Packed.lock_free(8));
        assert!(!AdmissionBackend::Wide.lock_free(2));
        assert!(!AdmissionBackend::ConflictGraph.lock_free(2));
        assert!(AdmissionBackend::Auto.lock_free(8));
    }
}
