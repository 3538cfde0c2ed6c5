//! Per-ADT-instance semantic locks (§2.2).
//!
//! A [`SemLock`] is the synchronization side of one ADT instance: it owns
//! one [`Mech`] per partition of the class's [`ModeTable`] — its counter
//! representation chosen from the partition's mode count — and exposes
//! the mode-level `lock` / `unlock` the paper's synchronization API
//! compiles down to. Every instance carries a process-unique identifier,
//! used both for the dynamic ordering of same-equivalence-class
//! acquisitions (`unique(x)` in Fig. 12) and by the protocol checker.

use crate::acquire::{AcquireSpec, WaitBudget};
use crate::error::LockError;
use crate::mech::{Acquire, AdmissionBackend, Mech, Wait, WaitStrategy};
use crate::mode::{ModeId, ModePlacement, ModeTable};
use crate::telemetry::{self, Acquisition, EventKind};
use crate::watchdog::{self, TxnId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Report the terminal of an acquisition that waited — nothing when
/// telemetry is off (`tele` is `None`).
fn finish(tele: Option<Acquisition>, kind: EventKind) {
    if let Some(tele) = tele {
        tele.finish(kind);
    }
}

static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide count of poisoning events (reported by the bench harness).
static POISON_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Allocate a fresh process-unique ADT instance identifier.
pub fn fresh_instance_id() -> u64 {
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Total instance-poisoning events since process start.
pub fn poison_events() -> u64 {
    POISON_EVENTS.load(Ordering::Relaxed)
}

/// The bound of a bounded acquisition. A [`Bound::Within`] becomes a
/// deadline only when the acquisition first has to wait, so an admission
/// that succeeds at once reads no clock.
#[derive(Clone, Copy)]
enum Bound {
    Until(Instant),
    Within(Duration),
}

/// Stage at which an unbounded acquisition detected poisoning — decides
/// which of the two panic messages the infallible [`SemLock::lock`] keeps.
enum PoisonStage {
    /// Poisoned before admission was attempted.
    Entry,
    /// Poisoned by a holder while this acquisition waited (the admission
    /// has already been rolled back when this is returned).
    AfterWait,
}

/// The semantic lock of one ADT instance.
pub struct SemLock {
    table: Arc<ModeTable>,
    /// One mechanism per partition of `table`.
    mechs: Box<[Mech]>,
    backend: AdmissionBackend,
    id: u64,
    /// Set when a transaction panicked during an ADT operation on this
    /// instance (or aborted after mutating it): the structure may be torn,
    /// so acquisitions fail fast until [`SemLock::clear_poison`].
    poisoned: AtomicBool,
}

/// Builder for [`SemLock`]: pick a wait strategy and, in tests and A/B
/// benches, a forced counter representation, then
/// [`build`](SemLockBuilder::build).
///
/// ```
/// # use semlock::schema::set_schema;
/// # use semlock::spec::CommutSpec;
/// # use semlock::phi::Phi;
/// # use semlock::mode::ModeTable;
/// # use semlock::{AdmissionBackend, SemLock};
/// # let schema = set_schema();
/// # let spec = CommutSpec::builder(schema.clone()).build();
/// # let table = ModeTable::builder(schema, spec, Phi::modulo(4)).build();
/// let lock = SemLock::builder(table)
///     .backend(AdmissionBackend::Wide)
///     .build();
/// assert_eq!(lock.backend(), AdmissionBackend::Wide);
/// ```
pub struct SemLockBuilder {
    table: Arc<ModeTable>,
    strategy: WaitStrategy,
    backend: AdmissionBackend,
}

impl SemLockBuilder {
    /// Set the wait strategy (default: blocking).
    pub fn strategy(mut self, strategy: WaitStrategy) -> SemLockBuilder {
        self.strategy = strategy;
        self
    }

    /// Force a counter representation (default: [`AdmissionBackend::Auto`],
    /// which is right outside tests and A/B benches).
    pub fn backend(mut self, backend: AdmissionBackend) -> SemLockBuilder {
        self.backend = backend;
        self
    }

    /// Build the lock.
    pub fn build(self) -> SemLock {
        SemLock::with_backend(self.table, self.strategy, self.backend)
    }
}

impl SemLock {
    /// Create the lock for a new ADT instance of the class described by
    /// `table`, using the default (blocking) wait strategy and
    /// [`AdmissionBackend::Auto`].
    pub fn new(table: Arc<ModeTable>) -> SemLock {
        SemLock::with_strategy(table, WaitStrategy::Block)
    }

    /// Start building a lock with a non-default wait strategy or a forced
    /// counter representation.
    pub fn builder(table: Arc<ModeTable>) -> SemLockBuilder {
        SemLockBuilder {
            table,
            strategy: WaitStrategy::default(),
            backend: AdmissionBackend::default(),
        }
    }

    /// Create with an explicit wait strategy (used by the ablation bench).
    pub fn with_strategy(table: Arc<ModeTable>, strategy: WaitStrategy) -> SemLock {
        SemLock::with_backend(table, strategy, AdmissionBackend::Auto)
    }

    /// Create with an explicit counter representation for every
    /// partition (see [`AdmissionBackend`]).
    ///
    /// # Panics
    /// If `backend` is `Packed` or `Dwcas` and some partition of `table`
    /// has more modes than that word holds.
    pub fn with_backend(
        table: Arc<ModeTable>,
        strategy: WaitStrategy,
        backend: AdmissionBackend,
    ) -> SemLock {
        let mechs = table
            .partition_sizes()
            .iter()
            .map(|&modes| Mech::with_backend(modes as usize, strategy, backend))
            .collect();
        SemLock {
            table,
            mechs,
            backend,
            id: fresh_instance_id(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The configured representation — [`AdmissionBackend::Auto`] unless
    /// one was forced; [`Mech::backend`] reports what a partition got.
    pub fn backend(&self) -> AdmissionBackend {
        self.backend
    }

    /// The class mode table.
    pub fn table(&self) -> &Arc<ModeTable> {
        &self.table
    }

    /// The process-unique instance identifier (`unique(x)` of Fig. 12).
    pub fn unique(&self) -> u64 {
        self.id
    }

    /// Acquire a locking mode. Blocks while any transaction holds a
    /// non-commuting mode on this instance.
    ///
    /// Panics if the instance is poisoned — the infallible API has no error
    /// channel, and proceeding onto possibly-torn state would be worse. Use
    /// [`SemLock::lock_checked`] (or [`SemLock::acquire`]) to observe
    /// poisoning as a structured [`LockError::Poisoned`] instead.
    pub fn lock(&self, mode: ModeId) {
        if let Err(stage) = self.lock_impl(mode) {
            match stage {
                PoisonStage::Entry => self.panic_poisoned_at_entry(),
                PoisonStage::AfterWait => self.panic_poisoned_while_waiting(),
            }
        }
    }

    /// Unbounded acquisition with a structured error channel: identical to
    /// [`SemLock::lock`] except that a poisoned instance is reported as
    /// [`LockError::Poisoned`] rather than a panic. This is what
    /// [`SemLock::acquire`] compiles an unbounded [`AcquireSpec`] down to.
    pub fn lock_checked(&self, mode: ModeId) -> Result<(), LockError> {
        self.lock_impl(mode).map_err(|_| self.poisoned())
    }

    /// Shared core of [`SemLock::lock`]/[`SemLock::lock_checked`]. The
    /// error distinguishes *when* poisoning was detected so the infallible
    /// wrapper can keep its two distinct panic messages.
    #[inline]
    fn lock_impl(&self, mode: ModeId) -> Result<(), PoisonStage> {
        let p = self.table.placement(mode);
        if self.admit_first(mode, p, None)? {
            Ok(())
        } else {
            self.lock_refused(mode, p)
        }
    }

    /// The rest of [`SemLock::lock_impl`] once the first admit try was
    /// refused: start the telemetry wait clock, sample the holders, wait.
    #[cold]
    fn lock_refused(&self, mode: ModeId, p: &ModePlacement) -> Result<(), PoisonStage> {
        let mut tele = Acquisition::begin(self.id, mode.0, None);
        if let Some(tele) = &mut tele {
            tele.refused();
            self.sample_holders(tele, p);
        }
        let mech = &self.mechs[p.part as usize];
        mech.lock_after_refusal(p.local, p.conflicts());
        // The instance may have been poisoned by a holder that panicked
        // while we were blocked.
        if self.is_poisoned() {
            let _ = mech.unlock(p.local);
            finish(tele, EventKind::PoisonRejected);
            return Err(PoisonStage::AfterWait);
        }
        finish(tele, EventKind::Admit);
        Ok(())
    }

    /// The first step of every acquisition, at every telemetry level: one
    /// non-blocking admit try, poison checked before and after it.
    /// `Ok(true)` admitted, `Ok(false)` refused by a conflicting hold
    /// (nothing changed, nothing reported — the caller goes on to wait or
    /// to report the refusal).
    ///
    /// Telemetry never changes what this does to the mechanism: the
    /// outcome is reported afterwards ([`telemetry::report`] — with
    /// telemetry off one relaxed load and a not-taken branch, the whole
    /// disabled-path cost). On the packed-word mechanism the uncontended
    /// body is: poison load, one admission CAS, poison re-check — no
    /// mutex, no clock.
    #[inline]
    fn admit_first(
        &self,
        mode: ModeId,
        p: &ModePlacement,
        txn: Option<TxnId>,
    ) -> Result<bool, PoisonStage> {
        let outcome = self.try_admit(p);
        match outcome {
            Ok(true) => telemetry::report(self.id, mode.0, txn, EventKind::Admit),
            Ok(false) => {}
            Err(_) => telemetry::report(self.id, mode.0, txn, EventKind::PoisonRejected),
        }
        outcome
    }

    /// The admission of [`SemLock::admit_first`], unreported.
    #[inline]
    fn try_admit(&self, p: &ModePlacement) -> Result<bool, PoisonStage> {
        if self.is_poisoned() {
            return Err(PoisonStage::Entry);
        }
        // A free mode commutes with everything: admission can never fail.
        if p.free {
            return Ok(true);
        }
        let mech = &self.mechs[p.part as usize];
        if !mech.try_lock(p.local, p.conflicts()) {
            return Ok(false);
        }
        // Re-check after admission, as every acquisition path does.
        if self.is_poisoned() {
            let _ = mech.unlock(p.local);
            return Err(PoisonStage::AfterWait);
        }
        Ok(true)
    }

    fn poisoned(&self) -> LockError {
        LockError::Poisoned { instance: self.id }
    }

    /// After a refused admit try: one conflict-pair observation per
    /// conflicting mode currently held. Racy by design — a sample, not an
    /// admission decision.
    #[cold]
    fn sample_holders(&self, tele: &mut Acquisition, p: &ModePlacement) {
        self.mechs[p.part as usize].held_conflicting(&p.local_conflicts, |local| {
            let held = self.table.mode_for_local(p.part, local);
            tele.blocked_by(held.map_or(telemetry::MODE_NONE, |m| m.0));
        });
    }

    /// The unified acquisition entry point: compiles an [`AcquireSpec`]
    /// down to the matching fixed-shape path. `lock`, `try_lock_checked`
    /// and `lock_deadline` are the specialized forms this generalizes; all
    /// behave identically to the equivalent spec.
    ///
    /// A bounded spec with the watchdog enabled registers under a fresh
    /// transaction id holding nothing — right for standalone (non-[`crate::txn::Txn`])
    /// acquisitions, which cannot be part of a waits-for cycle through
    /// other instances. Acquisitions inside a transaction go through
    /// [`crate::txn::Txn::acquire`], which routes here via
    /// [`SemLock::acquire_as`] with its real id and held set.
    pub fn acquire(&self, spec: &AcquireSpec) -> Result<(), LockError> {
        self.acquire_with(spec, crate::txn::next_txn_id, &Vec::new)
    }

    /// [`SemLock::acquire`] on behalf of transaction `txn` already holding
    /// `held` — the watchdog-aware form for callers that keep their own
    /// held set (the interpreter lends its as it stands).
    pub fn acquire_as(
        &self,
        spec: &AcquireSpec,
        txn: TxnId,
        held: &[(u64, ModeId)],
    ) -> Result<(), LockError> {
        self.acquire_with(spec, || txn, &|| held.to_vec())
    }

    /// [`SemLock::acquire_as`] for [`crate::txn::Txn::acquire`], whose
    /// held set has another shape: `held` builds the `(instance id, mode)`
    /// list, and is called only if the acquisition waits long enough to
    /// register with the watchdog.
    pub(crate) fn acquire_for(
        &self,
        spec: &AcquireSpec,
        txn: TxnId,
        held: &dyn Fn() -> Vec<(u64, ModeId)>,
    ) -> Result<(), LockError> {
        self.acquire_with(spec, || txn, held)
    }

    /// Shared body of the `acquire` family; `txn` is only evaluated for a
    /// bounded wait.
    #[inline]
    fn acquire_with(
        &self,
        spec: &AcquireSpec,
        txn: impl FnOnce() -> TxnId,
        held: &dyn Fn() -> Vec<(u64, ModeId)>,
    ) -> Result<(), LockError> {
        let bound = match spec.wait {
            WaitBudget::Forever => return self.lock_checked(spec.mode),
            WaitBudget::DontWait => return self.try_lock_checked(spec.mode),
            WaitBudget::Until(deadline) => Bound::Until(deadline),
            WaitBudget::Within(timeout) => Bound::Within(timeout),
        };
        self.lock_deadline_impl(spec.mode, bound, txn(), held, spec.watchdog)
    }

    #[cold]
    #[inline(never)]
    fn panic_poisoned_at_entry(&self) -> ! {
        panic!(
            "SemLock#{}: instance is poisoned (a transaction panicked \
             mid-operation); acquire through try_lock_checked/lock_deadline \
             or call clear_poison",
            self.id
        );
    }

    #[cold]
    #[inline(never)]
    fn panic_poisoned_while_waiting(&self) -> ! {
        panic!(
            "SemLock#{}: instance was poisoned while this acquisition waited",
            self.id
        );
    }

    /// Try to acquire without blocking. Returns `false` for both a
    /// conflicting hold and a poisoned instance; use
    /// [`SemLock::try_lock_checked`] to distinguish them.
    pub fn try_lock(&self, mode: ModeId) -> bool {
        self.try_lock_checked(mode).is_ok()
    }

    /// Try to acquire without blocking, reporting *why* the acquisition
    /// failed: [`LockError::Poisoned`] for a poisoned instance,
    /// [`LockError::Timeout`] (with a zero wait) for a conflicting hold.
    pub fn try_lock_checked(&self, mode: ModeId) -> Result<(), LockError> {
        let p = self.table.placement(mode);
        if self
            .admit_first(mode, p, None)
            .map_err(|_| self.poisoned())?
        {
            return Ok(());
        }
        let mut tele = Acquisition::begin(self.id, mode.0, None);
        if let Some(tele) = &mut tele {
            self.sample_holders(tele, p);
        }
        finish(tele, EventKind::Timeout);
        Err(LockError::Timeout {
            instance: self.id,
            mode,
            waited: Duration::ZERO,
        })
    }

    /// Bounded acquisition with deadlock detection: wait for admission
    /// until `deadline`, probing the deadlock watchdog while blocked.
    ///
    /// `txn` identifies the acquiring transaction and `held` is the set of
    /// `(instance id, mode)` pairs it already holds — both feed the
    /// watchdog's waits-for graph. The watchdog is registered only after
    /// the wait has lasted one probe slice, and a mode that is free is
    /// admitted before any clock read — whatever the telemetry level — so
    /// the uncontended path touches nothing beyond the poison flag and the
    /// admission word. A waits-for cycle sighted on two consecutive probes
    /// aborts the member with the largest `txn` with
    /// [`LockError::WouldDeadlock`].
    pub fn lock_deadline(
        &self,
        mode: ModeId,
        deadline: Instant,
        txn: TxnId,
        held: &[(u64, ModeId)],
    ) -> Result<(), LockError> {
        self.lock_deadline_impl(mode, Bound::Until(deadline), txn, &|| held.to_vec(), true)
    }

    /// [`SemLock::lock_deadline`] with the watchdog participation made
    /// explicit ([`AcquireSpec::no_watchdog`]): with `watchdog` false the
    /// wait still times out at its deadline but never registers in the
    /// waits-for graph, so it can neither sight a cycle nor be aborted as
    /// one's victim.
    fn lock_deadline_impl(
        &self,
        mode: ModeId,
        bound: Bound,
        txn: TxnId,
        held: &dyn Fn() -> Vec<(u64, ModeId)>,
        watchdog: bool,
    ) -> Result<(), LockError> {
        let p = self.table.placement(mode);
        // The bound costs nothing unless the acquisition waits: only a
        // refusal goes on to read the clock.
        if self
            .admit_first(mode, p, Some(txn))
            .map_err(|_| self.poisoned())?
        {
            Ok(())
        } else {
            self.lock_deadline_refused(mode, p, bound, txn, held, watchdog)
        }
    }

    /// The rest of [`SemLock::lock_deadline_impl`] once the first admit
    /// try was refused: the bounded, watchdog-probed wait.
    #[cold]
    fn lock_deadline_refused(
        &self,
        mode: ModeId,
        p: &ModePlacement,
        bound: Bound,
        txn: TxnId,
        held: &dyn Fn() -> Vec<(u64, ModeId)>,
        watchdog: bool,
    ) -> Result<(), LockError> {
        let start = Instant::now();
        let deadline = match bound {
            Bound::Until(deadline) => deadline,
            Bound::Within(timeout) => start + timeout,
        };
        let mut tele = Acquisition::begin(self.id, mode.0, Some(txn));
        if let Some(tele) = &mut tele {
            tele.refused();
            self.sample_holders(tele, p);
        }
        let mech = &self.mechs[p.part as usize];
        let wd = watchdog::global();
        let mut registered = false;
        let mut pending: Option<Vec<TxnId>> = None;
        let mut abort_cycle: Vec<TxnId> = Vec::new();
        let outcome =
            mech.lock_deadline_after_refusal(p.local, p.conflicts(), deadline, &mut || {
                if !watchdog {
                    return Wait::Continue;
                }
                if !registered {
                    wd.register(txn, self.id, mode, self.table.clone(), held());
                    registered = true;
                    return Wait::Continue;
                }
                match wd.cycle_through(txn) {
                    // Only the youngest member aborts; a cycle must be
                    // sighted twice in a row to rule out stale entries from
                    // waiters that just acquired but have not deregistered.
                    Some(cycle) if cycle.iter().max() == Some(&txn) => {
                        if pending.as_ref() == Some(&cycle) {
                            abort_cycle = cycle;
                            return Wait::Abandon;
                        }
                        pending = Some(cycle);
                    }
                    _ => pending = None,
                }
                Wait::Continue
            });
        if registered {
            wd.deregister(txn);
        }
        match outcome {
            Acquire::Acquired => {
                // Re-check after admission: a holder may have poisoned the
                // instance (panic mid-operation) while we were blocked.
                if self.is_poisoned() {
                    let _ = mech.unlock(p.local);
                    finish(tele, EventKind::PoisonRejected);
                    return Err(self.poisoned());
                }
                finish(tele, EventKind::Admit);
                Ok(())
            }
            Acquire::TimedOut => {
                finish(tele, EventKind::Timeout);
                Err(LockError::Timeout {
                    instance: self.id,
                    mode,
                    waited: start.elapsed(),
                })
            }
            Acquire::Abandoned => {
                let site = tele
                    .as_ref()
                    .map_or(telemetry::SITE_NONE, Acquisition::site);
                wd.note_deadlock(txn, self.id, mode, site, &abort_cycle);
                finish(tele, EventKind::CycleAborted);
                Err(LockError::WouldDeadlock {
                    instance: self.id,
                    mode,
                    cycle: abort_cycle,
                })
            }
        }
    }

    /// Mark the instance poisoned: its invariants may be torn. All
    /// subsequent acquisitions fail fast until [`SemLock::clear_poison`].
    pub fn poison(&self) {
        if !self.poisoned.swap(true, Ordering::SeqCst) {
            POISON_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Is the instance poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Explicit escape hatch mirroring `std::sync::Mutex::clear_poison`:
    /// the caller asserts it has repaired (or accepts) the instance state.
    pub fn clear_poison(&self) {
        self.poisoned.store(false, Ordering::SeqCst);
    }

    /// Sum of hold counts over every mode (quiescence checks: zero means
    /// no transaction holds any mode on this instance).
    pub fn total_holds(&self) -> u64 {
        self.mechs.iter().map(|m| m.held_total()).sum()
    }

    /// Bounded acquisitions that timed out, summed over all partitions.
    pub fn timeout_count(&self) -> u64 {
        self.mechs
            .iter()
            .map(|m| m.stats().timeouts.load(Ordering::Relaxed))
            .sum()
    }

    /// Release one hold of a locking mode.
    ///
    /// A refused double release (see [`SemLock::unlock_checked`]) is
    /// logged to stderr here — the infallible signature has no error
    /// channel, and the instance has already been poisoned.
    pub fn unlock(&self, mode: ModeId) {
        if let Err(e) = self.unlock_checked(mode) {
            eprintln!("semlock: {e}");
        }
    }

    /// Release one hold of a locking mode, reporting a refused release.
    ///
    /// A release that would underflow the mode's hold counter (a double
    /// unlock — necessarily a caller bug) is refused by the mechanism in
    /// every build; this wrapper then **poisons the instance** (its
    /// bookkeeping can no longer be trusted) and returns
    /// [`LockError::UnlockUnderflow`].
    pub fn unlock_checked(&self, mode: ModeId) -> Result<(), LockError> {
        let tele = telemetry::Release::begin();
        let p = self.table.placement(mode);
        let released = p.free || self.mechs[p.part as usize].unlock(p.local);
        if !released {
            self.poison();
        }
        if let Some(tele) = tele {
            tele.finish(self.id, mode.0, !released);
        }
        if released {
            Ok(())
        } else {
            Err(LockError::UnlockUnderflow {
                instance: self.id,
                mode,
            })
        }
    }

    /// Releases refused because they would have underflowed a hold
    /// counter, summed over all partitions.
    pub fn underflow_count(&self) -> u64 {
        self.mechs
            .iter()
            .map(|m| m.stats().underflows.load(Ordering::Relaxed))
            .sum()
    }

    /// Current hold count of a mode (diagnostics / tests).
    pub fn hold_count(&self, mode: ModeId) -> u32 {
        let p = self.table.placement(mode);
        if p.free {
            0
        } else {
            self.mechs[p.part as usize].count(p.local)
        }
    }

    /// Aggregate contention statistics over all partitions:
    /// `(acquisitions, contended)`.
    pub fn contention(&self) -> (u64, u64) {
        let mut acq = 0;
        let mut cont = 0;
        for m in self.mechs.iter() {
            acq += m.stats().acquisitions.load(Ordering::Relaxed);
            cont += m.stats().contended.load(Ordering::Relaxed);
        }
        (acq, cont)
    }
}

impl std::fmt::Debug for SemLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SemLock#{} ({}, {} partitions)",
            self.id,
            self.table.schema().name(),
            self.mechs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phi::Phi;
    use crate::schema::set_schema;
    use crate::spec::CommutSpec;
    use crate::symbolic::{SymArg, SymOp, SymbolicSet};
    use crate::value::Value;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn table() -> (Arc<ModeTable>, crate::mode::LockSiteId) {
        let s = set_schema();
        let spec = CommutSpec::builder(s.clone())
            .always("add", "add")
            .differ("add", 0, "remove", 0)
            .differ("add", 0, "contains", 0)
            .never("add", "size")
            .never("add", "clear")
            .always("remove", "remove")
            .differ("remove", 0, "contains", 0)
            .never("remove", "size")
            .never("remove", "clear")
            .always("contains", "contains")
            .always("contains", "size")
            .never("contains", "clear")
            .always("size", "size")
            .never("size", "clear")
            .always("clear", "clear")
            .build();
        let mut b = ModeTable::builder(s.clone(), spec, Phi::modulo(4));
        let site = b.add_site(SymbolicSet::new(vec![
            SymOp::new(s.method("add"), vec![SymArg::Var(0)]),
            SymOp::new(s.method("remove"), vec![SymArg::Var(0)]),
        ]));
        (b.build(), site)
    }

    #[test]
    fn unique_ids_are_unique() {
        let (t, _) = table();
        let a = SemLock::new(t.clone());
        let b = SemLock::new(t);
        assert_ne!(a.unique(), b.unique());
    }

    #[test]
    fn same_class_excludes_distinct_classes_run() {
        let (t, site) = table();
        let lock = Arc::new(SemLock::new(t.clone()));
        let m1 = t.select(site, &[Value(1)]);
        let m2 = t.select(site, &[Value(2)]);
        assert_ne!(m1, m2);
        // m1 self-conflicts; m2 is in a different partition.
        lock.lock(m1);
        assert!(!lock.try_lock(m1));
        assert!(lock.try_lock(m2)); // different key class admitted
        lock.unlock(m2);
        lock.unlock(m1);
        assert!(lock.try_lock(m1));
        lock.unlock(m1);
    }

    #[test]
    fn blocked_acquirer_wakes() {
        let (t, site) = table();
        let lock = Arc::new(SemLock::new(t.clone()));
        let m = t.select(site, &[Value(3)]);
        lock.lock(m);
        let flag = Arc::new(AtomicBool::new(false));
        let h = {
            let (lock, flag) = (lock.clone(), flag.clone());
            std::thread::spawn(move || {
                lock.lock(m);
                flag.store(true, Ordering::SeqCst);
                lock.unlock(m);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!flag.load(Ordering::SeqCst));
        lock.unlock(m);
        h.join().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn poisoned_instance_rejects_until_cleared() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        lock.poison();
        assert!(lock.is_poisoned());
        assert!(!lock.try_lock(m));
        assert!(matches!(
            lock.try_lock_checked(m),
            Err(crate::error::LockError::Poisoned { .. })
        ));
        assert!(matches!(
            lock.lock_deadline(m, std::time::Instant::now(), 1, &[]),
            Err(crate::error::LockError::Poisoned { .. })
        ));
        lock.clear_poison();
        assert!(!lock.is_poisoned());
        assert!(lock.try_lock(m));
        lock.unlock(m);
        assert_eq!(lock.total_holds(), 0);
    }

    #[test]
    fn lock_deadline_times_out_against_conflicting_hold() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(3)]);
        lock.lock(m);
        let start = std::time::Instant::now();
        let err = lock
            .lock_deadline(m, start + Duration::from_millis(25), 99, &[])
            .unwrap_err();
        assert!(
            matches!(err, crate::error::LockError::Timeout { .. }),
            "{err}"
        );
        assert!(lock.timeout_count() >= 1);
        lock.unlock(m);
        assert_eq!(lock.total_holds(), 0);
    }

    /// `Auto` (packed, on this table) and the wide oracle, for the tests
    /// that pin bounded-acquire behaviour the admission fast path must
    /// not change.
    const BACKENDS: [AdmissionBackend; 2] = [AdmissionBackend::Auto, AdmissionBackend::Wide];

    #[test]
    fn zero_timeout_admits_a_free_mode_and_refuses_a_held_one_without_parking() {
        for backend in BACKENDS {
            let (t, site) = table();
            let lock = SemLock::with_backend(t.clone(), WaitStrategy::Block, backend);
            let m = t.select(site, &[Value(3)]);
            let zero = AcquireSpec::new(m).timeout(Duration::ZERO);
            // Admission wins over an already-expired bound.
            lock.acquire(&zero).unwrap();
            // Held and self-conflicting: the same request is refused at
            // once, with no waiter published or left behind.
            let err = lock.acquire(&zero).unwrap_err();
            assert!(matches!(err, LockError::Timeout { .. }), "{backend}: {err}");
            assert_eq!(lock.timeout_count(), 1, "{backend}");
            assert!(lock.mechs.iter().all(|b| !b.waiter_summary()), "{backend}");
            assert!(lock.mechs.iter().all(|b| b.live_waiter_nodes() == 0));
            lock.unlock(m);
            assert_eq!(lock.total_holds(), 0, "{backend}");
        }
    }

    #[test]
    fn timeout_runs_from_the_start_of_the_wait() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(3)]);
        lock.lock(m);
        // A spec is a description, not a started clock: built well before
        // it is used, it still grants the whole bound, and `waited` is the
        // time spent waiting — not the time since the spec was built.
        let bound = Duration::from_millis(25);
        let spec = AcquireSpec::new(m).timeout(bound);
        std::thread::sleep(2 * bound);
        let start = Instant::now();
        let err = lock.acquire(&spec).unwrap_err();
        let elapsed = start.elapsed();
        let LockError::Timeout { waited, .. } = err else {
            panic!("expected a timeout, got {err}");
        };
        assert!(waited >= bound, "waited {waited:?} of a {bound:?} bound");
        assert!(
            waited <= elapsed,
            "waited {waited:?} exceeds the call's {elapsed:?}"
        );
        lock.unlock(m);
    }

    #[test]
    fn bounded_acquire_counts_like_the_unbounded_one() {
        // A fixed single-threaded script; the expected counts are the ones
        // the pre-fast-path implementation produced for it.
        for backend in BACKENDS {
            let (t, site) = table();
            let lock = SemLock::with_backend(t.clone(), WaitStrategy::Block, backend);
            let m1 = t.select(site, &[Value(1)]);
            let m2 = t.select(site, &[Value(2)]);
            let bounded = |m| AcquireSpec::new(m).timeout(Duration::ZERO);
            lock.acquire(&bounded(m1)).unwrap();
            lock.unlock(m1);
            lock.lock(m1);
            assert!(lock.acquire(&bounded(m1)).is_err());
            lock.acquire_as(&bounded(m2), 7, &[(lock.unique(), m1)])
                .unwrap();
            assert!(lock.acquire(&AcquireSpec::new(m1).no_wait()).is_err());
            lock.unlock(m2);
            lock.unlock(m1);
            assert_eq!(lock.contention(), (3, 0), "{backend}");
            assert_eq!(lock.timeout_count(), 1, "{backend}");
            assert_eq!(lock.total_holds(), 0, "{backend}");
        }
    }

    #[test]
    fn poison_landing_during_admission_is_rolled_back() {
        // One thread flips the poison flag as fast as it can while the
        // other takes bounded acquisitions of a free mode. Whatever the
        // interleaving, `Poisoned` must leave nothing held — including
        // when the flag lands between the entry check and the admission,
        // which shows as an admission the backend counted but the caller
        // never got.
        let (t, site) = table();
        let lock = Arc::new(SemLock::new(t.clone()));
        let m = t.select(site, &[Value(3)]);
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let flipper = {
            let (lock, stop, gate) = (lock.clone(), stop.clone(), gate.clone());
            std::thread::spawn(move || {
                gate.wait();
                while !stop.load(Ordering::Relaxed) {
                    lock.poison();
                    lock.clear_poison();
                }
            })
        };
        gate.wait();
        let spec = AcquireSpec::new(m).timeout(Duration::from_secs(5));
        let start = Instant::now();
        let mut admitted = 0u64;
        let rolled_back = |admitted: u64| lock.contention().0 - admitted;
        while rolled_back(admitted) == 0 && start.elapsed() < Duration::from_secs(10) {
            for _ in 0..1000 {
                match lock.acquire(&spec) {
                    Ok(()) => {
                        admitted += 1;
                        lock.unlock(m);
                    }
                    Err(LockError::Poisoned { .. }) => {}
                    Err(e) => panic!("unexpected {e}"),
                }
                assert_eq!(lock.hold_count(m), 0, "a refused acquisition kept its hold");
            }
        }
        stop.store(true, Ordering::Relaxed);
        flipper.join().unwrap();
        assert!(
            rolled_back(admitted) > 0,
            "the flag never landed mid-admission"
        );
        assert_eq!(lock.total_holds(), 0);
    }

    #[test]
    fn waiter_observes_poison_applied_while_blocked() {
        let (t, site) = table();
        let lock = Arc::new(SemLock::new(t.clone()));
        let m = t.select(site, &[Value(3)]);
        lock.lock(m);
        let h = {
            let lock = lock.clone();
            std::thread::spawn(move || {
                lock.lock_deadline(
                    m,
                    std::time::Instant::now() + Duration::from_secs(5),
                    7,
                    &[],
                )
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        // Simulate a holder panicking mid-operation: poison, then release.
        lock.poison();
        lock.unlock(m);
        let res = h.join().unwrap();
        assert!(matches!(res, Err(crate::error::LockError::Poisoned { .. })));
        assert_eq!(lock.total_holds(), 0, "rejected waiter must not leak");
        lock.clear_poison();
    }

    #[test]
    fn deadlock_cycle_aborts_youngest_waiter() {
        // Classic two-instance cycle through the bounded API: txn 1 holds
        // `a` and wants `b`; txn 2 holds `b` and wants `a`. The watchdog
        // must abort the youngest (larger txn id) well before the 10 s
        // deadline; the older waiter then acquires.
        let (t, site) = table();
        let a = Arc::new(SemLock::new(t.clone()));
        let b = Arc::new(SemLock::new(t.clone()));
        let m = t.select(site, &[Value(3)]); // self-conflicting mode
        let gate = Arc::new(std::sync::Barrier::new(2));
        let mk =
            |hold: Arc<SemLock>, want: Arc<SemLock>, txn: u64, gate: Arc<std::sync::Barrier>| {
                std::thread::spawn(move || {
                    hold.lock(m);
                    gate.wait();
                    let held = [(hold.unique(), m)];
                    let res = want.lock_deadline(
                        m,
                        std::time::Instant::now() + Duration::from_secs(10),
                        txn,
                        &held,
                    );
                    if res.is_ok() {
                        want.unlock(m);
                    }
                    hold.unlock(m);
                    res
                })
            };
        let start = std::time::Instant::now();
        let h1 = mk(a.clone(), b.clone(), 1001, gate.clone());
        let h2 = mk(b.clone(), a.clone(), 1002, gate.clone());
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "watchdog did not break the deadlock before the deadline"
        );
        let aborted: Vec<_> = [(1001u64, &r1), (1002u64, &r2)]
            .into_iter()
            .filter(|(_, r)| matches!(r, Err(crate::error::LockError::WouldDeadlock { .. })))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(aborted, vec![1002], "exactly the youngest waiter aborts");
        assert!(r1.is_ok(), "the older waiter proceeds: {r1:?}");
        assert_eq!(a.total_holds() + b.total_holds(), 0);
    }

    #[test]
    fn contention_stats_accumulate() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(0)]);
        for _ in 0..10 {
            lock.lock(m);
            lock.unlock(m);
        }
        let (acq, cont) = lock.contention();
        assert_eq!(acq, 10);
        assert_eq!(cont, 0);
    }
}
