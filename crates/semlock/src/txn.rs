//! Transaction contexts: `LOCAL_SET`, prologue/epilogue, and the ordered
//! acquisition helpers of §3 (`LV`, `LV2`, dynamic same-class sorting).
//!
//! A [`Txn`] is the runtime state of one executing atomic section. It tracks
//! the ADT instances the transaction has locked (the paper's thread-local
//! `LOCAL_SET`, Fig. 5), skips re-locking, releases everything in the
//! epilogue (or early, for the Appendix-A early-release optimization), and —
//! in debug builds — enforces the OS2PL single-lock-per-instance rule.

use crate::acquire::AcquireSpec;
use crate::error::LockError;
use crate::manager::SemLock;
use crate::mode::ModeId;
use crate::telemetry;
use crate::watchdog::TxnId;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide source of transaction-id blocks. Threads take
/// [`TXN_ID_BLOCK`] ids at a time (see [`next_txn_id`]), so ids are unique
/// process-wide and increasing *per thread*, but not ordered by age across
/// threads. Deadlock recovery needs no more than that: the ids form a
/// unique total order, the watchdog aborts the maximum-id member of a
/// cycle, so the minimum-id member of any cycle always survives and the
/// system makes progress.
static NEXT_TXN_ID: AtomicU64 = AtomicU64::new(1);

/// Ids a thread takes from [`NEXT_TXN_ID`] per refill: one RMW on the
/// process-global line per this many transactions instead of one each.
const TXN_ID_BLOCK: u64 = 1024;

thread_local! {
    /// This thread's block: the next id to hand out and the block's end
    /// (equal when the block is spent, as it is before the first refill).
    static TXN_ID_RANGE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Allocate a fresh transaction id: unique process-wide, increasing on the
/// calling thread.
///
/// [`Txn::new`] draws from the same allocator; external executors that
/// manage their own transaction state (e.g. the IR interpreter) must use
/// this too, so ids registered with the [`crate::watchdog`] never collide.
pub fn next_txn_id() -> TxnId {
    TXN_ID_RANGE.with(|range| {
        let (mut next, mut end) = range.get();
        if next == end {
            // Ordering: Relaxed — the counter publishes nothing; the RMW's
            // atomicity alone makes the blocks disjoint.
            next = NEXT_TXN_ID.fetch_add(TXN_ID_BLOCK, Ordering::Relaxed);
            end = next + TXN_ID_BLOCK;
        }
        range.set((next + 1, end));
        next
    })
}

/// The runtime context of one transaction (execution of an atomic section).
///
/// Dropping a `Txn` releases every lock it still holds, so a panicking
/// atomic section cannot leak locks.
pub struct Txn<'a> {
    /// `LOCAL_SET`: instances currently locked, with the mode held and the
    /// telemetry site id stamped at acquisition ([`telemetry::SITE_NONE`]
    /// when telemetry was off or no site was pending). Transactions touch
    /// a handful of ADTs, so a linear-scan vector beats any hash structure
    /// here.
    held: Vec<(&'a SemLock, ModeId, u32)>,
    /// Unique transaction id (used by the deadlock watchdog).
    id: TxnId,
}

impl<'a> Txn<'a> {
    /// Prologue: begin a transaction with an empty `LOCAL_SET`.
    pub fn new() -> Txn<'a> {
        Txn {
            held: Vec::new(),
            id: next_txn_id(),
        }
    }

    /// This transaction's unique id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The unified acquisition entry point: lock `adt` as described by
    /// `spec`, unless this transaction already holds a lock on that
    /// instance (the `LV` skip rule — the compiler guarantees the first
    /// lock site reached for an instance requests a mode covering every
    /// operation the section may still invoke on it, so skipping
    /// subsequent sites is sound, whatever the spec's wait budget).
    ///
    /// Every legacy entry point is a thin wrapper over this:
    ///
    /// | wrapper | equivalent spec |
    /// |---|---|
    /// | [`Txn::lv`] | `AcquireSpec::new(mode)` (+ panic on poison) |
    /// | [`Txn::try_lv`] | `AcquireSpec::new(mode).no_wait()` |
    /// | [`Txn::lv_deadline`] | `AcquireSpec::new(mode).deadline(d)` |
    /// | [`Txn::lv_timeout`] | `AcquireSpec::new(mode).timeout(t)` |
    ///
    /// On failure the transaction still holds everything it held before
    /// the call; the caller decides whether to retry, back off, or drop
    /// the `Txn` (which releases the rest). Bounded specs register with
    /// the deadlock watchdog while parked (unless
    /// [`AcquireSpec::no_watchdog`]), carrying this transaction's id and
    /// current holds into the waits-for graph.
    pub fn acquire(&mut self, adt: &'a SemLock, spec: &AcquireSpec) -> Result<(), LockError> {
        if self.holds(adt) {
            return Ok(());
        }
        let site = self.tele_enter();
        let held = &self.held;
        // The watchdog's waits-for edges, built only if the acquisition
        // waits long enough to register.
        adt.acquire_for(spec, self.id, &|| {
            held.iter().map(|&(l, m, _)| (l.unique(), m)).collect()
        })?;
        self.held.push((adt, spec.mode, site));
        Ok(())
    }

    /// The `LV(x)` macro of Fig. 5: lock `adt` in `mode` unless this
    /// transaction already holds a lock on that instance. Equivalent to
    /// [`Txn::acquire`] with `AcquireSpec::new(mode)`, with the one
    /// possible failure (a poisoned instance) promoted to a panic — the
    /// compiled-output API has no error channel, and proceeding onto
    /// possibly-torn state would be worse.
    pub fn lv(&mut self, adt: &'a SemLock, mode: ModeId) {
        if let Err(e) = self.acquire(adt, &AcquireSpec::new(mode)) {
            panic!("lv: {e}");
        }
    }

    /// Telemetry prologue for an acquisition: stamp this transaction's id
    /// into the thread context and return the pending site id (which the
    /// runtime entry point will consume). Free when telemetry is off.
    #[inline]
    fn tele_enter(&self) -> u32 {
        if telemetry::enabled() {
            telemetry::set_txn(self.id);
            telemetry::context().1
        } else {
            telemetry::SITE_NONE
        }
    }

    /// Telemetry prologue for a release: re-stamp the context with this
    /// transaction's id and the site recorded at acquisition, so the
    /// `Release` event pairs with its `Admit`. Free when telemetry is off.
    #[inline]
    fn tele_release(&self, site: u32) {
        if telemetry::enabled() {
            telemetry::set_context(self.id, site);
        }
    }

    /// Non-blocking `LV`: acquire `mode` on `adt` only if it is admissible
    /// right now. Already-held instances succeed immediately (the `LV`
    /// skip rule). Fails with [`LockError::Timeout`] (zero wait) on
    /// conflict or [`LockError::Poisoned`] on a poisoned instance.
    /// Equivalent to [`Txn::acquire`] with `AcquireSpec::new(mode).no_wait()`.
    pub fn try_lv(&mut self, adt: &'a SemLock, mode: ModeId) -> Result<(), LockError> {
        self.acquire(adt, &AcquireSpec::new(mode).no_wait())
    }

    /// Bounded `LV`: wait for admission until `deadline`, with the deadlock
    /// watchdog armed. Equivalent to [`Txn::acquire`] with
    /// `AcquireSpec::new(mode).deadline(deadline)`; see there for the
    /// failure contract.
    pub fn lv_deadline(
        &mut self,
        adt: &'a SemLock,
        mode: ModeId,
        deadline: Instant,
    ) -> Result<(), LockError> {
        self.acquire(adt, &AcquireSpec::new(mode).deadline(deadline))
    }

    /// [`Txn::lv_deadline`] with a relative timeout. Equivalent to
    /// [`Txn::acquire`] with `AcquireSpec::new(mode).timeout(timeout)`.
    pub fn lv_timeout(
        &mut self,
        adt: &'a SemLock,
        mode: ModeId,
        timeout: Duration,
    ) -> Result<(), LockError> {
        self.acquire(adt, &AcquireSpec::new(mode).timeout(timeout))
    }

    /// The `LV2(x, y)` macro of Fig. 12: lock two instances of the same
    /// equivalence class in the dynamic order given by their unique
    /// identifiers, so concurrent transactions agree on the order.
    pub fn lv2(&mut self, a: (&'a SemLock, ModeId), b: (&'a SemLock, ModeId)) {
        if a.0.unique() <= b.0.unique() {
            self.lv(a.0, a.1);
            self.lv(b.0, b.1);
        } else {
            self.lv(b.0, b.1);
            self.lv(a.0, a.1);
        }
    }

    /// General case of Fig. 12: lock any number of same-class instances in
    /// ascending unique-id order.
    pub fn lv_sorted(&mut self, mut entries: Vec<(&'a SemLock, ModeId)>) {
        entries.sort_by_key(|(l, _)| l.unique());
        for (l, m) in entries {
            self.lv(l, m);
        }
    }

    /// Does this transaction currently hold a lock on `adt`?
    pub fn holds(&self, adt: &SemLock) -> bool {
        self.held.iter().any(|(l, _, _)| l.unique() == adt.unique())
    }

    /// The mode held on `adt`, if any.
    pub fn held_mode(&self, adt: &SemLock) -> Option<ModeId> {
        self.held
            .iter()
            .find(|(l, _, _)| l.unique() == adt.unique())
            .map(|&(_, m, _)| m)
    }

    /// Number of instances currently locked.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Early lock release (Appendix A): the `x.unlockAll()` moved before
    /// the end of the section. No-op if the instance is not held.
    pub fn release(&mut self, adt: &SemLock) {
        if let Some(pos) = self
            .held
            .iter()
            .position(|(l, _, _)| l.unique() == adt.unique())
        {
            let (l, m, site) = self.held.swap_remove(pos);
            self.tele_release(site);
            l.unlock(m);
        }
    }

    /// Epilogue: `foreach(t : LOCAL_SET) t.unlockAll()`.
    pub fn unlock_all(&mut self) {
        let id = self.id;
        for (l, m, site) in self.held.drain(..) {
            if telemetry::enabled() {
                telemetry::set_context(id, site);
            }
            l.unlock(m);
        }
    }

    /// Mark that an ADT operation on `adt` is in flight. If the returned
    /// guard is dropped by an unwind (the operation panicked), `adt` is
    /// poisoned: the structure may be torn, so later acquisitions fail fast
    /// with [`LockError::Poisoned`] until
    /// [`SemLock::clear_poison`](crate::manager::SemLock::clear_poison).
    ///
    /// Mirrors `std::sync::Mutex` poisoning, scoped to the operation rather
    /// than the whole critical section: panics *between* operations (before
    /// the first mutation) abort cleanly without poisoning.
    pub fn in_op(&self, adt: &'a SemLock) -> OpGuard<'a> {
        debug_assert!(
            self.holds(adt),
            "in_op on an instance the transaction has not locked"
        );
        OpGuard { adt }
    }

    /// Run one ADT operation under an [`OpGuard`]: if `f` panics, `adt` is
    /// poisoned before the unwind continues.
    pub fn with_op<R>(&self, adt: &'a SemLock, f: impl FnOnce() -> R) -> R {
        let _guard = self.in_op(adt);
        f()
    }
}

/// Marker that an ADT operation is executing (see [`Txn::in_op`]). Poisons
/// the instance if dropped during a panic unwind.
pub struct OpGuard<'a> {
    adt: &'a SemLock,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.adt.poison();
        }
    }
}

impl Default for Txn<'_> {
    fn default() -> Self {
        Txn::new()
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        self.unlock_all();
    }
}

/// Run a closure as a transaction: prologue, body, epilogue.
///
/// ```
/// # use semlock::{txn::atomic_section};
/// let out = atomic_section(|txn| {
///     // lock ADTs via txn.lv(...), invoke operations, ...
///     let _ = txn.held_count();
///     42
/// });
/// assert_eq!(out, 42);
/// ```
pub fn atomic_section<'a, R>(body: impl FnOnce(&mut Txn<'a>) -> R) -> R {
    let mut txn = Txn::new();
    let r = body(&mut txn);
    txn.unlock_all();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{LockSiteId, ModeTable};
    use crate::phi::Phi;
    use crate::schema::set_schema;
    use crate::spec::CommutSpec;
    use crate::symbolic::{SymArg, SymOp, SymbolicSet};
    use crate::value::Value;
    use std::sync::Arc;

    fn table() -> (Arc<ModeTable>, LockSiteId) {
        let s = set_schema();
        let spec = CommutSpec::builder(s.clone())
            .always("add", "add")
            .differ("add", 0, "remove", 0)
            .never("add", "size")
            .always("remove", "remove")
            .never("remove", "size")
            .always("size", "size")
            .never("add", "clear")
            .never("remove", "clear")
            .never("size", "clear")
            .always("clear", "clear")
            .differ("add", 0, "contains", 0)
            .differ("remove", 0, "contains", 0)
            .always("contains", "contains")
            .always("contains", "size")
            .never("contains", "clear")
            .build();
        let mut b = ModeTable::builder(s.clone(), spec, Phi::modulo(4));
        let site = b.add_site(SymbolicSet::new(vec![
            SymOp::new(s.method("add"), vec![SymArg::Var(0)]),
            SymOp::new(s.method("remove"), vec![SymArg::Var(0)]),
        ]));
        (b.build(), site)
    }

    #[test]
    fn lv_skips_already_locked_instance() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        let mut txn = Txn::new();
        txn.lv(&lock, m);
        txn.lv(&lock, m); // second LV is a no-op
        assert_eq!(txn.held_count(), 1);
        assert_eq!(lock.hold_count(m), 1);
        txn.unlock_all();
        assert_eq!(lock.hold_count(m), 0);
    }

    #[test]
    fn drop_releases_locks() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        {
            let mut txn = Txn::new();
            txn.lv(&lock, m);
            assert_eq!(lock.hold_count(m), 1);
            // txn dropped here without explicit unlock_all
        }
        assert_eq!(lock.hold_count(m), 0);
    }

    #[test]
    fn lv2_orders_by_unique_id() {
        let (t, site) = table();
        let a = SemLock::new(t.clone());
        let b = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        // Both argument orders must succeed and leave both locked.
        let mut txn = Txn::new();
        txn.lv2((&b, m), (&a, m));
        assert!(txn.holds(&a) && txn.holds(&b));
        txn.unlock_all();
        let mut txn = Txn::new();
        txn.lv2((&a, m), (&b, m));
        assert!(txn.holds(&a) && txn.holds(&b));
    }

    #[test]
    fn lv_sorted_many() {
        let (t, site) = table();
        let locks: Vec<_> = (0..5).map(|_| SemLock::new(t.clone())).collect();
        let m = t.select(site, &[Value(2)]);
        let mut txn = Txn::new();
        // Deliberately shuffled order of same-class instances.
        txn.lv_sorted(vec![
            (&locks[3], m),
            (&locks[0], m),
            (&locks[4], m),
            (&locks[1], m),
            (&locks[2], m),
        ]);
        assert_eq!(txn.held_count(), 5);
    }

    #[test]
    fn early_release() {
        let (t, site) = table();
        let a = SemLock::new(t.clone());
        let b = SemLock::new(t.clone());
        let m = t.select(site, &[Value(3)]);
        let mut txn = Txn::new();
        txn.lv(&a, m);
        txn.lv(&b, m);
        txn.release(&a);
        assert_eq!(a.hold_count(m), 0);
        assert_eq!(b.hold_count(m), 1);
        assert!(!txn.holds(&a));
        txn.unlock_all();
        assert_eq!(b.hold_count(m), 0);
    }

    #[test]
    fn held_mode_lookup() {
        let (t, site) = table();
        let a = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        let mut txn = Txn::new();
        assert_eq!(txn.held_mode(&a), None);
        txn.lv(&a, m);
        assert_eq!(txn.held_mode(&a), Some(m));
    }

    #[test]
    fn atomic_section_helper_runs_epilogue() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        atomic_section(|txn| {
            txn.lv(&lock, m);
        });
        assert_eq!(lock.hold_count(m), 0);
    }

    #[test]
    fn txn_ids_are_unique_and_increase_per_thread() {
        // Several refills per thread, all threads allocating at once.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 3 * TXN_ID_BLOCK as usize + 7;
        let start = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<Vec<TxnId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..PER_THREAD).map(|_| Txn::new().id()).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "not increasing");
        }
        let distinct: std::collections::HashSet<TxnId> =
            per_thread.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), THREADS * PER_THREAD);
    }

    #[test]
    fn try_lv_succeeds_then_skips_then_conflicts() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(3)]);
        let mut txn = Txn::new();
        txn.try_lv(&lock, m).unwrap();
        // Second call on a held instance is the LV skip rule, not a retry.
        txn.try_lv(&lock, m).unwrap();
        assert_eq!(txn.held_count(), 1);
        // A second transaction conflicts (self-conflicting mode) and must
        // fail immediately with a zero-wait timeout.
        let mut other = Txn::new();
        let err = other.try_lv(&lock, m).unwrap_err();
        assert!(matches!(err, LockError::Timeout { waited, .. } if waited == Duration::ZERO));
        assert_eq!(other.held_count(), 0);
    }

    #[test]
    fn lv_deadline_times_out_and_preserves_prior_holds() {
        let (t, site) = table();
        let a = SemLock::new(t.clone());
        let b = SemLock::new(t.clone());
        let m = t.select(site, &[Value(3)]);
        let mut holder = Txn::new();
        holder.lv(&b, m);
        let mut txn = Txn::new();
        txn.lv(&a, m);
        let err = txn
            .lv_timeout(&b, m, Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }), "{err}");
        // The failed acquisition must not disturb what the txn already held.
        assert!(txn.holds(&a) && !txn.holds(&b));
        holder.unlock_all();
        txn.lv_timeout(&b, m, Duration::from_secs(5)).unwrap();
        assert!(txn.holds(&b));
    }

    #[test]
    fn op_guard_poisons_on_panic_only() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        // Normal completion: no poisoning.
        let mut txn = Txn::new();
        txn.lv(&lock, m);
        txn.with_op(&lock, || 1 + 1);
        assert!(!lock.is_poisoned());
        txn.unlock_all();
        // Panic inside the operation: instance poisoned, locks released by
        // the Txn drop, next acquisition rejected until clear_poison.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut txn = Txn::new();
            txn.lv(&lock, m);
            txn.with_op(&lock, || panic!("boom mid-operation"));
        }));
        assert!(r.is_err());
        assert!(lock.is_poisoned());
        assert_eq!(lock.total_holds(), 0, "panicking txn must not leak modes");
        let mut txn = Txn::new();
        assert!(txn.try_lv(&lock, m).unwrap_err().is_poisoned());
        lock.clear_poison();
        txn.try_lv(&lock, m).unwrap();
    }

    #[test]
    fn panic_between_operations_does_not_poison() {
        let (t, site) = table();
        let lock = SemLock::new(t.clone());
        let m = t.select(site, &[Value(1)]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut txn = Txn::new();
            txn.lv(&lock, m);
            // No op in flight: this models an abort before the first
            // mutation, which the paper's protocol survives rollback-free.
            panic!("boom between operations");
        }));
        assert!(r.is_err());
        assert!(!lock.is_poisoned());
        assert_eq!(lock.total_holds(), 0);
    }

    #[test]
    fn concurrent_transactions_on_commuting_modes_overlap() {
        let (t, site) = table();
        let lock = Arc::new(SemLock::new(t.clone()));
        let m1 = t.select(site, &[Value(0)]);
        let m2 = t.select(site, &[Value(1)]);
        assert_ne!(m1, m2);
        // Hold m1 in this thread, acquire m2 in another — must not block.
        let mut txn = Txn::new();
        txn.lv(&lock, m1);
        let l2 = lock.clone();
        let h = std::thread::spawn(move || {
            let mut t2 = Txn::new();
            t2.lv(&l2, m2);
            t2.held_count()
        });
        assert_eq!(h.join().unwrap(), 1);
    }
}
