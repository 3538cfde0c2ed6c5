use super::ordering as ord;
use super::word::ConflictSet;
use super::{Acquire, Mech, Wait, PROBE_INTERVAL};
use crate::sync::{AtomicU32, Ordering};
use std::time::Instant;

impl Mech {
    /// Is any conflicting mode currently held? (Fig. 20 lines 3–4 / 6–7;
    /// wide representation only.)
    ///
    /// Ordering: SeqCst, and genuinely so. In the blocking release
    /// protocol the waiter performs `waiters.fetch_add` *then* loads the
    /// counters here, while the releaser performs `counts.fetch_sub` *then*
    /// loads `waiters` — the classic store-buffering shape. If either side
    /// could reorder its two accesses, the waiter might read a stale
    /// positive count while the releaser reads a stale zero waiter count,
    /// and the wakeup would be lost. All four accesses are SeqCst so the
    /// single total order forbids that outcome. (The admission words avoid
    /// this entirely by keeping counts and the waiter bit in one word.)
    #[inline]
    pub(super) fn conflicted_wide(counts: &[AtomicU32], cs: ConflictSet<'_>) -> bool {
        cs.locals()
            .iter()
            .any(|&c| counts[c as usize].load(ord::WIDE_CONFLICT_LOAD) > 0)
    }

    /// One admission attempt on the wide counters: check-then-increment
    /// under the internal mutex, no waiter registration.
    pub(super) fn try_admit_wide(
        &self,
        counts: &[AtomicU32],
        local: u32,
        cs: ConflictSet<'_>,
    ) -> bool {
        let _guard = self.internal.lock();
        if Self::conflicted_wide(counts, cs) {
            return false;
        }
        // Ordering: Relaxed — the increment is published to other
        // admitters by the internal mutex (their checks run under it
        // too), and releasers observe it through the atomic RMW in
        // `release_wide`, which always sees the latest value in the
        // counter's modification order.
        counts[local as usize].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Park on the internal condvar until admitted.
    pub(super) fn park_wide(&self, counts: &[AtomicU32], local: u32, cs: ConflictSet<'_>) {
        let mut guard = self.internal.lock();
        loop {
            // Register as a waiter *before* the check so that an
            // unlocker that decrements after our check is guaranteed to
            // observe us and notify. Ordering: SeqCst — see
            // `conflicted_wide` for the store-buffering argument this
            // participates in. (Audited: `wide.waiter.rmw`.)
            self.waiters.fetch_add(1, ord::WIDE_WAITER_RMW);
            if !Self::conflicted_wide(counts, cs) {
                self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                break;
            }
            self.cond.wait(&mut guard);
            self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
        }
        // Ordering: Relaxed — see `try_admit_wide`.
        counts[local as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Bounded form of [`Mech::park_wide`]: waits in [`PROBE_INTERVAL`]
    /// slices with deadline checks and watchdog probes between slices.
    pub(super) fn park_deadline_wide(
        &self,
        counts: &[AtomicU32],
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        let mut guard = self.internal.lock();
        loop {
            // SeqCst: store-buffering pair with `release_wide` — see
            // `conflicted_wide`. (Audited: `wide.waiter.rmw`.)
            self.waiters.fetch_add(1, ord::WIDE_WAITER_RMW);
            if !Self::conflicted_wide(counts, cs) {
                self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                // Ordering: Relaxed — see `try_admit_wide`.
                counts[local as usize].fetch_add(1, Ordering::Relaxed);
                break Acquire::Acquired;
            }
            let now = Instant::now();
            if now >= deadline {
                self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                break Acquire::TimedOut;
            }
            let slice = PROBE_INTERVAL.min(deadline - now);
            self.cond.wait_for(&mut guard, slice);
            self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
            // As on the stack path: deadline before probe, with a final
            // admit try (we hold `internal`, so the check-then-increment
            // is the audited `try_admit_wide` admission).
            if Instant::now() >= deadline {
                break if !Self::conflicted_wide(counts, cs) {
                    // Ordering: Relaxed — see `try_admit_wide`.
                    counts[local as usize].fetch_add(1, Ordering::Relaxed);
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

    /// Wide release: checked decrement, then notify if a waiter is
    /// registered. `false` on a refused underflow.
    pub(super) fn release_wide(&self, counts: &[AtomicU32], local: u32) -> bool {
        // Checked decrement via CAS, mirroring the word path: a double
        // unlock is refused without ever publishing a transient wrapped
        // value. (The previous `fetch_sub`-then-restore made u32::MAX
        // momentarily visible to concurrent `conflicted_wide` readers,
        // which could spuriously park an admissible acquirer until the
        // restore landed.)
        let c = &counts[local as usize];
        let mut cur = c.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            // Ordering: SeqCst on the successful decrement — Release
            // alone pairs with the Acquire-or-stronger loads in
            // `conflicted_wide` for data visibility, but this RMW is also
            // the first half of the store-buffering pair with the
            // `waiters` load below (see `conflicted_wide`), which needs
            // the total SeqCst order. (Audited: `wide.release.rmw`.)
            match c.compare_exchange_weak(cur, cur - 1, ord::WIDE_RELEASE_RMW, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // Ordering: SeqCst — second half of the store-buffering pair
        // (decrement-then-read-waiters vs the waiter's
        // register-then-read-counts). (Audited: `wide.waiters.load`.)
        if self.waiters.load(ord::WIDE_WAITERS_LOAD) > 0 {
            // Serialize with waiters' register-then-check so the notify
            // cannot slip between their check and their wait.
            let _g = self.internal.lock();
            self.cond.notify_all();
        }
        true
    }
}
