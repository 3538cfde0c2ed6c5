//! Abort-retry with backoff, starvation escalation, and admission
//! throttling — the overload-control layer above the bounded acquisition
//! API.
//!
//! The paper's protocol treats aborts ([`LockError::Timeout`],
//! [`LockError::WouldDeadlock`], [`LockError::Poisoned`]) as *normal*
//! outcomes: the deadlock watchdog deliberately sacrifices the youngest
//! cycle member, and bounded waits give up at their deadline. Something has
//! to turn those aborts back into completed transactions without livelock.
//! This module is that layer, modeled on the fallback paths of hardware
//! transactional memory runtimes (abort → bounded randomized backoff →
//! pessimistic fallback):
//!
//! * [`RetryPolicy`] — bounded exponential backoff with **deterministic**
//!   splitmix64 jitter keyed by `(policy seed, txn id, attempt)`, so a
//!   chaos run replayed with the same seed and transaction ids produces
//!   byte-identical backoff schedules; per-error-kind retry budgets; and a
//!   starvation-escalation threshold.
//! * **Escalation** — after `escalate_after` aborts a transaction *ages*
//!   into a high-priority pessimistic acquisition: an effectively
//!   unbounded wait (`WaitBudget::Within(patience)`) that stays
//!   registered with the deadlock watchdog. A true `WaitBudget::Forever`
//!   wait never registers (see [`crate::acquire`]), so escalation opts
//!   into the watchdog by using a far deadline instead — the victim of
//!   repeated watchdog aborts keeps its small (old) txn id, which the
//!   watchdog's largest-id-aborts rule then spares, and a hang still
//!   times out at `patience` rather than wedging the process.
//! * [`AdmissionThrottle`] — a token-based concurrency cap with
//!   shed-on-saturation and a latched `Degraded` signal (cleared with
//!   hysteresis at half occupancy), so an open-loop arrival process
//!   cannot pile unbounded waiters onto an already saturated lock table.
//!
//! Decisions are pure: [`RetryPolicy::on_abort`] consults only the policy,
//! the per-transaction [`RetryState`], and the abort's [`LockError`] kind.
//! Wall-clock sleeping is the caller's job (e.g.
//! `interp::Interp::run_with_retry`), which keeps this module trivially
//! testable and replayable.

use crate::acquire::AcquireSpec;
use crate::error::LockError;
use crate::mode::ModeId;
use crate::sync::{AtomicU64, Ordering};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Per-error-kind retry budgets: how many aborts of each kind a single
/// logical transaction may absorb before the policy declares it
/// [`RetryOutcome::Exhausted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryBudgets {
    /// Budget for [`LockError::Timeout`] aborts.
    pub timeouts: u32,
    /// Budget for [`LockError::WouldDeadlock`] aborts.
    pub deadlocks: u32,
    /// Budget for [`LockError::Poisoned`] aborts. Poison clears only via
    /// external recovery (`clear_poison`), so this budget is small by
    /// default: retrying buys time for a recovery task, not forever.
    pub poisoned: u32,
}

impl Default for RetryBudgets {
    fn default() -> RetryBudgets {
        RetryBudgets {
            timeouts: 24,
            deadlocks: 24,
            poisoned: 6,
        }
    }
}

/// What the policy decided after one abort.
///
/// `#[non_exhaustive]`: future contention-management strategies (e.g.
/// cooperative yield-to-elder, or queue-position hints) may add variants;
/// downstream matches keep a wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RetryOutcome {
    /// Re-run the transaction after sleeping for the given backoff (already
    /// jittered; deterministic given the policy seed, txn id and attempt).
    RetryAfter(Duration),
    /// Re-run the transaction *escalated*: acquisitions should switch to
    /// the high-priority pessimistic spec ([`RetryPolicy::escalated_spec`]).
    /// Once escalated, a transaction stays escalated.
    Escalate,
    /// The abort kind's retry budget is spent; give up and surface the
    /// error to the caller.
    Exhausted,
    /// The error kind is not retryable at all (e.g.
    /// [`LockError::UnlockUnderflow`], which is a caller bug, or an
    /// unknown future variant).
    Fatal,
}

/// Mutable per-logical-transaction retry bookkeeping, threaded through
/// [`RetryPolicy::on_abort`] across attempts.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetryState {
    attempts: u32,
    timeouts: u32,
    deadlocks: u32,
    poisoned: u32,
    escalated: bool,
}

impl RetryState {
    /// Fresh state for a new logical transaction.
    pub fn new() -> RetryState {
        RetryState::default()
    }

    /// Aborted attempts so far (not counting the in-flight one).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Has this transaction aged into the escalated acquisition path?
    pub fn escalated(&self) -> bool {
        self.escalated
    }
}

/// The retry policy: backoff shape, per-kind budgets, escalation threshold
/// and patience, and the jitter seed.
///
/// Construct with [`RetryPolicy::new`] (or [`RetryPolicy::from_env`]) and
/// refine with the builder methods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    base: Duration,
    cap: Duration,
    budgets: RetryBudgets,
    escalate_after: u32,
    patience: Duration,
    seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new(0)
    }
}

impl RetryPolicy {
    /// A policy with the default shape: backoff windows doubling from
    /// 50 µs to a 5 ms cap, default [`RetryBudgets`], escalation after 6
    /// aborts with 30 s of escalated patience, jitter keyed by `seed`.
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_micros(50),
            cap: Duration::from_millis(5),
            budgets: RetryBudgets::default(),
            escalate_after: 6,
            patience: Duration::from_secs(30),
            seed,
        }
    }

    /// Set the first backoff window (windows double per attempt).
    pub fn backoff_base(mut self, base: Duration) -> RetryPolicy {
        self.base = base.max(Duration::from_nanos(1));
        self
    }

    /// Cap every backoff window at `cap`.
    pub fn backoff_cap(mut self, cap: Duration) -> RetryPolicy {
        self.cap = cap.max(Duration::from_nanos(1));
        self
    }

    /// Replace the per-error-kind retry budgets.
    pub fn budgets(mut self, budgets: RetryBudgets) -> RetryPolicy {
        self.budgets = budgets;
        self
    }

    /// Escalate to the high-priority pessimistic path after `n` aborts
    /// (`u32::MAX` disables escalation).
    pub fn escalate_after(mut self, n: u32) -> RetryPolicy {
        self.escalate_after = n.max(1);
        self
    }

    /// How long an escalated acquisition is willing to wait. Effectively
    /// "forever with a watchdog": far longer than any backoff, but still a
    /// real deadline so a wedged peer cannot hang the process.
    pub fn patience(mut self, patience: Duration) -> RetryPolicy {
        self.patience = patience.max(Duration::from_millis(1));
        self
    }

    /// The escalated patience (see [`RetryPolicy::patience`]).
    pub fn patience_budget(&self) -> Duration {
        self.patience
    }

    /// The jitter seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide what to do about one abort. Pure: mutates only `st`, never
    /// sleeps. The caller sleeps on [`RetryOutcome::RetryAfter`] and
    /// switches to [`RetryPolicy::escalated_spec`] acquisitions after
    /// [`RetryOutcome::Escalate`].
    ///
    /// `txn` is the id of the attempt that just aborted; keying the jitter
    /// by it (rather than by wall clock) is what keeps chaos runs
    /// replayable — see [`RetryPolicy::backoff`].
    pub fn on_abort(&self, st: &mut RetryState, txn: u64, err: &LockError) -> RetryOutcome {
        st.attempts = st.attempts.saturating_add(1);
        let (count, budget) = match err {
            LockError::Timeout { .. } => {
                st.timeouts += 1;
                (st.timeouts, self.budgets.timeouts)
            }
            LockError::WouldDeadlock { .. } => {
                st.deadlocks += 1;
                (st.deadlocks, self.budgets.deadlocks)
            }
            LockError::Poisoned { .. } => {
                st.poisoned += 1;
                (st.poisoned, self.budgets.poisoned)
            }
            // UnlockUnderflow is a caller bug, and unknown future kinds
            // are by definition outside this policy's model.
            _ => return RetryOutcome::Fatal,
        };
        if count > budget {
            return RetryOutcome::Exhausted;
        }
        if st.escalated || st.attempts >= self.escalate_after {
            st.escalated = true;
            return RetryOutcome::Escalate;
        }
        RetryOutcome::RetryAfter(self.backoff(txn, st.attempts))
    }

    /// The jittered backoff before attempt `attempt + 1` (1-based: the
    /// first abort passes `attempt == 1`). The window doubles per attempt
    /// from `base`, capped at `cap`; the jitter draws uniformly from
    /// `[window/2, window]` via a splitmix64 hash of
    /// `(seed, txn, attempt)` — a pure function, so identical coordinates
    /// give identical backoffs on every replay.
    pub fn backoff(&self, txn: u64, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let window = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap)
            .max(Duration::from_nanos(1));
        let half = window / 2;
        let span = (window - half).as_nanos() as u64;
        let h = mix(self.seed, txn, attempt as u64);
        half + Duration::from_nanos(if span == 0 { 0 } else { h % (span + 1) })
    }

    /// The acquisition spec an escalated transaction uses: a high-priority
    /// pessimistic wait — `WaitBudget::Within(patience)` with the
    /// watchdog armed. This is the module's "`Forever` with watchdog
    /// opt-in": a true `Forever` wait never registers with the watchdog
    /// (see [`crate::acquire`]), so escalation substitutes a deadline far
    /// beyond any backoff while keeping cycle detection live. The
    /// escalated transaction's old (small) id means the largest-id-aborts
    /// rule breaks any cycle it joins at some *other* member once its
    /// peers carry later ids — i.e. the starving elder finally wins.
    pub fn escalated_spec(&self, mode: ModeId) -> AcquireSpec {
        AcquireSpec::new(mode).timeout(self.patience)
    }

    /// Build a policy from the `SEMLOCK_RETRY` environment variable, a
    /// comma-separated `key=value` list applied over [`RetryPolicy::new`]
    /// with the given seed. Keys: `base_us`, `cap_us`, `timeouts`,
    /// `deadlocks`, `poisoned`, `escalate_after`, `patience_ms`, `seed`.
    /// Unknown keys and malformed values are ignored (a knob, not a
    /// config language).
    pub fn from_env(seed: u64) -> RetryPolicy {
        let mut p = RetryPolicy::new(seed);
        let Ok(s) = std::env::var("SEMLOCK_RETRY") else {
            return p;
        };
        for kv in s.split(',') {
            let mut it = kv.splitn(2, '=');
            let (Some(k), Some(v)) = (it.next(), it.next()) else {
                continue;
            };
            let Ok(n) = v.trim().parse::<u64>() else {
                continue;
            };
            match k.trim() {
                "base_us" => p.base = Duration::from_micros(n.max(1)),
                "cap_us" => p.cap = Duration::from_micros(n.max(1)),
                "timeouts" => p.budgets.timeouts = n as u32,
                "deadlocks" => p.budgets.deadlocks = n as u32,
                "poisoned" => p.budgets.poisoned = n as u32,
                "escalate_after" => p.escalate_after = (n as u32).max(1),
                "patience_ms" => p.patience = Duration::from_millis(n.max(1)),
                "seed" => p.seed = n,
                _ => {}
            }
        }
        p
    }
}

/// SplitMix64-based mixing of the jitter coordinates (same finalizer as
/// [`crate::fault`], so retry jitter and fault decisions draw from
/// independent but equally well-distributed streams).
fn mix(seed: u64, txn: u64, attempt: u64) -> u64 {
    let mut x = 0x243F6A8885A308D3u64 ^ splitmix64(seed);
    x ^= splitmix64(txn.wrapping_mul(0x9E3779B97F4A7C15) ^ x);
    x ^= splitmix64(attempt ^ x);
    x
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Admission throttle
// ---------------------------------------------------------------------------

/// Result of one [`AdmissionThrottle::admit`] call.
///
/// `#[non_exhaustive]`: a future throttle may add e.g. a `Queued` variant.
#[non_exhaustive]
#[derive(Debug)]
pub enum ThrottleDecision<'a> {
    /// Admitted; drop the permit when the transaction finishes (success
    /// *or* failure) to return the token.
    Admitted(ThrottlePermit<'a>),
    /// The throttle is saturated: the request is shed. The caller must
    /// count the shed separately from completions/failures — shed work was
    /// never attempted.
    Shed,
}

/// A token-based concurrency cap with shed-on-saturation, modeled on the
/// fallback-path governors of HTM runtimes: when every token is out, new
/// arrivals are *shed* (rejected immediately) instead of queued, and a
/// latched `Degraded` signal tells operators the system hit saturation.
/// The signal clears with hysteresis once occupancy drains to half the
/// cap, so a throttle oscillating at the boundary doesn't flap.
#[derive(Debug)]
pub struct AdmissionThrottle {
    cap: u64,
    in_flight: AtomicU64,
    degraded: AtomicBool,
    sheds: AtomicU64,
    admitted: AtomicU64,
}

impl AdmissionThrottle {
    /// A throttle admitting at most `cap` concurrent transactions.
    pub fn new(cap: u64) -> AdmissionThrottle {
        AdmissionThrottle {
            cap: cap.max(1),
            in_flight: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            sheds: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        }
    }

    /// Try to take a token. Never blocks: saturation sheds.
    pub fn admit(&self) -> ThrottleDecision<'_> {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                self.degraded.store(true, Ordering::Relaxed);
                self.sheds.fetch_add(1, Ordering::Relaxed);
                crate::telemetry::count_shed();
                return ThrottleDecision::Shed;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return ThrottleDecision::Admitted(ThrottlePermit { throttle: self });
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// The concurrency cap.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Tokens currently out.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Requests shed since construction.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Requests admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Has the throttle hit saturation without yet draining back below
    /// half the cap? Latched by a shed, cleared by a permit release that
    /// brings occupancy to ≤ `cap / 2`.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// RAII token from [`AdmissionThrottle::admit`]; returning it (by drop)
/// may clear the `Degraded` latch once occupancy has drained.
#[derive(Debug)]
pub struct ThrottlePermit<'a> {
    throttle: &'a AdmissionThrottle,
}

impl Drop for ThrottlePermit<'_> {
    fn drop(&mut self) {
        let was = self.throttle.in_flight.fetch_sub(1, Ordering::Release);
        if was.saturating_sub(1) <= self.throttle.cap / 2 {
            self.throttle.degraded.store(false, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeout_err() -> LockError {
        LockError::Timeout {
            instance: 1,
            mode: ModeId(0),
            waited: Duration::ZERO,
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = RetryPolicy::new(42);
        let b = RetryPolicy::new(42);
        for txn in [0u64, 7, 1 << 40] {
            for attempt in 1..24u32 {
                let d = a.backoff(txn, attempt);
                assert_eq!(d, b.backoff(txn, attempt), "replay divergence");
                // Window doubles from base, capped; jitter ∈ [w/2, w].
                let w = a
                    .base
                    .saturating_mul(1 << attempt.saturating_sub(1).min(20))
                    .min(a.cap);
                assert!(d >= w / 2 && d <= w, "attempt {attempt}: {d:?} vs {w:?}");
            }
        }
        // Different seeds / txns actually jitter.
        let c = RetryPolicy::new(43);
        let differs = (1..50u32)
            .filter(|&i| a.backoff(9, i) != c.backoff(9, i))
            .count();
        assert!(differs > 0, "seed had no effect on jitter");
    }

    #[test]
    fn budgets_exhaust_per_kind() {
        let p = RetryPolicy::new(0)
            .budgets(RetryBudgets {
                timeouts: 2,
                deadlocks: 24,
                poisoned: 1,
            })
            .escalate_after(u32::MAX);
        let mut st = RetryState::new();
        assert!(matches!(
            p.on_abort(&mut st, 1, &timeout_err()),
            RetryOutcome::RetryAfter(_)
        ));
        assert!(matches!(
            p.on_abort(&mut st, 2, &timeout_err()),
            RetryOutcome::RetryAfter(_)
        ));
        assert_eq!(
            p.on_abort(&mut st, 3, &timeout_err()),
            RetryOutcome::Exhausted
        );
        // Budgets are per kind: a poisoned abort on a fresh state has its
        // own (smaller) budget.
        let mut st = RetryState::new();
        assert!(matches!(
            p.on_abort(&mut st, 1, &LockError::Poisoned { instance: 3 }),
            RetryOutcome::RetryAfter(_)
        ));
        assert_eq!(
            p.on_abort(&mut st, 2, &LockError::Poisoned { instance: 3 }),
            RetryOutcome::Exhausted
        );
    }

    #[test]
    fn escalation_latches_after_threshold() {
        let p = RetryPolicy::new(0).escalate_after(3);
        let mut st = RetryState::new();
        assert!(matches!(
            p.on_abort(&mut st, 1, &timeout_err()),
            RetryOutcome::RetryAfter(_)
        ));
        assert!(matches!(
            p.on_abort(&mut st, 2, &timeout_err()),
            RetryOutcome::RetryAfter(_)
        ));
        assert_eq!(
            p.on_abort(&mut st, 3, &timeout_err()),
            RetryOutcome::Escalate
        );
        assert!(st.escalated());
        // Once escalated, stays escalated (no backoff demotion).
        assert_eq!(
            p.on_abort(&mut st, 4, &timeout_err()),
            RetryOutcome::Escalate
        );
    }

    #[test]
    fn underflow_is_fatal() {
        let p = RetryPolicy::new(0);
        let mut st = RetryState::new();
        let e = LockError::UnlockUnderflow {
            instance: 1,
            mode: ModeId(0),
        };
        assert_eq!(p.on_abort(&mut st, 1, &e), RetryOutcome::Fatal);
    }

    #[test]
    fn escalated_spec_is_bounded_with_watchdog() {
        let p = RetryPolicy::new(0).patience(Duration::from_secs(5));
        let spec = p.escalated_spec(ModeId(2));
        assert!(spec.watchdog, "escalation must keep the watchdog armed");
        assert!(
            spec.wait == crate::acquire::WaitBudget::Within(Duration::from_secs(5)),
            "escalation uses a far bound, not a true Forever"
        );
    }

    #[test]
    fn throttle_sheds_at_cap_and_degrades_with_hysteresis() {
        let t = AdmissionThrottle::new(2);
        let p1 = match t.admit() {
            ThrottleDecision::Admitted(p) => p,
            _ => panic!("token 1 refused"),
        };
        let p2 = match t.admit() {
            ThrottleDecision::Admitted(p) => p,
            _ => panic!("token 2 refused"),
        };
        assert!(matches!(t.admit(), ThrottleDecision::Shed));
        assert!(t.is_degraded(), "shed must latch Degraded");
        assert_eq!(t.sheds(), 1);
        assert_eq!(t.in_flight(), 2);
        // Draining to cap/2 clears the latch.
        drop(p1);
        assert!(!t.is_degraded(), "half-occupancy clears Degraded");
        drop(p2);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.admitted(), 2);
    }

    #[test]
    fn from_env_parses_knobs() {
        // Process-env test: guard against parallel tests by using the
        // documented precedence only on a private key round-trip.
        std::env::set_var(
            "SEMLOCK_RETRY",
            "base_us=10, cap_us=100, timeouts=3, escalate_after=2, patience_ms=250, bogus=9, seed=77",
        );
        let p = RetryPolicy::from_env(1);
        std::env::remove_var("SEMLOCK_RETRY");
        assert_eq!(p.base, Duration::from_micros(10));
        assert_eq!(p.cap, Duration::from_micros(100));
        assert_eq!(p.budgets.timeouts, 3);
        assert_eq!(p.escalate_after, 2);
        assert_eq!(p.patience, Duration::from_millis(250));
        assert_eq!(p.seed(), 77);
    }
}
