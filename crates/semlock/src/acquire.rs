//! The unified acquisition request: one options struct behind which every
//! entry point — `lv`, `try_lv`, `lv_deadline`, `lv_timeout`, and the
//! standalone `SemLock` variants — is a thin wrapper.
//!
//! PRs 2–3 grew the acquisition surface to eight overlapping methods, each
//! hard-wiring one combination of wait budget and watchdog behaviour.
//! [`AcquireSpec`] names those axes explicitly:
//!
//! * **mode** — the locking mode to take (always required);
//! * **wait budget** — wait forever, wait until a deadline, wait at most a
//!   duration, or don't wait at all ([`WaitBudget`]);
//! * **watchdog** — whether a *bounded* wait registers with the deadlock
//!   watchdog while parked. Unbounded waits never register (exactly as
//!   `lv` never did): with no deadline there is no probe slice to register
//!   from, and opting a `Forever` wait into the watchdog would change
//!   `lv`'s semantics, which the wrappers must preserve.
//!
//! ```ignore
//! use semlock::{AcquireSpec, WaitBudget};
//! use std::time::Duration;
//!
//! let spec = AcquireSpec::new(mode).timeout(Duration::from_millis(50));
//! match txn.acquire(&lock, &spec) {
//!     Ok(()) => { /* section body */ }
//!     Err(e) => { /* timeout / poison / deadlock, all structured */ }
//! }
//! ```
//! (Snippet elided from doctests: `mode`, `txn` and `lock` come from a
//! synthesized table; see `Txn::acquire` for a runnable example.)

use crate::mode::ModeId;
use std::time::{Duration, Instant};

/// How long an acquisition is willing to wait for conflicting modes to
/// drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum WaitBudget {
    /// Wait until admission is legal, however long that takes. This is the
    /// paper's semantics (`lv`) and the default.
    #[default]
    Forever,
    /// Wait until the given instant, then give up with
    /// [`crate::error::LockError::Timeout`].
    Until(Instant),
    /// Wait at most this long, then give up with
    /// [`crate::error::LockError::Timeout`]. The duration runs from the
    /// moment the acquisition first finds a conflicting mode held, so an
    /// acquisition that is admitted at once never reads the clock.
    Within(Duration),
    /// Never wait: a conflicted admission fails immediately with a
    /// zero-wait [`crate::error::LockError::Timeout`] (`try_lv`).
    DontWait,
}

/// A complete description of one acquisition request. Build with
/// [`AcquireSpec::new`] and refine with the builder methods; the struct is
/// `#[non_exhaustive]`, so construct it through the builders rather than
/// literally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct AcquireSpec {
    /// The locking mode to acquire.
    pub mode: ModeId,
    /// The wait budget (default: [`WaitBudget::Forever`]).
    pub wait: WaitBudget,
    /// Whether a bounded wait registers with the deadlock watchdog while
    /// parked (default: `true`). Irrelevant — and ignored — for
    /// [`WaitBudget::Forever`] and [`WaitBudget::DontWait`], neither of
    /// which ever reaches a probe slice.
    pub watchdog: bool,
}

impl AcquireSpec {
    /// An unbounded acquisition of `mode` — equivalent to what `lv` does.
    pub fn new(mode: ModeId) -> AcquireSpec {
        AcquireSpec {
            mode,
            wait: WaitBudget::Forever,
            watchdog: true,
        }
    }

    /// Bound the wait by an absolute deadline.
    pub fn deadline(mut self, deadline: Instant) -> AcquireSpec {
        self.wait = WaitBudget::Until(deadline);
        self
    }

    /// Bound the wait by a duration, counted from the start of the wait
    /// (see [`WaitBudget::Within`]).
    pub fn timeout(mut self, timeout: Duration) -> AcquireSpec {
        self.wait = WaitBudget::Within(timeout);
        self
    }

    /// Refuse to wait at all (`try_lv`).
    pub fn no_wait(mut self) -> AcquireSpec {
        self.wait = WaitBudget::DontWait;
        self
    }

    /// Opt a bounded wait out of deadlock-watchdog registration. The wait
    /// still times out at its deadline; it just never participates in
    /// cycle detection (nor can it be chosen as a cycle's abort victim).
    pub fn no_watchdog(mut self) -> AcquireSpec {
        self.watchdog = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let m = ModeId(3);
        let s = AcquireSpec::new(m);
        assert_eq!(s.wait, WaitBudget::Forever);
        assert!(s.watchdog);

        let d = Instant::now() + Duration::from_secs(1);
        let s = AcquireSpec::new(m).deadline(d).no_watchdog();
        assert_eq!(s.wait, WaitBudget::Until(d));
        assert!(!s.watchdog);

        let s = AcquireSpec::new(m).no_wait();
        assert_eq!(s.wait, WaitBudget::DontWait);

        // timeout() keeps the duration: no clock is read to build a spec.
        let s = AcquireSpec::new(m).timeout(Duration::from_millis(10));
        assert_eq!(s.wait, WaitBudget::Within(Duration::from_millis(10)));
        assert!(s.watchdog);
    }
}
