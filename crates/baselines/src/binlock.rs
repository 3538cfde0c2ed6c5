//! A plain binary lock with explicit `lock`/`unlock` (no guard object),
//! used to implement the paper's *2PL* baseline: one standard exclusive
//! lock per ADT instance, acquired with the same ordered two-phase
//! discipline as the semantic locks (§6: "the 2PL synchronization was
//! implemented by using the output of Section 3 — instead of locking
//! operations of ADT instance A, we acquire a Java lock that protects A").

use parking_lot::{Condvar, Mutex};

/// An exclusive lock whose acquire and release may happen in different
/// scopes (and, for the benchmark harness, different program points).
#[derive(Default)]
pub struct BinaryLock {
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Default)]
struct State {
    held: bool,
    /// Threads blocked in [`BinaryLock::lock`]. `unlock` notifies only when
    /// this is non-zero: an unconditional `notify_one` is a futex wake per
    /// release, which made the uncontended 2PL/Manual baselines read ~230 ns
    /// against ~85 ns for the semantic lock.
    waiters: u32,
}

impl BinaryLock {
    /// New, unlocked.
    pub fn new() -> BinaryLock {
        BinaryLock::default()
    }

    /// Acquire, blocking while held.
    pub fn lock(&self) {
        let mut st = self.state.lock();
        while st.held {
            st.waiters += 1;
            self.cv.wait(&mut st);
            st.waiters -= 1;
        }
        st.held = true;
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> bool {
        let mut st = self.state.lock();
        if st.held {
            false
        } else {
            st.held = true;
            true
        }
    }

    /// Release. Panics if not held.
    pub fn unlock(&self) {
        let mut st = self.state.lock();
        assert!(st.held, "unlock of unheld BinaryLock");
        st.held = false;
        // The count is read under the mutex a waiter holds from its
        // `held` check until `wait` releases it, so a waiter that saw
        // `held` is counted here.
        if st.waiters > 0 {
            self.cv.notify_one();
        }
    }

    /// Whether currently held (diagnostic only — racy by nature).
    pub fn is_locked(&self) -> bool {
        self.state.lock().held
    }

    /// Threads currently blocked in [`BinaryLock::lock`] (diagnostic only).
    pub fn waiters(&self) -> u32 {
        self.state.lock().waiters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn basic_lock_unlock() {
        let l = BinaryLock::new();
        l.lock();
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn mutual_exclusion_counter() {
        let l = Arc::new(BinaryLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = l.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    l.lock();
                    // Non-atomic read-modify-write protected by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    l.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4_000);
    }

    #[test]
    fn uncontended_unlock_sees_no_waiter() {
        // `unlock` notifies iff the count it reads is non-zero; with one
        // thread it must read zero every time, so no wake is issued.
        let l = BinaryLock::new();
        for _ in 0..1_000 {
            l.lock();
            assert_eq!(l.waiters(), 0);
            l.unlock();
            assert_eq!(l.waiters(), 0);
        }
    }

    #[test]
    fn unlock_wakes_a_blocked_locker() {
        let l = Arc::new(BinaryLock::new());
        l.lock();
        let t = {
            let l = l.clone();
            std::thread::spawn(move || {
                l.lock();
                l.unlock();
            })
        };
        // Release only once the other thread is counted as blocked — the
        // case in which skipping the notify would strand it.
        while l.waiters() == 0 {
            std::thread::yield_now();
        }
        l.unlock();
        t.join().unwrap();
        assert!(!l.is_locked());
        assert_eq!(l.waiters(), 0);
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn unlock_unheld_panics() {
        BinaryLock::new().unlock();
    }
}
